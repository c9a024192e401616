"""Command-line interface.

Subcommands: synth, fit, eval, split, grid, coldstart, consistency,
majority-vote, tradeoff, batch-study, each a row of COMMANDS that names the
flags its body reads; its subparser takes those and no others. Every run
writes machine-readable CSV into --out and prints a short human summary;
exit status 0 on success, 1 with a one-line diagnostic on bad input, and 2
with argparse's usage error on a flag the command does not take.
"""

from __future__ import annotations

import argparse
import logging
import math
import statistics
import sys
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .data import (LOSS_KINDS, SCHEDULES, SIGN_CONVENTIONS, FactorModel, Hyperparams,
                   lazy_triplets, predict_many)
from .experiments import (
    SplitSpec,
    SyntheticSpec,
    cold_start_split,
    consistency_eval,
    distrust_tradeoff_run,
    fit_and_score,
    grid_search,
    majority_vote_eval,
    split_ratings,
    synth_generate,
)
from .fileio import (
    IdMap,
    load_dataset,
    load_id_map,
    load_model,
    load_ratings_with_maps,
    save_id_map,
    save_model,
    save_ratings,
    save_social,
    write_csv,
)
from .metrics import evaluate_predictions, left_sum, mae_rmse
from .neighborhood import VARIANTS, build_propagated_sets, nb_predict_many
from .optimize import STOP_DIVERGENCE, STOP_MAX_ITERS

SOCIAL_FOR_METHOD = {
    "mf": "none",
    "mf-t": "trust-pull",
    "mf-d": "distrust-push",
    "mf-td": "triplet-margin",
}


# argparse keywords of every flag; each command's row in COMMANDS names the
# flags its body reads, and its subparser takes those and no others
FLAGS = {
    "--seed": dict(type=int, default=0),
    "--out": dict(required=True, help="output directory"),
    "--ratings": dict(required=True, help="ratings TSV file"),
    "--social": dict(help="signed social TSV (user, user, 1|-1)"),
    "--trust": dict(help="trust edges TSV (2 or 3 columns)"),
    "--distrust": dict(help="distrust edges TSV (2 or 3 columns)"),
    "--model": dict(required=True, help="model file from fit (id maps read from its directory)"),
    "--n": dict(type=int, default=200),
    "--m": dict(type=int, default=150),
    "--rank": dict(type=int, default=3),
    "--clusters": dict(type=int, default=3),
    "--density": dict(type=float, default=0.2),
    "--noise": dict(type=float, default=0.1),
    "--trust-edges": dict(type=int, default=300),
    "--distrust-edges": dict(type=int, default=300),
    "--item-low": dict(type=int, default=1),
    "--item-high": dict(type=int, default=5),
    "--method": dict(default="mf-td", choices=(*SOCIAL_FOR_METHOD, *VARIANTS)),
    "--methods": dict(default="mf,mf-td", help="comma-separated method list"),
    "--optimizer": dict(choices=("gd", "sgd")),
    "--k": dict(type=int, default=10),
    "--lambda-u": dict(type=float, default=0.1),
    "--lambda-v": dict(type=float, default=0.1),
    "--lambda-s": dict(type=float, default=1.0),
    "--alpha": dict(type=float, default=1.0),
    "--beta": dict(type=float, default=1.0),
    "--eta": dict(type=float, default=0.01),
    "--schedule": dict(default="constant", choices=SCHEDULES),
    "--batch-size": dict(type=int, default=32),
    "--epochs": dict(type=int, default=200),
    "--loss": dict(default="hinge", choices=LOSS_KINDS),
    "--sign-convention": dict(default="figure1", choices=SIGN_CONVENTIONS),
    "--no-clamp": dict(action="store_true", help="evaluate with raw dot products"),
    "--p": dict(type=int, help="trust propagation depth"),
    "--q": dict(type=int, help="distrust propagation depth"),
    "--train-frac": dict(type=float, default=0.9),
    "--repeats": dict(type=int, default=5),
    "--patience": dict(type=int, help="stop when validation RMSE, on a tenth of the training "
                                      "side held out, has not improved for this many iterations"),
    "--val-frac": dict(type=float, default=0.1,
                       help="fraction of the training side held out for validation"),
    "--lambda-s-grid": dict(required=True, help="comma-separated values"),
    "--lambda-v-grid": dict(help="comma-separated values"),
    "--lambda-u-grid": dict(help="comma-separated values"),
    "--cold-frac": dict(type=float, default=0.3),
    "--relation": dict(default="trust", choices=("trust", "distrust")),
    "--holdout-frac": dict(type=float, default=0.3),
    "--trust-keep": dict(type=float, default=0.9),
    "--distrust-fracs": dict(default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"),
    "--batch-sizes": dict(default="1,8,64"),
}
# flag -> (lo, hi): its value must lie strictly between them, or with hi None
# be at least lo; run_cli checks a command's bounded flags before its body
BOUNDS = {"--train-frac": (0.0, 1.0), "--val-frac": (0.0, 1.0), "--cold-frac": (0.0, 1.0),
          "--holdout-frac": (0.0, 1.0), "--repeats": (1, None), "--patience": (0, None)}
DATA = ("--ratings", "--social", "--trust", "--distrust")
# what a GD fit of the margin model reads; FIT adds what the other social
# terms and SGD read
MARGIN = ("--k", "--lambda-u", "--lambda-v", "--lambda-s", "--eta", "--schedule", "--epochs",
          "--loss", "--sign-convention", "--no-clamp")
FIT = ("--optimizer", *MARGIN, "--alpha", "--beta", "--batch-size")


def _hyperparams(args, method):
    if method not in SOCIAL_FOR_METHOD:
        raise ValueError(f"{method} is not a factorization method")
    # the fields set by the flag of their name; a command without --alpha,
    # --beta or --batch-size fits no term that reads it
    named = ("k", "lambda_u", "lambda_v", "lambda_s", "schedule", "epochs", "loss",
             "sign_convention", "alpha", "beta", "batch_size")
    return Hyperparams(eta0=args.eta, clamp_predictions=not args.no_clamp,
                       social=SOCIAL_FOR_METHOD[method],
                       **{name: getattr(args, name) for name in named if name in args})


def _load_bundle(args):
    return load_dataset(args.ratings, social_path=args.social, trust_path=args.trust,
                        distrust_path=args.distrust)


def _require_graph(args):
    """(ratings, graph) of the command's data; one error line without a graph."""
    bundle = _load_bundle(args)
    if bundle.graph is None:
        raise ValueError(f"{args.command} needs a social graph (--social/--trust/--distrust)")
    return bundle.ratings, bundle.graph


def _mean_std_rows(rows, label, numeric_from):
    """Summary rows: one mean and one std row over the numeric tail columns
    of one or more rows. The std of a column holding inf or nan is nan."""
    means, stds = [], []
    for col in range(numeric_from, len(rows[0])):
        values = [row[col] for row in rows]
        means.append(left_sum(values) / len(values))
        stds.append(statistics.pstdev(values) if all(map(math.isfinite, values)) else math.nan)
    pad = [""] * (numeric_from - 1)
    return [[label + "-mean"] + pad + means, [label + "-std"] + pad + stds]


def _warn_if_stopped(report, label, seed, epochs):
    if report.stop_reason != STOP_MAX_ITERS:
        done = report.records[-1].iteration if report.records else 0
        print(f"warning: {label} fit (seed {seed}) stopped by {report.stop_reason} "
              f"after {done} of {epochs} iterations", file=sys.stderr)


def _scorer(graph, args, method, patience=None):
    """score(train, test, seed) -> (model, (MAE, RMSE)) of one method, its flags
    checked and warned about once. The model is None for an nb method and for a
    diverged fit (its last finite model is not the fitted point). A trust variant
    builds its propagated sets once, on the first split where a test user has
    training ratings; without one, as on a cold-start split, every prediction
    is the user-mean fallback, whatever the pool."""
    if (method == "nb" or method not in VARIANTS) and (args.p, args.q) != (None, None):
        print(f"warning: propagation depths ignored for {method}", file=sys.stderr)
    if method in VARIANTS:
        for flag, value in (("optimizer", args.optimizer), ("patience", patience)):
            if value is not None:
                print(f"warning: {flag} ignored for {method}", file=sys.stderr)
        p, q = (1 if depth is None else depth for depth in (args.p, args.q))
        if method != "nb" and graph is None:
            raise ValueError(f"{method} needs a social graph")
        if method != "nb" and min(p, q) < 1:
            raise ValueError("propagation depth must be at least 1")
        pool = cache(lambda: build_propagated_sets(graph, p, q))

        def score(train, test, seed):
            sets = pool() if method != "nb" and train.user_counts[test.users].any() else None
            pred = nb_predict_many(train, None, sets, test.users, test.items,
                                   "nb" if sets is None else method)
            return None, evaluate_predictions(test, pred, clamp=False)
        return score
    hp = _hyperparams(args, method)
    store = None if graph is None else lazy_triplets(graph)

    def score(train, test, seed):
        model, report, scores = fit_and_score(train, test, store, hp, args.optimizer or "gd",
                                              seed, patience)
        _warn_if_stopped(report, method, seed, hp.epochs)
        return None if report.stop_reason == STOP_DIVERGENCE else model, scores
    return score


def _value_list(name, raw, what, convert=float):
    """The values of a comma-separated list flag, blank entries skipped; one
    error line when one does not convert, or the list is empty or repeats."""
    try:
        values = [convert(tok.strip()) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values or len(set(values)) < len(values):
        raise ValueError(f"{name} must {what}, got {raw!r}")
    return values


def _positive_int(token):
    if not token.isdecimal() or int(token) < 1:
        raise ValueError(token)
    return int(token)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_synth(args, out):
    spec = SyntheticSpec(
        n=args.n, m=args.m, rank=args.rank, clusters=args.clusters,
        density=args.density, noise_sigma=args.noise,
        n_trust=args.trust_edges, n_distrust=args.distrust_edges,
        seed=args.seed, item_low=args.item_low, item_high=args.item_high,
    )
    ratings, graph, (u_star, v_star) = synth_generate(spec)
    width_u = len(str(args.n))
    width_i = len(str(args.m))
    user_map = IdMap(f"u{idx:0{width_u}d}" for idx in range(args.n))
    item_map = IdMap(f"i{idx:0{width_i}d}" for idx in range(args.m))
    save_ratings(out / "ratings.tsv", ratings, user_map, item_map)
    save_social(out / "social.tsv", graph, user_map)
    save_id_map(out / "user_ids.tsv", user_map)
    save_id_map(out / "item_ids.tsv", item_map)
    save_model(FactorModel(u_star, v_star, spec.rank, args.seed), out / "planted.bin")
    write_csv(out / "synth.csv",
              ["users", "items", "ratings", "trust_edges", "distrust_edges", "seed"],
              [[args.n, args.m, ratings.nnz, graph.trust_count, graph.distrust_count, args.seed]])
    print(f"wrote {ratings.nnz} ratings, {graph.trust_count} trust and "
          f"{graph.distrust_count} distrust edges to {out}")


def _cmd_fit(args, out):
    bundle = _load_bundle(args)
    score = _scorer(bundle.graph, args, args.method, args.patience)
    spec, rows = SplitSpec(args.train_frac, args.seed, args.repeats), []
    for rep in range(args.repeats):
        model, (m, r) = score(*split_ratings(bundle.ratings, spec, rep), args.seed + rep)
        rows.append([args.method, rep, args.seed + rep, m, r])
    mean, std = _mean_std_rows(rows, args.method, 3)
    write_csv(out / "metrics.csv", ["method", "repetition", "seed", "mae", "rmse"],
              [*rows, mean, std])
    if model is not None:
        save_model(model, out / "model.bin")
        save_id_map(out / "user_ids.tsv", bundle.user_map)
        save_id_map(out / "item_ids.tsv", bundle.item_map)
    else:  # an earlier run's model left in --out would pass for this run's
        for name in ("model.bin", "user_ids.tsv", "item_ids.tsv"):
            (out / name).unlink(missing_ok=True)
        if args.method not in VARIANTS:
            print(f"warning: no model written: the {args.method} fit (seed {args.seed + rep}) "
                  "diverged", file=sys.stderr)
    print(f"{args.method}: MAE {mean[3]:.4f}  RMSE {mean[4]:.4f} "
          f"over {args.repeats} repetition(s); results in {out}")


def _cmd_eval(args, out):
    model_path = Path(args.model)
    model = load_model(model_path)
    user_map = load_id_map(model_path.parent / "user_ids.tsv")
    item_map = load_id_map(model_path.parent / "item_ids.tsv")
    users, items, values = load_ratings_with_maps(args.ratings, user_map, item_map)
    known = (users >= 0) & (users < model.n) & (items >= 0) & (items < model.m)
    skipped = int(np.count_nonzero(~known))
    if skipped:
        print(f"warning: skipped {skipped} pairs with ids unknown to the model", file=sys.stderr)
    if not known.any():
        raise ValueError("no evaluable pairs")
    pred = predict_many(model, users[known], items[known], clamp=not args.no_clamp)
    m, r = mae_rmse(values[known], pred)
    write_csv(out / "eval.csv", ["pairs", "skipped", "mae", "rmse"],
              [[len(pred), skipped, m, r]])
    print(f"MAE {m:.4f}  RMSE {r:.4f} on {len(pred)} pairs; results in {out}")


def _cmd_split(args, out):
    bundle = load_dataset(args.ratings)
    spec = SplitSpec(args.train_frac, args.seed, args.repeats)
    rows = []
    for rep in range(args.repeats):
        train, test = split_ratings(bundle.ratings, spec, rep)
        save_ratings(out / f"train_{rep}.tsv", train, bundle.user_map, bundle.item_map)
        save_ratings(out / f"test_{rep}.tsv", test, bundle.user_map, bundle.item_map)
        rows.append([rep, train.nnz, test.nnz])
    write_csv(out / "splits.csv", ["repetition", "train_ratings", "test_ratings"], rows)
    print(f"wrote {args.repeats} split(s) of {bundle.ratings.nnz} ratings to {out}")


def _cmd_grid(args, out):
    if bool(args.lambda_v_grid) == bool(args.lambda_u_grid):
        raise ValueError("provide exactly one of --lambda-v-grid / --lambda-u-grid")
    second_param = "lambda_v" if args.lambda_v_grid else "lambda_u"
    second_values = _value_list(f"--{second_param.replace('_', '-')}-grid",
                                args.lambda_v_grid or args.lambda_u_grid, "list distinct numbers")
    ls_values = _value_list("--lambda-s-grid", args.lambda_s_grid, "list distinct numbers")
    hp = _hyperparams(args, args.method)
    ratings, graph = _require_graph(args)
    train_all, _ = split_ratings(ratings, SplitSpec(args.train_frac, args.seed, 1))
    train, validation = split_ratings(
        train_all, SplitSpec(1.0 - args.val_frac, args.seed + 1, 1))
    result = grid_search(train, validation, lazy_triplets(graph), hp, second_param, ls_values,
                         second_values, optimizer=args.optimizer or "gd", seed=args.seed)
    for (ls, second, _), report in zip(result.rows, result.reports):
        _warn_if_stopped(report, f"{args.method} (lambda_s {ls:g}, {second_param} {second:g})",
                         args.seed, hp.epochs)
    write_csv(out / "grid.csv", ["lambda_s", second_param, "val_rmse"], result.rows)
    if result.best is None:
        (out / "grid_best.csv").unlink(missing_ok=True)  # an earlier run's best is not this one's
        print(f"no best (lambda_s, {second_param}): every fit diverged; surface in {out}")
        return
    write_csv(out / "grid_best.csv", ["lambda_s", second_param, "val_rmse"], [list(result.best)])
    print(f"best (lambda_s, {second_param}) = ({result.best[0]:g}, {result.best[1]:g}) "
          f"with validation RMSE {result.best[2]:.4f}; surface in {out}")


def _cmd_coldstart(args, out):
    methods = _value_list("--methods", args.methods, "name distinct methods", str)
    bundle = _load_bundle(args)
    splits = [cold_start_split(bundle.ratings, args.cold_frac, args.seed, rep)[:2]
              for rep in range(args.repeats)]
    if any(test.nnz == 0 for _, test in splits):
        raise ValueError("cold-start test side is empty")
    rows, lines = [], []
    for method in methods:
        score = _scorer(bundle.graph, args, method)
        method_rows = [[method, rep, args.seed + rep, *score(train, test, args.seed + rep)[1]]
                       for rep, (train, test) in enumerate(splits)]
        mean, std = _mean_std_rows(method_rows, method, 3)
        rows += [*method_rows, mean, std]
        lines.append(f"{method}: cold-user RMSE mean {mean[4]:.4f} "
                     f"over {args.repeats} repetition(s)")
    write_csv(out / "coldstart.csv", ["method", "repetition", "seed", "mae", "rmse"], rows)
    print(*lines, f"results in {out}", sep="\n")


def _cmd_consistency(args, out):
    bins = consistency_eval(*_require_graph(args), args.relation)
    header = ["bin", "users", "ndcg@10", "ndcg@20", "recall@10", "recall@20", "recall@40", "map"]
    rows = [[label, *map(agg.get, header[1:])] for label, agg in sorted(bins.items())]
    write_csv(out / "consistency.csv", header, rows)
    users = np.sum([agg["users"] for agg in bins.values()], dtype=np.int64)
    print(f"{args.relation} alignment over {users} users in {len(bins)} bins; results in {out}")


def _cmd_majority_vote(args, out):
    result = majority_vote_eval(_require_graph(args)[1], args.holdout_frac, args.seed)
    write_csv(out / "majority_vote.csv",
              ["setting", "relation", "share_pct", "vote_alignment_pct"],
              [list(row) for row in result.rows])
    acc = "n/a" if result.accuracy is None else f"{100 * result.accuracy:.2f}%"
    print(f"majority-vote accuracy {acc} over {result.n_heldout} held-out edges; results in {out}")


def _cmd_tradeoff(args, out):
    ratings, graph = _require_graph(args)
    hp = _hyperparams(args, "mf-td")
    fractions = _value_list("--distrust-fracs", args.distrust_fracs, "list distinct numbers")
    result = distrust_tradeoff_run(
        ratings, graph, hp, trust_keep=args.trust_keep,
        distrust_fractions=fractions, train_fraction=args.train_frac,
        optimizer=args.optimizer or "gd", seed=args.seed)
    for (method, trust, distrust, *_), report in zip(result.rows, result.reports):
        _warn_if_stopped(report, f"{method} (trust {trust:g}, distrust {distrust:g})",
                         args.seed, hp.epochs)
    write_csv(out / "tradeoff.csv",
              ["method", "trust_fraction", "distrust_fraction", "mae", "rmse"],
              [list(row) for row in result.rows])
    print(f"swept {len(fractions)} distrust fractions; results in {out}")


def _cmd_batch_study(args, out):
    sizes = _value_list("--batch-sizes", args.batch_sizes, "list distinct positive integers",
                        _positive_int)
    ratings, graph = _require_graph(args)
    train, test = split_ratings(ratings, SplitSpec(args.train_frac, args.seed, 1))
    hp = _hyperparams(args, "mf-td")
    store = lazy_triplets(graph)
    rows = []
    fits = [("gd", store.total, "gd", hp),
            *((f"sgd-{batch}", batch, "sgd", hp.replace(batch_size=batch)) for batch in sizes)]
    for label, batch, optimizer, fit_hp in fits:
        report = fit_and_score(train, test, store, fit_hp, optimizer, args.seed, validation=test)[1]
        _warn_if_stopped(report, label, args.seed, hp.epochs)
        rows += [[label, batch, rec.iteration, rec.val_rmse, rec.val_mae] for rec in report.records]
    write_csv(out / "batch_study.csv",
              ["optimizer", "batch_size", "iteration", "test_rmse", "test_mae"], rows)
    print(f"batch study with {len(sizes)} batch sizes; results in {out}")


class Command(NamedTuple):
    help: str
    flags: tuple  # FLAGS names the body reads besides --seed and --out
    run: Callable
    defaults: dict = {}  # dest -> default where the command's differs from FLAGS'; never mutated


COMMANDS = {
    "synth": Command("generate a synthetic dataset", (
        "--n", "--m", "--rank", "--clusters", "--density", "--noise", "--trust-edges",
        "--distrust-edges", "--item-low", "--item-high"), _cmd_synth),
    "fit": Command("train a model and report test accuracy", (
        *DATA, "--method", *FIT, "--p", "--q", "--train-frac", "--repeats", "--patience"),
        _cmd_fit, {"repeats": 1}),
    "eval": Command("evaluate a saved model on a ratings file",
                    ("--ratings", "--model", "--no-clamp"), _cmd_eval),
    "split": Command("write train/test splits", ("--ratings", "--train-frac", "--repeats"),
                     _cmd_split),
    "grid": Command("grid search over (lambda_s, lambda_v|lambda_u)", (
        *DATA, "--method", *FIT, "--train-frac", "--val-frac", "--lambda-s-grid",
        "--lambda-v-grid", "--lambda-u-grid"), _cmd_grid),
    "coldstart": Command("cold-start protocol", (
        *DATA, "--methods", *FIT, "--p", "--q", "--cold-frac", "--repeats"), _cmd_coldstart),
    "consistency": Command("alignment of similarity rankings with relations",
                           (*DATA, "--relation"), _cmd_consistency),
    "majority-vote": Command("relation prediction by neighbor vote",
                             (*DATA, "--holdout-frac"), _cmd_majority_vote),
    # the sweep fits mf-td and an mf-t reference row: --alpha is read, --beta never
    "tradeoff": Command("trade trust edges for distrust edges", (
        *DATA, "--optimizer", *MARGIN, "--alpha", "--batch-size", "--train-frac", "--trust-keep",
        "--distrust-fracs"), _cmd_tradeoff),
    "batch-study": Command("GD vs mini-batch SGD convergence",
                           (*DATA, *MARGIN, "--train-frac", "--batch-sizes"), _cmd_batch_study),
}


def build_parser(commands=COMMANDS):
    """The parser with one subparser per named command, each taking --seed,
    --out and the flags of its COMMANDS row, unabbreviated."""
    parser = argparse.ArgumentParser(
        prog="trustfactor",
        description="Rating prediction with signed social constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        command = COMMANDS[name]
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        for flag in ("--seed", "--out", *command.flags):
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(**command.defaults)
    return parser


def run_cli(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the named command's subparser alone; all of them for --help or a bad name
    parser = build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # the package's log warnings reach stderr in the CLI's own format
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    logging.getLogger("trustfactor").addHandler(handler)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # every seed a run uses, --seed + rep up to the last repetition, is an int64
        last = 2**63 - getattr(args, "repeats", 1)
        if not -2**63 <= args.seed <= last:
            raise ValueError(f"--seed must lie in [{-2**63}, {last}], got {args.seed}")
        for flag in filter(BOUNDS.__contains__, COMMANDS[args.command].flags):
            (lo, hi), value = BOUNDS[flag], getattr(args, flag[2:].replace("-", "_"))
            if hi is not None and not lo < value < hi:
                raise ValueError(f"{flag} must lie strictly between {lo} and {hi}, got {value}")
            if hi is None and value is not None and value < lo:
                raise ValueError(f"{flag} must be at least {lo}, got {value}")
        COMMANDS[args.command].run(args, out)
        return 0
    except (ValueError, OSError, IndexError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logging.getLogger("trustfactor").removeHandler(handler)


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
