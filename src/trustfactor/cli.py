"""Command-line interface.

Subcommands: synth, fit, eval, split, grid, coldstart, consistency,
majority-vote, tradeoff, batch-study. Every run writes machine-readable CSV
into --out and prints a short human summary; exit status 0 on success,
nonzero with a one-line diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

import numpy as np

from .data import FactorModel, Hyperparams, extract_triplets, predict_many
from .experiments import (
    SplitSpec,
    SyntheticSpec,
    cold_start_split,
    consistency_eval,
    distrust_tradeoff_run,
    evaluate_model,
    fit_method,
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
from .metrics import mae as mae_metric, rmse as rmse_metric
from .neighborhood import build_propagated_sets, build_similarity_cache, nb_predict
from .optimize import fit_sgd

MF_METHODS = ("mf", "mf-t", "mf-d", "mf-td")
NB_METHODS = ("nb", "nb-t", "nb-td-f", "nb-td-d")
SOCIAL_FOR_METHOD = {
    "mf": "none",
    "mf-t": "trust-pull",
    "mf-d": "distrust-push",
    "mf-td": "triplet-margin",
}


def _add_data_flags(parser, social=True):
    parser.add_argument("--ratings", required=True, help="ratings TSV file")
    if social:
        parser.add_argument("--social", help="signed social TSV (user, user, 1|-1)")
        parser.add_argument("--trust", help="trust edges TSV (2 or 3 columns)")
        parser.add_argument("--distrust", help="distrust edges TSV (2 or 3 columns)")


def _add_hyper_flags(parser):
    parser.add_argument("--method", default="mf-td", choices=MF_METHODS + NB_METHODS)
    parser.add_argument("--optimizer", default=None, choices=("gd", "sgd"))
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--lambda-u", type=float, default=0.1)
    parser.add_argument("--lambda-v", type=float, default=0.1)
    parser.add_argument("--lambda-s", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--eta", type=float, default=0.01)
    parser.add_argument("--schedule", default="constant", choices=("constant", "inverse-sqrt"))
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--loss", default="hinge", choices=("hinge", "logistic"))
    parser.add_argument("--sign-convention", default="figure1",
                        choices=("figure1", "paper-literal"))
    parser.add_argument("--no-clamp", action="store_true",
                        help="evaluate with raw dot products")
    parser.add_argument("--p", type=int, default=None, help="trust propagation depth")
    parser.add_argument("--q", type=int, default=None, help="distrust propagation depth")


def _common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trustfactor",
        description="Rating prediction with signed social constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _common(p)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--m", type=int, default=150)
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--clusters", type=int, default=3)
    p.add_argument("--density", type=float, default=0.2)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--trust-edges", type=int, default=300)
    p.add_argument("--distrust-edges", type=int, default=300)
    p.add_argument("--item-low", type=int, default=1)
    p.add_argument("--item-high", type=int, default=5)

    p = sub.add_parser("fit", help="train a model and report test accuracy")
    _common(p)
    _add_data_flags(p)
    _add_hyper_flags(p)
    p.add_argument("--train-frac", type=float, default=0.9)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--patience", type=int, default=None)

    p = sub.add_parser("eval", help="evaluate a saved model on a ratings file")
    _common(p)
    p.add_argument("--ratings", required=True)
    p.add_argument("--model", required=True, help="model file from fit (id maps read from its directory)")
    p.add_argument("--no-clamp", action="store_true")

    p = sub.add_parser("split", help="write train/test splits")
    _common(p)
    _add_data_flags(p, social=False)
    p.add_argument("--train-frac", type=float, default=0.9)
    p.add_argument("--repeats", type=int, default=5)

    p = sub.add_parser("grid", help="grid search over (lambda_s, lambda_v|lambda_u)")
    _common(p)
    _add_data_flags(p)
    _add_hyper_flags(p)
    p.add_argument("--train-frac", type=float, default=0.9)
    p.add_argument("--val-frac", type=float, default=0.1,
                   help="fraction of the training side held out for validation")
    p.add_argument("--lambda-s-grid", required=True, help="comma-separated values")
    p.add_argument("--lambda-v-grid", help="comma-separated values")
    p.add_argument("--lambda-u-grid", help="comma-separated values")

    p = sub.add_parser("coldstart", help="cold-start protocol")
    _common(p)
    _add_data_flags(p)
    _add_hyper_flags(p)
    p.add_argument("--cold-frac", type=float, default=0.3)
    p.add_argument("--methods", default="mf,mf-td", help="comma-separated method list")
    p.add_argument("--repeats", type=int, default=5)

    p = sub.add_parser("consistency", help="alignment of similarity rankings with relations")
    _common(p)
    _add_data_flags(p)
    p.add_argument("--relation", default="trust", choices=("trust", "distrust"))

    p = sub.add_parser("majority-vote", help="relation prediction by neighbor vote")
    _common(p)
    _add_data_flags(p)
    p.add_argument("--holdout-frac", type=float, default=0.3)

    p = sub.add_parser("tradeoff", help="trade trust edges for distrust edges")
    _common(p)
    _add_data_flags(p)
    _add_hyper_flags(p)
    p.add_argument("--train-frac", type=float, default=0.9)
    p.add_argument("--trust-keep", type=float, default=0.9)
    p.add_argument("--distrust-fracs",
                   default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")

    p = sub.add_parser("batch-study", help="GD vs mini-batch SGD convergence")
    _common(p)
    _add_data_flags(p)
    _add_hyper_flags(p)
    p.add_argument("--train-frac", type=float, default=0.9)
    p.add_argument("--batch-sizes", default="1,8,64")
    return parser


def _hyperparams(args, method):
    if method not in SOCIAL_FOR_METHOD:
        raise ValueError(f"{method} is not a factorization method")
    return Hyperparams(
        k=args.k,
        lambda_u=args.lambda_u,
        lambda_v=args.lambda_v,
        lambda_s=args.lambda_s,
        alpha=args.alpha,
        beta=args.beta,
        eta0=args.eta,
        schedule=args.schedule,
        batch_size=args.batch_size,
        epochs=args.epochs,
        loss=args.loss,
        sign_convention=args.sign_convention,
        clamp_predictions=not args.no_clamp,
        social=SOCIAL_FOR_METHOD[method],
    )


def _load_bundle(args):
    return load_dataset(args.ratings, social_path=getattr(args, "social", None),
                        trust_path=getattr(args, "trust", None),
                        distrust_path=getattr(args, "distrust", None))


def _require_graph(bundle, command):
    if bundle.graph is None:
        raise ValueError(f"{command} needs a social graph (--social/--trust/--distrust)")
    return bundle.graph


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _mean_std_rows(rows, label, numeric_from):
    """Summary rows: one mean and one std row over the numeric tail columns."""
    if not rows:
        return []
    means, stds = [], []
    for col in range(numeric_from, len(rows[0])):
        values = [row[col] for row in rows if row[col] is not None]
        means.append(sum(values) / len(values) if values else None)
        stds.append(statistics.pstdev(values) if len(values) > 1 else 0.0 if values else None)
    pad = [""] * (numeric_from - 1)
    return [[label + "-mean"] + pad + means, [label + "-std"] + pad + stds]


def _nb_eval(train, test, graph, variant, p, q):
    sims = build_similarity_cache(train)
    sets = None
    if variant != "nb":
        if graph is None:
            raise ValueError(f"{variant} needs a social graph")
        sets = build_propagated_sets(graph, p=1 if p is None else p, q=1 if q is None else q)
    pred = [nb_predict(train, sims, sets, int(u), int(i), variant)
            for u, i in zip(test.users, test.items)]
    pairs = np.column_stack((test.values, pred))
    return mae_metric(pairs), rmse_metric(pairs)


def _fit_one(train, test, graph, args, method, optimizer, seed, patience=None):
    if method in NB_METHODS:
        if optimizer is not None:
            print(f"warning: optimizer ignored for {method}", file=sys.stderr)
        return None, _nb_eval(train, test, graph, method, args.p, args.q)
    if args.p is not None or args.q is not None:
        print(f"warning: propagation depths ignored for {method}", file=sys.stderr)
    hp = _hyperparams(args, method)
    store = None if graph is None else extract_triplets(graph)
    model, _ = fit_method(train, store, hp, optimizer or "gd",
                          seed=seed, patience=patience)
    return model, evaluate_model(model, test, hp.clamp_predictions)


def _check_fraction(name, value, lo=0.0, hi=1.0):
    if not lo < value < hi:
        raise ValueError(f"{name} must lie strictly between {lo} and {hi}, got {value}")


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_synth(args):
    out = _outdir(args)
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
    return 0


def _cmd_fit(args):
    out = _outdir(args)
    _check_fraction("--train-frac", args.train_frac)
    bundle = _load_bundle(args)
    rows = []
    model = None
    for rep in range(args.repeats):
        train, test = split_ratings(
            bundle.ratings, SplitSpec(args.train_frac, args.seed, args.repeats), rep)
        model, (m, r) = _fit_one(train, test, bundle.graph, args, args.method,
                                 args.optimizer, args.seed + rep, args.patience)
        rows.append([args.method, rep, args.seed + rep, m, r])
    csv_rows = rows + _mean_std_rows(rows, args.method, 3)
    write_csv(out / "metrics.csv", ["method", "repetition", "seed", "mae", "rmse"], csv_rows)
    if model is not None:
        save_model(model, out / "model.bin")
        save_id_map(out / "user_ids.tsv", bundle.user_map)
        save_id_map(out / "item_ids.tsv", bundle.item_map)
    mean_mae = sum(r[3] for r in rows) / len(rows)
    mean_rmse = sum(r[4] for r in rows) / len(rows)
    print(f"{args.method}: MAE {mean_mae:.4f}  RMSE {mean_rmse:.4f} "
          f"over {args.repeats} repetition(s); results in {out}")
    return 0


def _cmd_eval(args):
    out = _outdir(args)
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
    pairs = np.column_stack((values[known], pred))
    m, r = mae_metric(pairs), rmse_metric(pairs)
    write_csv(out / "eval.csv", ["pairs", "skipped", "mae", "rmse"],
              [[len(pairs), skipped, m, r]])
    print(f"MAE {m:.4f}  RMSE {r:.4f} on {len(pairs)} pairs; results in {out}")
    return 0


def _cmd_split(args):
    out = _outdir(args)
    _check_fraction("--train-frac", args.train_frac)
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
    return 0


def _parse_values(raw):
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _cmd_grid(args):
    out = _outdir(args)
    _check_fraction("--train-frac", args.train_frac)
    _check_fraction("--val-frac", args.val_frac)
    if bool(args.lambda_v_grid) == bool(args.lambda_u_grid):
        raise ValueError("provide exactly one of --lambda-v-grid / --lambda-u-grid")
    second_param = "lambda_v" if args.lambda_v_grid else "lambda_u"
    second_values = _parse_values(args.lambda_v_grid or args.lambda_u_grid)
    ls_values = _parse_values(args.lambda_s_grid)
    bundle = _load_bundle(args)
    graph = _require_graph(bundle, "grid")
    train_all, _ = split_ratings(
        bundle.ratings, SplitSpec(args.train_frac, args.seed, 1))
    train, validation = split_ratings(
        train_all, SplitSpec(1.0 - args.val_frac, args.seed + 1, 1))
    hp = _hyperparams(args, args.method)
    store = extract_triplets(graph)
    result = grid_search(train, validation, store, hp, second_param,
                         ls_values, second_values,
                         optimizer=args.optimizer or "gd", seed=args.seed)
    write_csv(out / "grid.csv", ["lambda_s", second_param, "val_rmse"], result.rows)
    write_csv(out / "grid_best.csv", ["lambda_s", second_param, "val_rmse"], [list(result.best)])
    print(f"best (lambda_s, {second_param}) = ({result.best[0]:g}, {result.best[1]:g}) "
          f"with validation RMSE {result.best[2]:.4f}; surface in {out}")
    return 0


def _cmd_coldstart(args):
    out = _outdir(args)
    _check_fraction("--cold-frac", args.cold_frac)
    bundle = _load_bundle(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    rows = []
    for method in methods:
        for rep in range(args.repeats):
            train, test, _cold = cold_start_split(
                bundle.ratings, args.cold_frac, args.seed, rep)
            if test.nnz == 0:
                raise ValueError("cold-start test side is empty")
            _, (m, r) = _fit_one(train, test, bundle.graph, args, method,
                                 args.optimizer, args.seed + rep)
            rows.append([method, rep, args.seed + rep, m, r])
    csv_rows = []
    for method in methods:
        method_rows = [row for row in rows if row[0] == method]
        csv_rows += method_rows + _mean_std_rows(method_rows, method, 3)
    write_csv(out / "coldstart.csv",
              ["method", "repetition", "seed", "mae", "rmse"], csv_rows)
    for method in methods:
        vals = [row[4] for row in rows if row[0] == method]
        print(f"{method}: cold-user RMSE mean {sum(vals)/len(vals):.4f} "
              f"over {args.repeats} repetition(s)")
    print(f"results in {out}")
    return 0


def _cmd_consistency(args):
    out = _outdir(args)
    bundle = _load_bundle(args)
    graph = _require_graph(bundle, "consistency")
    result = consistency_eval(bundle.ratings, graph, args.relation)
    header = ["bin", "users", "ndcg@10", "ndcg@20", "recall@10", "recall@20", "recall@40", "map"]
    rows = [
        [label, agg["users"], agg["ndcg@10"], agg["ndcg@20"],
         agg["recall@10"], agg["recall@20"], agg["recall@40"], agg["map"]]
        for label, agg in sorted(result.bins.items())
    ]
    write_csv(out / "consistency.csv", header, rows)
    print(f"{args.relation} alignment over {sum(a['users'] for a in result.bins.values())} "
          f"users in {len(result.bins)} bins; results in {out}")
    return 0


def _cmd_majority_vote(args):
    out = _outdir(args)
    _check_fraction("--holdout-frac", args.holdout_frac)
    bundle = _load_bundle(args)
    graph = _require_graph(bundle, "majority-vote")
    result = majority_vote_eval(graph, args.holdout_frac, args.seed)
    write_csv(out / "majority_vote.csv",
              ["setting", "relation", "share_pct", "vote_alignment_pct"],
              [list(row) for row in result.rows])
    acc = "n/a" if result.accuracy is None else f"{100 * result.accuracy:.2f}%"
    print(f"majority-vote accuracy {acc} over {result.n_heldout} held-out edges; results in {out}")
    return 0


def _cmd_tradeoff(args):
    out = _outdir(args)
    _check_fraction("--train-frac", args.train_frac)
    if not 0.0 <= args.trust_keep <= 1.0:
        raise ValueError("--trust-keep must lie in [0, 1]")
    bundle = _load_bundle(args)
    graph = _require_graph(bundle, "tradeoff")
    hp = _hyperparams(args, "mf-td")
    fractions = _parse_values(args.distrust_fracs)
    result = distrust_tradeoff_run(
        bundle.ratings, graph, hp, trust_keep=args.trust_keep,
        distrust_fractions=fractions, train_fraction=args.train_frac,
        optimizer=args.optimizer or "gd", seed=args.seed)
    write_csv(out / "tradeoff.csv",
              ["method", "trust_fraction", "distrust_fraction", "mae", "rmse"],
              [list(row) for row in result.rows])
    print(f"swept {len(fractions)} distrust fractions; results in {out}")
    return 0


def _cmd_batch_study(args):
    out = _outdir(args)
    _check_fraction("--train-frac", args.train_frac)
    bundle = _load_bundle(args)
    graph = _require_graph(bundle, "batch-study")
    train, test = split_ratings(bundle.ratings, SplitSpec(args.train_frac, args.seed, 1))
    hp = _hyperparams(args, "mf-td")
    store = extract_triplets(graph)
    rows = []
    _, report = fit_method(train, store, hp, "gd", validation=test, seed=args.seed)
    for rec in report.records:
        rows.append(["gd", store.total, rec.iteration, rec.val_rmse, rec.val_mae])
    for batch in [int(b) for b in _parse_values(args.batch_sizes)]:
        hp_b = hp.replace(batch_size=batch)
        _, report = fit_sgd(train, store, hp_b, validation=test, seed=args.seed)
        for rec in report.records:
            rows.append([f"sgd-{batch}", batch, rec.iteration, rec.val_rmse, rec.val_mae])
    write_csv(out / "batch_study.csv",
              ["optimizer", "batch_size", "iteration", "test_rmse", "test_mae"], rows)
    print(f"batch study with {len(_parse_values(args.batch_sizes))} batch sizes; results in {out}")
    return 0


COMMANDS = {
    "synth": _cmd_synth,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "split": _cmd_split,
    "grid": _cmd_grid,
    "coldstart": _cmd_coldstart,
    "consistency": _cmd_consistency,
    "majority-vote": _cmd_majority_vote,
    "tradeoff": _cmd_tradeoff,
    "batch-study": _cmd_batch_study,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
