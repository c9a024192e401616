"""Traced memory of the fit and the prediction path, of a value-only hinge
pass, and the bytes the rating folds hold.

`python tests/test_memory.py` (with src on PYTHONPATH) prints the
`tracemalloc` peak of the `fit` command, `predict_many`, `evaluate_model` and
the `eval` command over a set of the gd-margin benchmark's size, and of a
`fit_sgd` over a lazy store on a hub graph of the sgd-lazy-hubs benchmark's
size: the same figure on every run, where the process's peak RSS moves with
the allocator.
"""

import contextlib
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trustfactor import data, objective
from trustfactor.cli import run_cli
from trustfactor.data import (BLOCK_ROWS, FactorModel, Hyperparams, SocialGraph, SparseRatings,
                              lazy_triplets, predict_many)
from trustfactor.fileio import load_dataset, load_model
from trustfactor.metrics import evaluate_model
from trustfactor.optimize import fit_sgd

# perfbench's gd-margin inputs (seed 1) and the flags of its fit
SYNTH = ["synth", "--seed", "1", "--n", "3000", "--m", "2000", "--rank", "3", "--clusters", "3",
         "--density", "0.03", "--noise", "0.3", "--trust-edges", "30000",
         "--distrust-edges", "30000"]
FIT = ["fit", "--seed", "1", "--method", "mf-td", "--optimizer", "gd", "--k", "10",
       "--eta", "0.012", "--schedule", "inverse-sqrt", "--epochs", "16"]


def traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_many_peak_is_its_output_and_two_blocks():
    """200k pairs at k = 10 hold the 1.6 MB output and two blocks' gathers,
    not two (N, k) gathers (33 MB when predict_many gathered every row at once)."""
    rng = np.random.default_rng(11)
    n, m, size, k = 4000, 2000, 200_000, 10
    model = FactorModel(rng.normal(size=(n, k)), rng.normal(size=(m, k)), k)
    users, items = rng.integers(0, n, size), rng.integers(0, m, size)
    pred, peak = traced_peak(lambda: predict_many(model, users, items))
    bound = pred.nbytes + 2 * (2 * BLOCK_ROWS * k * pred.itemsize)
    assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


def signed_graph(rng, n, edges):
    """`edges` distinct random non-self edges among n users, the first half
    trusted and the rest distrusted."""
    keys = rng.choice(n * n, 2 * edges, replace=False)
    keys = keys[keys // n != keys % n][:edges]
    pairs = np.column_stack((keys // n, keys % n))
    return SocialGraph.from_edges(n, pairs[:edges // 2], pairs[edges // 2:])


@pytest.mark.parametrize("spread", [0.01, 1.0])
def test_value_only_hinge_pass_forms_no_edge_by_factor_array(spread):
    """With 8 * BLOCK_ROWS edges per sign, the value pass holds each sign's
    lengths and counts and one block's rows, less than one (E, k) array of
    float64 beyond its two (E,) length arrays; it held three (E, k) arrays
    when it formed every difference row at once. A small spread makes every
    pair active, a wide one sends the pass through the sorted counts."""
    rng = np.random.default_rng(3)
    n, edges, k = 2000, 16 * BLOCK_ROWS, 32
    graph = signed_graph(rng, n, edges)
    U = rng.normal(0.0, spread, (n, k))
    hp = Hyperparams(k=k, social="triplet-margin", lambda_s=1.0)
    value, peak = traced_peak(lambda: objective._hinge_term(U, graph, hp))
    assert value[1] is None and np.isfinite(value[0])
    per_sign = edges // 2
    bound = per_sign * k * 8 + 2 * per_sign * 8
    assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


def fold_bytes(ratings):
    """Bytes of every array the ratings' two folds hold."""
    return sum(array.nbytes for fold in ratings.folds
               for array in (fold.order, fold.other, fold.values, fold.keys, fold.tail)
               if array is not None)


def test_folds_hold_at_most_24_bytes_per_rating_before_the_tail(monkeypatch):
    """Per rating, an int32 position and other index on each side and a float64
    rating on the by-user side: 24 bytes, plus 4 per key with ratings and 4 per
    tail entry, which only power-law counts make many. 40 with int64 indices."""
    rng = np.random.default_rng(5)
    n, m, nnz = 4000, 2000, 200_000
    keys = rng.choice(n * m, nnz, replace=False)
    args = (n, m, keys // m, keys % m, rng.integers(1, 6, nnz).astype(float))
    held = fold_bytes(SparseRatings(*args))
    assert held < 25 * nnz, f"{held / nnz:.2f} bytes per rating"
    monkeypatch.setattr(data, "FOLD_MIN_ROWS", nnz + 1)  # every entry in the tail
    held = fold_bytes(SparseRatings(*args))
    assert held == 32 * nnz + 4 * (n + m), f"{held / nnz:.2f} bytes per rating"


def quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli([str(arg) for arg in argv])
    if code:
        raise SystemExit(f"{argv[0]} exited {code}")


def gd_margin_peaks(root):
    """[(call, ratings, traced peak in bytes)]: the fit, then calls over every
    rating of the set."""
    synth, fit = root / "synth", root / "fit"
    quiet_cli([*SYNTH, "--out", synth])
    inputs = ["--ratings", synth / "ratings.tsv", "--social", synth / "social.tsv"]
    fit_peak = traced_peak(lambda: quiet_cli([*FIT, *inputs, "--out", fit]))[1]
    ratings = load_dataset(synth / "ratings.tsv").ratings
    model = load_model(fit / "model.bin")
    calls = (("predict_many", lambda: predict_many(model, ratings.users, ratings.items)),
             ("evaluate_model", lambda: evaluate_model(model, ratings)),
             ("eval command", lambda: quiet_cli(["eval", "--ratings", synth / "ratings.tsv",
                                                 "--model", fit / "model.bin",
                                                 "--out", root / "eval"])))
    return [("fit command", ratings.nnz, fit_peak),
            *((name, ratings.nnz, traced_peak(call)[1]) for name, call in calls)]


def hub_graph(rng, n, cap):
    """Zipf(1.8) out-degrees capped at `cap`, distinct targets, each edge's
    sign a fair coin: the few heaviest users carry most of the triplets."""
    degrees = np.minimum(rng.zipf(1.8, n), cap)
    sources = np.repeat(np.arange(n), degrees)
    targets = (sources + rng.integers(1, n, len(sources))) % n
    keys = np.unique(sources * n + targets)
    pairs = np.column_stack((keys // n, keys % n))
    trust = rng.random(len(pairs)) < 0.5
    return SocialGraph.from_edges(n, pairs[trust], pairs[~trust])


def sgd_hubs_peak():
    """(ratings, triplets, traced peak in bytes) of a fit_sgd over a lazy
    store with the sgd-lazy-hubs benchmark's sizes and flags."""
    rng = np.random.default_rng(1)
    n, m, nnz = 20_000, 4_000, 54_000
    keys = rng.choice(n * m, nnz, replace=False)
    ratings = SparseRatings(n, m, keys // m, keys % m, rng.integers(1, 6, nnz).astype(float))
    store = lazy_triplets(hub_graph(rng, n, 800))
    hp = Hyperparams(k=10, lambda_u=0.1, lambda_v=0.1, lambda_s=1.0, eta0=0.04,
                     batch_size=4096, epochs=30, social="triplet-margin")
    peak = traced_peak(lambda: fit_sgd(ratings, store, hp, seed=1, eval_every=30))[1]
    return ratings.nnz, store.total, peak


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(f"{'call':<16}{'ratings':>8}{'traced peak MB':>16}")
        for name, count, peak in gd_margin_peaks(Path(tmp)):
            print(f"{name:<16}{count:>8}{peak / 1e6:>16.2f}")
    count, triplets, peak = sgd_hubs_peak()
    print(f"{'fit_sgd (hubs)':<16}{count:>8}{peak / 1e6:>16.2f}   ({triplets} triplets)")
