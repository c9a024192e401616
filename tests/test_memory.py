"""Traced memory of the prediction path.

`python tests/test_memory.py` (with src on PYTHONPATH) prints the
`tracemalloc` peak of `predict_many`, `evaluate_model` and the `eval` command
over every rating of a set of the gd-margin benchmark's size: the same
figure on every run, where the process's peak RSS moves with the allocator.
"""

import contextlib
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from trustfactor.cli import run_cli
from trustfactor.data import BLOCK_ROWS, FactorModel, predict_many
from trustfactor.fileio import load_dataset, load_model
from trustfactor.metrics import evaluate_model

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


def quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli([str(arg) for arg in argv])
    if code:
        raise SystemExit(f"{argv[0]} exited {code}")


def gd_margin_peaks(root):
    """[(call, pairs, traced peak in bytes)] over every rating of the set."""
    synth, fit = root / "synth", root / "fit"
    quiet_cli([*SYNTH, "--out", synth])
    data = ["--ratings", synth / "ratings.tsv", "--social", synth / "social.tsv"]
    quiet_cli([*FIT, *data, "--out", fit])
    ratings = load_dataset(synth / "ratings.tsv").ratings
    model = load_model(fit / "model.bin")
    calls = (("predict_many", lambda: predict_many(model, ratings.users, ratings.items)),
             ("evaluate_model", lambda: evaluate_model(model, ratings)),
             ("eval command", lambda: quiet_cli(["eval", "--ratings", synth / "ratings.tsv",
                                                 "--model", fit / "model.bin",
                                                 "--out", root / "eval"])))
    return [(name, ratings.nnz, traced_peak(call)[1]) for name, call in calls]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(f"{'call':<16}{'pairs':>8}{'traced peak MB':>16}")
        for name, pairs, peak in gd_margin_peaks(Path(tmp)):
            print(f"{name:<16}{pairs:>8}{peak / 1e6:>16.2f}")
