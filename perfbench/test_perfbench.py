"""Tests of the benchmark itself: seeded inputs, output checks, missing probe
targets, the metric list in BENCHMARK.json, and the refusal to run without
the package source.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import Tally, check_eval, check_fit_metrics  # noqa: E402
from gen import InputSpec, write_inputs  # noqa: E402
from trustfactor.cli import run_cli  # noqa: E402

PLANTED = InputSpec(n=60, m=40, density=0.3, noise=0.3, clusters=3,
                    trust_edges=100, distrust_edges=100)
HUBS = InputSpec(n=300, m=50, density=0.05, noise=0.3, zipf_a=1.8, degree_cap=40)


def _bytes(out_dir):
    return {name: (out_dir / name).read_bytes() for name in ("ratings.tsv", "social.tsv")}


@pytest.mark.parametrize("spec", [PLANTED, HUBS], ids=["planted", "hubs"])
def test_equal_seeds_generate_identical_inputs(tmp_path, spec):
    runs = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        out = tmp_path / label
        out.mkdir()
        info = write_inputs(spec, seed, out)
        runs[label] = (_bytes(out), info["sha256"])
    assert runs["a"] == runs["b"]
    assert runs["a"][0]["ratings.tsv"] != runs["c"][0]["ratings.tsv"]
    assert runs["a"][1] != runs["c"][1]


def test_planted_inputs_have_exact_counts(tmp_path):
    info = write_inputs(PLANTED, 3, tmp_path)
    assert info["ratings"] == round(PLANTED.density * PLANTED.n * PLANTED.m)
    assert (info["trust_edges"], info["distrust_edges"]) == (100, 100)


@pytest.fixture
def fitted(tmp_path):
    """A tiny fit and eval through the CLI, on generated inputs."""
    write_inputs(PLANTED, 1, tmp_path)
    data = ["--ratings", str(tmp_path / "ratings.tsv"), "--social", str(tmp_path / "social.tsv")]
    assert run_cli(["fit", *data, "--method", "mf-td", "--epochs", "3", "--k", "3",
                    "--out", str(tmp_path / "fit")]) == 0
    assert run_cli(["eval", "--ratings", str(tmp_path / "ratings.tsv"),
                    "--model", str(tmp_path / "fit" / "model.bin"),
                    "--out", str(tmp_path / "eval")]) == 0
    pairs = round(PLANTED.density * PLANTED.n * PLANTED.m)
    return tmp_path / "fit" / "metrics.csv", tmp_path / "eval" / "eval.csv", pairs


def _error_rate(metrics_csv, eval_csv, pairs):
    tally = Tally()
    check_fit_metrics(tally, metrics_csv, "mf-td", 4.0)
    check_eval(tally, eval_csv, pairs)
    return tally.error_rate


def test_clean_outputs_pass(fitted):
    assert _error_rate(*fitted) == 0.0


def test_nan_in_metrics_csv_raises_error_rate(fitted):
    metrics_csv, eval_csv, pairs = fitted
    lines = metrics_csv.read_text().splitlines()
    fields = lines[1].split(",")
    fields[-1] = "nan"
    lines[1] = ",".join(fields)
    metrics_csv.write_text("\n".join(lines) + "\n")
    assert _error_rate(metrics_csv, eval_csv, pairs) > 0.0


def test_missing_rows_raise_error_rate(fitted):
    metrics_csv, eval_csv, pairs = fitted
    header, *_ = metrics_csv.read_text().splitlines()
    metrics_csv.write_text(header + "\n")
    assert _error_rate(metrics_csv, eval_csv, pairs) > 0.0


def test_short_eval_count_raises_error_rate(fitted):
    metrics_csv, eval_csv, pairs = fitted
    assert _error_rate(metrics_csv, eval_csv, pairs + 1) > 0.0


def test_unexported_probe_target_is_reported_missing(tmp_path):
    from tracing import Tracer
    from workloads import MISSING, Workload, per_layer_report, public

    workload = Workload(tmp_path, 0, Tally())
    workload.tracer = Tracer()
    out = {}
    with workload.guard(out, "objective.rating_grad_ms"):
        workload.probe(out, "objective.rating_grad_ms", lambda: public("no_such_function")())
    report, notes = per_layer_report(out)
    assert report["objective.rating_grad_ms"] == {"value": MISSING, "unit": "ms"}
    assert "not exported" in notes["objective.rating_grad_ms"]
    assert workload.tally.failed == 0


def test_probe_instance_fills_every_per_layer_metric(tmp_path):
    """A workload's traced run reports every per-layer metric with a measured,
    finite, non-zero value and nothing but value and unit, also for the
    functions the workload does not call itself."""
    from tracing import Tracer
    from workloads import PER_LAYER, Workload, per_layer_report

    workload = Workload(tmp_path, 3, Tally())
    workload.tracer = Tracer()
    out = {"fileio.load_dataset_s": 0.5}
    measured_there = workload.instance_probes(out)
    assert set(measured_there) == set(PER_LAYER) - {"fileio.load_dataset_s"}
    report, _ = per_layer_report(out, measured_there)
    assert list(report) == list(PER_LAYER)
    for name, entry in report.items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == PER_LAYER[name][0]
        assert isinstance(entry["value"], float) and entry["value"] > 0, name
    assert workload.tally.failed == 0


def test_calibration_scales_a_sample_by_the_reference_loop_around_it(tmp_path, monkeypatch):
    import time

    import workloads
    from calibrate import REFERENCE_S

    workload = workloads.Workload(tmp_path, 0, Tally())
    workload.calibrated = {}
    # the machine runs at half speed: the reference loop takes twice its time
    monkeypatch.setattr(workloads, "time_reference", lambda loops: 2 * REFERENCE_S)
    samples = {}
    workload.timed(samples, "fit_s", lambda: time.sleep(0.02))
    assert samples["fit_s"][0] >= 0.02
    assert workload.calibrated["fit_s"] == [pytest.approx(samples["fit_s"][0] / 2)]


def test_benchmark_json_lists_what_the_code_reports():
    from run import END_TO_END, WORKLOAD_NAMES
    from workloads import PER_LAYER, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gd-margin", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
    assert not (tmp_path / ".perfbench_work").exists()
