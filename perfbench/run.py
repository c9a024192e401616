"""Benchmark entry point.

    python3 perfbench/run.py --workload gd-margin --seed 1 --seconds 36 --trace 0

Generates the workload's inputs from the seed, runs the workload's
once-per-run phases, then repeats passes until the next pass would end
after --seconds (at least two passes). Prints a table of every metric and,
as the last line, one JSON object: end-to-end metrics with --trace 0,
per-layer metrics of a traced run and probes with --trace 1. Exits 2
without a result when the package source is not next to this directory.
See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("gd-margin", "sgd-lazy-hubs", "nb-protocols")
MIN_PASSES = 2  # passes of a run even when they overrun --seconds
END_TO_END = {"setup_s": "s", "fit_s": "s", "total_s": "s", "test_rmse": "rating",
              "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    """HEAD of the checkout if it is a git work tree (read without running git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def percentile_summary(values):
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return statistics.median(ordered), f"- (n={n} < 11)"
    return statistics.median(ordered), f"p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.6g}"


def timing_table(samples, calibrated):
    lines = [f"  {'phase':<16} {'calibrated':>12}   {'raw':>12}   {'raw high':<22} samples"]
    for phase, values in samples.items():
        median, high = percentile_summary(values)
        lines.append(f"  {phase:<16} {statistics.median(calibrated[phase]):>12.6f} s "
                     f"{median:>12.6f} s {high:<22} n={len(values)}")
    return lines


def end_to_end(workload, calibrated):
    """End-to-end metrics. A timing is the median of its phase's calibrated
    samples (calibrate.py); fit_s sums the fit phases and total_s the
    phases of a pass, set-up included."""
    medians = {phase: statistics.median(v) for phase, v in calibrated.items()}
    per_pass = ["setup_s", *workload.phases]
    complete = all(phase in medians for phase in per_pass)
    rmse = [r for r in workload.test_rmse if math.isfinite(r)]  # a failed check reads nan
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": medians.get("setup_s"),
        "fit_s": sum(medians[p] for p in workload.phases if p.startswith("fit"))
        if complete else None,
        "total_s": sum(medians[p] for p in per_pass) if complete else None,
        "test_rmse": statistics.median(rmse) if rmse else None,
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run(args):
    import numpy as np
    import trustfactor
    from calibrate import REFERENCE_S, time_reference
    from checks import Tally
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, per_layer_report

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    workload = WORKLOADS[args.workload](work, args.seed, tally)
    workload.prepare()
    inputs = workload.inputs
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# env: python {platform.python_version()} numpy {np.__version__} "
          f"trustfactor {trustfactor.__version__} nproc {len(os.sched_getaffinity(0))} "
          + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS) + f" git {git_sha()}")
    print(f"# inputs: {inputs['ratings']} ratings, {inputs['trust_edges']} trust and "
          f"{inputs['distrust_edges']} distrust edges; sha256 "
          + " ".join(f"{k}={v[:16]}" for k, v in inputs["sha256"].items()))

    tally.operation(workload.setup, "warm-up setup")  # untimed: page cache, first calls
    samples = {}
    if args.trace:
        # one pass untraced and one traced, for the overhead; then the
        # once-per-run phase traced, and the probes
        workload.verify_inputs()
        workload.run_pass(samples)
        tracer = workload.tracer = Tracer()
        traced = {}
        workload.verify_inputs()
        with tracer.span("pass"):
            workload.run_pass(traced)
        overhead = sum(map(statistics.median, traced.values())) - sum(
            map(statistics.median, samples.values()))
        with tracer.span("once"):
            workload.run_once({})
        measured = {}
        with tracer.span("probes"):
            tally.operation(lambda: workload.probes(measured), "probes")
            on_probe_instance = tally.operation(
                lambda: workload.instance_probes(measured), "probe instance") or ()
        tracer.write(work / "trace.json")
        print("# tracing overhead (traced minus untraced raw time of one pass): "
              f"{overhead:+.4f} s")
        print("# self time by layer (traced pass and probes):")
        for layer, seconds in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<14} {seconds:>10.4f} s")
        metrics, notes = per_layer_report(measured, on_probe_instance)
        print("# per-layer metrics:")
        for name, entry in metrics.items():
            print(f"  {name:<34} {entry['value']:>12.6g} {entry['unit']:<6} {notes[name]}")
    else:
        workload.tracer = NullTracer()
        calibrated = workload.calibrated = {}
        time_reference()  # warm-up
        deadline = time.perf_counter() + args.seconds
        workload.verify_inputs()
        workload.run_once(samples)
        last = 0.0
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() + last <= deadline:
            workload.verify_inputs()
            start = time.perf_counter()
            workload.run_pass(samples)
            last = time.perf_counter() - start
            passes += 1
        print(f"# {passes} pass(es); medians of each phase, calibrated to a reference "
              f"loop of {REFERENCE_S} s, and raw:")
        for line in timing_table(samples, calibrated):
            print(line)
        metrics = end_to_end(workload, calibrated)
        for name, entry in metrics.items():
            print(f"  {name:<16} {entry['value']!s:>12} {entry['unit']}")
    workload.verify_inputs()
    print(f"# error_rate {tally.error_rate:.6g} ({tally.failed} failed of {tally.attempted})")
    for failure in tally.failures[:20]:
        print(f"#   failed: {failure}")
    missing_value = any(
        entry["value"] is None for name, entry in metrics.items() if name in END_TO_END)
    return {"correct": tally.failed == 0 and not missing_value, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "trustfactor" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'trustfactor'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
