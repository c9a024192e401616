"""Output checks. Every operation and every check counts as one attempt; a
failed operation or a failed check counts as one failure, and
error_rate = failed / attempted."""

from __future__ import annotations

import csv
import math

import numpy as np

# documented CSV headers (README "CSV schemas")
COLUMNS = {
    "metrics.csv": ["method", "repetition", "seed", "mae", "rmse"],
    "eval.csv": ["pairs", "skipped", "mae", "rmse"],
    "consistency.csv": ["bin", "users", "ndcg@10", "ndcg@20", "recall@10",
                        "recall@20", "recall@40", "map"],
    "synth.csv": ["users", "items", "ratings", "trust_edges", "distrust_edges", "seed"],
}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)

    def operation(self, fn, what):
        """Run fn and return its result, or None (one failure) if it raises."""
        try:
            result = fn()
        except Exception as exc:  # a failing operation is recorded, not fatal
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None
        self.check(True, what)
        return result

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0


def read_csv(tally, path):
    """Rows of a CSV as dicts, or [] (and one failure) when it is unreadable
    or its header is not the documented one."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        tally.check(False, f"{path.name}: {exc}")
        return []
    header = rows[0] if rows else []
    if not tally.check(header == COLUMNS[path.name], f"{path.name}: header {header}"):
        return []
    return [dict(zip(header, row)) for row in rows[1:]]


def number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def check_fit_metrics(tally, path, method, r_range):
    """metrics.csv of a one-repetition fit: one data row for `method`, a
    finite RMSE within the rating range. Returns that RMSE (nan if absent)."""
    rows = [r for r in read_csv(tally, path) if r.get("method") == method]
    if not tally.check(len(rows) == 1, f"{path}: {len(rows)} rows for {method}"):
        return math.nan
    rmse = number(rows[0]["rmse"])
    mae = number(rows[0]["mae"])
    tally.check(math.isfinite(rmse) and 0.0 <= rmse <= r_range, f"{path}: rmse {rmse}")
    tally.check(math.isfinite(mae) and 0.0 <= mae <= r_range, f"{path}: mae {mae}")
    return rmse


def check_eval(tally, path, pairs):
    rows = read_csv(tally, path)
    if not tally.check(len(rows) == 1, f"{path}: {len(rows)} rows"):
        return
    row = rows[0]
    tally.check(number(row["pairs"]) == pairs and number(row["skipped"]) == 0,
                f"{path}: pairs {row['pairs']} skipped {row['skipped']}, expected {pairs} and 0")
    tally.check(math.isfinite(number(row["rmse"])), f"{path}: rmse {row['rmse']}")


def check_synth(tally, out_dir, trust, distrust):
    rows = read_csv(tally, out_dir / "synth.csv")
    if tally.check(len(rows) == 1, f"synth.csv: {len(rows)} rows"):
        tally.check(number(rows[0]["trust_edges"]) == trust
                    and number(rows[0]["distrust_edges"]) == distrust,
                    f"synth.csv: {rows[0]['trust_edges']}/{rows[0]['distrust_edges']} edges")
    signs = {"1": 0, "-1": 0}
    try:
        with open(out_dir / "social.tsv", encoding="utf-8") as handle:
            for line in handle:
                sign = line.rstrip("\n").rsplit("\t", 1)[-1]
                signs[sign] = signs.get(sign, 0) + 1
    except OSError as exc:
        tally.check(False, f"synth social.tsv: {exc}")
        return
    tally.check(signs == {"1": trust, "-1": distrust}, f"synth social.tsv: signs {signs}")


def check_consistency(tally, path):
    rows = read_csv(tally, path)
    users = sum(number(r["users"]) for r in rows)
    tally.check(rows and users > 0, f"{path}: {len(rows)} bins, {users} users")
    tally.check(all(math.isfinite(number(r["map"])) for r in rows), f"{path}: non-finite map")


def check_model(tally, model, what):
    tally.check(bool(np.all(np.isfinite(model.U)) and np.all(np.isfinite(model.V))),
                f"{what}: non-finite factors")
