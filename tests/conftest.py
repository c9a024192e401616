import math
import time

import numpy as np
import pytest

from trustfactor.data import SocialGraph, SparseRatings
from trustfactor.metrics import left_sum
from trustfactor.neighborhood import MIN_CO_RATED

SUITE_START = time.perf_counter()


def random_graph(rng, n_max=12, edge_prob=0.2):
    """Random signed graph honoring the no-self/no-contradiction invariants."""
    n = int(rng.integers(2, n_max + 1))
    trust, distrust = [], []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            draw = rng.random()
            if draw < edge_prob:
                trust.append((u, v))
            elif draw < 2 * edge_prob:
                distrust.append((u, v))
    return SocialGraph.from_edges(n, trust, distrust)


def random_ratings(rng, n, m, density=0.5, r_min=1.0, r_max=5.0):
    mask = rng.random((n, m)) < density
    users, items = np.nonzero(mask)
    values = rng.integers(int(r_min), int(r_max) + 1, size=len(users)).astype(float)
    return SparseRatings(n, m, users, items, values, r_min, r_max)


def pearson(ratings: SparseRatings, u: int, v: int, min_co: int = MIN_CO_RATED):
    """Pearson correlation over the co-rated items of u and v, with the means
    taken over that co-rated set and every sum a left fold in ascending item
    order. None when there are no co-ratings or fewer than `min_co`, or either
    side has zero variance. The scalar reference for build_similarity_cache,
    whose weights are bit-equal to it."""
    ru, rv = (dict(zip(ratings.items[rows].tolist(), ratings.values[rows].tolist()))
              for rows in (ratings.users == u, ratings.users == v))
    common = sorted(set(ru) & set(rv))
    if not common or len(common) < min_co:
        return None
    xs = [ru[i] for i in common]
    ys = [rv[i] for i in common]
    mx = left_sum(xs) / len(xs)
    my = left_sum(ys) / len(ys)
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    sx = left_sum(d * d for d in dx)
    sy = left_sum(d * d for d in dy)
    if sx == 0.0 or sy == 0.0:
        return None
    return left_sum(a * b for a, b in zip(dx, dy)) / math.sqrt(sx * sy)


def precision_recall_at_k(ranked, k: int):
    """(precision@k, recall@k) of a RankedList; recall is None when nothing
    is relevant."""
    if k < 1:
        raise ValueError("k must be at least 1")
    hits = sum(ranked.flags[:k])
    precision = hits / k
    if ranked.total_relevant == 0:
        return precision, None
    return precision, hits / ranked.total_relevant


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in report.nodeid:
                name = report.nodeid.split("::")[-1]
                lines.append((name, outcome.upper()))
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in sorted(lines):
        terminalreporter.write_line(f"{outcome:6s} {name}")
