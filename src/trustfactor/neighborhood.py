"""Memory-based baselines: Pearson similarity, trust/distrust propagation,
and the neighborhood predictors (plain, trust-limited, filtered, debugged)."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import SocialGraph, SparseRatings, _ranges

VARIANTS = ("nb", "nb-t", "nb-td-f", "nb-td-d")

MIN_CO_RATED = 3


def RatingTable(ratings: SparseRatings) -> SparseRatings:
    """The ratings themselves: nb_predict needs no table. perfbench/workloads.py
    still builds one by this name to time predictions."""
    return ratings


def pearson(ratings: SparseRatings, u: int, v: int, min_co: int = MIN_CO_RATED):
    """Pearson correlation over the co-rated items of u and v, with the means
    taken over that co-rated set. None when there are no co-ratings or fewer
    than `min_co`, or either side has zero variance. The scalar reference
    for build_similarity_cache, whose weights are bit-equal to it."""
    ru, rv = (dict(zip(ratings.items[rows].tolist(), ratings.values[rows].tolist()))
              for rows in (ratings.users == u, ratings.users == v))
    common = sorted(set(ru) & set(rv))
    if not common or len(common) < min_co:
        return None
    xs = [ru[i] for i in common]
    ys = [rv[i] for i in common]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    sx = sum(d * d for d in dx)
    sy = sum(d * d for d in dy)
    if sx == 0.0 or sy == 0.0:
        return None
    return sum(a * b for a, b in zip(dx, dy)) / math.sqrt(sx * sy)


@dataclass(eq=False)
class SimilarityCache:
    """Pearson weights of the co-rated user pairs, built once then read-only.

    pairs[t] = (u, v), u < v, ascending, is the t-th pair of users sharing
    co_counts[t] rated items, and pcc[t] their Pearson correlation, the
    cached weight, NaN where it is undefined or they share fewer than min_co.
    """

    pairs: np.ndarray
    co_counts: np.ndarray
    pcc: np.ndarray
    min_co: int

    @cached_property
    def weights(self) -> dict:
        """(u, v) with u < v -> cached weight."""
        cached = ~np.isnan(self.pcc)
        return dict(zip(map(tuple, self.pairs[cached].tolist()), self.pcc[cached].tolist()))

    @cached_property
    def _neighbors(self) -> dict:
        pairs = self.pairs[~np.isnan(self.pcc)]
        users, others = np.concatenate((pairs, pairs[:, ::-1])).T
        order = np.lexsort((others, users))
        heads, starts = np.unique(users[order], return_index=True)
        return dict(zip(heads.tolist(), map(np.ndarray.tolist, np.split(others[order], starts[1:]))))

    def weight(self, u, v):
        return self.weights.get((u, v) if u < v else (v, u))

    def neighbors(self, u):
        """Users with a cached similarity to u, in ascending index order."""
        return self._neighbors.get(u, [])


def build_similarity_cache(ratings: SparseRatings, min_co: int = MIN_CO_RATED) -> SimilarityCache:
    """Pearson correlation of every co-rated user pair in one array pass.

    Rater pairs are listed item by item and grouped by a stable sort, which
    keeps each pair's co-ratings in ascending item order; bincount adds in
    input order, so every per-pair sum runs in the order `pearson` takes and
    the weights are bit-equal to it. Memory grows with the number of
    (pair, item) co-ratings, the sum over items of raters squared.
    """
    users, values, offsets = ratings.by_item
    # entry t pairs with the later raters of its item, at t + 1 .. (item end) - 1
    later = np.repeat(offsets[1:], np.diff(offsets)) - np.arange(ratings.nnz) - 1
    second = _ranges(np.arange(1, ratings.nnz + 1), later)
    key = np.repeat(users, later) * ratings.n + users[second]
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.diff(key, prepend=-1) != 0
    keys = key[head]
    x, y = np.repeat(values, later)[order], values[second[order]]
    del order, second, key
    pid = np.cumsum(head) - 1
    counts = np.bincount(pid)
    x -= (np.bincount(pid, x) / counts)[pid]
    y -= (np.bincount(pid, y) / counts)[pid]
    sx, sy, sxy = np.bincount(pid, x * x), np.bincount(pid, y * y), np.bincount(pid, x * y)
    del x, y, pid
    pcc = np.full(len(keys), np.nan)
    defined = (sx != 0.0) & (sy != 0.0) & (counts >= min_co)
    pcc[defined] = sxy[defined] / np.sqrt(sx[defined] * sy[defined])
    return SimilarityCache(np.column_stack(np.divmod(keys, ratings.n)), counts, pcc, min_co)


def propagate_trust(graph: SocialGraph, p: int):
    """Breadth-first trust reachability to depth p; each user is admitted at
    its first (shortest) depth and never revisited, so cycles are harmless.
    Returns one set per user, never containing the user itself."""
    if p < 1:
        raise ValueError("propagation depth must be at least 1")
    targets, offsets = graph.trust_targets.tolist(), graph.trust_offsets.tolist()
    out = []
    for u in range(graph.n):
        seen = {u}
        frontier = deque([(u, 0)])
        reached = set()
        while frontier:
            node, depth = frontier.popleft()
            if depth == p:
                continue
            for v in targets[offsets[node]:offsets[node + 1]]:
                if v not in seen:
                    seen.add(v)
                    reached.add(v)
                    frontier.append((v, depth + 1))
        out.append(reached)
    return out


def propagate_distrust(graph: SocialGraph, q: int):
    """Distrusted set at depth q: users reached by a trust path of length
    0..q-1 followed by exactly one distrust edge. Distrust is terminal and is
    never chained."""
    if q < 1:
        raise ValueError("propagation depth must be at least 1")
    trust_reach = propagate_trust(graph, q - 1) if q > 1 else [set() for _ in range(graph.n)]
    targets, offsets = graph.distrust_targets.tolist(), graph.distrust_offsets.tolist()
    out = []
    for u in range(graph.n):
        distrusted = set()
        for v in (u, *trust_reach[u]):
            distrusted.update(targets[offsets[v]:offsets[v + 1]])
        distrusted.discard(u)
        out.append(distrusted)
    return out


@dataclass(frozen=True)
class PropagatedSets:
    """Per-user propagated trusted/distrusted sets plus the source graph."""

    graph: SocialGraph
    trusted: tuple
    distrusted: tuple
    p: int
    q: int


def build_propagated_sets(graph: SocialGraph, p: int = 1, q: int = 1) -> PropagatedSets:
    trusted = tuple(frozenset(s) for s in propagate_trust(graph, p))
    distrusted = tuple(frozenset(s) for s in propagate_distrust(graph, q))
    return PropagatedSets(graph, trusted, distrusted, p, q)


def neighbor_pool(sims: SimilarityCache, sets: PropagatedSets | None, u: int, variant: str):
    """Candidate neighbor pool for user u before the rated-item/positive-weight
    filters. Pools for the distrust variants are subsets of the trust pool."""
    if variant == "nb":
        return set(sims.neighbors(u))
    if sets is None:
        raise ValueError(f"variant {variant!r} needs propagated sets")
    if variant == "nb-t":
        return set(sets.trusted[u])
    if variant == "nb-td-f":
        return set(sets.trusted[u]) - set(sets.distrusted[u])
    if variant == "nb-td-d":
        # debugging: drop propagated admissions contradicted by a direct
        # distrust edge from u
        graph = sets.graph
        direct = graph.distrust_targets[graph.distrust_offsets[u]:graph.distrust_offsets[u + 1]]
        return set(sets.trusted[u]) - set(direct.tolist())
    raise ValueError(f"unknown variant {variant!r}")


def nb_predict(ratings: SparseRatings, sims: SimilarityCache, sets: PropagatedSets | None,
               u: int, i: int, variant: str = "nb"):
    """Mean-centered weighted prediction of item i for user u.

    Neighbors are pool members who rated i with positive cached similarity:
      prediction = mean(u) + sum w * (r_vi - mean(v)) / sum w.
    Falls back to the user mean on an empty pool, to the global mean when the
    user has no ratings, and clamps to the rating bounds.
    """
    if not 0 <= u < ratings.n:
        raise IndexError(f"user index {u} out of range")
    if not 0 <= i < ratings.m:
        raise IndexError(f"item index {i} out of range")
    raters, values, offsets = ratings.by_item
    column = dict(zip(raters[offsets[i]:offsets[i + 1]].tolist(),
                      values[offsets[i]:offsets[i + 1]].tolist()))
    pool = neighbor_pool(sims, sets, u, variant)
    num = 0.0
    den = 0.0
    for v in pool:
        rating = column.get(v)
        if rating is None:
            continue
        w = sims.weight(u, v)
        if w is None or w <= 0.0:
            continue
        num += w * (rating - float(ratings.user_means[v]))
        den += w
    value = float(ratings.user_means[u])  # the global mean for a user without ratings
    if den > 0.0:
        value += num / den
    return min(max(value, ratings.r_min), ratings.r_max)
