"""Memory-based baselines: Pearson similarity, trust/distrust propagation,
and the neighborhood predictors (plain, trust-limited, filtered, debugged)."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .data import SocialGraph, SparseRatings

VARIANTS = ("nb", "nb-t", "nb-td-f", "nb-td-d")

MIN_CO_RATED = 3


@dataclass(frozen=True)
class RatingTable:
    """Dictionary views of a SparseRatings for neighbor lookups."""

    ratings: SparseRatings

    @cached_property
    def by_user(self):
        table = [dict() for _ in range(self.ratings.n)]
        for u, i, r in zip(self.ratings.users, self.ratings.items, self.ratings.values):
            table[u][int(i)] = float(r)
        return table

    @cached_property
    def raters_of(self):
        table = [[] for _ in range(self.ratings.m)]
        for u, i in zip(self.ratings.users, self.ratings.items):
            table[int(i)].append(int(u))
        return table

    def user_mean(self, u):
        return float(self.ratings.user_means[u])

    @property
    def global_mean(self):
        return self.ratings.global_mean


def _pcc_from_dicts(ru: dict, rv: dict, min_co: int):
    common = sorted(set(ru) & set(rv))
    if len(common) < min_co:
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


def pearson(ratings: SparseRatings, u: int, v: int, min_co: int = MIN_CO_RATED):
    """Pearson correlation over the co-rated items of u and v, with the means
    taken over that co-rated set. None when there are fewer than `min_co`
    co-ratings or either side has zero variance."""
    table = ratings if isinstance(ratings, RatingTable) else RatingTable(ratings)
    return _pcc_from_dicts(table.by_user[u], table.by_user[v], min_co)


@dataclass
class SimilarityCache:
    """Sparse symmetric map of Pearson weights, built once then read-only."""

    weights: dict
    co_counts: dict
    min_co: int
    _neighbors: dict = field(default_factory=dict)

    @staticmethod
    def _key(u, v):
        return (u, v) if u < v else (v, u)

    def weight(self, u, v):
        return self.weights.get(self._key(u, v))

    def co_count(self, u, v):
        return self.co_counts.get(self._key(u, v), 0)

    def neighbors(self, u):
        """Users with a cached similarity to u, in ascending index order."""
        return self._neighbors.get(u, [])


def build_similarity_cache(ratings: SparseRatings, min_co: int = MIN_CO_RATED) -> SimilarityCache:
    table = RatingTable(ratings)
    co = {}
    for raters in table.raters_of:
        raters = sorted(set(raters))
        for a in range(len(raters)):
            for b in range(a + 1, len(raters)):
                key = (raters[a], raters[b])
                co[key] = co.get(key, 0) + 1
    weights = {}
    neighbors = {}
    for (u, v), count in co.items():
        if count < min_co:
            continue
        w = _pcc_from_dicts(table.by_user[u], table.by_user[v], min_co)
        if w is None:
            continue
        weights[(u, v)] = w
        neighbors.setdefault(u, []).append(v)
        neighbors.setdefault(v, []).append(u)
    for u in neighbors:
        neighbors[u].sort()
    return SimilarityCache(weights, co, min_co, neighbors)


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


def nb_predict(ratings, sims: SimilarityCache, sets: PropagatedSets | None,
               u: int, i: int, variant: str = "nb"):
    """Mean-centered weighted prediction of item i for user u.

    Neighbors are pool members who rated i with positive cached similarity:
      prediction = mean(u) + sum w * (r_vi - mean(v)) / sum w.
    Falls back to the user mean on an empty pool, to the global mean when the
    user has no ratings, and clamps to the rating bounds.
    """
    table = ratings if isinstance(ratings, RatingTable) else RatingTable(ratings)
    base = table.ratings
    if not 0 <= u < base.n:
        raise IndexError(f"user index {u} out of range")
    if not 0 <= i < base.m:
        raise IndexError(f"item index {i} out of range")
    pool = neighbor_pool(sims, sets, u, variant)
    num = 0.0
    den = 0.0
    for v in pool:
        rating = table.by_user[v].get(i)
        if rating is None:
            continue
        w = sims.weight(u, v)
        if w is None or w <= 0.0:
            continue
        num += w * (rating - table.user_mean(v))
        den += w
    if den > 0.0:
        value = table.user_mean(u) + num / den
    elif table.by_user[u]:
        value = table.user_mean(u)
    else:
        value = table.global_mean
    return min(max(value, base.r_min), base.r_max)
