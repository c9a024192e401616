"""Memory-based baselines: Pearson similarity, trust/distrust propagation,
and the neighborhood predictors (plain, trust-limited, filtered, debugged).

User pairs are int64 keys u * n + v throughout, kept in sorted arrays."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import SocialGraph, SparseRatings
from .keys import drop, find, member, ranges, row, sort_by_key, stable_order

VARIANTS = ("nb", "nb-t", "nb-td-f", "nb-td-d")

MIN_CO_RATED = 3


def RatingTable(ratings: SparseRatings) -> SparseRatings:
    """The ratings themselves: nb_predict needs no table. perfbench/workloads.py
    still builds one by this name to time predictions."""
    return ratings


@dataclass(eq=False)
class SimilarityCache:
    """Pearson weights of the co-rated user pairs, built once then read-only.

    keys[t] = u * n + v, u < v, ascending, keys the t-th pair of users sharing
    co_counts[t] rated items, and pcc[t] is their Pearson correlation, the
    cached weight, NaN where it is undefined or they share fewer than min_co.
    n is the number of users.
    """

    keys: np.ndarray
    co_counts: np.ndarray
    pcc: np.ndarray
    min_co: int
    n: int

    @cached_property
    def pairs(self) -> np.ndarray:
        """(P, 2) rows (u, v) of the keys."""
        return np.column_stack(np.divmod(self.keys, self.n))

    @cached_property
    def weights(self) -> dict:
        """(u, v) with u < v -> cached weight."""
        cached = ~np.isnan(self.pcc)
        return dict(zip(map(tuple, self.pairs[cached].tolist()), self.pcc[cached].tolist()))


def build_similarity_cache(ratings: SparseRatings, min_co: int = MIN_CO_RATED) -> SimilarityCache:
    """Pearson correlation of every co-rated user pair, the blocks of
    _similarity_blocks joined; no pass holds all co-ratings."""
    empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
    blocks = zip(empty, *_similarity_blocks(ratings, min_co))
    return SimilarityCache(*map(np.concatenate, blocks), min_co, ratings.n)


def _similarity_pass(ratings: SparseRatings, min_co: int, only):
    """The (co-rating counts, weights) of the pairs keyed in the sorted `only`,
    aligned with it: 0 and NaN for a pair never co-rated. One _merged block
    where _merges, else the blocks of _similarity_blocks joined."""
    blocks = ([_merged(ratings, min_co, only)] if _merges(ratings, only)
              else _similarity_blocks(ratings, min_co, only))
    return tuple(map(np.concatenate, zip((np.zeros(0, np.int64), np.zeros(0)), *blocks)))


def _merges(ratings: SparseRatings, only) -> bool:
    """Whether the merge walks fewer entries, the shorter item row of each pair
    keyed in `only`, than the blocks list co-ratings, and walks any."""
    u, v = np.divmod(only, ratings.n)
    sizes = np.diff(ratings.by_item[2])
    walked = np.minimum(ratings.user_counts[u], ratings.user_counts[v]).sum()
    return 0 < walked < (sizes * (sizes - 1) // 2).sum()


def _merged(ratings: SparseRatings, min_co: int, only):
    """_similarity_blocks(ratings, min_co, only) as one block, by merge: each item
    of the pair's user with fewer ratings is found in the other's row by binary
    search on the sorted keys u * m + i. Items come ascending, as in a block."""
    n, m, counts = ratings.n, ratings.m, ratings.user_counts
    keys = ratings.users * m + ratings.items
    order = stable_order(keys, n * m)
    keys, values = keys[order], ratings.values[order]
    slot = np.flatnonzero(only // n < only % n)
    u, v = np.divmod(only[slot], n)
    walk = np.where(counts[u] <= counts[v], u, v)
    reps = counts[walk]
    at = ranges((np.cumsum(counts) - counts)[walk], reps)
    found = find(keys, np.repeat(u + v - walk, reps) * m + keys[at] % m)
    hit = np.flatnonzero(found >= 0)
    return _weights(np.repeat(slot, reps)[hit], values[at[hit]], values[found[hit]], min_co,
                    len(only))


def _weights(pid, x, y, min_co, size):
    """(co-rating counts, weights) of `size` pairs from their co-ratings' values
    x and y, co-rating t being pair pid[t]'s, each pair's in ascending item order."""
    counts = np.bincount(pid, minlength=size)  # 0 for a pair never co-rated: no mean read
    x = x - (np.bincount(pid, x, size) / np.maximum(counts, 1))[pid]
    y = y - (np.bincount(pid, y, size) / np.maximum(counts, 1))[pid]
    sx, sy, sxy = (np.bincount(pid, w, size) for w in (x * x, y * y, x * y))
    pcc = np.full(size, np.nan)
    defined = (sx != 0.0) & (sy != 0.0) & (counts >= min_co)
    pcc[defined] = sxy[defined] / np.sqrt(sx[defined] * sy[defined])
    return counts, pcc


_BLOCK_CO_RATINGS = 1 << 16  # bounds a pass to a few MB of transient arrays


def _similarity_blocks(ratings: SparseRatings, min_co: int, only=None, both=False):
    """Pearson weights of the co-rated user pairs (u, v), one block of first
    users u at a time: yields the block's sorted keys u * n + v, co-rating
    counts and weights (NaN where undefined or fewer than min_co co-ratings),
    blocks in ascending key order. Pairs have v > u, or every v != u with
    `both`. With `only`, yields the (counts, weights) of the block's keys in
    the sorted `only`, aligned with them: count 0 for a pair never co-rated.

    A block lists at most _BLOCK_CO_RATINGS (pair, item) co-ratings unless one
    user alone has more, so memory no longer follows the sum over items of
    raters squared. Blocks are slices of one stable order of the raters by
    user, which keeps each user's items ascending: a pair's co-ratings are
    listed in ascending item order, the order a scalar left-fold Pearson takes,
    and added in it by bincount, over each key's slot in `only` or after a
    stable order by key. A pair's sums never span blocks, so each weight is
    bit-equal to that scalar's whatever the blocks, and pcc(u, v) to
    pcc(v, u), whose products commute.
    """
    users, values, offsets = ratings.by_item
    n, sizes = ratings.n, np.diff(offsets)
    # entry t pairs with the later raters of its item, at t + 1 .. end - 1, or
    # with `both` with every other rater, at start .. end - 1 skipping t
    first = np.repeat(offsets[:-1], sizes) if both else np.arange(1, ratings.nnz + 1)
    count = np.repeat(offsets[1:], sizes) - first - int(both)
    order = stable_order(users, n)
    starts = np.concatenate(([0], np.cumsum(ratings.user_counts)))
    reach = np.concatenate(([0], np.cumsum(count[order])))[starts]  # listed before each user
    hi = 0
    while hi < n:  # users lo .. hi - 1, as many as the budget takes, at least one
        lo = hi
        hi = max(int(np.searchsorted(reach, reach[lo] + _BLOCK_CO_RATINGS, "right")) - 1, lo + 1)
        base = lo * n
        if only is not None:
            inner = only[slice(*np.searchsorted(only, (base, hi * n)))] - base
            if not len(inner):
                continue
        t = order[starts[lo]:starts[hi]]
        reps = count[t]
        second = ranges(first[t], reps)
        if both:
            second += second >= np.repeat(t, reps)
        key = np.repeat(users[t], reps) * n - base + users[second]
        x = np.repeat(values[t], reps)
        if only is not None:
            slot = find(inner, key)
            at = np.flatnonzero(slot >= 0)
            yield _weights(slot[at], x[at], values[second[at]], min_co, len(inner))
        elif len(key):
            key, at = sort_by_key(key, hi * n - base)  # ties keep their ascending items
            head = np.diff(key, prepend=-1) != 0
            yield key[head] + base, *_weights(np.cumsum(head) - 1, x[at], values[second[at]],
                                              min_co, np.count_nonzero(head))


def relevant_ranks(ratings: SparseRatings, edges, sign: float):
    """(user, rank) of each relevant candidate, ascending, ranked among the
    user's co-raters by sign * similarity, with consistency_eval's tie order.

    Co-raters are listed per block of users in both directions. A relevant
    candidate's rank is 1 + the number of the user's candidates with a smaller
    score + the relevant ones tied with it at a lower candidate index: one
    sort of the block's (user, score) codes and a search per relevant one."""
    n = ratings.n
    edges = edges[(edges < n).all(axis=1)]
    relevant_keys = np.sort(edges[:, 0] * n + edges[:, 1])
    users, ranks = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for keys, _, pcc in _similarity_blocks(ratings, 1, both=True):
        inner = relevant_keys[slice(*np.searchsorted(relevant_keys, (keys[0], keys[-1] + 1)))]
        at = find(keys, inner)
        at = at[at >= 0]  # ascending: by user, then candidate
        if not len(at):
            continue
        user = keys // n
        levels, level = np.unique(sign * np.where(np.isnan(pcc), 0.0, pcc), return_inverse=True)
        code = (user - user[0]) * len(levels) + level  # orders by user, then score
        codes, mine = np.sort(code), code[at]
        tied = stable_order(mine, (user[-1] - user[0] + 1) * len(levels))  # ties by candidate
        mine = mine[tied]
        rank = (1 + np.searchsorted(codes, mine) - np.searchsorted(codes, mine - level[at][tied])
                + np.arange(len(at)) - np.searchsorted(mine, mine))
        users.append(user[at][tied])
        ranks.append(rank)
    return np.concatenate(users), np.concatenate(ranks)


def _step(keys, n, offsets, targets):
    """Sorted distinct keys u * n + w of the edges v -> w out of each key u * n + v."""
    sources, nodes = np.divmod(keys, n)
    degrees = offsets[nodes + 1] - offsets[nodes]
    keys = np.sort(np.repeat(sources, degrees) * n + targets[ranges(offsets[nodes], degrees)])
    return keys[np.diff(keys, prepend=-1) != 0]  # np.unique is several times slower


def _propagate(graph: SocialGraph, p: int, q: int):
    """Keys of (trusted, distrusted): the users reached over 1..p trust edges,
    and those reached by a trust path of length 0..q-1 followed by exactly one
    distrust edge (distrust is terminal, never chained); nobody is in their
    own sets. Each depth expands only the pairs new at the depth before, so a
    user is admitted at its shortest depth and cycles are harmless."""
    if min(p, q) < 1:
        raise ValueError("propagation depth must be at least 1")
    n = graph.n
    seen = frontier = np.arange(n) * (n + 1)  # the self keys u * n + u
    reach = [seen]  # reach[d]: keys of the users within d trust edges
    for _ in range(max(p, q - 1)):
        frontier = drop(_step(frontier, n, graph.trust_offsets, graph.trust_targets), seen)
        seen = np.sort(np.concatenate((seen, frontier)))
        reach.append(seen)
    distrusted = _step(reach[q - 1], n, graph.distrust_offsets, graph.distrust_targets)
    # u * n + u is the only key in [0, n * n) that n + 1 divides
    return tuple(keys[keys % (n + 1) != 0] for keys in (reach[p], distrusted))


@dataclass(frozen=True, eq=False)
class PropagatedSets:
    """Propagated trust and distrust keys (n = graph.n) plus the source graph."""

    graph: SocialGraph
    trust_keys: np.ndarray
    distrust_keys: np.ndarray


def build_propagated_sets(graph: SocialGraph, p: int = 1, q: int = 1) -> PropagatedSets:
    return PropagatedSets(graph, *_propagate(graph, p, q))


def _pool_keys(sets: PropagatedSets | None, variant: str, users):
    """The variant's pool keys in the rows of `users`, so that a one-user call
    forms one row; None for nb, whose pool is every user with a cached weight."""
    if variant == "nb":
        return None
    if sets is None:
        raise ValueError(f"variant {variant!r} needs propagated sets")
    n, lo, hi = sets.graph.n, users.min(initial=sets.graph.n), users.max(initial=-1) + 1
    keys = sets.trust_keys[slice(*np.searchsorted(sets.trust_keys, (lo * n, hi * n)))]
    if variant == "nb-t":  # the trusted
        return keys
    if variant == "nb-td-f":  # trusted and not distrusted
        return drop(keys, sets.distrust_keys)
    if variant == "nb-td-d":  # trusted, less the targets of direct distrust edges
        start, stop = sets.graph.distrust_offsets[[min(lo, n), min(hi, n)]]
        u, v = sets.graph.distrust_edge_array[start:stop].T
        return drop(keys, np.sort(u * n + v))
    raise ValueError(f"unknown variant {variant!r}")


def neighbor_pool(sims: SimilarityCache, sets: PropagatedSets | None, u: int, variant: str):
    """Candidate neighbor pool for user u before the rated-item/positive-weight
    filters. Pools for the distrust variants are subsets of the trust pool."""
    pool = _pool_keys(sets, variant, np.array([u]))
    if pool is not None:
        return set(row(pool, u, sets.graph.n))
    a, b = sims.pairs[~np.isnan(sims.pcc)].T  # the pairs with a cached weight
    return set(b[a == u].tolist()) | set(a[b == u].tolist())


def nb_predict_many(ratings: SparseRatings, sims: SimilarityCache | None,
                    sets: PropagatedSets | None, users, items, variant: str = "nb"):
    """Mean-centered weighted predictions of items[t] for users[t], in one pass.

    Neighbors are pool members who rated the item with positive cached
    similarity:
      prediction = mean(u) + sum w * (r_vi - mean(v)) / sum w,
    summed in ascending neighbor order. Falls back to the user mean on an
    empty pool, to the global mean when the user has no ratings, and clamps
    to the rating bounds. With `sims` None, only the weights these sums read
    are computed, each bit-equal to build_similarity_cache(ratings)'s, by
    merge or from the blocks (_similarity_pass), once per distinct pair, as
    one packed sort of the rows' pair keys (keys.sort_by_key) numbers them.
    """
    users, items = np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64)
    for name, index, size in (("user", users, ratings.n), ("item", items, ratings.m)):
        bad = index[(index < 0) | (index >= size)]
        if len(bad):
            raise IndexError(f"{name} index {bad[0]} out of range")
    pool = _pool_keys(sets, variant, users)
    raters, values, offsets = ratings.by_item
    n = ratings.n
    # a user without ratings co-rates with nobody: no rater can weigh in
    counts = np.where(ratings.user_counts[users] > 0, offsets[items + 1] - offsets[items], 0)
    at = ranges(offsets[items], counts)  # the join: each pair t with the raters of its item
    if pool is None:
        rows = np.repeat(np.arange(len(users)), counts)
    else:  # the pool's rows of the join, by their keys users[t] * n + rater, come first
        if sets.graph.n != n:
            a, b = np.divmod(pool, sets.graph.n)
            pool = (a * n + b)[(a < n) & (b < n)]
        kept = np.flatnonzero(member(pool, np.repeat(users * n, counts) + raters[at]))
        rows, at = np.searchsorted(np.cumsum(counts), kept, "right"), at[kept]
    # the pair keys' sort numbers the distinct pairs; a row's raters v still
    # come ascending in it, so each prediction sums in ascending neighbor order
    u, v = users[rows], raters[at]
    pair, order = sort_by_key(np.minimum(u, v) * n + np.maximum(u, v), n * n)
    del u, v  # not held through the weights' pass
    head = np.diff(pair, prepend=-1) != 0
    pair, pid = pair[head], np.cumsum(head) - 1
    if sims is None:
        pcc = _similarity_pass(ratings, MIN_CO_RATED, pair)[1]
    else:  # one lookup per distinct pair; where drops what -1 reads
        found = find(sims.keys, pair)
        pcc = np.where(found >= 0, sims.pcc[found] if len(sims.pcc) else np.nan, np.nan)
    kept = np.flatnonzero(pcc[pid] > 0.0)  # not where undefined (NaN)
    w, kept = pcc[pid[kept]], order[kept]
    rows, at = rows[kept], at[kept]
    num = np.bincount(rows, w * (values[at] - ratings.user_means[raters[at]]), len(users))
    den = np.bincount(rows, w, len(users))
    # the user mean is the global mean for a user without ratings
    value = ratings.user_means[users] + np.divide(num, den, out=np.zeros(len(users)),
                                                  where=den > 0.0)
    return np.minimum(np.maximum(value, ratings.r_min), ratings.r_max)


def nb_predict(ratings: SparseRatings, sims: SimilarityCache, sets: PropagatedSets | None,
               u: int, i: int, variant: str = "nb"):
    """The nb_predict_many prediction of item i for user u, as a float."""
    return float(nb_predict_many(ratings, sims, sets, [u], [i], variant)[0])
