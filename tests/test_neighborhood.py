from collections import deque
from functools import partial
from itertools import product

import numpy as np
import pytest

from trustfactor import neighborhood
from trustfactor.data import SocialGraph, SparseRatings
from trustfactor.experiments import cold_start_split
from trustfactor.neighborhood import (
    VARIANTS,
    _similarity_blocks,
    _similarity_pass,
    build_propagated_sets,
    build_similarity_cache,
    nb_predict,
    nb_predict_many,
    neighbor_pool,
    SimilarityCache,
)

from conftest import pearson, random_graph, random_ratings


def weight(cache, u, v):
    """The cached weight of users u and v, in either order; None where there is none."""
    return cache.weights.get((min(u, v), max(u, v)))


def aligned(cache, only):
    """(co-rating counts, weights) of the cache's pairs keyed in `only`, key by
    key: 0 and NaN where the cache lists no such key."""
    at = dict(zip(cache.keys.tolist(), range(len(cache.keys))))
    rows = [at.get(key) for key in only.tolist()]
    return (np.array([0 if t is None else cache.co_counts[t] for t in rows], np.int64),
            np.array([np.nan if t is None else cache.pcc[t] for t in rows], np.float64))


def assert_aligned(part, only, cache, min_co):
    """The restricted pass's (counts, weights) for `only` are the cache's rows
    for those keys, byte for byte, with 0 and NaN for every other key."""
    counts, pcc = part
    listed = np.isin(cache.keys, only)
    assert len(counts) == len(pcc) == len(only)
    assert only[counts > 0].tobytes() == cache.keys[listed].tobytes()
    assert counts[counts > 0].tobytes() == cache.co_counts[listed].tobytes()
    assert pcc[counts > 0].tobytes() == cache.pcc[listed].tobytes()
    assert not (counts[~np.isnan(pcc)] < min_co).any()
    expected_counts, expected_pcc = aligned(cache, only)
    assert counts.tobytes() == expected_counts.tobytes()
    assert pcc.tobytes() == expected_pcc.tobytes()


def _by_user(keys, n):
    """One set per user u of the v with u * n + v in the sorted `keys`."""
    users, others = np.divmod(keys, n)
    bounds = np.searchsorted(users, np.arange(n + 1)).tolist()
    others = others.tolist()
    return [set(others[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def propagate_trust(graph: SocialGraph, p: int):
    """Trust reachability to depth p, one set per user."""
    return _by_user(neighborhood._propagate(graph, p, 1)[0], graph.n)


def propagate_distrust(graph: SocialGraph, q: int):
    """The distrusted set at depth q, one per user."""
    return _by_user(neighborhood._propagate(graph, 1, q)[1], graph.n)


class TestPearson:
    def test_identical_users(self):
        r = SparseRatings.from_entries(
            2, 3, [(0, 0, 1), (0, 1, 3), (0, 2, 5), (1, 0, 1), (1, 1, 3), (1, 2, 5)])
        assert pearson(r, 0, 1) == pytest.approx(1.0)

    def test_reversed_users(self):
        r = SparseRatings.from_entries(
            2, 3, [(0, 0, 1), (0, 1, 2), (0, 2, 3), (1, 0, 3), (1, 1, 2), (1, 2, 1)])
        assert pearson(r, 0, 1) == pytest.approx(-1.0)

    def test_constant_user_undefined(self):
        r = SparseRatings.from_entries(
            2, 3, [(0, 0, 1), (0, 1, 3), (0, 2, 5), (1, 0, 2), (1, 1, 2), (1, 2, 2)])
        assert pearson(r, 0, 1) is None

    def test_too_few_co_ratings(self):
        r = SparseRatings.from_entries(2, 2, [(0, 0, 1), (0, 1, 5), (1, 0, 2), (1, 1, 4)])
        assert pearson(r, 0, 1, min_co=3) is None
        assert pearson(r, 0, 1, min_co=2) == pytest.approx(1.0)

    def test_symmetry_and_range(self, rng):
        for _ in range(20):
            r = random_ratings(rng, 6, 8, density=0.7)
            for u in range(6):
                for v in range(u + 1, 6):
                    w_uv = pearson(r, u, v)
                    w_vu = pearson(r, v, u)
                    assert w_uv == w_vu
                    if w_uv is not None:
                        assert -1.0 - 1e-12 <= w_uv <= 1.0 + 1e-12


class TestSimilarityCache:
    def test_cache_matches_direct(self, rng):
        r = random_ratings(rng, 8, 10, density=0.6)
        cache = build_similarity_cache(r, min_co=3)
        for u in range(8):
            for v in range(u + 1, 8):
                assert weight(cache, u, v) == pearson(r, u, v, min_co=3)

    def test_equals_pearson_on_every_pair(self, rng):
        # constant raters, near-constant non-integer raters, single co-rated
        # items, users with one rating or none, and the min_co boundaries
        near = [(3, j, 3.0 + j * 1e-13) for j in range(5)]
        instances = [
            SparseRatings(5, 3, [], [], []),
            SparseRatings.from_entries(4, 5, [(0, 2, 4.0), (1, 2, 2.0), (2, 0, 5.0)]),
            SparseRatings.from_entries(5, 5, near + [
                (0, j, 2.0) for j in range(5)] + [
                (1, j, 1.0 + j) for j in range(4)] + [
                (2, j, 3.0 + (j % 2) * 1e-13) for j in range(5)] + [(4, 4, 3.5)]),
        ]
        for _ in range(30):
            n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            r = random_ratings(rng, n, m, density=float(rng.uniform(0.1, 0.9)))
            if rng.random() < 0.5:
                r = SparseRatings(n, m, r.users, r.items,
                                  np.clip(r.values + rng.uniform(-0.5, 0.5, r.nnz), 1, 5))
            instances.append(r)
        instances.append(SparseRatings(
            6, 4, *np.nonzero(np.ones((6, 4))), 3.0 + np.arange(24) % 3 * 1e-13))
        for r in instances:
            rated = [set(r.items[r.users == u].tolist()) for u in range(r.n)]
            for min_co in range(5):
                cache = build_similarity_cache(r, min_co=min_co)
                counts = dict(zip(map(tuple, cache.pairs.tolist()), cache.co_counts.tolist()))
                for u in range(r.n):
                    for v in range(u + 1, r.n):
                        assert weight(cache, u, v) == pearson(r, u, v, min_co=min_co)
                        assert weight(cache, v, u) == weight(cache, u, v)
                        assert counts.get((u, v), 0) == len(rated[u] & rated[v])
                    assert neighbor_pool(cache, None, u, "nb") == {
                        v for v in range(r.n)
                        if v != u and pearson(r, u, v, min_co=min_co) is not None}
                assert len(counts) == len(cache.pairs)
                assert all(c > 0 for c in counts.values())

    def test_restricted_pass_equals_full_cache(self, rng, monkeypatch):
        # any sorted subset of pair keys, never co-rated pairs, pairs (u, u)
        # and the empty set included, yields exactly the full cache's rows for
        # those pairs, aligned with the subset, weighed by the blocks or by
        # merge; instances have users without ratings and constant raters
        for trial in range(30):
            n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            r = random_ratings(rng, n, m, density=float(rng.uniform(0.1, 0.9)))
            if trial % 2:
                r = SparseRatings(n, m, r.users, r.items,
                                  np.clip(r.values + rng.uniform(-0.5, 0.5, r.nnz), 1, 5))
            if trial % 3 == 0:
                keep = (r.users != 0) & (r.users % 3 != 1) | (r.items < 2)
                r = SparseRatings(n, m, r.users[keep], r.items[keep],
                                  np.where(r.users[keep] % 3 == 2, 4.0, r.values[keep]))
            r = r.subset(rng.permutation(r.nnz))  # entries in no particular order
            every = np.array([u * n + v for u in range(n) for v in range(u + 1, n)], dtype=np.int64)
            for min_co in (1, 2, 3):
                full = build_similarity_cache(r, min_co)
                subsets = [every[:0], every, full.keys,
                           np.sort(np.append(every, np.arange(n) * (n + 1)))]
                subsets += [np.sort(rng.choice(every, int(rng.integers(0, len(every) + 1)),
                                               replace=False)) for _ in range(4)]
                for only, merges in product(subsets, (False, True)):
                    monkeypatch.setattr(neighborhood, "_merges", lambda *_: merges)
                    assert_aligned(_similarity_pass(r, min_co, only), only, full, min_co)
                monkeypatch.undo()
                # merge where it walks fewer entries than the blocks list
                # co-ratings, never for every pair: each pair walks its co-ratings
                for only in (every, full.keys[:1]):
                    walked = sum(min(r.user_counts[u], r.user_counts[v])
                                 for u, v in zip(*np.divmod(only, n)))
                    assert neighborhood._merges(r, only) == (0 < walked < full.co_counts.sum())
                assert not neighborhood._merges(r, every)

    def test_blocks_bit_equal_to_one_block(self, rng, monkeypatch):
        # budgets of 1, 7 and 1,000 co-ratings against one block; user 0 rates
        # every item in half the instances, so its co-ratings alone exceed the
        # small budgets; restrictions: none, empty, and keys at block edges
        for trial in range(16):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 10))
            r = random_ratings(rng, n, m, density=float(rng.uniform(0.1, 0.9)))
            if trial % 2:
                heavy = np.ones((n, m), bool)
                heavy[1:] = rng.random((n - 1, m)) < 0.5
                users, items = np.nonzero(heavy)
                r = SparseRatings(n, m, users, items, rng.uniform(1, 5, len(users)))
            every = np.array([u * n + v for u in range(n) for v in range(u + 1, n)], np.int64)
            for min_co in (1, 3):
                monkeypatch.setattr(neighborhood, "_BLOCK_CO_RATINGS", 1 << 62)
                assert len(list(_similarity_blocks(r, min_co))) <= 1
                whole = build_similarity_cache(r, min_co)
                for budget in (1, 7, 1000):
                    monkeypatch.setattr(neighborhood, "_BLOCK_CO_RATINGS", budget)
                    blocks = list(_similarity_blocks(r, min_co))
                    assert all(len(keys) for keys, _, _ in blocks)
                    ends = np.concatenate([every[:0]] + [keys[[0, -1]] for keys, _, _ in blocks])
                    edges = np.unique(np.concatenate((ends - 1, ends, ends + 1, np.arange(n) * n,
                                                      np.arange(n) * n + n - 1)))
                    edges = edges[(edges >= 0) & (edges < n * n)]
                    picked = np.sort(rng.choice(every, len(every) // 2, replace=False))
                    part = build_similarity_cache(r, min_co)
                    assert part.pairs.tobytes() == whole.pairs.tobytes()
                    assert part.co_counts.tobytes() == whole.co_counts.tobytes()
                    assert part.pcc.tobytes() == whole.pcc.tobytes()
                    for only in (every[:0], edges, picked):
                        assert_aligned(_similarity_pass(r, min_co, only), only, whole, min_co)

    def test_neighbors_symmetric(self, rng):
        r = random_ratings(rng, 8, 10, density=0.6)
        cache = build_similarity_cache(r)
        for u in range(8):
            for v in neighbor_pool(cache, None, u, "nb"):
                assert u in neighbor_pool(cache, None, v, "nb")


class TestPropagateTrust:
    def test_chain(self):
        g = SocialGraph.from_edges(3, [(0, 1), (1, 2)], [])
        assert propagate_trust(g, 2)[0] == {1, 2}

    def test_depth_one_is_identity(self, rng):
        for _ in range(20):
            g = random_graph(rng)
            reach = propagate_trust(g, 1)
            for u in range(g.n):
                assert reach[u] == set(g.trust_adj[u])

    def test_cycle_never_self_admits(self):
        g = SocialGraph.from_edges(2, [(0, 1), (1, 0)], [])
        assert propagate_trust(g, 3)[0] == {1}

    def test_first_visit_depth(self):
        # 0 -> 1 -> 2 and 0 -> 2: user 2 admitted at depth 1 already
        g = SocialGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], [])
        assert propagate_trust(g, 1)[0] == {1, 2}


class TestPropagateDistrust:
    def test_direct_edge_always_present(self):
        g = SocialGraph.from_edges(2, [], [(0, 1)])
        for q in (1, 2, 5):
            assert 1 in propagate_distrust(g, q)[0]

    def test_trust_then_distrust(self):
        g = SocialGraph.from_edges(3, [(0, 1)], [(1, 2)])
        assert 2 not in propagate_distrust(g, 1)[0]
        assert 2 in propagate_distrust(g, 2)[0]

    def test_distrust_never_chains(self):
        g = SocialGraph.from_edges(3, [], [(0, 1), (1, 2)])
        assert propagate_distrust(g, 3)[0] == {1}

    def test_deeper_q_never_shrinks(self, rng):
        for _ in range(20):
            g = random_graph(rng)
            for q in (1, 2, 3):
                shallow = propagate_distrust(g, q)
                deep = propagate_distrust(g, q + 1)
                for u in range(g.n):
                    assert shallow[u] <= deep[u]


def bfs_trust(graph, p):
    """Breadth-first trust reachability to depth p, one user at a time: the
    reference for the frontier expansion over all users at once."""
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


def loop_distrust(graph, q):
    """Per-user distrust propagation: the distrust targets of u and of every
    user within q - 1 trust edges of u, less u itself."""
    trust_reach = bfs_trust(graph, q - 1) if q > 1 else [set() for _ in range(graph.n)]
    targets, offsets = graph.distrust_targets.tolist(), graph.distrust_offsets.tolist()
    out = []
    for u in range(graph.n):
        distrusted = set()
        for v in (u, *trust_reach[u]):
            distrusted.update(targets[offsets[v]:offsets[v + 1]])
        distrusted.discard(u)
        out.append(distrusted)
    return out


class TestFrontierPropagation:
    def graphs(self, rng):
        # a trust cycle with a distrust edge back into it, isolated users,
        # an empty graph and 100 random graphs of varying density
        yield SocialGraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3)], [(3, 0), (1, 4)])
        yield SocialGraph.from_edges(4, [], [])
        yield SocialGraph.from_edges(0, [], [])
        for _ in range(100):
            yield random_graph(rng, n_max=14, edge_prob=float(rng.uniform(0.02, 0.3)))

    def test_equals_breadth_first_reference(self, rng):
        for g in self.graphs(rng):
            for p in range(1, 5):
                assert propagate_trust(g, p) == bfs_trust(g, p)
            for q in range(1, 4):
                assert propagate_distrust(g, q) == loop_distrust(g, q)
            for p in range(1, 5):
                for q in range(1, 4):
                    sets = build_propagated_sets(g, p, q)
                    trusted, distrusted = bfs_trust(g, p), loop_distrust(g, q)
                    assert sets.trust_keys.tolist() == pair_keys(trusted, g.n)
                    assert sets.distrust_keys.tolist() == pair_keys(distrusted, g.n)
                    for u in range(g.n):
                        pool = partial(neighbor_pool, None, sets, u)
                        assert pool("nb-t") == trusted[u]
                        assert pool("nb-td-f") == trusted[u] - distrusted[u]
                        assert pool("nb-td-d") == trusted[u] - set(g.distrust_adj[u].tolist())

    def test_depth_below_one_rejected(self):
        g = six_user_graph()
        for call in (lambda: propagate_trust(g, 0), lambda: propagate_distrust(g, 0),
                     lambda: build_propagated_sets(g, 1, 0), lambda: build_propagated_sets(g, 0)):
            with pytest.raises(ValueError, match="propagation depth must be at least 1"):
                call()


def pair_keys(per_user, n):
    """Sorted u * n + v keys of one set of users v per user u."""
    return [u * n + v for u, others in enumerate(per_user) for v in sorted(others)]


def six_user_graph():
    """u0 trusts u1; u1 trusts u2; u2 trusts u3; u0 distrusts u2 directly and
    u1 distrusts u4. With p=3, q=2:
      trusted(u0)   = {u1, u2, u3}
      distrusted(u0)= {u2 (direct), u4 (via trusted u1)}
    """
    return SocialGraph.from_edges(
        6,
        trust_edges=[(0, 1), (1, 2), (2, 3)],
        distrust_edges=[(0, 2), (1, 4)],
    )


class TestPools:
    def test_manual_enumeration(self):
        g = six_user_graph()
        sets = build_propagated_sets(g, p=3, q=2)
        assert propagate_trust(g, 3)[0] == {1, 2, 3}
        assert propagate_distrust(g, 2)[0] == {2, 4}
        sims = build_similarity_cache(
            SparseRatings(6, 1, [], [], []), min_co=1)
        # filter removes the whole propagated distrust set
        assert neighbor_pool(sims, sets, 0, "nb-td-f") == {1, 3}
        # debugging removes only admissions contradicted by a direct edge
        assert neighbor_pool(sims, sets, 0, "nb-td-d") == {1, 3}
        assert neighbor_pool(sims, sets, 0, "nb-t") == {1, 2, 3}

    def test_debug_keeps_indirectly_distrusted(self):
        # u2 is trust-reachable through u1 and distrusted only through u5's
        # propagated opinion: filtering drops it, debugging keeps it because
        # u0 has no direct distrust edge to it
        g = SocialGraph.from_edges(
            6,
            trust_edges=[(0, 1), (0, 5), (1, 2)],
            distrust_edges=[(5, 2)],
        )
        sets = build_propagated_sets(g, p=2, q=2)
        assert propagate_trust(g, 2)[0] == {1, 2, 5}
        assert propagate_distrust(g, 2)[0] == {2}
        sims = build_similarity_cache(SparseRatings(6, 1, [], [], []))
        assert neighbor_pool(sims, sets, 0, "nb-td-f") == {1, 5}
        assert neighbor_pool(sims, sets, 0, "nb-td-d") == {1, 2, 5}

    def test_trust_reachable_but_directly_distrusted(self):
        # w = u2 is reachable over trust at depth 2 yet directly distrusted
        # by u0: nb-t keeps it, nb-td-d excludes it
        g = six_user_graph()
        sets = build_propagated_sets(g, p=2, q=1)
        assert 2 in neighbor_pool(
            build_similarity_cache(SparseRatings(6, 1, [], [], [])), sets, 0, "nb-t")
        assert 2 not in neighbor_pool(
            build_similarity_cache(SparseRatings(6, 1, [], [], [])), sets, 0, "nb-td-d")

    def test_containment_on_random_graphs(self, rng):
        empty = SparseRatings(12, 1, [], [], [])
        sims = build_similarity_cache(empty)
        for _ in range(100):
            g = random_graph(rng)
            sims_g = build_similarity_cache(SparseRatings(g.n, 1, [], [], []))
            sets = build_propagated_sets(g, p=2, q=2)
            for u in range(g.n):
                base = neighbor_pool(sims_g, sets, u, "nb-t")
                assert neighbor_pool(sims_g, sets, u, "nb-td-f") <= base
                assert neighbor_pool(sims_g, sets, u, "nb-td-d") <= base


def dict_nb_predict(ratings, sims, sets, u, i, variant, ascending=False):
    """nb_predict over per-user rating dicts, summing over the pool in set
    order or, with `ascending`, in ascending neighbor order: the reference
    for the batched predictor."""
    by_user = [{} for _ in range(ratings.n)]
    for v, item, value in zip(ratings.users.tolist(), ratings.items.tolist(),
                              ratings.values.tolist()):
        by_user[v][item] = value
    num = 0.0
    den = 0.0
    pool = neighbor_pool(sims, sets, u, variant)
    for v in sorted(pool) if ascending else pool:
        rating = by_user[v].get(i)
        if rating is None:
            continue
        w = weight(sims, u, v)
        if w is None or w <= 0.0:
            continue
        num += w * (rating - float(ratings.user_means[v]))
        den += w
    if den > 0.0:
        value = float(ratings.user_means[u]) + num / den
    elif by_user[u]:
        value = float(ratings.user_means[u])
    else:
        value = ratings.global_mean
    return min(max(value, ratings.r_min), ratings.r_max)


class TestNbPredict:
    def worked_example(self):
        """Neighbor u1 has mean 4 and rated the target item 4; active user u0
        has mean 3. One co-rated trio pins the similarity at +1."""
        entries = [
            (0, 0, 2.0), (0, 1, 3.0), (0, 2, 4.0),
            (1, 0, 3.0), (1, 1, 4.0), (1, 2, 5.0), (1, 3, 4.0),
        ]
        return SparseRatings.from_entries(2, 4, entries)

    def test_hand_traced_prediction(self):
        r = self.worked_example()
        sims = build_similarity_cache(r, min_co=3)
        assert weight(sims, 0, 1) == pytest.approx(1.0)
        # neighbor deviation (4 - 4) = 0, so prediction equals user mean 3
        assert nb_predict(r, sims, None, 0, 3, "nb") == pytest.approx(3.0)

    def test_empty_pool_falls_back_to_user_mean(self):
        r = SparseRatings.from_entries(2, 2, [(0, 0, 2.0), (0, 1, 3.0), (1, 0, 4.0)])
        sims = build_similarity_cache(r)
        assert nb_predict(r, sims, None, 0, 1, "nb") == pytest.approx(2.5)

    def test_no_ratings_falls_back_to_global_mean(self):
        r = SparseRatings.from_entries(3, 2, [(0, 0, 2.0), (1, 0, 4.0)])
        sims = build_similarity_cache(r)
        assert nb_predict(r, sims, None, 2, 1, "nb") == pytest.approx(3.0)

    def test_predictions_always_in_bounds(self, rng):
        r = random_ratings(rng, 10, 8, density=0.5)
        sims = build_similarity_cache(r)
        g = random_graph(rng, n_max=10)
        g = SocialGraph.from_edges(
            10,
            [(u, v) for u, v in g.trust_edge_array.tolist() if max(u, v) < 10],
            [(u, v) for u, v in g.distrust_edge_array.tolist() if max(u, v) < 10],
        )
        sets = build_propagated_sets(g, p=2, q=2)
        for variant in ("nb", "nb-t", "nb-td-f", "nb-td-d"):
            for u in range(10):
                for i in range(8):
                    value = nb_predict(r, sims, sets, u, i, variant)
                    assert 1.0 <= value <= 5.0

    def test_equals_dict_table_predictor(self, rng):
        for trial in range(8):
            g = random_graph(rng)
            r = random_ratings(rng, g.n, int(rng.integers(1, 12)), density=0.6)
            if trial % 2:
                r = SparseRatings(r.n, r.m, r.users, r.items,
                                  np.clip(r.values + rng.uniform(-0.5, 0.5, r.nnz), 1, 5))
            sims = build_similarity_cache(r, min_co=int(rng.integers(1, 4)))
            sets = build_propagated_sets(g, p=2, q=2)
            for variant in ("nb", "nb-t", "nb-td-f", "nb-td-d"):
                for u in range(r.n):
                    for i in range(r.m):
                        # the sum runs in ascending neighbor order, not set order
                        value = nb_predict(r, sims, sets, u, i, variant)
                        assert value == pytest.approx(
                            dict_nb_predict(r, sims, sets, u, i, variant), rel=1e-12, abs=0)
                        assert value == dict_nb_predict(r, sims, sets, u, i, variant, True)

    def instances(self, rng):
        """Random ratings and graphs; some users and items without ratings."""
        for trial in range(12):
            g = random_graph(rng, n_max=14)
            r = random_ratings(rng, g.n, int(rng.integers(1, 12)),
                               density=float(rng.uniform(0.2, 0.8)))
            if trial % 2:
                r = SparseRatings(r.n, r.m, r.users, r.items,
                                  np.clip(r.values + rng.uniform(-0.5, 0.5, r.nnz), 1, 5))
            if trial % 3 == 0:
                keep = r.users != 0
                r = SparseRatings(r.n, r.m + 1, r.users[keep], r.items[keep], r.values[keep])
            yield r, build_propagated_sets(g, int(rng.integers(1, 4)), int(rng.integers(1, 4)))

    def test_batched_equals_single_calls(self, rng, monkeypatch):
        for r, sets in self.instances(rng):
            users, items = (a.ravel() for a in np.meshgrid(np.arange(r.n), np.arange(r.m)))
            order = rng.permutation(len(users))
            users, items = np.concatenate((users[order], users[:3])), \
                np.concatenate((items[order], items[:3]))
            sims = build_similarity_cache(r)
            for variant in VARIANTS:
                batched = nb_predict_many(r, sims, sets, users, items, variant)
                assert batched.tolist() == [nb_predict(r, sims, sets, u, i, variant)
                                            for u, i in zip(users.tolist(), items.tolist())]
                # weights computed for the read pairs only equal the full cache's,
                # by blocks of any budget (co-ratings listed at once) or by merge
                for budget, merges in product((1 << 62, 1, 7, 1000), (False, True)):
                    monkeypatch.setattr(neighborhood, "_BLOCK_CO_RATINGS", budget)
                    monkeypatch.setattr(neighborhood, "_merges", lambda *_: merges)
                    lazy = nb_predict_many(r, None, sets, users, items, variant)
                    assert lazy.tobytes() == batched.tobytes()
                monkeypatch.undo()
                assert nb_predict_many(r, None, sets, users[:0], items[:0], variant).shape == (0,)

    def test_cold_users_read_no_weights(self, rng, monkeypatch):
        """A user without training ratings co-rates with nobody: on a
        cold-start split the restricted pass is asked for no pair with a cold
        user, and the predictions equal the full-cache reference bit for bit."""
        asked = []

        def spy(ratings, min_co, only):
            asked.append(only)
            return _similarity_pass(ratings, min_co, only)

        monkeypatch.setattr(neighborhood, "_similarity_pass", spy)
        for trial in range(6):
            g = random_graph(rng, n_max=14)
            train, test, cold = cold_start_split(random_ratings(rng, g.n, 9, density=0.6),
                                                 0.4, seed=trial)
            cold = np.array(sorted(cold), np.int64)
            sims, sets = build_similarity_cache(train), build_propagated_sets(g, 2, 2)
            warm = rng.permutation(train.nnz)[:10]
            for users, items in ((test.users, test.items),
                                 (np.concatenate((test.users, train.users[warm])),
                                  np.concatenate((test.items, train.items[warm])))):
                for variant in VARIANTS:
                    asked.clear()
                    got = nb_predict_many(train, None, sets, users, items, variant)
                    (keys,) = asked
                    assert not np.isin(np.divmod(keys, train.n), cold).any()
                    assert got.tolist() == [
                        dict_nb_predict(train, sims, sets, u, i, variant, ascending=True)
                        for u, i in zip(users.tolist(), items.tolist())]

    def test_empty_restriction_lists_no_pairs(self, rng, monkeypatch):
        r = random_ratings(rng, 12, 8, density=0.7)
        monkeypatch.setattr(neighborhood, "ranges", None)  # the pair listing's helper
        counts, pcc = _similarity_pass(r, 3, np.zeros(0, np.int64))
        assert len(counts) == len(pcc) == 0
        assert (counts.dtype, pcc.dtype) == (np.int64, np.float64)

    def test_cache_without_a_positive_weight_gives_the_means(self, rng):
        """A cache listing no pair, or only pairs whose weight is undefined,
        zero or negative, weighs no neighbor: every prediction is the user's
        mean, or the global mean for a user without ratings."""
        for r, sets in self.instances(rng):
            users, items = (a.ravel() for a in np.meshgrid(np.arange(r.n), np.arange(r.m)))
            full = build_similarity_cache(r, 1)
            means = np.minimum(np.maximum(r.user_means[users], r.r_min), r.r_max)
            for pcc in (None, np.full(len(full.pcc), np.nan), -np.abs(full.pcc),
                        np.where(np.isnan(full.pcc), np.nan, 0.0)):
                sims = (SimilarityCache(full.keys[:0], full.co_counts[:0], full.pcc[:0], 1, r.n)
                        if pcc is None else SimilarityCache(full.keys, full.co_counts, pcc, 1, r.n))
                for variant in VARIANTS:
                    got = nb_predict_many(r, sims, sets, users, items, variant)
                    assert got.tobytes() == means.tobytes()

    def test_no_self_weight(self, monkeypatch):
        """A user who rated the asked item is no neighbor of their own: with
        the other raters' weights undefined, the prediction is the user's
        mean, by merge and by the blocks, with or without a cache (a self
        weight of 1 would predict the user's own rating)."""
        # users 0 and 1 co-rate items 0..3, user 1 constantly; only user 0 rated item 4
        r = SparseRatings.from_entries(3, 5, [(0, i, v) for i, v in enumerate([1.0, 2, 4, 5, 5])]
                                       + [(1, i, 3.0) for i in range(4)] + [(2, 0, 2.0)])
        sets = build_propagated_sets(SocialGraph.from_edges(3, [(0, 1), (0, 2)], []), 2, 2)
        users, items = np.array([0, 0, 0]), np.array([4, 0, 3])
        for variant, merges in product(VARIANTS, (False, True)):
            monkeypatch.setattr(neighborhood, "_merges", lambda *_: merges)
            for sims in (None, build_similarity_cache(r, 1)):
                got = nb_predict_many(r, sims, sets, users, items, variant)
                assert got.tolist() == [r.user_means[0]] * 3
            counts, pcc = _similarity_pass(r, 1, np.array([0, 1, 2, 4, 8]))  # keys u * 3 + v
            assert counts.tolist() == [0, 4, 1, 0, 0] and np.isnan(pcc).all()

    def test_range_and_variant_checks(self):
        r = self.worked_example()
        sims = build_similarity_cache(r)
        with pytest.raises(IndexError, match="user index 2 out of range"):
            nb_predict(r, sims, None, 2, 0)
        with pytest.raises(IndexError, match="item index -1 out of range"):
            nb_predict_many(r, sims, None, [0, 1], [0, -1])
        with pytest.raises(ValueError, match="needs propagated sets"):
            nb_predict_many(r, None, None, [0], [3], "nb-t")
        sets = build_propagated_sets(SocialGraph.from_edges(2, [(0, 1)], []))
        with pytest.raises(ValueError, match="unknown variant 'nb-x'"):
            nb_predict_many(r, None, sets, [0], [3], "nb-x")
