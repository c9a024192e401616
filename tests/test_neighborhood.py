import numpy as np
import pytest

from trustfactor.data import SocialGraph, SparseRatings
from trustfactor.neighborhood import (
    build_propagated_sets,
    build_similarity_cache,
    nb_predict,
    neighbor_pool,
    pearson,
    propagate_distrust,
    propagate_trust,
)

from conftest import random_graph, random_ratings


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
                assert cache.weight(u, v) == pearson(r, u, v, min_co=3)

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
                        assert cache.weight(u, v) == pearson(r, u, v, min_co=min_co)
                        assert cache.weight(v, u) == cache.weight(u, v)
                        assert counts.get((u, v), 0) == len(rated[u] & rated[v])
                    assert cache.neighbors(u) == [
                        v for v in range(r.n)
                        if v != u and pearson(r, u, v, min_co=min_co) is not None]
                assert len(counts) == len(cache.pairs)
                assert all(c > 0 for c in counts.values())

    def test_neighbors_symmetric(self, rng):
        r = random_ratings(rng, 8, 10, density=0.6)
        cache = build_similarity_cache(r)
        for u in range(8):
            for v in cache.neighbors(u):
                assert u in cache.neighbors(v)


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
        sets = build_propagated_sets(six_user_graph(), p=3, q=2)
        assert sets.trusted[0] == {1, 2, 3}
        assert sets.distrusted[0] == {2, 4}
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
        assert sets.trusted[0] == {1, 2, 5}
        assert sets.distrusted[0] == {2}
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


def dict_nb_predict(ratings, sims, sets, u, i, variant):
    """nb_predict over per-user rating dicts, the reference for the version
    that reads item columns from the item-major view."""
    by_user = [{} for _ in range(ratings.n)]
    for v, item, value in ratings.entries():
        by_user[v][item] = value
    num = 0.0
    den = 0.0
    for v in neighbor_pool(sims, sets, u, variant):
        rating = by_user[v].get(i)
        if rating is None:
            continue
        w = sims.weight(u, v)
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
        assert sims.weight(0, 1) == pytest.approx(1.0)
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
                        assert nb_predict(r, sims, sets, u, i, variant) == \
                            dict_nb_predict(r, sims, sets, u, i, variant)
