import numpy as np
import pytest

from trustfactor.data import (
    FactorModel,
    Hyperparams,
    SocialGraph,
    SparseRatings,
    extract_triplets,
    init_model,
    lazy_triplets,
    predict_many,
    predict_rating,
    sample_triplet,
    sample_triplets,
)
from trustfactor.seeding import substream

from conftest import random_graph


def figure_graph():
    """Seven users; u0 trusts u1, u3, u5, u6 and distrusts u2, u4."""
    return SocialGraph.from_edges(
        7,
        trust_edges=[(0, 1), (0, 3), (0, 5), (0, 6)],
        distrust_edges=[(0, 2), (0, 4)],
    )


def brute_force_triplets(graph):
    out = []
    for i in range(graph.n):
        for j in graph.trust_adj[i]:
            for k in graph.distrust_adj[i]:
                out.append((i, j, k))
    return out


class TestSparseRatings:
    def test_basic_construction(self):
        r = SparseRatings.from_entries(2, 3, [(0, 0, 4.0), (0, 2, 1.0), (1, 1, 5.0)])
        assert r.nnz == 3
        assert r.n == 2 and r.m == 3

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseRatings.from_entries(2, 2, [(0, 0, 4.0), (0, 0, 3.0)])

    def test_rejects_out_of_range_rating(self):
        with pytest.raises(ValueError, match="outside"):
            SparseRatings.from_entries(1, 1, [(0, 0, 6.0)])

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseRatings.from_entries(1, 1, [(1, 0, 3.0)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_rating(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SparseRatings.from_entries(2, 1, [(0, 0, 3.0), (1, 0, bad)])

    def test_user_means(self):
        r = SparseRatings.from_entries(3, 2, [(0, 0, 2.0), (0, 1, 4.0), (1, 0, 5.0)])
        assert r.user_means[0] == 3.0
        assert r.user_means[1] == 5.0
        # user 2 has no ratings and falls back to the global mean
        assert r.user_means[2] == pytest.approx(11.0 / 3.0)

    def test_arrays_immutable(self):
        r = SparseRatings.from_entries(1, 1, [(0, 0, 3.0)])
        with pytest.raises(ValueError):
            r.values[0] = 4.0

    def test_item_major_view(self):
        r = SparseRatings.from_entries(3, 4, [(2, 1, 4.0), (0, 3, 1.0), (0, 1, 2.0),
                                              (1, 0, 5.0), (1, 1, 3.0)])
        users, values, offsets = r.by_item
        assert users.tolist() == [1, 0, 1, 2, 0]
        assert values.tolist() == [5.0, 2.0, 3.0, 4.0, 1.0]
        assert offsets.tolist() == [0, 1, 4, 4, 5]


def test_array_containers_compare_and_hash_by_identity():
    made = []
    for _ in range(2):
        graph = SocialGraph.from_edges(3, [(0, 1)], [(0, 2)])
        made.append((graph, SparseRatings.from_entries(2, 2, [(0, 1, 3.0)]),
                     extract_triplets(graph)))
    for a, b in zip(*made):
        assert a == a and a != b
        assert len({a, a, b}) == 2


class TestSocialGraph:
    def test_rejects_self_edge(self):
        with pytest.raises(ValueError, match="self-edge"):
            SocialGraph.from_edges(2, [(0, 0)], [])

    def test_rejects_contradiction(self):
        with pytest.raises(ValueError, match="trusts and distrusts"):
            SocialGraph.from_edges(2, [(0, 1)], [(0, 1)])

    def test_rejects_duplicate_neighbor(self):
        with pytest.raises(ValueError, match="duplicate neighbor for user 1"):
            SocialGraph.from_edges(3, [(0, 2)], [(1, 0), (1, 2), (1, 0)])

    @pytest.mark.parametrize("sign", ["trust", "distrust"])
    @pytest.mark.parametrize("target", [3, -1])
    def test_rejects_target_out_of_range(self, sign, target):
        edges = {"trust_edges": [], "distrust_edges": [], f"{sign}_edges": [(1, 0), (1, target)]}
        with pytest.raises(ValueError, match=rf"^{sign} edge \(1, {target}\): neighbor index "
                                             rf"{target} out of range$"):
            SocialGraph.from_edges(3, **edges)

    @pytest.mark.parametrize("source", [-1, 3])
    def test_rejects_source_out_of_range(self, source):
        with pytest.raises(ValueError, match=rf"^trust edge \({source}, 1\): source index "
                                             rf"{source} out of range$"):
            SocialGraph.from_edges(3, [(0, 1), (source, 1)], [])

    def test_rejects_malformed_input(self):
        with pytest.raises(ValueError, match="pairs"):
            SocialGraph.from_edges(3, [(0, 1, 2)], [])
        with pytest.raises(ValueError, match="trust offsets"):
            SocialGraph(2, [0, 1], [1], [0, 0, 0], [])

    def test_edge_arrays(self):
        g = figure_graph()
        assert g.trust_count == 4
        assert g.distrust_count == 2
        assert g.trust_edge_array.shape == (4, 2)

    def test_csr_keeps_each_users_input_order(self):
        trust = [(2, 0), (0, 3), (2, 1), (0, 1)]
        for edges in (trust, np.array(trust)):
            g = SocialGraph.from_edges(4, edges, [(3, 0)])
            assert g.trust_offsets.tolist() == [0, 2, 2, 4, 4]
            assert g.trust_targets.tolist() == [3, 1, 0, 1]
            assert g.trust_edge_array.tolist() == [[0, 3], [0, 1], [2, 0], [2, 1]]
            assert g.distrust_offsets.tolist() == [0, 0, 0, 0, 1]
            assert [a.tolist() for a in g.trust_adj] == [[3, 1], [], [0, 1], []]
        with pytest.raises(ValueError):
            g.trust_adj[0][0] = 2


class TestExtractTriplets:
    def test_figure_counts(self):
        store = extract_triplets(figure_graph())
        assert store.total == 8
        assert np.all(store.triplets[:, 0] == 0)

    def test_trust_only_graph_is_empty(self):
        g = SocialGraph.from_edges(3, [(0, 1), (1, 2)], [])
        assert extract_triplets(g).total == 0

    def test_two_by_three(self):
        g = SocialGraph.from_edges(
            6, [(0, 1), (0, 2)], [(0, 3), (0, 4), (0, 5)])
        assert extract_triplets(g).total == 6

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = random_graph(rng)
            store = extract_triplets(g)
            expected = brute_force_triplets(g)
            assert store.total == len(expected)
            assert [tuple(t) for t in store.triplets.tolist()] == expected
            assert store.total == sum(
                len(g.trust_adj[u]) * len(g.distrust_adj[u]) for u in range(g.n))

    def test_lazy_blocks_cover_the_materialized_set(self, rng):
        for _ in range(20):
            g = random_graph(rng)
            blocks = list(lazy_triplets(g).iter_blocks())
            assert all(isinstance(i, int) for i, _, _ in blocks)
            rows = [np.column_stack((np.full(len(j), i), j, k)) for i, j, k in blocks]
            expected = extract_triplets(g).triplets
            assert np.array_equal(np.concatenate(rows or [np.empty((0, 3), int)]), expected)

    def test_sign_conditions_hold(self, rng):
        g = random_graph(rng)
        store = extract_triplets(g)
        for i, j, k in store.triplets.tolist():
            assert j in g.trust_adj[i]
            assert k in g.distrust_adj[i]


def hub_graph(rng, n=400, cap=80):
    """Zipf out-degrees capped at `cap`, each edge's sign a fair coin."""
    trust, distrust = [], []
    for u in range(n):
        degree = min(int(rng.zipf(1.8)), cap)
        others = np.delete(np.arange(n), u)
        for v in rng.choice(others, size=degree, replace=False).tolist():
            (trust if rng.random() < 0.5 else distrust).append((u, v))
    return SocialGraph.from_edges(n, trust, distrust)


def per_row_sample(store, rng, size):
    """Reference lazy sampler: a user draw per row, then j and k per row."""
    flat = rng.integers(0, store.total, size=size)
    users = np.searchsorted(np.cumsum(store.counts), flat, side="right")
    out = np.empty((size, 3), dtype=np.int64)
    for row, u in enumerate(users):
        plus, minus = store.graph.trust_adj[u], store.graph.distrust_adj[u]
        out[row] = u, plus[rng.integers(0, len(plus))], minus[rng.integers(0, len(minus))]
    return out


class TestSampling:
    def test_lazy_equals_per_row_loop(self):
        store = lazy_triplets(hub_graph(np.random.default_rng(5)))
        assert np.sum(store.counts == 1) > 0 and store.counts.max() > 1000
        for seed in range(5):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in (4096, 1, 0, 7, 4096):
                got = sample_triplets(store, fast, size)
                assert got.dtype == np.int64 and got.shape == (size, 3)
                assert np.array_equal(got, per_row_sample(store, slow, size))
            assert fast.integers(0, 2**62) == slow.integers(0, 2**62)

    def test_single_triplet_store(self):
        g = SocialGraph.from_edges(3, [(0, 1)], [(0, 2)])
        store = extract_triplets(g)
        rng = substream(1, "test")
        assert sample_triplet(store, rng) == (0, 1, 2)

    def test_empty_store_errors(self):
        g = SocialGraph.from_edges(2, [(0, 1)], [])
        with pytest.raises(ValueError, match="no social constraints"):
            sample_triplet(extract_triplets(g), substream(0, "x"))

    def test_uniform_over_figure_store(self):
        store = extract_triplets(figure_graph())
        rng = substream(11, "sampling")
        draws = sample_triplets(store, rng, 80_000)
        keys = draws[:, 1] * 10 + draws[:, 2]
        _, counts = np.unique(keys, return_counts=True)
        freq = counts / 80_000
        sigma = np.sqrt(0.125 * 0.875 / 80_000)
        assert len(freq) == 8
        assert np.all(np.abs(freq - 0.125) <= 3 * sigma)

    def test_lazy_matches_materialized_distribution(self):
        g = SocialGraph.from_edges(
            6, [(0, 1), (0, 2), (3, 4)], [(0, 5), (3, 5), (3, 2)])
        mat = extract_triplets(g)
        laz = lazy_triplets(g)
        assert laz.total == mat.total == 4
        n = 60_000
        a = sample_triplets(mat, substream(3, "a"), n)
        b = sample_triplets(laz, substream(4, "b"), n)

        def freqs(draws):
            keys = (draws[:, 0] * 36 + draws[:, 1] * 6 + draws[:, 2]).tolist()
            return {key: keys.count(key) / n for key in set(keys)}

        fa, fb = freqs(a), freqs(b)
        p = 1.0 / mat.total
        bound = 3 * np.sqrt(2 * p * (1 - p) / n)
        for key in set(fa) | set(fb):
            assert abs(fa.get(key, 0.0) - fb.get(key, 0.0)) <= bound

    def test_lazy_user_marginal(self):
        # c(0) = 1 trust * 2 distrust = 2, c(3) = 3 * 2 = 6
        g = SocialGraph.from_edges(
            6, [(0, 1), (3, 1), (3, 2), (3, 4)], [(0, 2), (0, 4), (3, 0), (3, 5)])
        store = lazy_triplets(g)
        assert store.counts[0] == 2 and store.counts[3] == 6
        draws = sample_triplets(store, substream(9, "marginal"), 50_000)
        share_u0 = np.mean(draws[:, 0] == 0)
        expect = store.counts[0] / store.total
        assert abs(share_u0 - expect) <= 3 * np.sqrt(expect * (1 - expect) / 50_000)


class TestPredict:
    def test_hand_example(self):
        model = FactorModel(np.array([[1.0, 2.0]]), np.array([[3.0, 1.0]]), 2)
        assert predict_rating(model, 0, 0, clamp=False) == 5.0
        assert predict_rating(model, 0, 0, clamp=True) == 5.0

    def test_zero_vector_clamps_to_minimum(self):
        model = FactorModel(np.zeros((1, 2)), np.ones((1, 2)), 2)
        assert predict_rating(model, 0, 0, clamp=False) == 0.0
        assert predict_rating(model, 0, 0, clamp=True) == 1.0

    def test_unit_vectors(self):
        e1 = np.array([[1.0, 0.0]])
        model = FactorModel(e1, e1, 2)
        assert predict_rating(model, 0, 0) == 1.0

    def test_out_of_range_index(self):
        model = init_model(2, 2, 2, seed=0)
        with pytest.raises(IndexError):
            predict_rating(model, 5, 0)

    def test_clamped_always_in_bounds(self, rng):
        model = FactorModel(rng.normal(0, 3, (6, 3)), rng.normal(0, 3, (5, 3)), 3)
        users = rng.integers(0, 6, 50)
        items = rng.integers(0, 5, 50)
        preds = predict_many(model, users, items, clamp=True)
        assert np.all(preds >= 1.0) and np.all(preds <= 5.0)


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(lambda_u=-1.0)
        with pytest.raises(ValueError):
            Hyperparams(loss="huber")
        with pytest.raises(ValueError):
            Hyperparams(batch_size=0)

    @pytest.mark.parametrize("name", ["lambda_u", "lambda_v", "lambda_s", "alpha", "beta", "eta0"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=name):
            Hyperparams(**{name: bad})

    def test_replace(self):
        hp = Hyperparams().replace(lambda_s=2.5, social="triplet-margin")
        assert hp.lambda_s == 2.5 and hp.social == "triplet-margin"
