import numpy as np
import pytest

from trustfactor.data import (
    BLOCK_ROWS,
    FactorModel,
    Hyperparams,
    SocialGraph,
    SparseRatings,
    extract_triplets,
    init_model,
    lazy_triplets,
    predict_many,
    sample_triplets,
)
from trustfactor.fileio import load_dataset
from trustfactor.keys import sort_by_key, stable_order
from trustfactor.seeding import substream

from conftest import random_graph, random_ratings


def predict_rating(model: FactorModel, u: int, i: int, clamp: bool = True,
                   r_min: float = 1.0, r_max: float = 5.0) -> float:
    """Dot product of user row u and item row i, optionally clipped to bounds."""
    if not 0 <= u < model.n:
        raise IndexError(f"user index {u} out of range [0, {model.n})")
    if not 0 <= i < model.m:
        raise IndexError(f"item index {i} out of range [0, {model.m})")
    raw = float(model.U[u] @ model.V[i])
    if clamp:
        return float(min(max(raw, r_min), r_max))
    return raw


def sample_triplet(store, rng: np.random.Generator):
    """Single uniform draw; see sample_triplets."""
    i, j, k = sample_triplets(store, rng, 1)[0]
    return int(i), int(j), int(k)


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

    # (user, item) entries with one repeated pair at the named positions
    @pytest.mark.parametrize("entries", [
        [(1, 2), (1, 2), (0, 0), (2, 1)],          # first two
        [(1, 2), (0, 0), (2, 1), (1, 2)],          # first and last
        [(0, 0), (2, 1), (2, 0), (2, 0)],          # last two
        [(0, 0), (2, 1), (0, 1), (2, 1), (1, 1)],  # middle, apart
        [(2, 2), (2, 2), (2, 2)],                  # every entry
        [(0, 1), (1, 0), (0, 1)],                  # keys 1 and 3 around key 1
    ])
    def test_rejects_duplicates_in_any_position(self, entries):
        for order in (entries, entries[::-1]):
            with pytest.raises(ValueError, match=r"^duplicate \(user, item\) pair$"):
                SparseRatings.from_entries(3, 3, [(u, i, 3.0) for u, i in order])

    def test_accepts_shared_users_and_items(self):
        entries = [(u, i, 1.0 + u) for u in range(4) for i in range(3) if (u + i) % 2]
        for order in (entries, entries[::-1]):
            assert SparseRatings.from_entries(4, 3, order).nnz == len(entries)

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

    # entry positions with a repeat, none rising throughout, and a wrapped
    # negative position that picks the last entry twice
    @pytest.mark.parametrize("index", [[0, 0], [2, 1, 2], [3, 0, 1, 0], [0, 1, 1, 2], [-1, 3]])
    def test_subset_rejects_repeated_positions(self, index):
        r = SparseRatings.from_entries(3, 3, [(0, 0, 1.0), (1, 2, 2.0), (2, 1, 3.0), (0, 2, 4.0)])
        with pytest.raises(ValueError, match=r"^duplicate \(user, item\) pair$"):
            r.subset(np.array(index))

    def test_subset_equals_the_checked_constructor(self, rng):
        # rising positions skip the repeat check; every field is as the full
        # constructor builds it, whichever path the positions take
        full = random_ratings(rng, 30, 20, density=0.4)
        for index in (np.flatnonzero(rng.random(full.nnz) < 0.5), np.arange(full.nnz),
                      rng.permutation(full.nnz)[:40], np.zeros(0, np.int64), [3]):
            got = full.subset(index)
            want = SparseRatings(full.n, full.m, full.users[index], full.items[index],
                                 full.values[index], full.r_min, full.r_max)
            for name in ("n", "m", "r_min", "r_max"):
                assert getattr(got, name) == getattr(want, name)
            for name in ("users", "items", "values"):
                array = getattr(got, name)
                assert array.dtype == getattr(want, name).dtype and not array.flags.writeable
                assert array.tobytes() == getattr(want, name).tobytes()

    def test_item_major_view(self):
        r = SparseRatings.from_entries(3, 4, [(2, 1, 4.0), (0, 3, 1.0), (0, 1, 2.0),
                                              (1, 0, 5.0), (1, 1, 3.0)])
        users, values, offsets = r.by_item
        assert users.tolist() == [1, 0, 1, 2, 0]
        assert values.tolist() == [5.0, 2.0, 3.0, 4.0, 1.0]
        assert offsets.tolist() == [0, 1, 4, 4, 5]


def test_stable_order_equals_stable_argsort(rng, monkeypatch):
    cases = [(np.zeros(0, np.int64), 1), (np.array([0]), 1), (np.array([6]), 7)]
    for _ in range(40):  # few distinct keys: heavy ties
        length, bound = int(rng.integers(2, 300)), int(rng.integers(1, 9)) ** 3
        keys = rng.integers(0, bound, length)
        keys[rng.integers(0, length)] = bound - 1
        cases.append((keys, bound))
    for length in (1, 2, 3, 1000):  # the widest bounds that pack, and one more
        widest = (1 << 63) >> max(length - 1, 0).bit_length()
        keys = np.concatenate(([widest - 1, 0], rng.integers(0, widest, length)))[:length]
        cases += [(keys, widest), (np.where(keys == widest - 1, widest, keys), widest + 1)]
    expected = [np.argsort(keys, kind="stable") for keys, _ in cases]
    for (keys, bound), order in zip(cases, expected):
        packs = bound << max(len(keys) - 1, 0).bit_length() <= 1 << 63
        with monkeypatch.context() as patch:
            if packs:  # the fallback is not taken
                patch.setattr(np, "argsort", None)
            got = stable_order(keys, bound)
            sorted_keys, also = sort_by_key(keys, bound)
        assert got.dtype == np.int64 and got.tolist() == order.tolist() == also.tolist()
        assert sorted_keys.tolist() == np.sort(keys).tolist()


def test_array_containers_compare_and_hash_by_identity():
    made = []
    for _ in range(2):
        graph = SocialGraph.from_edges(3, [(0, 1)], [(0, 2)])
        made.append((graph, SparseRatings.from_entries(2, 2, [(0, 1, 3.0)]),
                     extract_triplets(graph)))
    for a, b in zip(*made):
        assert a == a and a != b
        assert len({a, a, b}) == 2


def per_sign_csr(n, trust_edges, distrust_edges):
    """Reference CSR build: one stable sort by source per sign, the build
    SocialGraph.from_edges replaced with one sort over both signs."""
    csr = []
    for edges in (trust_edges, distrust_edges):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        degrees = np.bincount(edges[:, 0], minlength=n)
        csr += [np.concatenate(([0], np.cumsum(degrees))),
                edges[np.argsort(edges[:, 0], kind="stable"), 1]]
    return csr


class TestSocialGraph:
    def test_rejects_self_edge(self):
        with pytest.raises(ValueError, match="self-edge"):
            SocialGraph.from_edges(2, [(0, 0)], [])

    def test_rejects_contradiction(self):
        with pytest.raises(ValueError, match="trusts and distrusts"):
            SocialGraph.from_edges(2, [(0, 1)], [(0, 1)])

    @pytest.mark.parametrize("seed", range(20))
    def test_contradiction_names_the_lowest_user(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        picked = rng.permutation(len(pairs))
        trust = [pairs[p] for p in picked[: len(pairs) // 3]]
        distrust = [pairs[p] for p in picked[len(pairs) // 3: 2 * len(pairs) // 3]]
        clashes = [trust[t] for t in rng.choice(len(trust), int(rng.integers(1, 4)), replace=False)]
        distrust += clashes
        u = min(c[0] for c in clashes)
        expected = f"user {u} both trusts and distrusts {set(v for s, v in clashes if s == u)}"
        with pytest.raises(ValueError) as err:
            SocialGraph.from_edges(n, trust, distrust)
        assert str(err.value) == expected

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

    def test_distinct_flag_keeps_the_linear_checks(self, tmp_path, monkeypatch):
        """The loader, which has proved its edges distinct and of one sign each,
        skips the graph's sorted repeat and contradiction checks; the range and
        self-edge checks still run, and the graph is the one built without it."""
        flags = []
        build = SocialGraph.from_edges.__func__

        def spy(cls, n, trust_edges=(), distrust_edges=(), _distinct=False):
            flags.append(_distinct)
            return build(cls, n, trust_edges, distrust_edges, _distinct)

        monkeypatch.setattr(SocialGraph, "from_edges", classmethod(spy))
        (tmp_path / "r.tsv").write_text("a\ti\t3\nb\ti\t4\nc\ti\t5\n")
        (tmp_path / "s.tsv").write_text("a\tb\t1\nb\tc\t-1\na\tc\t1\na\tb\t1\n")
        graph = load_dataset(tmp_path / "r.tsv", social_path=tmp_path / "s.tsv").graph
        assert flags == [True]
        checked = SocialGraph.from_edges(3, graph.trust_edge_array, graph.distrust_edge_array)
        for name in ("trust_offsets", "trust_targets", "distrust_offsets", "distrust_targets"):
            assert getattr(graph, name).tolist() == getattr(checked, name).tolist()
        with pytest.raises(ValueError, match="self-edge at user 1"):
            SocialGraph.from_edges(3, [(0, 1)], [(1, 1)], _distinct=True)
        with pytest.raises(ValueError, match=r"distrust edge \(1, 3\): neighbor index 3"):
            SocialGraph.from_edges(3, [(0, 1)], [(1, 3)], _distinct=True)
        with pytest.raises(ValueError, match="source index 3"):
            SocialGraph.from_edges(3, [(3, 1)], [], _distinct=True)

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

    @pytest.mark.parametrize("seed", range(30))
    def test_csr_equals_the_per_sign_build(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 16))
        pairs = [(u, v) for u in range(n - 1) for v in range(n - 1) if u != v]  # user n-1 has none
        picked = [pairs[p] for p in rng.permutation(len(pairs))[:int(rng.integers(0, 40))]]
        cut = {0: 0, 1: len(picked)}.get(seed % 4, int(rng.integers(0, len(picked) + 1)))
        trust, distrust = picked[:cut], picked[cut:]  # sources out of order, a sign may be empty
        if seed % 3:
            trust, distrust = np.array(trust, np.int64), np.array(distrust, np.int64)
        g = SocialGraph.from_edges(n, trust, distrust)
        got = [g.trust_offsets, g.trust_targets, g.distrust_offsets, g.distrust_targets]
        for built, expected in zip(got, per_sign_csr(n, trust, distrust)):
            assert built.dtype == np.int64 and built.tobytes() == expected.tobytes()


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


class TestSampling:
    def test_draws_index_the_listing(self):
        # oracle: a draw is the listed triplet at one uniform index, for
        # lazy and listed stores alike, with the rng left where it would be;
        # both graphs hold users with count 0 and with count 1, the small one
        # on either side of a hub, with few enough rows that 4096 draws reach
        # every one
        small = SocialGraph.from_edges(
            8, [(1, 2), (3, 0), (3, 4), (3, 6), (5, 7), (7, 5)],
            [(0, 1), (3, 1), (3, 7), (5, 6), (6, 2)])
        assert extract_triplets(small).counts.tolist() == [0, 0, 0, 6, 0, 1, 0, 0]
        hubs = hub_graph(np.random.default_rng(5))
        assert extract_triplets(hubs).counts.max() > 1000
        for graph in (hubs, small):
            listed = extract_triplets(graph)
            assert np.sum(listed.counts == 0) > 0 and np.sum(listed.counts == 1) > 0
            for store in (lazy_triplets(graph), listed):
                for seed in range(5):
                    fast, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
                    for size in (4096, 1, 0, 7, 4096):
                        got = sample_triplets(store, fast, size)
                        assert got.dtype == np.int64 and got.shape == (size, 3)
                        index = oracle.integers(0, listed.total, size=size)
                        assert np.array_equal(got, listed.triplets[index])
                    assert fast.integers(0, 2**62) == oracle.integers(0, 2**62)

    def test_draws_at_every_count_boundary(self):
        # a stub generator hands out chosen draws: the first and last index of
        # every user's count range, repeated and in descending order
        class Draws:
            def __init__(self, t):
                self.t = np.asarray(t, dtype=np.int64)

            def integers(self, low, high, size):
                assert (low, high, size) == (0, listed.total, len(self.t))
                return self.t.copy()

        graph = hub_graph(np.random.default_rng(7))
        listed = extract_triplets(graph)
        ends = np.cumsum(listed.counts)
        edges = np.unique(np.concatenate((ends - 1, ends)))
        edges = edges[(edges >= 0) & (edges < listed.total)]
        for t in (edges, edges[::-1], np.repeat(edges, 3), np.tile(edges[::-1], 2),
                  [listed.total - 1] * 5, [0], []):
            for store in (lazy_triplets(graph), listed):
                got = sample_triplets(store, Draws(t), len(t))
                assert got.dtype == np.int64 and got.shape == (len(t), 3)
                assert np.array_equal(got, listed.triplets[np.asarray(t, dtype=np.int64)])

    def test_prefix_sum_is_cached_and_read_only(self):
        for store in (lazy_triplets(figure_graph()), extract_triplets(figure_graph())):
            assert store.ends is store.ends
            assert store.ends.tolist() == np.cumsum(store.counts).tolist()
            with pytest.raises(ValueError):
                store.ends[0] = 0

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
        # one seed, one stream: the draws themselves are equal
        a = sample_triplets(mat, substream(3, "a"), 60_000)
        b = sample_triplets(laz, substream(3, "a"), 60_000)
        assert np.array_equal(a, b)

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

    @pytest.mark.parametrize("size", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                      3 * BLOCK_ROWS + 5])
    def test_blocks_bit_equal_to_one_einsum(self, size):
        rng = np.random.default_rng(size)
        model = FactorModel(rng.normal(0, 1.5, (40, 7)), rng.normal(0, 1.5, (30, 7)), 7)
        users, items = rng.integers(0, 40, size), rng.integers(0, 30, size)
        whole = np.einsum("ij,ij->i", np.take(model.U, users, axis=0),
                          np.take(model.V, items, axis=0))
        raw = predict_many(model, users, items, clamp=False)
        assert raw.shape == (size,) and raw.dtype == np.float64
        assert raw.tobytes() == whole.tobytes()
        clamped = predict_many(model, users.tolist(), items.tolist(), True, 0.5, 2.0)
        assert clamped.tobytes() == np.clip(whole, 0.5, 2.0).tobytes()

    def test_one_side_of_length_one_is_broadcast(self, rng):
        model = FactorModel(rng.normal(size=(3, 2)), rng.normal(size=(BLOCK_ROWS + 2, 2)), 2)
        items = np.arange(BLOCK_ROWS + 2)
        assert (predict_many(model, [1], items, False).tobytes()
                == predict_many(model, np.ones_like(items), items, False).tobytes())
        with pytest.raises(ValueError):
            predict_many(model, [0, 1], [0, 1, 2])

    def test_out_of_range_messages(self):
        model = init_model(3, 2, 2)
        for users, items, message in (([0, 3], [0, 0], "user index out of range"),
                                      ([-1], [0], "user index out of range"),
                                      ([0], [2], "item index out of range"),
                                      ([0], [-1], "item index out of range")):
            with pytest.raises(IndexError) as info:
                predict_many(model, users, items)
            assert str(info.value) == message


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
