import numpy as np
import pytest

from trustfactor.data import (
    FactorModel,
    Hyperparams,
    SocialGraph,
    SparseRatings,
    extract_triplets,
)
from trustfactor.experiments import (
    SplitSpec,
    SyntheticSpec,
    cold_start_split,
    consistency_eval,
    distrust_tradeoff_run,
    evaluate_model,
    grid_search,
    majority_vote_eval,
    split_ratings,
    synth_generate,
)
from trustfactor.metrics import RankedList, average_precision, ndcg_at_k, precision_recall_at_k
from trustfactor.neighborhood import pearson
from trustfactor.optimize import fit_gd
from trustfactor.seeding import substream

from conftest import random_graph, random_ratings


def small_synth(seed=0, **overrides):
    spec = dict(n=30, m=15, rank=2, clusters=2, density=0.5, noise_sigma=0.1,
                n_trust=40, n_distrust=40, seed=seed)
    spec.update(overrides)
    return synth_generate(SyntheticSpec(**spec))


class TestSplitRatings:
    def test_floor_counting(self, rng):
        ratings = random_ratings(rng, 5, 4, density=0.6)
        ratings = ratings.subset(np.arange(10)) if ratings.nnz >= 10 else ratings
        spec = SplitSpec(fraction=0.9, seed=1)
        train, test = split_ratings(ratings.subset(np.arange(10)), spec)
        assert train.nnz == 9 and test.nnz == 1

    def test_deterministic(self, rng):
        ratings = random_ratings(rng, 8, 8, density=0.5)
        spec = SplitSpec(fraction=0.7, seed=5)
        a_train, a_test = split_ratings(ratings, spec)
        b_train, b_test = split_ratings(ratings, spec)
        assert np.array_equal(a_train.users, b_train.users)
        assert np.array_equal(a_test.items, b_test.items)

    def test_partition(self, rng):
        ratings = random_ratings(rng, 8, 8, density=0.5)
        train, test = split_ratings(ratings, SplitSpec(0.8, 3))
        keys = set(zip(ratings.users.tolist(), ratings.items.tolist()))
        train_keys = set(zip(train.users.tolist(), train.items.tolist()))
        test_keys = set(zip(test.users.tolist(), test.items.tolist()))
        assert train_keys | test_keys == keys
        assert not train_keys & test_keys

    def test_empty_side_errors(self):
        ratings = SparseRatings.from_entries(2, 2, [(0, 0, 3.0), (1, 1, 4.0)])
        with pytest.raises(ValueError, match="empty side"):
            split_ratings(ratings, SplitSpec(0.2, 0))

    def test_repetitions_differ(self, rng):
        ratings = random_ratings(rng, 8, 8, density=0.5)
        spec = SplitSpec(0.7, seed=5)
        a, _ = split_ratings(ratings, spec, repetition=0)
        b, _ = split_ratings(ratings, spec, repetition=1)
        assert not np.array_equal(a.users, b.users) or not np.array_equal(a.items, b.items)


class TestColdStartSplit:
    def test_cold_users_have_no_training_ratings(self, rng):
        ratings = random_ratings(rng, 10, 6, density=0.6)
        train, test, cold = cold_start_split(ratings, 0.3, seed=2)
        assert len(cold) == 3
        assert not set(train.users.tolist()) & cold
        assert set(test.users.tolist()) <= cold
        assert train.nnz + test.nnz == ratings.nnz

    def test_single_cold_user(self, rng):
        ratings = random_ratings(rng, 10, 6, density=0.6)
        train, test, cold = cold_start_split(ratings, 0.1, seed=2)
        assert len(cold) == 1
        (user,) = cold
        assert np.all(test.users == user)

    def test_graph_untouched(self, rng):
        # splitting moves ratings only; callers keep using the same graph
        ratings = random_ratings(rng, 10, 6, density=0.6)
        graph = SocialGraph.from_edges(10, [(0, 1)], [(0, 2)])
        _, _, cold = cold_start_split(ratings, 0.2, seed=0)
        assert graph.trust_adj[0] == (1,)


class TestGridSearch:
    def test_single_point(self, rng):
        ratings, graph, _ = small_synth()
        train, validation = split_ratings(ratings, SplitSpec(0.8, 0))
        store = extract_triplets(graph)
        hp = Hyperparams(k=2, eta0=0.02, epochs=40, social="triplet-margin")
        result = grid_search(train, validation, store, hp, "lambda_v",
                             [0.5], [0.1], seed=0)
        assert result.best == result.rows[0]
        assert len(result.rows) == 1

    def test_surface_size_and_argmin_consistency(self):
        ratings, graph, _ = small_synth(seed=4)
        train, validation = split_ratings(ratings, SplitSpec(0.8, 0))
        store = extract_triplets(graph)
        hp = Hyperparams(k=2, eta0=0.02, epochs=30, social="triplet-margin")
        result = grid_search(train, validation, store, hp, "lambda_u",
                             [0.0, 1.0], [0.01, 0.1, 1.0], seed=0)
        assert len(result.rows) == 6
        assert result.best == min(result.rows, key=lambda r: (r[2], r[0], r[1]))

    def test_social_signal_selects_positive_lambda(self):
        # sparse ratings plus a cluster-aligned graph: the social term must
        # carry real signal, so the argmin lands at lambda_s > 0
        ratings, graph, _ = small_synth(seed=7, density=0.12, n=60, m=30,
                                        n_trust=160, n_distrust=160)
        train, validation = split_ratings(ratings, SplitSpec(0.7, 1))
        store = extract_triplets(graph)
        hp = Hyperparams(k=2, eta0=0.02, epochs=150, lambda_u=0.05,
                         lambda_v=0.05, social="triplet-margin")
        result = grid_search(train, validation, store, hp, "lambda_v",
                             [0.0, 2.0], [0.05], seed=0)
        assert result.best[0] > 0.0

    def test_diverged_point_scores_inf(self):
        ratings, graph, _ = small_synth()
        train, validation = split_ratings(ratings, SplitSpec(0.8, 0))
        store = extract_triplets(graph)
        hp = Hyperparams(k=2, eta0=80.0, epochs=60, social="triplet-margin")
        result = grid_search(train, validation, store, hp, "lambda_v",
                             [0.1], [0.1], seed=0)
        assert result.rows[0][2] == float("inf")


def per_user_consistency(ratings, graph, relation, bin_edges=(0, 20, 40, 60, 80)):
    """consistency_eval's bins from a per-user loop over the scalar Pearson,
    the reference for the ranking over the similarity cache."""
    rated = [set(ratings.items[ratings.users == u].tolist()) for u in range(ratings.n)]
    adj = graph.trust_adj if relation == "trust" else graph.distrust_adj
    sign = -1.0 if relation == "trust" else 1.0
    per_bin = {}
    for u in range(ratings.n):
        candidates = [v for v in range(ratings.n) if v != u and rated[u] & rated[v]]
        relevant = set(adj[u].tolist())
        scored = []
        for v in candidates:
            w = pearson(ratings, u, v, min_co=1)
            scored.append((0.0 if w is None else w, v in relevant, v))
        scored.sort(key=lambda t: (sign * t[0], not t[1], t[2]))
        flags = RankedList(tuple(1 if rel else 0 for _, rel, _ in scored))
        if flags.total_relevant == 0:
            continue
        count = len(rated[u])
        label = next((f"[{lo},{hi})" for lo, hi in zip(bin_edges, bin_edges[1:])
                      if lo <= count < hi), f">={bin_edges[-1]}")
        per_bin.setdefault(label, []).append({
            "ndcg@10": ndcg_at_k(flags, 10),
            "ndcg@20": ndcg_at_k(flags, 20),
            "recall@10": precision_recall_at_k(flags, 10)[1],
            "recall@20": precision_recall_at_k(flags, 20)[1],
            "recall@40": precision_recall_at_k(flags, 40)[1],
            "ap": average_precision(flags),
        })
    bins = {}
    for label, rows in per_bin.items():
        agg = {key: sum(r[key] for r in rows) / len(rows) for key in rows[0]}
        agg["map"] = agg.pop("ap")
        agg["users"] = len(rows)
        bins[label] = agg
    return bins


class TestConsistencyEval:
    def test_ideal_alignment(self):
        # u0 co-rates with exactly its trusted friend, perfectly correlated;
        # the one distrusted co-rater anti-correlates
        entries = [
            (0, 0, 1.0), (0, 1, 3.0), (0, 2, 5.0),
            (1, 0, 2.0), (1, 1, 3.0), (1, 2, 4.0),
            (2, 0, 5.0), (2, 1, 3.0), (2, 2, 1.0),
        ]
        ratings = SparseRatings.from_entries(3, 3, entries)
        graph = SocialGraph.from_edges(3, [(0, 1)], [(0, 2)])
        result = consistency_eval(ratings, graph, "trust")
        label = "[0,20)"
        assert result.bins[label]["ndcg@10"] == 1.0
        assert result.bins[label]["map"] == 1.0
        distrust = consistency_eval(ratings, graph, "distrust")
        assert distrust.bins[label]["map"] == 1.0

    def test_matches_brute_force_on_ten_users(self, rng):
        ratings = random_ratings(rng, 10, 12, density=0.6)
        trust = [(u, (u + 1) % 10) for u in range(10)]
        distrust = [(u, (u + 2) % 10) for u in range(10)]
        graph = SocialGraph.from_edges(10, trust, distrust)
        for relation in ("trust", "distrust"):
            result = consistency_eval(ratings, graph, relation)
            expected = per_user_consistency(ratings, graph, relation)
            assert list(result.bins.items()) == list(expected.items())
            assert all(0.0 <= agg["map"] <= 1.0 for agg in result.bins.values())
            assert all(0.0 <= agg["ndcg@10"] <= 1.0 for agg in result.bins.values())

    def test_matches_per_user_loop_with_ties(self, rng):
        # two-level ratings on few items tie many similarities, constant
        # raters read 0, and bin edges of 2 spread users over several bins
        for trial in range(12):
            graph = random_graph(rng, n_max=16, edge_prob=0.15)
            ratings = random_ratings(rng, graph.n, int(rng.integers(2, 8)), density=0.6,
                                     r_max=2.0 if trial % 2 else 5.0)
            for relation in ("trust", "distrust"):
                got = consistency_eval(ratings, graph, relation, bin_edges=(0, 2, 4))
                expected = per_user_consistency(ratings, graph, relation, (0, 2, 4))
                assert list(got.bins.items()) == list(expected.items())

    def test_cluster_signal_beats_shuffled_relevance(self):
        # trust aligns with rating clusters, so observed MAP must beat a
        # relevance-shuffled control on average
        wins = 0
        for seed in range(20):
            ratings, graph, _ = small_synth(seed=seed, n=24, m=12, density=0.6,
                                            n_trust=40, n_distrust=30)
            result = consistency_eval(ratings, graph, "trust")
            observed = np.mean([agg["map"] for agg in result.bins.values()])
            rng = np.random.default_rng(seed)
            perm = rng.permutation(graph.n)
            shuffled = SocialGraph.from_edges(
                graph.n,
                [(u, int(perm[v])) for u, v in graph.trust_edge_array.tolist()
                 if int(perm[v]) != u],
                [],
            )
            control = consistency_eval(ratings, shuffled, "trust")
            baseline = np.mean([agg["map"] for agg in control.bins.values()])
            wins += observed > baseline
        assert wins >= 14


class TestMajorityVote:
    def test_hand_oracle(self):
        # training graph: u0 trusts u1, u2, u3; u1 and u2 trust u4, u3
        # distrusts u4; held-out edge u0 -> u4 is a trust edge
        graph = SocialGraph.from_edges(
            5,
            trust_edges=[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (0, 4)],
            distrust_edges=[(3, 4)],
        )
        # force the held-out sample to contain (0, 4, +1) by scanning seeds
        for seed in range(200):
            result = majority_vote_eval(graph, holdout_fraction=0.15, seed=seed)
            held = {(r.source, r.target, r.actual) for r in result.records}
            if held == {(0, 4, 1)}:
                record = result.records[0]
                assert record.n_plus == 2 and record.n_minus == 1
                assert record.predicted == 1 and record.aligned
                share = [row for row in result.rows if row[0] == "n+>n-" and row[1] == "+"]
                assert share[0][2] == 100.0
                assert share[0][3] == pytest.approx(100 * 2 / 3)
                return
        raise AssertionError("no seed isolated the designed edge")

    def test_tie_abstains(self):
        graph = SocialGraph.from_edges(
            4, trust_edges=[(0, 1), (0, 2), (0, 3)], distrust_edges=[])
        result = majority_vote_eval(graph, holdout_fraction=0.3, seed=0)
        for record in result.records:
            if record.n_plus == record.n_minus:
                assert record.predicted == 0 and record.aligned is None

    def test_shares_sum_to_hundred(self, rng):
        for seed in range(5):
            _, graph, _ = small_synth(seed=seed)
            result = majority_vote_eval(graph, 0.3, seed=seed)
            assert sum(row[2] for row in result.rows) == pytest.approx(100.0)

    def test_deterministic(self):
        _, graph, _ = small_synth(seed=2)
        a = majority_vote_eval(graph, 0.3, seed=9)
        b = majority_vote_eval(graph, 0.3, seed=9)
        assert a.rows == b.rows


class TestTradeoff:
    def test_zero_distrust_leaves_no_triplets(self):
        ratings, graph, _ = small_synth(seed=1)
        hp = Hyperparams(k=2, eta0=0.02, epochs=20, lambda_s=1.0,
                         alpha=0.1, social="triplet-margin")
        result = distrust_tradeoff_run(
            ratings, graph, hp, distrust_fractions=(0.0,), seed=0)
        methods = [row[0] for row in result.rows]
        assert methods == ["mf-td", "mf-t"]

    def test_synthetic_sweep_improves_with_distrust(self):
        wins = 0
        for seed in range(5):
            ratings, graph, _ = small_synth(
                seed=seed, n=40, m=20, density=0.15, n_trust=60, n_distrust=120)
            hp = Hyperparams(k=2, eta0=0.02, epochs=300, lambda_s=5.0,
                             lambda_u=0.05, lambda_v=0.05, alpha=0.1,
                             social="triplet-margin")
            result = distrust_tradeoff_run(
                ratings, graph, hp, distrust_fractions=(0.1, 1.0), seed=seed)
            rows = {row[2]: row[4] for row in result.rows if row[0] == "mf-td"}
            wins += rows[1.0] <= rows[0.1]
        assert wins >= 4


class TestWorkerParallelism:
    def test_grid_result_independent_of_thread_count(self, monkeypatch):
        ratings, graph, _ = small_synth(seed=9)
        train, validation = split_ratings(ratings, SplitSpec(0.8, 0))
        store = extract_triplets(graph)
        hp = Hyperparams(k=2, eta0=0.02, epochs=25, social="triplet-margin")
        results = []
        for threads in ("1", "3"):
            monkeypatch.setenv("TRUSTFACTOR_THREADS", threads)
            results.append(grid_search(train, validation, store, hp, "lambda_v",
                                       [0.0, 1.0], [0.05, 0.5], seed=0))
        assert results[0].rows == results[1].rows
        assert results[0].best == results[1].best


def enumerated_synth(spec):
    """Reference generator: the dense planted matrix and explicit lists of
    every intra- and inter-cluster pair, drawn from in list order."""
    rng = substream(spec.seed, "synth")
    assignment = np.sort(np.arange(spec.n) % spec.clusters)
    u_star = np.zeros((spec.n, spec.rank))
    u_star[np.arange(spec.n), assignment] = 1.0
    v_star = rng.integers(spec.item_low, spec.item_high + 1, size=(spec.m, spec.rank)).astype(float)
    full = u_star @ v_star.T
    per_user = np.full(spec.n, spec.density)
    if spec.light_user_fraction > 0:
        light = rng.permutation(spec.n)[:int(spec.light_user_fraction * spec.n)]
        per_user *= spec._heavy_scale()
        per_user[light] = spec.density * spec.light_density_scale
    users, items = np.nonzero(rng.random((spec.n, spec.m)) < per_user[:, None])
    noise = rng.normal(0.0, spec.noise_sigma, size=len(users)) if spec.noise_sigma > 0 else 0.0
    values = np.clip(np.rint(full[users, items] + noise), spec.r_min, spec.r_max)
    members = [np.flatnonzero(assignment == c) for c in range(spec.clusters)]
    intra = [(a, b) for c in range(spec.clusters)
             for a in members[c] for b in members[c] if a != b]
    inter = [(a, b) for ca in range(spec.clusters) for cb in range(spec.clusters) if ca != cb
             for a in members[ca] for b in members[cb]]
    trust_idx = rng.choice(len(intra), size=spec.n_trust, replace=False)
    distrust_idx = rng.choice(len(inter), size=spec.n_distrust, replace=False)
    trust = [intra[i] for i in np.sort(trust_idx)]
    distrust = [inter[i] for i in np.sort(distrust_idx)]
    return users, items, values, trust, distrust, u_star, v_star


class TestSynthGenerate:
    @pytest.mark.parametrize("spec", [
        dict(n=30, m=15, rank=2, clusters=2, density=0.5, noise_sigma=0.1, n_trust=40,
             n_distrust=40, seed=0),
        dict(n=25, m=10, rank=1, clusters=1, density=0.4, noise_sigma=0.0, n_trust=600,
             n_distrust=0, seed=1),
        dict(n=40, m=12, rank=7, clusters=7, density=0.3, noise_sigma=0.5, n_trust=100,
             n_distrust=1300, seed=2),
        dict(n=53, m=20, rank=5, clusters=4, density=0.2, noise_sigma=0.2, n_trust=300,
             n_distrust=500, seed=3, light_user_fraction=0.3, light_density_scale=0.2,
             item_low=-2, item_high=3),
        dict(n=9, m=6, rank=3, clusters=3, density=1.0, noise_sigma=0.0, n_trust=18,
             n_distrust=54, seed=4),
    ])
    def test_equals_enumerated_pairs(self, spec):
        spec = SyntheticSpec(**spec)
        ratings, graph, (u_star, v_star) = synth_generate(spec)
        users, items, values, trust, distrust, u_ref, v_ref = enumerated_synth(spec)
        assert np.array_equal(ratings.users, users) and np.array_equal(ratings.items, items)
        assert ratings.values.tobytes() == values.tobytes()
        for adjacency, pairs in ((graph.trust_adj, trust), (graph.distrust_adj, distrust)):
            assert [a.tolist() for a in adjacency] == [
                [b for a, b in pairs if a == u] for u in range(spec.n)]
        assert np.array_equal(u_star, u_ref) and np.array_equal(v_star, v_ref)

    def test_constant_model(self):
        spec = SyntheticSpec(n=4, m=3, rank=1, clusters=1, density=1.0,
                             noise_sigma=0.0, n_trust=2, n_distrust=0,
                             seed=0, item_low=1, item_high=1)
        ratings, _, _ = synth_generate(spec)
        assert np.all(ratings.values == 1.0)
        spec4 = SyntheticSpec(n=4, m=3, rank=1, clusters=1, density=1.0,
                              noise_sigma=0.0, n_trust=2, n_distrust=0,
                              seed=0, item_low=4, item_high=4)
        ratings4, _, _ = synth_generate(spec4)
        assert np.all(ratings4.values == 4.0)

    def test_edges_respect_clusters(self):
        ratings, graph, (u_star, _) = small_synth(seed=6)
        assignment = np.argmax(u_star, axis=1)
        for u, v in graph.trust_edge_array.tolist():
            assert assignment[u] == assignment[v]
        for u, v in graph.distrust_edge_array.tolist():
            assert assignment[u] != assignment[v]

    def test_deterministic(self):
        a_r, a_g, (a_u, a_v) = small_synth(seed=12)
        b_r, b_g, (b_u, b_v) = small_synth(seed=12)
        assert np.array_equal(a_r.values, b_r.values)
        for name in ("trust_offsets", "trust_targets", "distrust_offsets", "distrust_targets"):
            assert np.array_equal(getattr(a_g, name), getattr(b_g, name))
        assert np.array_equal(a_u, b_u) and np.array_equal(a_v, b_v)

    def test_infeasible_edge_count_errors(self):
        with pytest.raises(ValueError, match="cannot place"):
            synth_generate(SyntheticSpec(n=4, m=3, rank=2, clusters=2,
                                         density=0.5, noise_sigma=0.1,
                                         n_trust=100, n_distrust=1, seed=0))

    def test_planted_factor_noise_floor(self):
        ratings, graph, (u_star, v_star) = small_synth(seed=3)
        planted = FactorModel(u_star, v_star, u_star.shape[1])
        hp = Hyperparams(k=u_star.shape[1], eta0=0.0, epochs=1)
        model, report = fit_gd(ratings, None, hp, model0=planted)
        _, direct_rmse = evaluate_model(planted, ratings, clamp=True)
        assert report.records[-1].train_rmse == direct_rmse
