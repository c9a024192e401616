import tracemalloc

import numpy as np
import pytest

from trustfactor import experiments, neighborhood
from trustfactor.data import (
    FactorModel,
    Hyperparams,
    SocialGraph,
    SparseRatings,
    extract_triplets,
    lazy_triplets,
)
from trustfactor.experiments import (
    SplitSpec,
    SyntheticSpec,
    cold_start_split,
    consistency_eval,
    distrust_tradeoff_run,
    evaluate_model,
    fit_and_score,
    grid_search,
    majority_vote_eval,
    split_ratings,
    synth_generate,
)
from trustfactor.metrics import RankedList, average_precision, ndcg_at_k
from trustfactor.optimize import STOP_DIVERGENCE, STOP_MAX_ITERS, fit_gd, fit_sgd
from trustfactor.seeding import substream

from conftest import pearson, precision_recall_at_k, random_graph, random_ratings


def small_synth(seed=0, **overrides):
    spec = dict(n=30, m=15, rank=2, clusters=2, density=0.5, noise_sigma=0.1,
                n_trust=40, n_distrust=40, seed=seed)
    spec.update(overrides)
    return synth_generate(SyntheticSpec(**spec))


TWO = SparseRatings.from_entries(2, 2, [(0, 0, 3.0), (1, 1, 4.0)])
SPEC = dict(n=6, m=4, rank=2, clusters=2, density=0.6, noise_sigma=0.1, n_trust=2, n_distrust=2)


# the protocols' one-line diagnostics, word for word; the synth sizes hold
# 12 intra-cluster and 18 inter-cluster pairs
@pytest.mark.parametrize("call, message", [
    (lambda: SplitSpec(1.0), "train fraction must lie strictly between 0 and 1"),
    (lambda: SplitSpec(0.5, repetitions=0), "repetitions must be positive"),
    (lambda: cold_start_split(TWO, 0.0),
     "cold-start user fraction must lie strictly between 0 and 1"),
    (lambda: grid_search(TWO, TWO, None, Hyperparams(), "lambda_s", [1.0], [1.0]),
     "second_param must be lambda_v or lambda_u"),
    (lambda: grid_search(TWO, TWO, None, Hyperparams(), "lambda_v", [], [1.0]), "empty grid"),
    (lambda: consistency_eval(TWO, SocialGraph.from_edges(2, [(0, 1)], []), "neutral"),
     "relation must be 'trust' or 'distrust'"),
    (lambda: majority_vote_eval(SocialGraph.from_edges(2, [], [])), "empty social graph"),
    (lambda: SyntheticSpec(**{**SPEC, "rank": 1}), "rank must be at least the cluster count"),
    (lambda: SyntheticSpec(**{**SPEC, "density": 0.0}), "density must lie in (0, 1]"),
    (lambda: SyntheticSpec(**{**SPEC, "n": 1}), "need at least one user per cluster"),
    (lambda: SyntheticSpec(**{**SPEC, "item_low": 3, "item_high": 2}),
     "item_low must not exceed item_high"),
    (lambda: SyntheticSpec(**SPEC, light_user_fraction=1.0),
     "light_user_fraction must lie in [0, 1)"),
    (lambda: SyntheticSpec(**SPEC, light_density_scale=1.5),
     "light_density_scale must lie in [0, 1]"),
    (lambda: SyntheticSpec(**SPEC, light_user_fraction=0.5, light_density_scale=0.0),
     "heavy-user density exceeds 1; lower the skew"),
    (lambda: synth_generate(SyntheticSpec(**{**SPEC, "n_distrust": 19})),
     "cannot place 19 distrust edges; only 18 inter-cluster pairs"),
])
def test_diagnostics(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


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
        assert cold.tolist() == sorted(set(cold.tolist())) and len(cold) == 3
        assert not np.isin(train.users, cold).any()
        assert np.isin(test.users, cold).all()
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
        # no point was fitted, so none is best; the report says why
        assert result.best is None
        assert [report.stop_reason for report in result.reports] == [STOP_DIVERGENCE]

    def test_best_point_skips_the_diverged_ones(self, monkeypatch):
        ratings, graph, _ = small_synth()
        train, validation = split_ratings(ratings, SplitSpec(0.8, 0))
        hp = Hyperparams(k=2, eta0=0.02, epochs=20, social="triplet-margin")
        fit_and_score = experiments.fit_and_score

        def diverging(train, scored, store, hp, optimizer, seed):
            # lambda_s 0 fits at a diverging step, so it alone scores inf
            eta0 = 1e300 if hp.lambda_s == 0.0 else hp.eta0
            return fit_and_score(train, scored, store, hp.replace(eta0=eta0), optimizer, seed)

        monkeypatch.setattr(experiments, "fit_and_score", diverging)
        result = grid_search(train, validation, extract_triplets(graph), hp, "lambda_v",
                             [0.0, 1.0], [0.1], seed=0)
        assert [row[2] == float("inf") for row in result.rows] == [True, False]
        assert [report.stop_reason for report in result.reports] == [
            STOP_DIVERGENCE, STOP_MAX_ITERS]
        assert result.best == result.rows[1]

    def test_empty_validation_set_rejected_before_any_fit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a point was fitted before the check")

        monkeypatch.setattr(experiments, "fit_and_score", refuse)
        ratings, graph, _ = small_synth()
        empty = ratings.subset(np.array([], dtype=np.int64))
        hp = Hyperparams(k=2, epochs=2, social="triplet-margin")
        with pytest.raises(ValueError, match="empty validation set"):
            grid_search(ratings, empty, lazy_triplets(graph), hp, "lambda_v", [0.0, 1.0], [0.1])


class TestFitAndScore:
    @pytest.mark.parametrize("optimizer, fit", [("gd", fit_gd), ("sgd", fit_sgd)])
    def test_scores_the_fit_of_the_named_optimizer(self, optimizer, fit):
        ratings, graph, _ = small_synth(seed=2)
        train, test = split_ratings(ratings, SplitSpec(0.8, 0))
        store = lazy_triplets(graph)
        hp = Hyperparams(k=2, eta0=0.02, epochs=10, batch_size=8, social="triplet-margin")
        model, report, scores = fit_and_score(train, test, store, hp, optimizer, seed=5)
        expected, expected_report = fit(train, store, hp, seed=5)
        assert model.U.tobytes() == expected.U.tobytes()
        assert report.signature() == expected_report.signature()
        assert scores == evaluate_model(expected, test)

    def test_patience_watches_a_tenth_of_the_training_side(self):
        ratings, graph, _ = small_synth(seed=2)
        train, test = split_ratings(ratings, SplitSpec(0.8, 0))
        hp = Hyperparams(k=2, eta0=0.2, epochs=60, social="none")
        model, report, scores = fit_and_score(train, test, None, hp, seed=5, patience=1)
        fitted, validation = split_ratings(train, SplitSpec(0.9, 6, 1))
        expected, expected_report = fit_gd(fitted, None, hp, validation, seed=5, patience=1)
        assert report.signature() == expected_report.signature()
        assert report.records[-1].val_rmse is not None
        assert scores == evaluate_model(expected, test)

    def test_diverged_fit_scores_inf(self):
        ratings, graph, _ = small_synth()
        train, test = split_ratings(ratings, SplitSpec(0.8, 0))
        hp = Hyperparams(k=2, eta0=1e300, epochs=5, social="none")
        _, report, scores = fit_and_score(train, test, None, hp)
        assert report.stop_reason == STOP_DIVERGENCE
        assert scores == (float("inf"), float("inf"))

    def test_unknown_optimizer_rejected(self):
        ratings, _, _ = small_synth()
        with pytest.raises(ValueError, match="unknown optimizer 'adam'"):
            fit_and_score(ratings, ratings, None, Hyperparams(k=2, epochs=1), "adam")


def bin_label(count, edges):
    """The rating-count bin of count: the first [lo,hi) of consecutive edges
    that holds it, else >=last, which also takes counts below the first edge."""
    for lo, hi in zip(edges, edges[1:]):
        if lo <= count < hi:
            return f"[{lo},{hi})"
    return f">={edges[-1]}"


def per_user_consistency(ratings, graph, relation, bin_edges=(0, 20, 40, 60, 80)):
    """consistency_eval's bins from a per-user loop over the scalar Pearson,
    the reference for the ranking over the similarity cache.

    consistency_eval builds no list: every metric depends only on the ranks of
    the relevant candidates. With hits the relevant count up to a rank, AP is
    the sum of hits / rank over relevant ranks, over their number R; recall@k
    counts the relevant ranks up to k, and DCG@k sums their discounts. Its sums
    run in rank order and its bin means in user order, the orders of the scalar
    metrics over RankedList here, so each of its values is bit-equal to these."""
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
        per_bin.setdefault(bin_label(len(rated[u]), bin_edges), []).append({
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
        assert result[label]["ndcg@10"] == 1.0
        assert result[label]["map"] == 1.0
        distrust = consistency_eval(ratings, graph, "distrust")
        assert distrust[label]["map"] == 1.0
        # nobody has a relevant co-rater: every user is skipped
        assert consistency_eval(ratings, SocialGraph.from_edges(3, [], []), "trust") == {}

    def test_matches_brute_force_on_ten_users(self, rng):
        ratings = random_ratings(rng, 10, 12, density=0.6)
        trust = [(u, (u + 1) % 10) for u in range(10)]
        distrust = [(u, (u + 2) % 10) for u in range(10)]
        graph = SocialGraph.from_edges(10, trust, distrust)
        for relation in ("trust", "distrust"):
            result = consistency_eval(ratings, graph, relation)
            expected = per_user_consistency(ratings, graph, relation)
            assert list(result.items()) == list(expected.items())
            assert all(0.0 <= agg["map"] <= 1.0 for agg in result.values())
            assert all(0.0 <= agg["ndcg@10"] <= 1.0 for agg in result.values())

    def test_matches_per_user_loop_with_ties(self, rng, monkeypatch):
        # two-level ratings on few items tie many similarities, constant
        # raters read 0, and bin edges of 2 spread users over several bins;
        # co-raters are listed in blocks of 1, 7 and 1,000 co-ratings or in one
        for trial in range(12):
            graph = random_graph(rng, n_max=16, edge_prob=0.15)
            ratings = random_ratings(rng, graph.n, int(rng.integers(2, 8)), density=0.6,
                                     r_max=2.0 if trial % 2 else 5.0)
            for relation in ("trust", "distrust"):
                expected = per_user_consistency(ratings, graph, relation, (0, 2, 4))
                for budget in (1 << 62, 1, 7, 1000):
                    monkeypatch.setattr(neighborhood, "_BLOCK_CO_RATINGS", budget)
                    got = consistency_eval(ratings, graph, relation, bin_edges=(0, 2, 4))
                    assert list(got.items()) == list(expected.items())

    def test_bins_match_the_label_loop_on_ascending_edges(self, rng):
        # repeated edges, a first edge above some users' rating counts, a
        # single edge, float edges, then random ascending edges with repeats
        fixed = [(3, 3, 5), (2, 4, 4, 4, 7), (5,), (0,), (2.5, 4.0), (6, 6)]
        below = 0
        for trial in range(30):
            graph = random_graph(rng, n_max=14, edge_prob=0.2)
            ratings = random_ratings(rng, graph.n, 8, density=0.5)
            edges = fixed[trial] if trial < len(fixed) else tuple(
                np.sort(rng.integers(0, 9, int(rng.integers(1, 6)))).tolist())
            for relation in ("trust", "distrust"):
                got = consistency_eval(ratings, graph, relation, bin_edges=edges)
                assert list(got.items()) == list(
                    per_user_consistency(ratings, graph, relation, edges).items())
            below += int(np.sum(ratings.user_counts < edges[0]))
        assert below > 0

    def test_peak_memory_below_the_co_rating_listing(self):
        # 400 users rating half of 50 items co-rate about 2M times in both
        # directions: one int64 per co-rating alone would take 16 MB
        rng = np.random.default_rng(5)
        users, items = np.nonzero(rng.random((400, 50)) < 0.5)
        ratings = SparseRatings(400, 50, users, items, rng.integers(1, 6, len(users)).astype(float))
        graph = SocialGraph.from_edges(400, [(u, (u + 1) % 400) for u in range(400)], [])
        raters = np.bincount(items)
        listing = 8 * int(np.sum(raters * (raters - 1)))
        tracemalloc.start()
        try:
            consistency_eval(ratings, graph, "trust")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert listing > 15e6 and peak < listing / 2

    def test_cluster_signal_beats_shuffled_relevance(self):
        # trust aligns with rating clusters, so observed MAP must beat a
        # relevance-shuffled control on average
        wins = 0
        for seed in range(20):
            ratings, graph, _ = small_synth(seed=seed, n=24, m=12, density=0.6,
                                            n_trust=40, n_distrust=30)
            result = consistency_eval(ratings, graph, "trust")
            observed = np.mean([agg["map"] for agg in result.values()])
            rng = np.random.default_rng(seed)
            perm = rng.permutation(graph.n)
            shuffled = SocialGraph.from_edges(
                graph.n,
                [(u, int(perm[v])) for u, v in graph.trust_edge_array.tolist()
                 if int(perm[v]) != u],
                [],
            )
            control = consistency_eval(ratings, shuffled, "trust")
            baseline = np.mean([agg["map"] for agg in control.values()])
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
        # one edge is held out; (0, 4) is the only one whose voters decide
        # (u1, u2 vote +, u3 votes -), so an n+>n- row of + edges at 100%
        # share and 2/3 alignment shows a seed that held it out alone
        for seed in range(200):
            result = majority_vote_eval(graph, holdout_fraction=0.15, seed=seed)
            assert result.n_heldout == 1
            if result.rows[0][2] == 100.0:
                assert result.rows[0][:2] == ("n+>n-", "+")
                assert result.rows[0][3] == pytest.approx(100 * 2 / 3)
                assert result.accuracy == 1.0
                return
        raise AssertionError("no seed isolated the designed edge")

    def test_tie_abstains(self):
        graph = SocialGraph.from_edges(
            4, trust_edges=[(0, 1), (0, 2), (0, 3)], distrust_edges=[])
        result = majority_vote_eval(graph, holdout_fraction=0.3, seed=0)
        # no voter ever says anything about a held-out target
        assert result.rows[-1] == ("n+=n-", "any", 100.0, None)
        assert result.accuracy is None

    def test_shares_sum_to_hundred(self, rng):
        for seed in range(5):
            _, graph, _ = small_synth(seed=seed)
            result = majority_vote_eval(graph, 0.3, seed=seed)
            assert sum(row[2] for row in result.rows) == pytest.approx(100.0)

    def test_holdout_fraction_outside_unit_interval_refused(self):
        _, graph, _ = small_synth(seed=3, n=40, m=20, density=0.4, n_trust=60, n_distrust=60)
        for fraction in (1.5, 1.0, -0.5, 0.0, float("nan")):
            with pytest.raises(ValueError, match="strictly between 0 and 1"):
                majority_vote_eval(graph, fraction)

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

    def test_reference_row_is_a_trust_pull_fit_on_the_full_trust_graph(self):
        ratings, graph, _ = small_synth(seed=4)
        hp = Hyperparams(k=2, eta0=0.02, epochs=15, lambda_s=1.0, social="triplet-margin")
        for optimizer in ("gd", "sgd"):
            result = distrust_tradeoff_run(ratings, graph, hp, trust_keep=0.5,
                                           distrust_fractions=(0.5,), optimizer=optimizer,
                                           seed=3)
            train, test = split_ratings(ratings, SplitSpec(0.9, 3, 1))
            full_trust = SocialGraph.from_edges(graph.n, graph.trust_edge_array, [])
            _, _, scores = fit_and_score(train, test, lazy_triplets(full_trust),
                                         hp.replace(social="trust-pull"), optimizer, seed=3)
            assert result.rows[-1] == ("mf-t", 1.0, 0.0, *scores)
            assert len(result.reports) == len(result.rows) == 2
            assert all(report.stop_reason == STOP_MAX_ITERS for report in result.reports)

    @pytest.mark.parametrize("keep, fractions", [
        (0.9, (-0.5, 1.5)), (0.9, (0.5, 1.5)), (0.9, (-0.1,)), (0.9, (float("nan"),)),
        (1.5, (0.5,)), (-0.1, (0.5,)), (float("nan"), (0.5,))])
    def test_fractions_outside_the_unit_interval_rejected(self, keep, fractions, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a point was fitted before the check")

        monkeypatch.setattr(experiments, "fit_and_score", refuse)
        ratings, graph, _ = small_synth(seed=1)
        hp = Hyperparams(k=2, epochs=2, social="triplet-margin")
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got"):
            distrust_tradeoff_run(ratings, graph, hp, trust_keep=keep,
                                  distrust_fractions=fractions)

    def test_fractions_keeping_the_same_edge_count_rejected(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a point was fitted before the check")

        monkeypatch.setattr(experiments, "fit_and_score", refuse)
        ratings, graph, _ = small_synth(seed=1)
        edges = graph.distrust_count
        count = int(round(0.5 * edges))
        hp = Hyperparams(k=2, epochs=2, social="triplet-margin")
        with pytest.raises(ValueError) as error:
            distrust_tradeoff_run(ratings, graph, hp, distrust_fractions=(0.5, 1.0, 0.5 + 0.4 / edges))
        assert str(error.value) == (f"distrust fractions 0.5 and {0.5 + 0.4 / edges} both keep "
                                    f"{count} of the {edges} distrust edges")

    def test_unit_interval_ends_accepted(self):
        ratings, graph, _ = small_synth(seed=1)
        hp = Hyperparams(k=2, epochs=2, social="triplet-margin")
        result = distrust_tradeoff_run(ratings, graph, hp, trust_keep=1.0,
                                       distrust_fractions=(0.0, 1.0))
        assert [row[:3] for row in result.rows] == [
            ("mf-td", 1.0, 0.0), ("mf-td", 1.0, 1.0), ("mf-t", 1.0, 0.0)]

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

    def test_block_draw_equals_one_dense_draw(self):
        """At m = 3000 the observation mask is drawn 349 rows at a time, so
        n = 1000 takes two full blocks and a short one; users, items and the
        noise drawn after them equal those of one dense (n, m) draw."""
        spec = SyntheticSpec(n=1000, m=3000, rank=3, clusters=3, density=0.004,
                             noise_sigma=0.5, n_trust=30, n_distrust=30, seed=8,
                             light_user_fraction=0.3, light_density_scale=0.1)
        ratings, _, (_, v_star) = synth_generate(spec)
        rng = substream(spec.seed, "synth")
        rng.integers(spec.item_low, spec.item_high + 1, size=(spec.m, spec.rank))
        light = rng.permutation(spec.n)[:int(spec.light_user_fraction * spec.n)]
        per_user = np.full(spec.n, spec.density * spec._heavy_scale())
        per_user[light] = spec.density * spec.light_density_scale
        users, items = np.nonzero(rng.random((spec.n, spec.m)) < per_user[:, None])
        noise = rng.normal(0.0, spec.noise_sigma, size=len(users))
        assert np.array_equal(ratings.users, users) and np.array_equal(ratings.items, items)
        assert users.max() >= 2 * 349
        cluster = np.sort(np.arange(spec.n) % spec.clusters)
        values = np.clip(np.rint(v_star[items, cluster[users]] + noise), spec.r_min, spec.r_max)
        assert ratings.values.tobytes() == values.tobytes()

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

    @pytest.mark.parametrize("field, value", [
        ("m", 0), ("m", -3), ("noise_sigma", float("nan")), ("noise_sigma", -1.0),
        ("noise_sigma", -1e-300), ("n_trust", -1), ("n_distrust", -2)])
    def test_bad_size_or_noise_names_its_field(self, field, value):
        spec = dict(n=4, m=3, rank=2, clusters=2, density=0.5, noise_sigma=0.1,
                    n_trust=1, n_distrust=1, seed=0)
        with pytest.raises(ValueError, match=f"^{field} must be") as info:
            SyntheticSpec(**{**spec, field: value})
        assert "\n" not in str(info.value)

    def test_zero_noise_and_edges_stay_valid(self):
        ratings, graph, _ = small_synth(noise_sigma=0.0, n_trust=0, n_distrust=0, m=1)
        assert ratings.m == 1 and graph.trust_count == graph.distrust_count == 0
        assert np.all(ratings.values == np.rint(ratings.values))

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
