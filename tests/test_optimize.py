import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

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
    sample_triplets,
)
from trustfactor.experiments import SyntheticSpec, synth_generate
from trustfactor import metrics, objective, optimize
from trustfactor.objective import (
    GRADIENT,
    SKIP,
    VALUE,
    grad,
    objective_value,
    social_gradient,
    triplet_batch_gradient,
)
from trustfactor.optimize import fit_gd, fit_sgd
from trustfactor.seeding import substream

from conftest import random_graph


def single_rating_instance():
    return SparseRatings.from_entries(1, 1, [(0, 0, 3.0)])


def social_instance(seed=0):
    """Small rated instance with a non-trivial constraint set."""
    spec = SyntheticSpec(n=24, m=12, rank=2, clusters=2, density=0.6,
                         noise_sigma=0.1, n_trust=30, n_distrust=30, seed=seed)
    ratings, graph, _ = synth_generate(spec)
    return ratings, graph


@dataclass(frozen=True)
class StepSchedule:
    """Step size eta_t for t >= 1: constant eta0 or eta0 / sqrt(t); the
    reference loop's schedule, as the fit loop kept it before computing the
    rate in place."""

    kind: str = "constant"
    eta0: float = 0.01

    def __post_init__(self):
        if self.kind not in ("constant", "inverse-sqrt"):
            raise ValueError(f"unknown schedule {self.kind!r}")

    def rate(self, t: int) -> float:
        if self.kind == "constant":
            return self.eta0
        return self.eta0 / np.sqrt(t)


class TestStepSchedule:
    def test_constant(self):
        sched = StepSchedule("constant", 0.05)
        assert sched.rate(1) == sched.rate(100) == 0.05

    def test_inverse_sqrt(self):
        sched = StepSchedule("inverse-sqrt", 0.1)
        assert sched.rate(1) == 0.1
        assert sched.rate(4) == pytest.approx(0.05)

    @pytest.mark.parametrize("optimizer", ["gd", "sgd"])
    def test_fits_step_by_the_schedule(self, optimizer):
        ratings, graph = social_instance(seed=3)
        store = extract_triplets(graph)
        fit, reference = (fit_gd, reference_gd) if optimizer == "gd" else (fit_sgd, reference_sgd)
        hp = Hyperparams(k=4, social="triplet-margin", lambda_s=1.0, eta0=0.05, epochs=12,
                         batch_size=16, schedule="inverse-sqrt")
        model, report = fit(ratings, store, hp, seed=2)
        ref_model, ref_report = reference(ratings, store, hp, None, 2, None, 1)
        assert report.signature() == ref_report.signature()
        assert model.U.tobytes() == ref_model.U.tobytes()
        assert model.V.tobytes() == ref_model.V.tobytes()


def early_stop_monitor(val_rmse_window, patience: int) -> bool:
    """True once validation RMSE has failed to improve for `patience`
    consecutive evaluations (patience 0 stops at the first non-improvement);
    the reference loop's stall rule, as the fit loop kept it before counting
    its stall in place."""
    threshold = max(int(patience), 1)
    best = np.inf
    streak = 0
    for value in val_rmse_window:
        if value < best:
            best = value
            streak = 0
        else:
            streak += 1
            if streak >= threshold:
                return True
    return False


class TestEarlyStop:
    def test_strictly_decreasing_never_stops(self):
        assert not early_stop_monitor([1.0, 0.9, 0.8, 0.7], patience=1)

    def test_rule_trace(self):
        assert not early_stop_monitor([1.0, 1.1], patience=2)
        assert early_stop_monitor([1.0, 1.1, 1.2], patience=2)

    def test_patience_zero(self):
        assert not early_stop_monitor([1.0, 0.9], patience=0)
        assert early_stop_monitor([1.0, 1.0], patience=0)


def reference_stop(script, patience):
    """The evaluation (1-based) at which early_stop_monitor stops a fit whose
    validation RMSEs are `script`, reading them from the last value of their
    flat start; None if it never stops."""
    for j in range(1, len(script) + 1):
        seen = script[:j]
        flat = next((i for i, x in enumerate(seen) if x != seen[0]), j)
        if early_stop_monitor(seen[flat - 1:], patience):
            return j
    return None


# flat starts, exact ties with the best, and returns to the first value after a rise
SCRIPTS = [
    [2.0, 2.0, 2.0, 1.5, 1.5, 1.4, 1.6, 1.6, 1.7, 1.3, 1.3, 1.3, 1.2],
    [2.0, 2.0, 2.5, 2.0, 2.0, 1.9, 2.0, 2.0, 2.0],
    [3.0, 3.0, 3.0, 3.0, 3.0, 3.0],
    [1.0, 1.1, 1.0, 0.9, 0.9, 0.8, 0.8, 0.8, 0.7],
    [1.0, 0.9, 1.0, 0.9, 0.8, 0.8, 0.9, 0.7, 0.7, 0.7],
    [2.0, 1.0, 1.0, 2.0, 2.0, 1.0, 0.5],
    [1.0, 1.0, 0.5, 0.5, 1.0, 0.5, 0.4, 1.0, 1.0, 1.0],
    [1.0, 1.2, 1.1, 1.0, 1.0, 0.9],
]


class TestStallRule:
    @pytest.mark.parametrize("patience", [0, 1, 2, 3])
    def test_stop_iteration_is_the_reference_rules(self, monkeypatch, patience):
        rng = np.random.default_rng(5)
        # short draws from three values tie often, repeat the first and come back to it
        scripts = SCRIPTS + [[1.0] * int(rng.integers(0, 4))
                             + rng.choice([0.9, 1.0, 1.1], int(rng.integers(1, 10))).tolist()
                             for _ in range(150)]
        ratings = SparseRatings.from_entries(2, 2, [(0, 0, 3.0), (1, 1, 4.0)])
        for script in scripts:
            calls = iter(script)
            monkeypatch.setattr(optimize, "evaluate_model",
                                lambda model, validation, clamp: (0.0, next(calls)))
            _, report = fit_gd(ratings, None, Hyperparams(k=1, epochs=len(script)), ratings,
                               patience=patience)
            expected = reference_stop(script, patience)
            stopped = report.records[-1].iteration if report.stop_reason == "early-stop" else None
            assert stopped == expected, (script, patience)
            assert [r.val_rmse for r in report.records] == script[:expected or len(script)]


class TestFitGd:
    def test_one_dimensional_contraction(self):
        # k=1, single rating r, lambdas 0: the residual e = uv - r follows
        # e' = e * (1 - eta (u^2 + v^2)) + O(eta^2); with small eta the
        # iteration contracts monotonically toward 0
        ratings = single_rating_instance()
        hp = Hyperparams(k=1, eta0=0.01, epochs=400)
        model0 = FactorModel(np.array([[0.5]]), np.array([[0.4]]), 1)
        model, report = fit_gd(ratings, None, hp, model0=model0)
        # closed-form oracle: simulate the same two-parameter recursion
        u, v = 0.5, 0.4
        expected = []
        for _ in range(400):
            e = u * v - 3.0
            u, v = u - 0.01 * e * v, v - 0.01 * e * u
            expected.append(abs(u * v - 3.0))
        assert abs(model.U[0, 0] * model.V[0, 0] - 3.0) == pytest.approx(
            expected[-1], abs=1e-12)
        assert expected[-1] < 1e-6
        assert all(b <= a + 1e-15 for a, b in zip(expected, expected[1:]))
        objectives = report.objectives()
        assert all(b <= a + 1e-15 for a, b in zip(objectives, objectives[1:]))
        assert objectives[0] <= report.initial_objective

    def test_elapsed_is_wall_clock_outside_the_signature(self):
        ratings, graph = social_instance()
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.0, epochs=8)
        _, report = fit_gd(ratings, extract_triplets(graph), hp, seed=1)
        elapsed = [rec.elapsed for rec in report.records]
        assert elapsed[0] >= 0.0
        assert elapsed == sorted(elapsed)
        signature = report.signature()
        for rec in report.records:
            rec.elapsed += 1.0
        assert report.signature() == signature

    def test_eval_every_below_one_refused(self):
        ratings, graph = social_instance()
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.0, epochs=3, batch_size=4)
        for fit in (fit_gd, fit_sgd):
            for every in (0, -1):
                with pytest.raises(ValueError, match="eval_every must be at least 1"):
                    fit(ratings, lazy_triplets(graph), hp, eval_every=every)

    def test_zero_step_size_keeps_init(self):
        ratings = single_rating_instance()
        hp = Hyperparams(k=2, eta0=0.0, epochs=5)
        model, _ = fit_gd(ratings, None, hp, seed=3)
        reference = init_model(1, 1, 2, seed=3)
        assert np.array_equal(model.U, reference.U)
        assert np.array_equal(model.V, reference.V)

    def test_planted_recovery(self):
        rng = substream(0, "planted")
        u_star = rng.normal(0, 1, (20, 2))
        v_star = rng.normal(0, 1, (15, 2))
        full = np.clip(u_star @ v_star.T, -4.0, 4.0)
        mask = rng.random((20, 15)) < 0.8
        users, items = np.nonzero(mask)
        ratings = SparseRatings(20, 15, users, items, full[users, items],
                                r_min=-4.0, r_max=4.0)
        hp = Hyperparams(k=2, eta0=1e-2, epochs=2000, clamp_predictions=False)
        _, report = fit_gd(ratings, None, hp, seed=1, eval_every=50)
        assert report.records[-1].train_rmse < 0.05

    def test_divergence_detected(self):
        ratings = single_rating_instance()
        hp = Hyperparams(k=1, eta0=50.0, epochs=200)
        model0 = FactorModel(np.array([[2.0]]), np.array([[2.0]]), 1)
        model, report = fit_gd(ratings, None, hp, model0=model0)
        assert report.stop_reason == "divergence"
        assert np.all(np.isfinite(model.U)) and np.all(np.isfinite(model.V))

    def test_diverged_bounds(self):
        limit, k = optimize.DIVERGENCE_LIMIT, 3
        fine = np.zeros((4, k))
        for edge in (limit, -limit):
            assert not optimize._diverged(fine, np.full((2, k), edge))
        for past in (np.nextafter(limit, np.inf), np.nextafter(-limit, -np.inf), np.nan,
                     np.inf, -np.inf):
            bad = fine.copy()
            bad[2, 1] = past
            assert optimize._diverged(bad, fine) and optimize._diverged(fine, bad)
        assert not optimize._diverged(np.zeros((0, k)), np.zeros((0, k)))
        assert optimize._diverged(np.zeros((0, k)), np.full((1, k), np.nan))

    @pytest.mark.parametrize("optimizer", ["gd", "sgd"])
    def test_negative_divergence_keeps_the_model_of_the_epoch_before(self, optimizer,
                                                                     monkeypatch):
        # the rejected step passes the limit below zero only; the fit returns
        # the model an epoch-earlier fit ends at, though each step writes the
        # stepped factors into its pass's gradient buffers
        if optimizer == "gd":
            ratings, store, fit = single_rating_instance(), None, fit_gd
            hp = Hyperparams(k=1, eta0=50.0, epochs=200)
            model0 = FactorModel(np.array([[2.0]]), np.array([[2.0]]), 1)
        else:
            ratings, graph = social_instance(seed=3)
            store, fit = extract_triplets(graph), fit_sgd
            hp = Hyperparams(k=4, social="triplet-margin", lambda_s=1.0, eta0=2.0, epochs=40,
                             batch_size=16)
            model0 = init_model(ratings.n, ratings.m, 4, seed=1)
        checked = []

        def spy(*factors):
            checked.append([(x.max(initial=0.0), x.min(initial=0.0)) for x in factors])
            return diverged(*factors)

        diverged = optimize._diverged
        monkeypatch.setattr(optimize, "_diverged", spy)
        model, report = fit(ratings, store, hp, seed=1, model0=model0)
        assert report.stop_reason == optimize.STOP_DIVERGENCE and len(report.records) > 1
        limit = optimize.DIVERGENCE_LIMIT
        assert all(hi <= limit for hi, _ in checked[-1])
        assert min(lo for _, lo in checked[-1]) < -limit
        before, before_report = fit(ratings, store, hp.replace(epochs=len(report.records)),
                                    seed=1, model0=model0)
        assert before_report.stop_reason == optimize.STOP_MAX_ITERS
        assert before_report.signature()[2] == report.signature()[2]
        assert model.U.tobytes() == before.U.tobytes()
        assert model.V.tobytes() == before.V.tobytes()
        assert np.all(np.abs(model.U) <= limit) and np.all(np.abs(model.V) <= limit)

    @pytest.mark.parametrize("social", ["trust-pull", "triplet-margin"])
    def test_record_objectives_are_at_the_recorded_models(self, social):
        # a record's objective comes from the pass that computes the next
        # step's gradient, the last one from a value-only pass after the loop
        ratings, graph = social_instance()
        store = extract_triplets(graph)
        hp = Hyperparams(k=3, social=social, lambda_s=1.5, alpha=0.2,
                         lambda_u=0.1, lambda_v=0.1, eta0=0.01, epochs=13)
        _, report = fit_gd(ratings, store, hp, seed=4, eval_every=1)
        assert report.initial_objective == objective_value(
            init_model(ratings.n, ratings.m, 3, seed=4), ratings, store, hp)
        for t in (1, 2, 5, 13):
            model, short = fit_gd(ratings, store, hp.replace(epochs=t), seed=4)
            assert short.records[-1].objective == objective_value(model, ratings, store, hp)
            assert report.records[t - 1].objective == short.records[-1].objective

    def test_lazy_store_fits_like_materialized(self):
        ratings, graph = social_instance()
        for loss in ("hinge", "logistic"):
            hp = Hyperparams(k=2, social="triplet-margin", lambda_s=1.0, loss=loss,
                             lambda_u=0.1, lambda_v=0.1, eta0=0.05, epochs=6)
            mat_model, mat = fit_gd(ratings, extract_triplets(graph), hp, seed=3)
            laz_model, laz = fit_gd(ratings, lazy_triplets(graph), hp, seed=3)
            assert laz.signature() == mat.signature()
            assert laz_model.U.tobytes() == mat_model.U.tobytes()
            assert laz_model.V.tobytes() == mat_model.V.tobytes()

    def test_early_stop_fires(self):
        ratings, _ = social_instance()
        users = ratings.users[::2]
        items = ratings.items[::2]
        values = ratings.values[::2]
        train = SparseRatings(ratings.n, ratings.m, users, items, values)
        val = SparseRatings(ratings.n, ratings.m, ratings.users[1::2],
                            ratings.items[1::2], ratings.values[1::2])
        # large eta overfits quickly; validation RMSE turns upward
        hp = Hyperparams(k=6, eta0=0.05, epochs=400)
        _, report = fit_gd(train, None, hp, validation=val, seed=2, patience=3)
        assert report.stop_reason == "early-stop"
        assert len(report.records) < 400


class TestFitSgd:
    def test_lazy_store_samples_like_materialized(self):
        ratings, graph = social_instance()
        train, val = ratings.subset(np.arange(0, ratings.nnz, 2)), ratings.subset(
            np.arange(1, ratings.nnz, 2))
        for loss in ("hinge", "logistic"):
            for convention in ("figure1", "paper-literal"):
                hp = Hyperparams(k=2, social="triplet-margin", lambda_s=1.0, loss=loss,
                                 sign_convention=convention, lambda_u=0.1, lambda_v=0.1,
                                 eta0=0.05, epochs=9, batch_size=5)
                mat_model, mat = fit_sgd(train, extract_triplets(graph), hp, validation=val,
                                         seed=3, eval_every=2)
                laz_model, laz = fit_sgd(train, lazy_triplets(graph), hp, validation=val,
                                         seed=3, eval_every=2)
                assert laz.signature() == mat.signature()
                assert laz_model.U.tobytes() == mat_model.U.tobytes()
                assert laz_model.V.tobytes() == mat_model.V.tobytes()

    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    def test_listed_batch_gradient_equals_social_gradient(self, loss, convention):
        # the whole listed set as one batch, scaled as the full term, is the
        # full social gradient up to the order of its sums
        graphs = [social_instance(seed)[1] for seed in range(3)]
        rng = np.random.default_rng(17)
        graphs += [random_graph(rng, n_max=15, edge_prob=0.25) for _ in range(20)]
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.5, loss=loss,
                         sign_convention=convention)
        checked = 0
        for graph in graphs:
            store = extract_triplets(graph)
            if store.total == 0:
                continue
            U = rng.normal(0.0, 0.7, (graph.n, 3))
            batch = triplet_batch_gradient(U, store.triplets, hp, hp.lambda_s / store.total)
            full = social_gradient(U, lazy_triplets(graph), hp)
            assert np.allclose(batch, full, rtol=1e-12, atol=1e-12 * np.abs(full).max())
            checked += 1
        assert checked > 15

    def test_empty_constraints_match_plain_mf(self):
        ratings, _ = social_instance()
        graph = SocialGraph.from_edges(ratings.n, [(0, 1), (2, 3)], [])
        store = extract_triplets(graph)
        hp_margin = Hyperparams(k=3, social="triplet-margin", lambda_s=2.0,
                                eta0=0.01, epochs=20)
        hp_plain = hp_margin.replace(social="none", lambda_s=0.0)
        a, _ = fit_sgd(ratings, store, hp_margin, seed=7)
        b, _ = fit_gd(ratings, None, hp_plain, seed=7)
        assert np.max(np.abs(a.U - b.U)) <= 1e-12
        assert np.max(np.abs(a.V - b.V)) <= 1e-12

    def test_single_triplet_estimator_unbiased(self):
        # hub user 0 with four trusted and two distrusted friends: the eight
        # overlapping constraints keep the single-draw dispersion low enough
        # for a 10k-draw Monte Carlo check
        graph = SocialGraph.from_edges(
            7, [(0, 1), (0, 3), (0, 5), (0, 6)], [(0, 2), (0, 4)])
        store = extract_triplets(graph)
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.0)
        rng = substream(123, "unbiased")
        U = rng.normal(0, 0.5, (graph.n, 3))
        full = social_gradient(U, store, hp)
        acc = np.zeros_like(U)
        draws = 10_000
        batch = sample_triplets(store, rng, draws)
        for row in range(draws):
            acc += triplet_batch_gradient(U, batch[row : row + 1], hp, hp.lambda_s)
        mean = acc / draws
        rel = np.linalg.norm(mean - full) / np.linalg.norm(full)
        assert rel < 0.02

    def test_batch_size_exceeding_constraints_rejected(self):
        ratings, graph = social_instance()
        store = extract_triplets(graph)
        hp = Hyperparams(k=2, social="triplet-margin", lambda_s=1.0,
                         batch_size=store.total + 1, epochs=1)
        with pytest.raises(ValueError, match="exceeds"):
            fit_sgd(ratings, store, hp)

    def test_lazy_sampling_supported(self):
        ratings, graph = social_instance()
        store = lazy_triplets(graph)
        hp = Hyperparams(k=2, social="triplet-margin", lambda_s=1.0,
                         batch_size=8, epochs=5)
        model, report = fit_sgd(ratings, store, hp, seed=1)
        assert report.stop_reason == "max-iters"
        assert np.all(np.isfinite(model.U))

    def test_paper_literal_scaling_shrinks_social_step(self):
        ratings, graph = social_instance()
        store = extract_triplets(graph)
        base = Hyperparams(k=2, social="triplet-margin", lambda_s=5.0,
                           batch_size=4, epochs=1, eta0=0.1)
        literal = base.replace(sign_convention="paper-literal")
        m_default, _ = fit_sgd(ratings, store, base, seed=9)
        m_literal, _ = fit_sgd(ratings, store, literal, seed=9)
        plain, _ = fit_sgd(ratings, store, base.replace(lambda_s=0.0), seed=9)
        step_default = np.linalg.norm(m_default.U - plain.U)
        step_literal = np.linalg.norm(m_literal.U - plain.U)
        assert step_literal < step_default or step_default == 0.0


def count_passes(monkeypatch):
    """Record (need_grad, social request) of every objective pass the fit loop makes."""
    calls = []
    kernel = optimize._objective_pass

    def counting(model, ratings, store, hp, need_grad=True, social=GRADIENT):
        calls.append((need_grad, social))
        return kernel(model, ratings, store, hp, need_grad, social)

    monkeypatch.setattr(optimize, "_objective_pass", counting)
    return calls


def count_social_terms(monkeypatch):
    """Record need_grad of every social-term evaluation an objective pass makes."""
    calls = []
    term = objective._social_term

    def counting(U, store, hp, need_grad):
        calls.append(need_grad)
        return term(U, store, hp, need_grad)

    monkeypatch.setattr(objective, "_social_term", counting)
    return calls


class TestObjectivePasses:
    def test_gd_one_pass_per_iteration_and_one_value_pass(self, monkeypatch):
        calls = count_passes(monkeypatch)
        ratings, graph = social_instance()
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.0, epochs=6)
        fit_gd(ratings, extract_triplets(graph), hp, seed=1, eval_every=1)
        assert calls == [(True, GRADIENT)] * 6 + [(False, VALUE)]

    def test_sgd_never_takes_the_full_social_gradient(self, monkeypatch):
        calls, social = count_passes(monkeypatch), count_social_terms(monkeypatch)
        ratings, graph = social_instance()
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.0, epochs=6,
                         batch_size=4)
        _, report = fit_sgd(ratings, lazy_triplets(graph), hp, seed=1, eval_every=3)
        assert [rec.iteration for rec in report.records] == [3, 6]
        # the initial objective and record 3 read the value from their step;
        # one value-only pass follows the last iteration, which takes no step
        step = [(True, VALUE)] + [(True, SKIP)] * 2
        assert calls == step * 2 + [(False, VALUE)]
        # so the social term is evaluated, for its value only, once at the start
        # and once per record
        assert social == [False] * 3

    def test_sgd_without_triplets_is_gd(self, monkeypatch):
        ratings, graph = social_instance()
        hp = Hyperparams(k=3, social="trust-pull", alpha=0.5, epochs=4, batch_size=4)
        calls = count_passes(monkeypatch)
        for store in (None, extract_triplets(graph)):
            plain = hp.replace(social="none") if store is None else hp
            gd_model, gd_report = fit_gd(ratings, store, plain, seed=1)
            calls.clear()
            sgd_model, sgd_report = fit_sgd(ratings, store, plain, seed=1)
            assert calls == [(True, GRADIENT)] * 4 + [(False, VALUE)]
            assert sgd_report.signature() == gd_report.signature()
            assert sgd_model.U.tobytes() == gd_model.U.tobytes()
            assert sgd_model.V.tobytes() == gd_model.V.tobytes()


    def test_gd_makes_no_training_set_prediction(self, monkeypatch):
        ratings, graph = social_instance()
        train, val = ratings.subset(np.arange(0, ratings.nnz, 2)), ratings.subset(
            np.arange(1, ratings.nnz, 2))
        seen = []
        evaluate, predict = metrics.evaluate_model, metrics.predict_many

        def counting_evaluate(model, test, clamp=True):
            seen.append(("evaluate_model", test is train))
            return evaluate(model, test, clamp)

        def counting_predict(model, users, items, *args):
            seen.append(("predict_many", users is train.users))
            return predict(model, users, items, *args)

        monkeypatch.setattr(optimize, "evaluate_model", counting_evaluate)
        monkeypatch.setattr(metrics, "predict_many", counting_predict)
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.0, epochs=6)
        _, report = fit_gd(train, lazy_triplets(graph), hp, validation=val, seed=1,
                           eval_every=1)
        assert len(report.records) == 6
        assert seen.count(("evaluate_model", True)) + seen.count(("predict_many", True)) == 0
        # the validation set is still evaluated at every record
        assert seen.count(("evaluate_model", False)) == 6


def reference_run(ratings, store, hp, validation, seed, step, patience, eval_every):
    """The fit loop before train RMSE came from the pass: a record's train
    RMSE is one more evaluate_model on the training set."""
    model = init_model(ratings.n, ratings.m, hp.k, seed)
    schedule = StepSchedule(hp.schedule, hp.eta0)

    def objective(value):
        return objective_value(model, ratings, store, hp) if value is None else value

    value, gU, gV = step(model) if hp.epochs else (None, None, None)
    report = optimize.FitReport(initial_objective=objective(value))
    val_history = []
    for t in range(1, hp.epochs + 1):
        previous = (model.U.copy(), model.V.copy())
        eta = schedule.rate(t)
        model.U -= eta * gU
        model.V -= eta * gV
        if optimize._diverged(model.U, model.V):
            model.U, model.V = previous
            report.stop_reason = optimize.STOP_DIVERGENCE
            break
        rec = None
        if t % eval_every == 0 or t == hp.epochs:
            _, train_rmse = metrics.evaluate_model(model, ratings, hp.clamp_predictions)
            rec = optimize.IterationRecord(iteration=t, objective=np.nan, train_rmse=train_rmse)
            if validation is not None and validation.nnz:
                rec.val_mae, rec.val_rmse = metrics.evaluate_model(
                    model, validation, hp.clamp_predictions)
                val_history.append(rec.val_rmse)
            report.records.append(rec)
            if patience is not None and val_history and reference_stop(
                    val_history, patience) == len(val_history):
                report.stop_reason = optimize.STOP_EARLY
        last = t == hp.epochs or report.stop_reason == optimize.STOP_EARLY
        value, gU, gV = (None, None, None) if last else step(model)
        if rec is not None:
            rec.objective = objective(value)
        if last:
            break
    return model, report


def reference_gd(ratings, store, hp, validation, seed, patience, eval_every):
    return reference_run(ratings, store, hp, validation, seed,
                         lambda model: (objective_value(model, ratings, store, hp),
                                        *grad(model, ratings, store, hp)),
                         patience, eval_every)


def reference_sgd(ratings, store, hp, validation, seed, patience, eval_every):
    rng = substream(seed, "sgd")
    exact_hp = hp.replace(social="none")

    def step(model):
        gU, gV = grad(model, ratings, store, exact_hp)
        batch = sample_triplets(store, rng, hp.batch_size)
        gU += triplet_batch_gradient(model.U, batch, hp, hp.lambda_s / len(batch))
        return None, gU, gV

    return reference_run(ratings, store, hp, validation, seed, step, patience, eval_every)


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("optimizer", ["gd", "sgd"])
    @pytest.mark.parametrize("eval_every", [1, 3])
    @pytest.mark.parametrize("clamp", [True, False])
    def test_reports_and_factors_equal(self, optimizer, eval_every, clamp):
        ratings, graph = social_instance(seed=3)
        train = ratings.subset(np.flatnonzero(np.arange(ratings.nnz) % 4 != 0))
        val = ratings.subset(np.arange(0, ratings.nnz, 4))
        store = extract_triplets(graph)
        fit, reference = (fit_gd, reference_gd) if optimizer == "gd" else (fit_sgd, reference_sgd)
        # a large step overfits, so patience 2 stops some of these runs early
        for eta0, epochs in ((0.01, 9), (0.08, 60)):
            hp = Hyperparams(k=4, social="triplet-margin", lambda_s=1.0, lambda_u=0.01,
                             lambda_v=0.01, eta0=eta0, epochs=epochs, batch_size=16,
                             clamp_predictions=clamp)
            model, report = fit(train, store, hp, validation=val, seed=2, patience=2,
                                eval_every=eval_every)
            ref_model, ref_report = reference(train, store, hp, val, 2, 2, eval_every)
            assert report.signature() == ref_report.signature()
            assert model.U.tobytes() == ref_model.U.tobytes()
            assert model.V.tobytes() == ref_model.V.tobytes()

    @pytest.mark.parametrize("optimizer", ["gd", "sgd"])
    def test_diverged_fit_keeps_the_last_finite_model(self, optimizer):
        # the loop adopts a step only once it passes the guard; the reference
        # takes every step in place and restores a copy
        ratings, graph = social_instance(seed=3)
        store = extract_triplets(graph)
        fit, reference = (fit_gd, reference_gd) if optimizer == "gd" else (fit_sgd, reference_sgd)
        stopped = []
        for eta0 in (0.3, 1.0, 1e300):
            hp = Hyperparams(k=4, social="triplet-margin", lambda_s=1.0, eta0=eta0, epochs=40,
                             batch_size=16)
            model0 = init_model(ratings.n, ratings.m, 4, seed=2)
            start = model0.copy()
            model, report = fit(ratings, store, hp, seed=2, eval_every=1, model0=model0)
            ref_model, ref_report = reference(ratings, store, hp, None, 2, None, 1)
            assert report.stop_reason == optimize.STOP_DIVERGENCE
            assert report.signature() == ref_report.signature()
            assert model.U.tobytes() == ref_model.U.tobytes()
            assert model.V.tobytes() == ref_model.V.tobytes()
            assert model0.U.tobytes() == start.U.tobytes()
            stopped.append(len(report.records))
        # one fit diverges at its first step, and one after some records
        assert stopped[-1] == 0 and max(stopped) > 0


class TestDeterminism:
    def test_equal_seeds_equal_reports(self):
        ratings, graph = social_instance()
        store = extract_triplets(graph)
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.0,
                         batch_size=8, epochs=15, eta0=0.01)
        m1, r1 = fit_sgd(ratings, store, hp, seed=42)
        m2, r2 = fit_sgd(ratings, store, hp, seed=42)
        assert np.array_equal(m1.U, m2.U) and np.array_equal(m1.V, m2.V)
        assert r1.signature() == r2.signature()

    def test_different_seeds_differ(self):
        ratings, graph = social_instance()
        store = extract_triplets(graph)
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.0,
                         batch_size=8, epochs=15, eta0=0.01)
        m1, _ = fit_sgd(ratings, store, hp, seed=1)
        m2, _ = fit_sgd(ratings, store, hp, seed=2)
        assert not np.array_equal(m1.U, m2.U)

    # OpenBLAS splits a long dot product across its threads, which can change
    # the last bits of the sum. The rating residuals (about 30,000) and the
    # distrust edges (45,000) are long enough here, and a spread start with a
    # heavy social weight lets the hinge sums show in the objective
    THREADED_FIT = """
from trustfactor.data import Hyperparams, init_model, lazy_triplets
from trustfactor.experiments import SyntheticSpec, synth_generate
from trustfactor.optimize import fit_gd
ratings, graph, _ = synth_generate(SyntheticSpec(
    n=400, m=300, rank=4, clusters=4, density=0.25, noise_sigma=0.3,
    n_trust=12000, n_distrust=45000, seed=1))
hp = Hyperparams(k=8, lambda_u=0.1, lambda_v=0.1, lambda_s=1e4, eta0=1e-4, epochs=3,
                 social="triplet-margin")
model0 = init_model(ratings.n, ratings.m, hp.k, seed=1)
model0.U *= 100
print(repr(fit_gd(ratings, lazy_triplets(graph), hp, seed=1, model0=model0)[1].signature()))
"""

    def test_report_does_not_depend_on_the_blas_thread_count(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        signatures = {subprocess.run(
            [sys.executable, "-c", self.THREADED_FIT], check=True, capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}).stdout
            for threads in ("1", "2")}
        assert len(signatures) == 1, signatures
