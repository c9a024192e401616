import math
import tracemalloc

import numpy as np
import pytest

from trustfactor import data
from trustfactor.data import (
    FactorModel,
    Hyperparams,
    SocialGraph,
    SparseRatings,
    extract_triplets,
    lazy_triplets,
    predict_many,
    sample_triplets,
)
from trustfactor import objective
from trustfactor.objective import (
    FIGURE1,
    PAPER_LITERAL,
    SKIP,
    VALUE,
    _accumulate,
    _add_sums,
    _hinge_counts,
    _hinge_term,
    _hinge_threshold,
    _loss,
    _margin_term,
    _objective_pass,
    _pair_blocks,
    _social_term,
    grad,
    objective_value,
    social_gradient,
    trace_identity_check,
    triplet_batch_gradient,
)
from trustfactor.optimize import fit_gd, fit_sgd


def loss_value(kind: str, z: float) -> float:
    """Margin penalty at argument z: hinge max(0, 1 - z), or logistic
    log(1 + exp(-z)) computed stably for large |z|."""
    return float(_loss(kind, np.float64(z))[0])


def margin_argument(U, i, j, k, convention: str = FIGURE1) -> float:
    """Signed squared-distance gap z of one triplet: figure1 takes
    ||U_i - U_k||^2 - ||U_i - U_j||^2, paper-literal its negation."""
    if convention not in (FIGURE1, PAPER_LITERAL):
        raise ValueError(f"unknown sign convention {convention!r}")
    a, b = np.sum((U[[i, i]] - U[[j, k]]) ** 2, axis=-1)
    return float(b - a if convention == FIGURE1 else a - b)


def triplet_term(U, triplet, kind: str = "hinge", convention: str = FIGURE1) -> float:
    """Penalty contributed by one (i, j, k) constraint."""
    i, j, k = triplet
    return loss_value(kind, margin_argument(U, i, j, k, convention))

from conftest import random_graph, random_ratings


def dense_trace(U, triplet):
    """Oracle: build the full C matrix and take the actual matrix trace."""
    i, j, k = triplet
    n = U.shape[0]
    C = np.zeros((n, n))
    C[i, k] = C[k, i] = C[j, j] = 1.0
    C[k, k] = C[i, j] = C[j, i] = -1.0
    return float(np.trace(C @ U @ U.T))


def finite_difference_grad(model, ratings, store, hp, h=1e-5):
    """Oracle: central differences over every entry of U and V."""
    gU = np.zeros_like(model.U)
    gV = np.zeros_like(model.V)
    for arr, out in ((model.U, gU), (model.V, gV)):
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = objective_value(model, ratings, store, hp)
            arr[idx] = orig - h
            down = objective_value(model, ratings, store, hp)
            arr[idx] = orig
            out[idx] = (up - down) / (2 * h)
            it.iternext()
    return gU, gV


def reference_margin(U, i, j, k, convention):
    """Oracle: the margin argument z of each triplet (i[t], j[t], k[t]),
    computed per triplet from its three gathered rows."""
    dij = np.sum((U[i] - U[j]) ** 2, axis=-1)
    dik = np.sum((U[i] - U[k]) ** 2, axis=-1)
    return dik - dij if convention == "figure1" else dij - dik


# ---------------------------------------------------------------------------
# reference kernel: an unblocked objective pass that sums rows by bincount,
# kept as the oracle for values and gradient bytes


def reference_scatter(n, index, rows):
    """(n, k) sums of rows[t] into row index[t], one bincount per strided column."""
    out = np.empty((n, rows.shape[1]))
    for c in range(rows.shape[1]):
        out[:, c] = np.bincount(index, weights=rows[:, c], minlength=n)
    return out


def reference_edge_scatter(n, edges, rows):
    """reference_scatter of rows[t] onto edge t's source and -rows[t] onto its target."""
    return reference_scatter(n, edges.T.ravel(), np.concatenate((rows, -rows)))


def reference_margin_term(U, trust, distrust, pairs, hp, scale=None):
    a, b = (np.sum((U[edges[:, 0]] - U[edges[:, 1]]) ** 2, axis=-1) for edges in (trust, distrust))
    slope_a, slope_b, total = np.zeros(len(a)), np.zeros(len(b)), 0.0
    for e, f in pairs:
        z = b[f] - a[e] if hp.sign_convention == FIGURE1 else a[e] - b[f]
        values, slope = _loss(hp.loss, z, scale is not None)
        total += float(np.sum(values))
        if scale is not None:
            _add_sums(slope_a, e, slope)
            _add_sums(slope_b, f, slope)
    if scale is None:
        return total, None
    weight = 2.0 * scale * (1.0 if hp.sign_convention == FIGURE1 else -1.0)
    edges = np.concatenate((trust, distrust))
    rows = np.concatenate((-weight * slope_a, weight * slope_b))[:, None]
    return total, reference_edge_scatter(len(U), edges, rows * (U[edges[:, 0]] - U[edges[:, 1]]))


def reference_social_term(U, store, hp, need_grad):
    g = np.zeros_like(U) if need_grad else None
    if hp.social == "none":
        return 0.0, g
    graph = store.graph
    if hp.social == "triplet-margin":
        if store.total == 0:
            return 0.0, g
        scale = hp.lambda_s / store.total
        value, g = reference_margin_term(U, graph.trust_edge_array, graph.distrust_edge_array,
                                         _pair_blocks(graph), hp, scale if need_grad else None)
        return scale * value, g
    if hp.social == "trust-pull":
        weight, edges = hp.alpha, graph.trust_edge_array
    else:
        weight, edges = -hp.beta, graph.distrust_edge_array
    d = U[edges[:, 0]] - U[edges[:, 1]]
    if need_grad:
        g = reference_edge_scatter(len(U), edges, weight * d)
    return 0.5 * weight * float(np.sum(d * d)), g


def reference_parts(model, ratings, store, hp):
    """The rating, U-regularizer, V-regularizer and social values of the objective."""
    U, V = model.U, model.V
    e = np.einsum("ij,ij->i", U[ratings.users], V[ratings.items]) - ratings.values
    return (0.5 * float(np.einsum("i,i->", e, e)), 0.5 * hp.lambda_u * float(np.sum(U * U)),
            0.5 * hp.lambda_v * float(np.sum(V * V)), reference_social_term(U, store, hp, False)[0])


def today_value(parts):
    """The objective as the pass summed it before it returned its parts:
    the rating part, then U's, V's and the social term added in turn."""
    value = parts[0]
    for part in parts[1:]:
        value += part
    return value


def reference_value_and_grad(model, ratings, store, hp, need_grad=True):
    U, V = model.U, model.V
    uu, ii = ratings.users, ratings.items
    u_rows, v_rows = U[uu], V[ii]
    e = np.einsum("ij,ij->i", u_rows, v_rows) - ratings.values
    value = 0.5 * float(np.einsum("i,i->", e, e))
    value += 0.5 * hp.lambda_u * float(np.sum(U * U))
    value += 0.5 * hp.lambda_v * float(np.sum(V * V))
    social, g_social = reference_social_term(U, store, hp, need_grad)
    value += social
    if not need_grad:
        return value, None, None
    gU = reference_scatter(len(U), uu, e[:, None] * v_rows) + hp.lambda_u * U
    gU += g_social
    gV = reference_scatter(len(V), ii, e[:, None] * u_rows) + hp.lambda_v * V
    return value, gU, gV


def reference_triplet_term(U, i, j, k, hp, scale=None):
    """Oracle: the per-triplet kernel the edge-pair kernel replaced, which
    scatters three rows per triplet (its penalty sum, and the gradient of
    scale * that sum when scale is given)."""
    z = reference_margin(U, i, j, k, hp.sign_convention)
    values, slope = _loss(hp.loss, z, scale is not None)
    total = float(np.sum(values))
    if scale is None:
        return total, None
    ui, uj, uk = U[i], U[j], U[k]
    sign = 1.0 if hp.sign_convention == "figure1" else -1.0
    coeff = (sign * 2.0 * (slope * scale))[:, None]
    rows = np.concatenate((coeff * (uj - uk), coeff * (ui - uj), coeff * (uk - ui)))
    return total, reference_scatter(len(U), np.concatenate((i, j, k)), rows)


def assert_matches_reference(U, triplets, hp, scale, value, gradient):
    """Value within 1e-12 relative, gradient within 1e-12 * max |g|."""
    ref_value, ref_grad = reference_triplet_term(
        U, triplets[:, 0], triplets[:, 1], triplets[:, 2], hp, scale)
    assert value == pytest.approx(scale * ref_value, rel=1e-12, abs=1e-300)
    assert np.all(np.abs(gradient - ref_grad) <= 1e-12 * np.abs(ref_grad).max(initial=0.0))


def small_instance(seed, social="triplet-margin", loss="hinge", convention="figure1"):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    m = int(rng.integers(3, 9))
    k = int(rng.integers(1, 5))
    ratings = random_ratings(rng, n, m, density=0.5)
    while True:
        trust, distrust = [], []
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                draw = rng.random()
                if draw < 0.25:
                    trust.append((u, v))
                elif draw < 0.5:
                    distrust.append((u, v))
        graph = SocialGraph.from_edges(n, trust, distrust)
        store = extract_triplets(graph)
        if 1 <= store.total <= 30:
            break
    hp = Hyperparams(
        k=k,
        lambda_u=float(rng.uniform(0.05, 1.5)),
        lambda_v=float(rng.uniform(0.05, 1.5)),
        lambda_s=float(rng.uniform(0.1, 2.0)),
        alpha=float(rng.uniform(0.1, 1.0)),
        beta=float(rng.uniform(0.1, 1.0)),
        loss=loss,
        sign_convention=convention,
        social=social,
    )
    model = FactorModel(rng.normal(0, 1.0, (n, k)), rng.normal(0, 1.0, (m, k)), k)
    if social == "triplet-margin" and loss == "hinge" and store.total:
        # keep every margin argument away from the hinge kink so central
        # differences stay valid
        for _ in range(40):
            z = np.array([
                margin_argument(model.U, i, j, kk, convention)
                for i, j, kk in store.triplets.tolist()
            ])
            if np.all(np.abs(z - 1.0) > 1e-3):
                break
            model.U *= 1.017
    return model, ratings, store, hp


class TestLossValue:
    def test_hinge_at_margin(self):
        assert loss_value("hinge", 1.0) == 0.0

    def test_logistic_at_zero(self):
        assert loss_value("logistic", 0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_hinge_violation(self):
        assert loss_value("hinge", -0.5) == 1.5

    def test_logistic_stable_at_extremes(self):
        assert loss_value("logistic", 1e4) == 0.0
        assert loss_value("logistic", -1e4) == pytest.approx(1e4)
        assert math.isfinite(loss_value("logistic", -750.0))

    def test_properties(self):
        # convex, non-negative, non-increasing in z
        for kind in ("hinge", "logistic"):
            zs = np.linspace(-5, 5, 101)
            vals = [loss_value(kind, z) for z in zs]
            assert all(v >= 0 for v in vals)
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_hinge_zero_iff_margin_met(self):
        assert loss_value("hinge", 1.0 + 1e-9) == 0.0
        assert loss_value("hinge", 1.0 - 1e-9) > 0.0
        assert loss_value("logistic", 100.0) >= 0.0


def masked_logistic_slope(z):
    """-sigmoid(-z) by four masked assignments, exp only of a non-positive
    number: the reference for _loss's logistic slope."""
    x = -z
    sigmoid = np.empty_like(x)
    pos = x >= 0
    sigmoid[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    sigmoid[~pos] = ex / (1.0 + ex)
    return -sigmoid


class TestLogisticSlope:
    SPECIAL = [0.0, 1e-320, 1.0, 700.0, 745.0, 1e308, np.inf, np.nan]

    def test_equals_masked_form_bit_for_bit(self, rng):
        # -nan: inf - inf gives the NaN with the sign bit set on common hardware
        special = np.array(self.SPECIAL + [-z for z in self.SPECIAL])
        draws = [rng.normal(0.0, scale, 200_000) for scale in (1e-3, 1.0, 10.0, 100.0, 1e4)]
        for z in [special, *draws, np.zeros(0)]:
            with np.errstate(invalid="ignore"):  # the NaN and inf entries
                slope = _loss("logistic", z, need_slope=True)[1]
                assert slope.tobytes() == masked_logistic_slope(z).tobytes()


class TestScatter:
    @pytest.mark.parametrize("size", [0, 1, 7, 500])
    def test_equals_add_at_bit_for_bit(self, rng, size):
        n, k = 9, 4
        for index in (rng.integers(0, n, size), np.full(size, 3), np.sort(rng.integers(0, n, size))):
            rows = rng.normal(0, 1, (size, k)) * 10.0 ** rng.integers(-8, 8, (size, 1))
            expected = np.zeros((n, k))
            np.add.at(expected, index, rows)
            got = np.zeros((k, n))
            _accumulate(got, index, rows)
            assert got.T.tobytes() == expected.tobytes()
            assert reference_scatter(n, index, rows).tobytes() == expected.tobytes()
            np.subtract.at(expected, index, rows)
            _accumulate(got, index, rows, np.subtract)
            assert got.T.tobytes() == expected.tobytes()


class TestTripletTerm:
    U = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])

    def test_satisfied_with_margin(self):
        # d2(i,k) = 4, d2(i,j) = 1, z = 3 -> no penalty
        assert triplet_term(self.U, (0, 1, 2)) == 0.0

    def test_equidistant(self):
        U = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        assert triplet_term(U, (0, 1, 2)) == 1.0

    def test_coincident(self):
        U = np.zeros((3, 2))
        assert triplet_term(U, (0, 1, 2)) == 1.0

    def test_paper_literal_flips_sign(self):
        z_fig = margin_argument(self.U, 0, 1, 2, "figure1")
        z_lit = margin_argument(self.U, 0, 1, 2, "paper-literal")
        assert z_fig == -z_lit == 3.0


class TestTraceIdentity:
    def test_hand_example(self):
        U = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        assert trace_identity_check(U, (0, 1, 2)) == pytest.approx(-3.0)

    def test_coincident_rows_vanish(self):
        U = np.ones((3, 2))
        assert trace_identity_check(U, (0, 1, 2)) == 0.0

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, 5))
            U = rng.normal(0, 2, (n, k))
            i, j, kk = rng.choice(n, size=3, replace=False)
            closed = trace_identity_check(U, (i, j, kk))
            dij = float(np.sum((U[i] - U[j]) ** 2))
            dik = float(np.sum((U[i] - U[kk]) ** 2))
            assert abs(closed - dense_trace(U, (i, j, kk))) <= 1e-10
            assert abs(closed - (dij - dik)) <= 1e-10


class TestObjectiveValue:
    def test_social_term_needs_a_store(self):
        ratings = SparseRatings.from_entries(1, 1, [(0, 0, 4.0)])
        model = FactorModel(np.zeros((1, 2)), np.zeros((1, 2)), 2)
        with pytest.raises(ValueError) as info:
            objective_value(model, ratings, None, Hyperparams(k=2, social="trust-pull"))
        assert str(info.value) == "social term requires a triplet store (carrying the graph)"

    def test_single_rating_zero_factors(self):
        ratings = SparseRatings.from_entries(1, 1, [(0, 0, 4.0)])
        model = FactorModel(np.zeros((1, 2)), np.zeros((1, 2)), 2)
        hp = Hyperparams(k=2)
        assert objective_value(model, ratings, None, hp) == 8.0

    def test_perfect_fit_vanishes(self):
        U = np.array([[1.0, 0.0], [0.0, 1.0]])
        V = np.array([[2.0, 3.0]])
        model = FactorModel(U, V, 2)
        ratings = SparseRatings.from_entries(2, 1, [(0, 0, 2.0), (1, 0, 3.0)])
        graph = SocialGraph.from_edges(2, [], [])
        store = extract_triplets(graph)
        hp = Hyperparams(k=2, social="triplet-margin", lambda_s=3.0)
        assert objective_value(model, ratings, store, hp) == 0.0

    def test_frobenius_only(self):
        model = FactorModel(np.eye(2), np.zeros((1, 2)), 2)
        ratings = SparseRatings(2, 1, [], [], [])
        hp = Hyperparams(k=2, lambda_u=2.0)
        assert objective_value(model, ratings, None, hp) == 2.0

    def test_empty_constraint_set_matches_none(self, rng):
        ratings = random_ratings(rng, 5, 4)
        graph = SocialGraph.from_edges(5, [(0, 1), (2, 3)], [])
        store = extract_triplets(graph)
        model = FactorModel(rng.normal(0, 1, (5, 3)), rng.normal(0, 1, (4, 3)), 3)
        base = Hyperparams(k=3, lambda_u=0.3, lambda_v=0.2)
        margin = base.replace(social="triplet-margin", lambda_s=2.0)
        assert objective_value(model, ratings, store, margin) == \
            objective_value(model, ratings, store, base)
        gU_a, gV_a = grad(model, ratings, store, margin)
        gU_b, gV_b = grad(model, ratings, store, base)
        assert np.array_equal(gU_a, gU_b) and np.array_equal(gV_a, gV_b)

    def test_translation_invariance_of_social_terms(self, rng):
        graph = random_graph(rng, n_max=8)
        store = extract_triplets(graph)
        U = rng.normal(0, 1, (graph.n, 3))
        shifted = U + rng.normal(0, 2, 3)
        # no ratings and no Frobenius weights: the objective is the social term alone
        no_ratings = SparseRatings(graph.n, 1, [], [], [])
        V = np.zeros((1, 3))
        for social in ("trust-pull", "distrust-push", "triplet-margin"):
            hp = Hyperparams(k=3, social=social, alpha=0.7, beta=0.4, lambda_s=1.3)
            assert objective_value(FactorModel(U, V, 3), no_ratings, store, hp) == pytest.approx(
                objective_value(FactorModel(shifted, V, 3), no_ratings, store, hp),
                rel=1e-9, abs=1e-9)

    def test_lazy_and_materialized_agree(self, rng):
        graph = random_graph(rng, n_max=9)
        ratings = random_ratings(rng, graph.n, 5)
        model = FactorModel(rng.normal(0, 1, (graph.n, 2)), rng.normal(0, 1, (5, 2)), 2)
        hp = Hyperparams(k=2, social="triplet-margin", lambda_s=1.0)
        mat = extract_triplets(graph)
        laz = lazy_triplets(graph)
        assert objective_value(model, ratings, mat, hp) == \
            objective_value(model, ratings, laz, hp)

    def test_non_negative_variants(self, rng):
        for _ in range(20):
            graph = random_graph(rng, n_max=7)
            ratings = random_ratings(rng, graph.n, 4)
            model = FactorModel(
                rng.normal(0, 1, (graph.n, 2)), rng.normal(0, 1, (4, 2)), 2)
            store = extract_triplets(graph)
            for social in ("none", "trust-pull", "triplet-margin"):
                hp = Hyperparams(k=2, social=social, alpha=0.5, lambda_s=1.0,
                                 lambda_u=0.1, lambda_v=0.1)
                assert objective_value(model, ratings, store, hp) >= 0.0


class TestGrad:
    def test_stationary_at_perfect_fit(self):
        U = np.array([[1.0, 0.0], [0.0, 1.0]])
        V = np.array([[2.0, 3.0]])
        model = FactorModel(U, V, 2)
        ratings = SparseRatings.from_entries(2, 1, [(0, 0, 2.0), (1, 0, 3.0)])
        hp = Hyperparams(k=2)
        gU, gV = grad(model, ratings, None, hp)
        assert np.all(gU == 0.0) and np.all(gV == 0.0)

    def test_inactive_hinge_contributes_nothing(self):
        U = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]])
        graph = SocialGraph.from_edges(3, [(0, 1)], [(0, 2)])
        store = extract_triplets(graph)
        hp = Hyperparams(k=2, social="triplet-margin", lambda_s=2.0)
        assert np.all(social_gradient(U, store, hp) == 0.0)

    def test_lazy_store_gives_materialized_bytes(self, rng):
        for _ in range(10):
            graph = random_graph(rng, n_max=10)
            ratings = random_ratings(rng, graph.n, 4)
            model = FactorModel(rng.normal(0, 1, (graph.n, 3)), rng.normal(0, 1, (4, 3)), 3)
            for loss in ("hinge", "logistic"):
                hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.3, loss=loss)
                mat = _objective_pass(model, ratings, extract_triplets(graph), hp)
                laz = _objective_pass(model, ratings, lazy_triplets(graph), hp)
                assert laz.value == mat.value
                assert laz.gU.tobytes() == mat.gU.tobytes()
                assert laz.gV.tobytes() == mat.gV.tobytes()

    @pytest.mark.parametrize("social", ["none", "trust-pull", "distrust-push", "triplet-margin"])
    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    def test_matches_finite_differences(self, social, loss, convention):
        for seed in range(3):
            model, ratings, store, hp = small_instance(
                1000 + seed, social, loss, convention)
            gU, gV = grad(model, ratings, store, hp)
            fU, fV = finite_difference_grad(model, ratings, store, hp)
            num = np.sqrt(np.sum((gU - fU) ** 2) + np.sum((gV - fV) ** 2))
            den = max(np.sqrt(np.sum(fU ** 2) + np.sum(fV ** 2)), 1e-12)
            assert num / den < 1e-6


class TestKernelOracle:
    """The blocked pass against the unblocked reference, byte for byte."""

    @pytest.mark.parametrize("social", ["none", "trust-pull", "distrust-push", "triplet-margin"])
    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_value_and_gradients_bit_equal(self, social, loss, convention, k):
        rng = np.random.default_rng([k, len(social), len(loss), len(convention)])
        for _ in range(3):
            graph = random_graph(rng, n_max=14, edge_prob=0.25)
            m = int(rng.integers(3, 9))
            ratings = random_ratings(rng, graph.n, m, density=0.4)
            # the last user and the last item have no ratings
            keep = (ratings.users < graph.n - 1) & (ratings.items < m - 1)
            ratings = ratings.subset(np.flatnonzero(keep))
            model = FactorModel(rng.normal(0, 1, (graph.n, k)), rng.normal(0, 1, (m, k)), k)
            hp = Hyperparams(k=k, lambda_u=0.3, lambda_v=0.2, lambda_s=1.7, alpha=0.6,
                             beta=0.4, loss=loss, sign_convention=convention, social=social)
            # the hinge margin sum adds per-edge counts, not pairs: another order
            hinge = social == "triplet-margin" and loss == "hinge"
            for store in (extract_triplets(graph), lazy_triplets(graph)):
                full = _objective_pass(model, ratings, store, hp)
                ref_value, ref_gU, ref_gV = reference_value_and_grad(model, ratings, store, hp)
                ref_parts = reference_parts(model, ratings, store, hp)
                parts = (full.rating, full.reg_u, full.reg_v, full.social)
                assert parts[:3] == ref_parts[:3]
                assert parts[3] == (pytest.approx(ref_parts[3], rel=1e-12) if hinge
                                    else ref_parts[3])
                # the value is the parts added in the order the pass always added them
                assert full.value == today_value(parts)
                assert full.value == (pytest.approx(ref_value, rel=1e-12) if hinge else ref_value)
                assert full.gU.tobytes() == ref_gU.tobytes() and full.gU.shape == (graph.n, k)
                assert full.gV.tobytes() == ref_gV.tobytes() and full.gV.shape == (m, k)
                assert full.pred.tobytes() == predict_many(
                    model, ratings.users, ratings.items, clamp=False).tobytes()
                only = _objective_pass(model, ratings, store, hp, need_grad=False, social=VALUE)
                assert (only.value, only.gU, only.gV) == (full.value, None, None)
                assert only.pred.tobytes() == full.pred.tobytes()
                # the social request changes only the social term's value and gradient
                plain = reference_value_and_grad(model, ratings, store, hp.replace(social="none"))
                for request in (SKIP, VALUE):
                    rating_only = _objective_pass(model, ratings, store, hp, social=request)
                    assert rating_only.social == (None if request == SKIP else full.social)
                    assert (rating_only.rating, rating_only.reg_u, rating_only.reg_v) == \
                        parts[:3]
                    assert rating_only.gU.tobytes() == plain[1].tobytes()
                    assert rating_only.gV.tobytes() == full.gV.tobytes()
                    assert rating_only.pred.tobytes() == full.pred.tobytes()
                assert objective_value(model, ratings, store, hp) == full.value
                assert all(a.tobytes() == b.tobytes() for a, b in
                           zip(grad(model, ratings, store, hp), (full.gU, full.gV)))

    def test_no_ratings_at_all(self, rng):
        graph = random_graph(rng, n_max=8)
        ratings = SparseRatings(graph.n, 3, [], [], [])
        model = FactorModel(rng.normal(0, 1, (graph.n, 2)), rng.normal(0, 1, (3, 2)), 2)
        hp = Hyperparams(k=2, lambda_u=0.5, lambda_v=0.5, lambda_s=1.0, social="triplet-margin")
        store = lazy_triplets(graph)
        full = _objective_pass(model, ratings, store, hp)
        ref_value, ref_gU, ref_gV = reference_value_and_grad(model, ratings, store, hp)
        assert full.value == ref_value and len(full.pred) == 0 and full.rating == 0.0
        assert full.gU.tobytes() == ref_gU.tobytes() and full.gV.tobytes() == ref_gV.tobytes()


def test_regularizer_parts_are_summed_on_first_read(rng):
    # an SGD step's pass skips the social term and no one reads its value
    ratings = random_ratings(rng, 9, 5)
    model = FactorModel(rng.normal(0, 1, (9, 2)), rng.normal(0, 1, (5, 2)), 2)
    hp = Hyperparams(k=2, lambda_u=0.3, lambda_v=0.7)
    result = _objective_pass(model, ratings, None, hp, social=SKIP)
    assert "reg_u" not in vars(result) and "reg_v" not in vars(result)
    assert result.reg_u == 0.5 * 0.3 * float(np.sum(model.U * model.U))
    assert result.reg_v == 0.5 * 0.7 * float(np.sum(model.V * model.V))
    assert vars(result)["reg_u"] == result.reg_u


BLOCKS = [1, 7, objective.BLOCK_ROWS]
MARGIN_CASES = [("triplet-margin", loss, convention) for loss in ("hinge", "logistic")
                for convention in ("figure1", "paper-literal")]
PLAIN_CASES = [(social, "hinge", "figure1") for social in ("trust-pull", "distrust-push", "none")]


def blocked_instance(rng, block, k=3):
    """A graph, ratings and model; at the default block size, enough ratings
    and trust edges to fill more than one block, else a small one."""
    n, m = (150, 70) if block == objective.BLOCK_ROWS else (int(rng.integers(2, 15)), 8)
    draw = rng.random((n, n)) + 2 * np.eye(n)  # no self-edges
    graph = SocialGraph.from_edges(n, np.argwhere(draw < 0.25).tolist(),
                                   np.argwhere((draw >= 0.25) & (draw < 0.5)).tolist())
    ratings = random_ratings(rng, n, m, density=0.7)
    model = FactorModel(rng.normal(0, 1, (n, k)), rng.normal(0, 1, (m, k)), k)
    return graph, ratings, model


class TestBlockedPasses:
    """Rating and edge blocks of any size give the unblocked reference's bytes."""

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("social, loss, convention", MARGIN_CASES + PLAIN_CASES)
    def test_value_and_grad_equal_reference(self, monkeypatch, block, social, loss, convention):
        monkeypatch.setattr(objective, "BLOCK_ROWS", block)
        rng = np.random.default_rng([block, len(social), len(loss), len(convention)])
        graph, ratings, model = blocked_instance(rng, block)
        if block == objective.BLOCK_ROWS:
            assert ratings.nnz > block and len(graph.trust_edge_array) > block
        hp = Hyperparams(k=3, lambda_u=0.3, lambda_v=0.2, lambda_s=1.7, alpha=0.6, beta=0.4,
                         loss=loss, sign_convention=convention, social=social)
        store = lazy_triplets(graph)
        full = _objective_pass(model, ratings, store, hp)
        ref_value, ref_gU, ref_gV = reference_value_and_grad(model, ratings, store, hp)
        # the hinge margin sum adds per-edge counts, not pairs: another order
        hinge = social == "triplet-margin" and loss == "hinge"
        assert full.value == (pytest.approx(ref_value, rel=1e-12) if hinge else ref_value)
        assert (full.rating, full.reg_u, full.reg_v) == reference_parts(
            model, ratings, store, hp)[:3]
        assert full.gU.tobytes() == ref_gU.tobytes() and full.gV.tobytes() == ref_gV.tobytes()
        assert objective_value(model, ratings, store, hp) == full.value

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    def test_triplet_batch_gradient_equals_reference(self, monkeypatch, block, loss, convention):
        monkeypatch.setattr(objective, "BLOCK_ROWS", block)
        rng = np.random.default_rng([block, len(loss), len(convention)])
        graph = blocked_instance(rng, block)[0]
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.0, loss=loss,
                         sign_convention=convention)
        store = lazy_triplets(graph)
        for size in (1, 5, 64, 3 * block + 1):
            batch = sample_triplets(store, rng, size)
            U = rng.normal(0, 1, (graph.n, 3))
            rows = np.arange(size)
            ref = reference_margin_term(U, batch[:, :2], batch[:, ::2], [(rows, rows)], hp, 0.3)[1]
            assert triplet_batch_gradient(U, batch, hp, 0.3).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("fit", [fit_gd, fit_sgd])
    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    def test_fits_do_not_depend_on_the_block_size(self, monkeypatch, fit, loss):
        rng = np.random.default_rng(len(loss))
        graph, ratings, _ = blocked_instance(rng, 1)
        store = lazy_triplets(graph)
        hp = Hyperparams(k=3, lambda_u=0.1, lambda_v=0.1, lambda_s=0.5, eta0=0.02, epochs=6,
                         batch_size=min(4, store.total), loss=loss, social="triplet-margin")
        fits = []
        for block in BLOCKS:
            monkeypatch.setattr(objective, "BLOCK_ROWS", block)
            model, report = fit(ratings, store, hp, seed=3, eval_every=2)
            fits.append((model.U.tobytes(), model.V.tobytes(), report.signature()))
        assert fits[0] == fits[1] == fits[2]

    def test_rating_pass_memory_stays_below_one_gather(self):
        """One pass with the gradient on 200k ratings (k = 10) holds less than
        one (N, k) float64 array at a time."""
        rng = np.random.default_rng(7)
        n, m, nnz, k = 4000, 2000, 200_000, 10
        keys = rng.choice(n * m, nnz, replace=False)
        ratings = SparseRatings(n, m, keys // m, keys % m, rng.integers(1, 6, nnz).astype(float))
        model = FactorModel(rng.normal(0, 0.1, (n, k)), rng.normal(0, 0.1, (m, k)), k)
        hp = Hyperparams(k=k, lambda_u=0.1, lambda_v=0.1)
        tracemalloc.start()
        try:
            _objective_pass(model, ratings, None, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nnz * k * 8, f"peak {peak / 1e6:.1f} MB"


def add_at_reference(model, ratings, hp):
    """(rating, pred, gU, gV) of the rating half as the pass took them before
    the folds: the e-weighted rows added per column by np.add.at, in rating order."""
    U, V = model.U, model.V
    u_rows, v_rows = U[ratings.users], V[ratings.items]
    pred = np.einsum("ij,ij->i", u_rows, v_rows)
    e = pred - ratings.values
    gU, gV = np.zeros((model.k, len(U))), np.zeros((model.k, len(V)))
    for c in range(model.k):
        np.add.at(gU[c], ratings.users, v_rows[:, c] * e)
        np.add.at(gV[c], ratings.items, u_rows[:, c] * e)
    return (0.5 * float(np.einsum("i,i->", e, e)), pred, gU.T + hp.lambda_u * U,
            gV.T + hp.lambda_v * V)


def fold_instance(rng, nnz, k=3, hub=False):
    """nnz ratings over 700 users and 500 items, in random entry order; the
    last users and items have none, and with hub user 0 rates every other
    item, most of the ratings when nnz is under 1000."""
    n, m = 700, 500
    size = nnz - (m - 3) * hub
    flat = rng.choice((n - 6) * (m - 3), size, replace=False)
    users, items = flat // (m - 3) + hub, flat % (m - 3)
    if hub:
        shuffle = rng.permutation(nnz)
        users = np.concatenate((users, np.zeros(m - 3, np.int64)))[shuffle]
        items = np.concatenate((items, np.arange(m - 3)))[shuffle]
    ratings = SparseRatings(n, m, users, items, rng.integers(1, 6, nnz).astype(float))
    model = FactorModel(rng.normal(0, 1, (n, k)), rng.normal(0, 1, (m, k)), k)
    return ratings, model


FOLD_MIN = data.FOLD_MIN_ROWS


class TestRatingFold:
    """The folded rating gradient against np.add.at in rating order, byte for byte."""

    @staticmethod
    def assert_matches_add_at(model, ratings, hp):
        full = _objective_pass(model, ratings, None, hp, social=SKIP)
        rating, pred, gU, gV = add_at_reference(model, ratings, hp)
        assert np.float64(full.rating).tobytes() == np.float64(rating).tobytes()
        assert np.float64(full.rating).tobytes() == np.float64(
            reference_parts(model, ratings, None, hp)[0]).tobytes()
        for got, want in ((full.pred, pred), (full.gU, gU), (full.gV, gV)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        only = _objective_pass(model, ratings, None, hp, need_grad=False, social=SKIP)
        assert only.pred.tobytes() == pred.tobytes() and only.gU is None
        assert np.float64(only.rating).tobytes() == np.float64(rating).tobytes()

    @pytest.mark.parametrize("fold_min", [1, FOLD_MIN, 10**9])
    @pytest.mark.parametrize("block", [7, objective.BLOCK_ROWS])
    @pytest.mark.parametrize("nnz, hub", [(0, False), (1, False), (6000, False), (900, True)])
    def test_bytes_equal_add_at(self, monkeypatch, fold_min, block, nnz, hub):
        monkeypatch.setattr(data, "FOLD_MIN_ROWS", fold_min)
        monkeypatch.setattr(objective, "BLOCK_ROWS", block)
        rng = np.random.default_rng([fold_min % 1000, block, nnz, hub])
        ratings, model = fold_instance(rng, nnz, hub=hub)  # fresh: the folds are cached
        by_user, by_item = ratings.folds
        for fold in (by_user, by_item):
            folded = sum(fold.runs)
            assert len(fold.tail) == nnz - folded  # the tail is every entry past the runs
            assert all(run >= fold_min for run in fold.runs)
            if fold_min == 1 or nnz == 0:
                assert len(fold.tail) == 0
            elif fold_min > nnz:
                assert fold.runs == ()
        if nnz > 1 and fold_min == FOLD_MIN:  # both a folded part and a tail
            assert by_user.runs and len(by_user.tail) and by_item.runs and len(by_item.tail)
        if hub:
            assert np.count_nonzero(ratings.users == 0) > nnz // 2
        hp = Hyperparams(k=3, lambda_u=0.3, lambda_v=0.2)
        self.assert_matches_add_at(model, ratings, hp)
        self.assert_matches_add_at(model, ratings, hp.replace(lambda_u=0.0, lambda_v=0.0))

    @pytest.mark.parametrize("fold_min", [1, FOLD_MIN, 10**9])
    def test_inf_and_nan_factor_rows(self, monkeypatch, fold_min):
        monkeypatch.setattr(data, "FOLD_MIN_ROWS", fold_min)
        rng = np.random.default_rng(fold_min % 1000)
        ratings, model = fold_instance(rng, 6000)
        users, items = ratings.users, ratings.items
        model.U[users[:3]] = [np.inf, -np.inf, np.nan]
        model.U[users[10], 1] = -np.inf
        model.V[items[20]] = np.nan
        model.V[items[30], 0] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            self.assert_matches_add_at(model, ratings, Hyperparams(k=3, lambda_u=0.3, lambda_v=0.2))

    def test_folds_are_cached_and_read_only(self, monkeypatch, rng):
        ratings, model = fold_instance(rng, 3000)
        built, build = [], data._fold
        monkeypatch.setattr(data, "_fold", lambda *args: built.append(1) or build(*args))
        hp = Hyperparams(k=3, lambda_u=0.1)
        _objective_pass(model, ratings, None, hp, need_grad=False)
        assert built == []  # a value-only pass predicts in rating order
        first = _objective_pass(model, ratings, None, hp)
        folds = ratings.folds
        second = _objective_pass(model, ratings, None, hp)
        assert built == [1, 1] and ratings.folds is folds
        assert first.gU.tobytes() == second.gU.tobytes()
        for fold in folds:
            arrays = [fold.order, fold.other, fold.keys, fold.tail]
            arrays += [] if fold.values is None else [fold.values]
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[:1] = 0
            assert isinstance(fold.runs, tuple)
        assert folds[0].values is not None and folds[1].values is None


class TestMarginKernel:
    """The edge-pair margin kernel against the per-triplet oracle."""

    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    def test_full_pass_matches_reference(self, rng, loss, convention):
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.7, loss=loss,
                         sign_convention=convention)
        for _ in range(20):
            graph = random_graph(rng, n_max=14, edge_prob=0.25)
            store = extract_triplets(graph)
            U = rng.normal(0, 1, (graph.n, 3))
            value, g = _social_term(U, store, hp, need_grad=True)
            if store.total:
                assert_matches_reference(U, store.triplets, hp, hp.lambda_s / store.total,
                                         value, g)
            assert value == _social_term(U, store, hp, need_grad=False)[0]

    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    def test_margins_bit_equal_to_per_triplet(self, rng, monkeypatch, convention):
        seen = []

        def recording_loss(kind, z, need_slope=False):
            seen.append(z.copy())
            return _loss(kind, z, need_slope)

        monkeypatch.setattr(objective, "_BLOCK_PAIRS", 5)
        monkeypatch.setattr(objective, "_loss", recording_loss)
        for k in [4, 10] * 5:
            # hinge full passes list no pairs
            hp = Hyperparams(k=k, social="triplet-margin", lambda_s=1.0, loss="logistic",
                             sign_convention=convention)
            graph = random_graph(rng, n_max=12, edge_prob=0.3)
            store = lazy_triplets(graph)
            U = rng.normal(0, 1, (graph.n, k))
            seen.clear()
            _social_term(U, store, hp, need_grad=False)
            t = extract_triplets(graph).triplets
            expected = reference_margin(U, t[:, 0], t[:, 1], t[:, 2], convention)
            assert np.array_equal(np.concatenate(seen or [np.empty(0)]), expected)

    def test_margin_argument_bit_equal_to_per_triplet(self, rng):
        for k in (1, 3, 8, 13):
            U = rng.normal(0, 1, (6, k))
            for convention in ("figure1", "paper-literal"):
                for i, j, kk in rng.integers(0, 6, (20, 3)).tolist():
                    expected = reference_margin(U, np.array([i]), np.array([j]),
                                                np.array([kk]), convention)[0]
                    assert margin_argument(U, i, j, kk, convention) == expected
        with pytest.raises(ValueError, match="sign convention"):
            margin_argument(U, 0, 1, 2, "sideways")

    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    def test_kink_counts_as_inactive(self, rng, convention):
        hp = Hyperparams(k=2, social="triplet-margin", lambda_s=1.0, sign_convention=convention)
        kinks = 0
        for _ in range(20):
            graph = random_graph(rng, n_max=10, edge_prob=0.3)
            store = extract_triplets(graph)
            U = rng.integers(-1, 2, (graph.n, 2)).astype(float)
            if not store.total:
                continue
            t = store.triplets
            kinks += int(np.sum(reference_margin(U, t[:, 0], t[:, 1], t[:, 2], convention) == 1.0))
            value, g = _social_term(U, store, hp, need_grad=True)
            assert_matches_reference(U, t, hp, 1.0 / store.total, value, g)
        assert kinks > 0

    def test_kink_alone_has_zero_gradient(self):
        # d2(0, 1) = 1 and d2(0, 2) = 2: z = 1 exactly under figure1
        U = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        store = extract_triplets(SocialGraph.from_edges(3, [(0, 1)], [(0, 2)]))
        hp = Hyperparams(k=2, social="triplet-margin", lambda_s=1.0)
        value, g = _social_term(U, store, hp, need_grad=True)
        assert value == 0.0 and np.all(g == 0.0)

    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    def test_one_sided_users_and_empty_graph(self, rng, monkeypatch, loss):
        # users 0-2 trust only, 3-5 distrust only, 6 carries every triplet;
        # blocks of two pairs: one of trust edges without pairs, then one
        # per trust edge of user 6, which has three
        monkeypatch.setattr(objective, "_BLOCK_PAIRS", 2)
        trust = [(0, 1), (1, 2), (2, 0), (6, 0), (6, 1)]
        distrust = [(3, 4), (4, 5), (5, 3), (6, 3), (6, 4), (6, 5)]
        graph = SocialGraph.from_edges(7, trust, distrust)
        store = extract_triplets(graph)
        assert store.total == 6
        assert [len(e) for e, _ in _pair_blocks(graph)] == [0, 3, 3]
        U = rng.normal(0, 1, (7, 3))
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.0, loss=loss)
        value, g = _social_term(U, store, hp, need_grad=True)
        assert_matches_reference(U, store.triplets, hp, 1.0 / 6, value, g)
        assert np.all(g[2] == 0.0)  # in no triplet: its edges add nothing
        empty = SocialGraph.from_edges(4)
        no_edges = empty.trust_edge_array
        value, g = _margin_term(rng.normal(0, 1, (4, 3)), no_edges, no_edges,
                                _pair_blocks(empty), hp, 1.0)
        assert value == 0.0 and g.shape == (4, 3) and np.all(g == 0.0)

    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    def test_several_blocks(self, rng, monkeypatch, loss):
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.0, loss=loss)
        graph = random_graph(np.random.default_rng(3), n_max=30, edge_prob=0.3)
        store = extract_triplets(graph)
        U = rng.normal(0, 1, (graph.n, 3))
        whole = _social_term(U, store, hp, need_grad=True)
        monkeypatch.setattr(objective, "_BLOCK_PAIRS", 7)
        blocks = list(_pair_blocks(graph))
        assert len(blocks) > 10
        trust, distrust = graph.trust_edge_array, graph.distrust_edge_array
        for e, f in blocks:
            assert len(e) <= 7 or len(np.unique(e)) == 1
        e, f = (np.concatenate(parts) for parts in zip(*blocks))
        listed = np.column_stack((trust[e, 0], trust[e, 1], distrust[f, 1]))
        assert np.array_equal(listed, store.triplets)
        value, g = _social_term(U, store, hp, need_grad=True)
        assert_matches_reference(U, store.triplets, hp, 1.0 / store.total, value, g)
        assert value == pytest.approx(whole[0], rel=1e-12)

    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    def test_sgd_batches(self, rng, loss, convention):
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.0, loss=loss,
                         sign_convention=convention)
        graph = random_graph(np.random.default_rng(4), n_max=12, edge_prob=0.3)
        store = lazy_triplets(graph)
        for size in (1, 5, 64):
            batch = sample_triplets(store, rng, size)  # may repeat a triplet
            U = rng.normal(0, 1, (graph.n, 3))
            got = triplet_batch_gradient(U, batch, hp, 0.3)
            ref = reference_triplet_term(U, batch[:, 0], batch[:, 1], batch[:, 2], hp, 0.3)[1]
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref).max(initial=0.0))


def counting_calls(monkeypatch):
    """The argument tuples of every _hinge_counts call from now on."""
    calls = []

    def counting(*args):
        calls.append(args)
        return _hinge_counts(*args)

    monkeypatch.setattr(objective, "_hinge_counts", counting)
    return calls


def pair_pass(U, graph, hp, scale=None):
    """Oracle: the margin sum (and gradient) over the listed pairs."""
    return _margin_term(U, graph.trust_edge_array, graph.distrust_edge_array,
                        _pair_blocks(graph), hp, scale)


class TestHingeTerm:
    """The hinge pass from per-edge counts against the pair pass.

    Write z = q - p: p = a and q = b under figure1, the reverse under
    paper-literal. fl(q - p) rises with q and falls with p, so when
    fl(max q - min p) < 1 every pair is active and each edge's count is its
    source's number of other-sign edges; else (or on a NaN) _hinge_counts
    counts. The value, the sum of 1 + p - q over active pairs, is taken as
    sum c_e - (sum c_f q_f - sum c_e p_e), which keeps a p too small to move
    1 + p; the pair pass gives it when that is not finite (a zero count times
    an inf length reads NaN). Each edge's slope sum is its negated count, so
    the gradient bytes are the pair pass's.
    """

    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    def test_gradient_bytes_and_value_match_pairs(self, rng, convention):
        hp = Hyperparams(k=3, social="triplet-margin", sign_convention=convention)
        for trial in range(60):
            graph = random_graph(rng, n_max=20, edge_prob=0.3)
            # normal rows; rows on the integer grid, with margins at the kink;
            # rows so short that every margin lies within ulps of it
            U = (rng.normal(0, 1, (graph.n, 3)),
                 rng.integers(-1, 2, (graph.n, 3)).astype(float),
                 rng.normal(0, 2.0 ** -27, (graph.n, 3)))[trial % 3]
            value, g = _hinge_term(U, graph, hp, 0.7)
            ref_value, ref_g = pair_pass(U, graph, hp, 0.7)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
            assert g.tobytes() == ref_g.tobytes()
            assert _hinge_term(U, graph, hp) == (value, None)

    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    def test_one_ulp_below_the_kink_is_active(self, monkeypatch, convention):
        # edge lengths 2**-53 and 1: z = fl(1 - 2**-53) < 1, yet 1 + 2**-53
        # rounds to 1, so searching for q < 1 + p alone finds no active pair;
        # max q - min p is one ulp below 1, so the offsets give the counts
        U = np.array([[0.0, 0.0], [2.0 ** -27, 2.0 ** -27], [1.0, 0.0]])
        short, long = [(0, 1)], [(0, 2)]
        graph = SocialGraph.from_edges(
            3, *((short, long) if convention == "figure1" else (long, short)))
        hp = Hyperparams(k=2, social="triplet-margin", sign_convention=convention)
        calls = counting_calls(monkeypatch)
        value, g = _hinge_term(U, graph, hp, 1.0)
        assert not calls
        ref_value, ref_g = pair_pass(U, graph, hp, 1.0)
        assert value == ref_value == 2.0 ** -53
        assert g.tobytes() == ref_g.tobytes() and np.any(g != 0.0)

    def test_threshold_is_the_least_float_reaching_the_margin(self, rng):
        p = np.concatenate((rng.random(1000) * 10.0 ** rng.integers(-20, 4, 1000),
                            np.arange(8) * 2.0 ** -54, [1e300]))
        t = _hinge_threshold(p)
        assert np.all(t - p >= 1.0) and np.all(np.nextafter(t, -np.inf) - p < 1.0)
        with np.errstate(invalid="ignore"):  # inf - inf, as a pair pass meets it
            extremes = _hinge_threshold(np.array([np.inf, np.nan]))
        assert np.array_equal(extremes, [np.inf, -np.inf])

    def test_empty_sides(self, rng):
        hp = Hyperparams(k=3, social="triplet-margin")
        for trust, distrust in (((), ()), ([(0, 1)], ()), ((), [(0, 1)])):
            graph = SocialGraph.from_edges(4, trust, distrust)
            for convention in ("figure1", "paper-literal"):
                value, g = _hinge_term(rng.normal(0, 1, (4, 3)), graph,
                                       hp.replace(sign_convention=convention), 1.0)
                assert value == 0.0 and g.shape == (4, 3) and np.all(g == 0.0)

    @pytest.mark.parametrize("name", ["_pair_blocks", "_loss"])
    def test_full_hinge_passes_list_no_pairs(self, rng, monkeypatch, name):
        graph = random_graph(np.random.default_rng(6), n_max=12, edge_prob=0.3)
        store = lazy_triplets(graph)
        assert store.total
        ratings = random_ratings(rng, graph.n, 4)
        model = FactorModel(rng.normal(0, 1, (graph.n, 3)), rng.normal(0, 1, (4, 3)), 3)
        hp = Hyperparams(k=3, social="triplet-margin", epochs=2)

        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(objective, name, refuse)
        grad(model, ratings, store, hp)
        objective_value(model, ratings, store, hp)
        fit_gd(ratings, store, hp)
        with pytest.raises(AssertionError, match=f"{name} called"):
            grad(model, ratings, store, hp.replace(loss="logistic"))


class TestAllActiveHinge:
    """Hinge passes with fl(max q - min p) < 1 take every count from the
    offsets; either way the gradient bytes are the pair pass's."""

    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    @pytest.mark.parametrize("listed", [True, False])
    def test_small_factors_match_the_pair_pass(self, monkeypatch, convention, listed):
        calls = counting_calls(monkeypatch)
        rng = np.random.default_rng([len(convention), listed])
        hp = Hyperparams(k=3, lambda_u=0.3, lambda_v=0.2, lambda_s=1.7, social="triplet-margin",
                         sign_convention=convention)
        for _ in range(10):
            graph = random_graph(rng, n_max=14, edge_prob=0.25)
            ratings = random_ratings(rng, graph.n, 5)
            model = FactorModel(rng.normal(0, 0.01, (graph.n, 3)), rng.normal(0, 0.01, (5, 3)), 3)
            store = (extract_triplets if listed else lazy_triplets)(graph)
            full = _objective_pass(model, ratings, store, hp)
            ref_value, ref_gU, ref_gV = reference_value_and_grad(model, ratings, store, hp)
            assert full.value == pytest.approx(ref_value, rel=1e-12)
            assert full.gU.tobytes() == ref_gU.tobytes() and full.gV.tobytes() == ref_gV.tobytes()
            ref_g = reference_social_term(model.U, store, hp, need_grad=True)[1]
            assert social_gradient(model.U, store, hp).tobytes() == ref_g.tobytes()
        assert not calls

    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    def test_counts_equal_the_sorted_counts(self, rng, convention):
        # equal counts: the counting path's value and gradient bytes
        for _ in range(20):
            graph = random_graph(rng, n_max=14, edge_prob=0.3)
            U = rng.normal(0, 0.01, (graph.n, 3))
            trust, distrust = graph.trust_edge_array, graph.distrust_edge_array
            a, b = (np.sum((U[e[:, 0]] - U[e[:, 1]]) ** 2, axis=-1) for e in (trust, distrust))
            sides = [(a, trust, graph.trust_offsets), (b, distrust, graph.distrust_offsets)]
            (p, p_edges, p_offsets), (q, q_edges, q_offsets) = \
                sides if convention == "figure1" else sides[::-1]
            assert q.max(initial=0.0) - p.min(initial=0.0) < 1.0
            c_p, c_q = _hinge_counts(p, q, p_edges, q_edges, q_offsets)
            assert c_p.dtype == c_q.dtype == np.int64
            assert np.array_equal(c_p, np.diff(q_offsets)[p_edges[:, 0]])
            assert np.array_equal(c_q, np.diff(p_offsets)[q_edges[:, 0]])

    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    def test_a_gap_of_exactly_one_is_counted(self, monkeypatch, convention):
        # user 0: p-lengths 0 and 0.25, q-length 1, so max q - min p = 1: the
        # pair at the kink is inactive, the other active
        U = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        short, long = [(0, 1), (0, 2)], [(0, 3)]
        graph = SocialGraph.from_edges(
            4, *((short, long) if convention == "figure1" else (long, short)))
        hp = Hyperparams(k=2, social="triplet-margin", sign_convention=convention)
        calls = counting_calls(monkeypatch)
        value, g = _hinge_term(U, graph, hp, 1.0)
        assert len(calls) == 1
        ref_value, ref_g = pair_pass(U, graph, hp, 1.0)
        assert value == ref_value == 0.25
        assert g.tobytes() == ref_g.tobytes()

    @pytest.mark.parametrize("convention", ["figure1", "paper-literal"])
    @pytest.mark.parametrize("side", ["trust", "distrust"])
    def test_an_inf_length_matches_the_pair_pass(self, rng, monkeypatch, convention, side):
        # user 4's row is so long that each edge to it has an inf squared
        # length: paired with finite lengths at user 0, alone at user 1
        edges = {"trust": [(0, 1), (0, 2), (3, 1), (2, 0)],
                 "distrust": [(0, 3), (3, 0), (3, 2), (2, 1)]}
        edges[side] += [(0, 4), (1, 4)]
        graph = SocialGraph.from_edges(5, edges["trust"], edges["distrust"])
        store = lazy_triplets(graph)
        U = rng.normal(0, 1, (5, 3))
        U[4] = 1e200
        hp = Hyperparams(k=3, social="triplet-margin", lambda_s=1.7, sign_convention=convention)
        calls = counting_calls(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            value, g = _social_term(U, store, hp, need_grad=True)
            ref_value, ref_g = reference_social_term(U, store, hp, need_grad=True)
        # inf on the q side: its pairs are inactive (a finite value) and the
        # lengths are sorted; on the p side they are active (an inf value)
        on_q = (side == "distrust") == (convention == "figure1")
        assert value == ref_value and (value == np.inf) != on_q
        assert g.tobytes() == ref_g.tobytes() and np.all(np.isfinite(g))
        assert len(calls) == 1 or not on_q

    def test_small_scale_passes_never_count(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("_hinge_counts called")

        monkeypatch.setattr(objective, "_hinge_counts", refuse)
        graph = random_graph(np.random.default_rng(6), n_max=12, edge_prob=0.3)
        store = lazy_triplets(graph)
        assert store.total
        ratings = random_ratings(rng, graph.n, 4)
        model = FactorModel(rng.normal(0, 0.01, (graph.n, 3)), rng.normal(0, 0.01, (4, 3)), 3)
        for convention in ("figure1", "paper-literal"):
            hp = Hyperparams(k=3, social="triplet-margin", sign_convention=convention)
            grad(model, ratings, store, hp)
            objective_value(model, ratings, store, hp)
            social_gradient(model.U, store, hp)
            with pytest.raises(AssertionError, match="_hinge_counts called"):
                social_gradient(model.U * 1e3, store, hp)


class TestCallerArrays:
    """The gradient kernels scale only arrays they made: the caller's
    factors stay as they were, and a second call gives the first's bytes."""

    @pytest.mark.parametrize("social", ["trust-pull", "distrust-push", "triplet-margin"])
    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    def test_factors_unchanged_and_calls_repeat(self, rng, social, loss):
        graph = random_graph(np.random.default_rng(5), n_max=12, edge_prob=0.3)
        store = lazy_triplets(graph)
        ratings = random_ratings(rng, graph.n, 4)
        model = FactorModel(rng.normal(0, 1, (graph.n, 3)), rng.normal(0, 1, (4, 3)), 3)
        before = model.U.tobytes(), model.V.tobytes()
        hp = Hyperparams(k=3, lambda_u=0.3, lambda_v=0.2, lambda_s=1.3, alpha=0.6, beta=0.4,
                         loss=loss, social=social)
        batch = sample_triplets(store, rng, 16)
        calls = {"grad": lambda: grad(model, ratings, store, hp),
                 "social_gradient": lambda: [social_gradient(model.U, store, hp)],
                 "triplet_batch_gradient": lambda: [triplet_batch_gradient(model.U, batch, hp, 0.3)]}
        for name, call in calls.items():
            first = [g.tobytes() for g in call()]
            assert [g.tobytes() for g in call()] == first, name
            assert (model.U.tobytes(), model.V.tobytes()) == before, name
