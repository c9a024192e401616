"""Loss functions, the social triplet term, and one kernel for the full
objective and its analytic gradient.

Everything here works per-triplet on the three touched rows of U; no n x n
auxiliary matrix is ever formed.
"""

from __future__ import annotations

import numpy as np

from .data import (
    MATERIALIZED,
    FactorModel,
    Hyperparams,
    SparseRatings,
    TripletStore,
)

HINGE = "hinge"
LOGISTIC = "logistic"
FIGURE1 = "figure1"
PAPER_LITERAL = "paper-literal"


def _loss(kind, z, need_slope=False):
    """Margin penalty at z and, if need_slope, d loss / dz (else None).

    hinge: max(0, 1 - z), with the 0 subgradient at the kink z = 1.
    logistic: log(1 + exp(-z)), computed stably for large |z|.
    """
    if kind == HINGE:
        slope = -(z < 1.0).astype(np.float64) if need_slope else None
        return np.maximum(0.0, 1.0 - z), slope
    if kind != LOGISTIC:
        raise ValueError(f"unknown loss kind {kind!r}")
    if not need_slope:
        return np.logaddexp(0.0, -z), None
    # slope = -sigmoid(-z), with exp only ever taken of a non-positive number
    x = -z
    sigmoid = np.empty_like(x)
    pos = x >= 0
    sigmoid[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    sigmoid[~pos] = ex / (1.0 + ex)
    return np.logaddexp(0.0, -z), -sigmoid


def _margin(U, i, j, k, convention):
    """Signed squared-distance gap z of triplet (i, j, k), or of each triplet
    when j, k (and i, unless one row is shared by all) are index arrays.

    figure1:       z = ||U_i - U_k||^2 - ||U_i - U_j||^2
    paper-literal: z = ||U_i - U_j||^2 - ||U_i - U_k||^2
    """
    # unnamed differences let numpy square in place; holding the gathered
    # rows instead made the lazy objective over 16M triplets ~25% slower
    dij = np.sum((U[i] - U[j]) ** 2, axis=-1)
    dik = np.sum((U[i] - U[k]) ** 2, axis=-1)
    if convention == FIGURE1:
        return dik - dij
    if convention == PAPER_LITERAL:
        return dij - dik
    raise ValueError(f"unknown sign convention {convention!r}")


def loss_value(kind: str, z: float) -> float:
    """Margin penalty at argument z.

    hinge: max(0, 1 - z). logistic: log(1 + exp(-z)), computed stably for
    large |z|.
    """
    return float(_loss(kind, np.float64(z))[0])


def margin_argument(U, i, j, k, convention: str = FIGURE1) -> float:
    """Signed squared-distance gap of one triplet under the convention."""
    return float(_margin(U, i, j, k, convention))


def triplet_term(U, triplet, kind: str = HINGE, convention: str = FIGURE1) -> float:
    """Penalty contributed by one (i, j, k) constraint."""
    i, j, k = triplet
    return loss_value(kind, margin_argument(U, i, j, k, convention))


def trace_identity_check(U, triplet) -> float:
    """Tr(C U U^T) from the six nonzero entries of the per-triplet C matrix.

    C has C[i,k] = C[k,i] = C[j,j] = 1 and C[k,k] = C[i,j] = C[j,i] = -1;
    the trace collapses to ||U_i - U_j||^2 - ||U_i - U_k||^2.
    """
    i, j, k = triplet
    ui, uj, uk = U[i], U[j], U[k]
    return float(2.0 * (ui @ uk) + uj @ uj - uk @ uk - 2.0 * (ui @ uj))


def _scatter(n: int, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(n, k) sums of rows[t] into row index[t], added in t order.

    Bit-identical to unbuffered in-place addition on zeros, and several
    times faster: one bincount per column over the whole index.
    """
    out = np.empty((n, rows.shape[1]))
    for c in range(rows.shape[1]):
        out[:, c] = np.bincount(index, weights=rows[:, c], minlength=n)
    return out


def _triplet_term(U, i, j, k, hp: Hyperparams, scale=None):
    """Sum of the penalties of triplets (i[t], j[t], k[t]) and, when scale is
    given, the gradient of scale * that sum with respect to U (else None).

    Each triplet touches exactly three rows. Under figure1,
    dz/dU_i = 2(U_j - U_k), dz/dU_j = 2(U_i - U_j), dz/dU_k = 2(U_k - U_i);
    paper-literal negates all three.
    """
    values, slope = _loss(hp.loss, _margin(U, i, j, k, hp.sign_convention), scale is not None)
    total = float(np.sum(values))
    if scale is None:
        return total, None
    ui, uj, uk = U[i], U[j], U[k]
    sign = 1.0 if hp.sign_convention == FIGURE1 else -1.0
    coeff = (sign * 2.0 * (slope * scale))[:, None]
    rows = np.concatenate((coeff * (uj - uk), coeff * (ui - uj), coeff * (uk - ui)))
    return total, _scatter(len(U), np.concatenate((i, j, k)), rows)


def _social_term(U, store: TripletStore | None, hp: Hyperparams, need_grad: bool):
    """Value of the social term and, if need_grad, its gradient wrt U (else None)."""
    g = np.zeros_like(U) if need_grad else None
    if hp.social == "none":
        return 0.0, g
    if store is None:
        raise ValueError("social term requires a triplet store (carrying the graph)")
    if hp.social == "triplet-margin":
        # an empty constraint set contributes nothing (no division)
        if store.total == 0:
            return 0.0, g
        if need_grad and store.mode != MATERIALIZED:
            raise ValueError("full gradient requires materialized triplets")
        scale = hp.lambda_s / store.total
        acc = 0.0
        # a materialized store is one block, so g ends up as the full gradient
        for i, j, k in store.iter_blocks():
            part, g = _triplet_term(U, i, j, k, hp, scale if need_grad else None)
            acc += part
        return scale * acc, g
    if hp.social == "trust-pull":
        weight, edges = hp.alpha, store.graph.trust_edge_array
    else:
        weight, edges = -hp.beta, store.graph.distrust_edge_array
    d = U[edges[:, 0]] - U[edges[:, 1]]
    if need_grad:
        g = _scatter(len(U), edges.T.ravel(), np.concatenate((weight * d, -weight * d)))
    return 0.5 * weight * float(np.sum(d * d)), g


def value_and_grad(model: FactorModel, ratings: SparseRatings,
                   store: TripletStore | None, hp: Hyperparams, need_grad: bool = True):
    """Full training objective and its gradient: (value, dL/dU, dL/dV).

    0.5 * sum of squared residuals over observed ratings
    + lambda_u/2 ||U||_F^2 + lambda_v/2 ||V||_F^2 + social term.
    Residuals use raw (unclamped) predictions. Without need_grad both
    gradients are None and no loss slope is computed.
    """
    U, V = model.U, model.V
    uu, ii = ratings.users, ratings.items
    u_rows, v_rows = U[uu], V[ii]
    e = np.einsum("ij,ij->i", u_rows, v_rows) - ratings.values
    value = 0.5 * float(e @ e)
    value += 0.5 * hp.lambda_u * float(np.sum(U * U))
    value += 0.5 * hp.lambda_v * float(np.sum(V * V))
    social, g_social = _social_term(U, store, hp, need_grad)
    value += social
    if not need_grad:
        return value, None, None
    gU = _scatter(len(U), uu, e[:, None] * v_rows) + hp.lambda_u * U
    gU += g_social
    gV = _scatter(len(V), ii, e[:, None] * u_rows) + hp.lambda_v * V
    return value, gU, gV


def objective_value(model: FactorModel, ratings: SparseRatings,
                    store: TripletStore | None, hp: Hyperparams) -> float:
    """Full training objective; see value_and_grad."""
    return value_and_grad(model, ratings, store, hp, need_grad=False)[0]


def grad(model: FactorModel, ratings: SparseRatings,
         store: TripletStore | None, hp: Hyperparams):
    """Full analytic gradient of the objective: (dL/dU, dL/dV)."""
    return value_and_grad(model, ratings, store, hp)[1:]


def social_gradient(U, store: TripletStore | None, hp: Hyperparams) -> np.ndarray:
    """Gradient of the social term with respect to U (full, not sampled)."""
    return _social_term(U, store, hp, need_grad=True)[1]


def triplet_batch_gradient(U, triplets: np.ndarray, hp: Hyperparams, scale: float) -> np.ndarray:
    """Gradient of `scale * sum of triplet penalties` over the given batch."""
    return _triplet_term(U, triplets[:, 0], triplets[:, 1], triplets[:, 2], hp, scale)[1]
