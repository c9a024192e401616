"""Losses, the social terms, and one kernel for the full objective and its
analytic gradient. Rating sums fold over the ratings' cached data.Fold orders;
edge products go to np.add.at in blocks of BLOCK_ROWS edges, each weighted row
formed once. Social terms read U through squared edge lengths ||U_s - U_t||^2
and share one edge scatter; a triplet (i, j, k) pairs its trust edge (i, j)
with its distrust edge (i, k). Full hinge passes take each edge's count of
active pairs from the CSR offsets when one comparison of the extreme lengths
proves every pair active, else from the lengths sorted per user; logistic full
passes list pairs in bounded blocks, and SGD batches are explicit pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (BLOCK_ROWS, FactorModel, Hyperparams, SocialGraph, SparseRatings, TripletStore,
                   predict_many)
from .keys import ranges

HINGE = "hinge"
LOGISTIC = "logistic"
FIGURE1 = "figure1"
PAPER_LITERAL = "paper-literal"
SKIP, VALUE, GRADIENT = "skip", "value", "gradient"  # what a pass asks of the social term


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


def trace_identity_check(U, triplet) -> float:
    """Tr(C U U^T) from the six nonzero entries of the per-triplet C matrix.

    C has C[i,k] = C[k,i] = C[j,j] = 1 and C[k,k] = C[i,j] = C[j,i] = -1;
    the trace collapses to ||U_i - U_j||^2 - ||U_i - U_k||^2.
    """
    i, j, k = triplet
    ui, uj, uk = U[i], U[j], U[k]
    return float(2.0 * (ui @ uk) + uj @ uj - uk @ uk - 2.0 * (ui @ uj))


def _accumulate(out: np.ndarray, index: np.ndarray, rows: np.ndarray, ufunc=np.add):
    """out[:, index[t]] = ufunc(out[:, index[t]], rows[t]) for the (k, n)
    out and (N, k) rows, by one np.add.at (or ufunc.at) per column, in t
    order: from zeros, each sum bincount's bytes."""
    for c, column in enumerate(out):
        ufunc.at(column, index, rows[:, c])


def _edge_scatter(n: int, sets) -> np.ndarray:
    """(n, k) sums of w[t] * x[t] onto edge t's source row, less the same onto
    its target, over (edges, x, w) sets of (E, 2) edges, (E, k) rows and one
    or per-edge weights: every source in set order, then every target. Each
    weighted row is formed once, by scaling the caller's x in place."""
    out = np.zeros((sets[0][1].shape[1], n))
    for _, x, w in sets:
        x *= np.reshape(w, (-1, 1))
    for side, ufunc in ((0, np.add), (1, np.subtract)):
        for edges, x, _ in sets:
            for b in range(0, len(x), BLOCK_ROWS):
                block = slice(b, b + BLOCK_ROWS)
                _accumulate(out, edges[block, side], x[block], ufunc)
    return out.T


def _differences(U, edges: np.ndarray) -> np.ndarray:
    """(E, k) rows U_s - U_t of the edges (s, t), each formed once."""
    x = np.take(U, edges[:, 0], axis=0)
    x -= np.take(U, edges[:, 1], axis=0)
    return x


_BLOCK_PAIRS = 1 << 16  # bounds a full margin pass to a few MB of transient arrays


def _pair_blocks(graph: SocialGraph):
    """Yield (e, f) blocks of trust and distrust edge positions, one pair per
    triplet, in the listing order (i, then j, then k); each block holds whole
    trust edges and at most _BLOCK_PAIRS pairs unless one trust edge alone
    has more."""
    offsets, sources = graph.distrust_offsets, graph.trust_edge_array[:, 0]
    reps = np.diff(offsets)[sources]
    ends, start = np.cumsum(reps), 0
    while start < len(reps):
        limit = ends[start] - reps[start] + _BLOCK_PAIRS
        stop = max(int(np.searchsorted(ends, limit, side="right")), start + 1)
        yield (np.repeat(np.arange(start, stop), reps[start:stop]),
               ranges(offsets[sources[start:stop]], reps[start:stop]))
        start = stop


def _add_sums(out: np.ndarray, index: np.ndarray, weights: np.ndarray):
    """out[index[t]] += weights[t], by one bincount over the span index covers."""
    lo = index.min(initial=len(out))
    sums = np.bincount(index - lo, weights=weights)
    out[lo:lo + len(sums)] += sums


def _margin_term(U, trust, distrust, pairs, hp: Hyperparams, scale=None):
    """Sum of the penalties of the triplets that `pairs` yields, in (e, f)
    blocks of positions in the `trust` and `distrust` edge arrays, and, when
    scale is given, the gradient of scale * that sum wrt U (else None).

    With a = ||U_i - U_j||^2 per trust edge and b = ||U_i - U_k||^2 per
    distrust edge, z = b_f - a_e (figure1) or a_e - b_f. The loss slopes
    summed per edge weight one edge scatter, since d||U_s - U_t||^2 / dU_s =
    2(U_s - U_t) = -d||U_s - U_t||^2 / dU_t.
    """
    x = [_differences(U, edges) for edges in (trust, distrust)]
    a, b = (np.sum(d * d, axis=-1) for d in x)
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
    return total, _margin_gradient(U, trust, distrust, x, slope_a, slope_b, hp, scale)


def _margin_gradient(U, trust, distrust, x, slope_a, slope_b, hp: Hyperparams, scale):
    """Gradient of scale * a margin sum wrt U, from the summed loss slopes of
    the trust and distrust edges and their (E, k) differences x."""
    # figure1: dz/da = -1 and dz/db = 1; paper-literal negates both
    weight = 2.0 * scale * (1.0 if hp.sign_convention == FIGURE1 else -1.0)
    return _edge_scatter(len(U), [(trust, x[0], -weight * slope_a),
                                  (distrust, x[1], weight * slope_b)])


def _hinge_threshold(p: np.ndarray) -> np.ndarray:
    """Per length p >= 0, the least float t with fl(t - p) >= 1, so that
    fl(q - p) < 1 iff q < t; -inf where p is NaN, active with nothing.

    fl(1 + p) is never above it: its predecessor lies at least 2**-53 below
    1 + p, so fl(predecessor - p) <= 1 - 2**-53. It may be below it, e.g.
    fl(1 + 2**-53) = 1 while fl(1 - 2**-53) < 1, and is stepped up.
    """
    t = 1.0 + p
    while np.any(low := t - p < 1.0):
        t[low] = np.nextafter(t[low], np.inf)
    t[np.isnan(p)] = -np.inf
    return t


def _hinge_counts(p, q, p_edges, q_edges, q_offsets):
    """Per p-edge e, the count c_e of its source's q-edges f with
    fl(q_f - p_e) < 1, and per q-edge, the count c_f of p-edges active with
    it: fl(q - p) rises with q, so e's active q-edges are a prefix, c_e long,
    of its source's q-edges sorted by length, and f is in c_f such prefixes."""
    # q-edges by source, then length: the source offsets each length rank
    by_length = np.argsort(q)
    keys = np.sort(q_edges[by_length, 0] * len(q) + np.arange(len(q)))
    thresholds = _hinge_threshold(p)  # searched in sorted order, each near the last
    by_threshold, shorter = np.argsort(thresholds), np.empty(len(p), dtype=np.int64)
    shorter[by_threshold] = np.searchsorted(q[by_length], thresholds[by_threshold])
    starts = q_offsets[p_edges[:, 0]]
    c_p = np.searchsorted(keys, p_edges[:, 0] * len(q) + shorter) - starts
    # c_f: the prefixes [start, start + c_e) that cover f's sorted position
    cover = np.bincount(starts, minlength=len(q) + 1)
    cover -= np.bincount(starts + c_p, minlength=len(q) + 1)
    c_q = np.empty(len(q), dtype=np.int64)
    c_q[by_length[keys % len(q)]] = np.cumsum(cover[:-1])
    return c_p, c_q


def _hinge_term(U, graph: SocialGraph, hp: Hyperparams, scale=None):
    """_margin_term of the hinge loss over every triplet of the graph, from
    per-edge counts of active pairs instead of a pass over the pairs.

    Write z = q - p: p = a and q = b under figure1, the reverse under
    paper-literal. fl(q - p) rises with q and falls with p, so when
    fl(max q - min p) < 1 every pair is active and each edge's count is its
    source's number of other-sign edges; else (or on a NaN) _hinge_counts
    counts. The value, the sum of 1 + p - q over active pairs, is taken as
    sum c_e - (sum c_f q_f - sum c_e p_e), which keeps a p too small to move
    1 + p; the pair pass gives it when that is not finite (a zero count
    times an inf length reads NaN). Each edge's slope sum is its negated
    count, so the gradient bytes are the pair pass's.
    """
    trust, distrust = graph.trust_edge_array, graph.distrust_edge_array
    x = [_differences(U, edges) for edges in (trust, distrust)]
    a, b = (np.sum(d * d, axis=-1) for d in x)
    figure1 = hp.sign_convention == FIGURE1
    p, q, p_edges, q_edges = (a, b, trust, distrust) if figure1 else (b, a, distrust, trust)
    offsets = graph.trust_offsets, graph.distrust_offsets
    p_offsets, q_offsets = offsets if figure1 else offsets[::-1]
    if q.max(initial=-np.inf) - p.min(initial=np.inf) < 1.0:
        c_p = np.diff(q_offsets)[p_edges[:, 0]]
        c_q = np.diff(p_offsets)[q_edges[:, 0]]
    else:
        c_p, c_q = _hinge_counts(p, q, p_edges, q_edges, q_offsets)
    total = float(c_p.sum()) - (float(c_q @ q) - float(c_p @ p))
    if not np.isfinite(total):  # an inf or NaN length: only the pairs tell which add
        total = _margin_term(U, trust, distrust, _pair_blocks(graph), hp)[0]
    if scale is None:
        return total, None
    c_a, c_b = (c_p, c_q) if figure1 else (c_q, c_p)
    return total, _margin_gradient(U, trust, distrust, x, -c_a, -c_b, hp, scale)


def _social_term(U, store: TripletStore | None, hp: Hyperparams, need_grad: bool):
    """Value of the social term and, if need_grad, its gradient wrt U; the
    gradient is None without need_grad, and also when the term is absent
    (no social term, or no triplets) and so adds nothing."""
    if hp.social == "none":
        return 0.0, None
    if store is None:
        raise ValueError("social term requires a triplet store (carrying the graph)")
    graph = store.graph
    if hp.social == "triplet-margin":
        # an empty constraint set contributes nothing (no division)
        if store.total == 0:
            return 0.0, None
        scale = hp.lambda_s / store.total
        if hp.loss == HINGE:
            value, g = _hinge_term(U, graph, hp, scale if need_grad else None)
        else:
            value, g = _margin_term(U, graph.trust_edge_array, graph.distrust_edge_array,
                                    _pair_blocks(graph), hp, scale if need_grad else None)
        return scale * value, g
    if hp.social == "trust-pull":
        weight, edges = hp.alpha, graph.trust_edge_array
    else:
        weight, edges = -hp.beta, graph.distrust_edge_array
    d = _differences(U, edges)
    value = 0.5 * weight * float(np.sum(d * d))  # before the scatter scales d
    return value, _edge_scatter(len(U), [(edges, d, weight)]) if need_grad else None


@dataclass
class Pass:
    """One objective pass: the four parts whose sum, in this order, is `value`,
    dL/dU and dL/dV (None without need_grad) and the raw predictions U[u] . V[i]."""

    rating: float  # 0.5 * the sum of squared raw residuals
    reg_u: float  # lambda_u / 2 * ||U||_F^2
    reg_v: float  # lambda_v / 2 * ||V||_F^2
    social: float | None  # None when the pass skipped the social term
    gU: np.ndarray | None
    gV: np.ndarray | None
    pred: np.ndarray

    @property
    def value(self) -> float:
        return self.rating + self.reg_u + self.reg_v + self.social


def _fold_sums(fold, step_rows, reg):
    """reg plus each key's left fold from zeros of its entries' rows, in entry
    order, step_rows(entries, places) giving a step's rows: one add for a
    folded rank, whose places are distinct, np.add.at for a tail block."""
    sums, start = np.zeros((len(fold.keys), reg.shape[1])), 0
    for run in fold.runs:
        sums[:run] += step_rows(slice(start, start + run), slice(0, run))
        start += run
    for b in range(start, len(fold.order), BLOCK_ROWS):
        places = fold.tail[b - start:b - start + BLOCK_ROWS]
        _accumulate(sums.T, places, step_rows(slice(b, b + BLOCK_ROWS), places))
    out = np.zeros_like(reg)
    out[fold.keys] = sums
    out += reg
    return out


def _objective_pass(model: FactorModel, ratings: SparseRatings, store: TripletStore | None,
                    hp: Hyperparams, need_grad: bool = True, social: str = GRADIENT) -> Pass:
    """The full training objective and, with need_grad, its gradient; `social`
    asks the social term for nothing (SKIP), its VALUE, or its value and its
    GRADIENT, added to gU. The rating gradient folds over the ratings' cached
    data.Fold orders: V rows gathered in user fold order give the predictions
    and the users' sums, U rows gathered in item fold order the items'. Each
    sum keeps np.add.at's bytes; a value-only pass predicts by predict_many."""
    U, V = model.U, model.V
    if need_grad:
        by_user, by_item = ratings.folds
        fold_pred, fold_e = np.empty(ratings.nnz), np.empty(ratings.nnz)
        key_rows = np.take(U, by_user.keys, axis=0)

        def user_rows(at, places):
            rows = np.take(V, by_user.other[at], axis=0)
            np.einsum("ij,ij->i", key_rows[places], rows, out=fold_pred[at])
            rows *= np.subtract(fold_pred[at], by_user.values[at], out=fold_e[at])[:, None]
            return rows

        gU = _fold_sums(by_user, user_rows, hp.lambda_u * U)
        pred = fold_e  # spent, as fold_pred is once scattered: they take pred and e
        pred[by_user.order] = fold_pred
    else:
        pred, gU, fold_pred = (predict_many(model, ratings.users, ratings.items, clamp=False),
                               None, None)
    e = np.subtract(pred, ratings.values, out=fold_pred)
    value, g_social = (None, None) if social == SKIP else _social_term(
        U, store, hp, need_grad and social == GRADIENT)
    result = Pass(0.5 * float(e @ e), 0.5 * hp.lambda_u * float(np.sum(U * U)),
                  0.5 * hp.lambda_v * float(np.sum(V * V)), value, gU, None, pred)
    if need_grad:
        if g_social is not None:  # gU is never -0.0, so adding zeros would change no byte
            result.gU += g_social
        result.gV = _fold_sums(by_item, lambda at, _: np.take(U, by_item.other[at], axis=0)
                               * np.take(e, by_item.order[at])[:, None], hp.lambda_v * V)
    return result


def objective_value(model: FactorModel, ratings: SparseRatings,
                    store: TripletStore | None, hp: Hyperparams) -> float:
    """Full training objective (Pass.value), with no loss slope computed."""
    return _objective_pass(model, ratings, store, hp, need_grad=False, social=VALUE).value


def grad(model: FactorModel, ratings: SparseRatings,
         store: TripletStore | None, hp: Hyperparams):
    """Full analytic gradient of the objective: (dL/dU, dL/dV)."""
    result = _objective_pass(model, ratings, store, hp)
    return result.gU, result.gV


def social_gradient(U, store: TripletStore | None, hp: Hyperparams) -> np.ndarray:
    """Gradient of the social term with respect to U (full, not sampled)."""
    g = _social_term(U, store, hp, need_grad=True)[1]
    return np.zeros_like(U) if g is None else g


def triplet_batch_gradient(U, triplets: np.ndarray, hp: Hyperparams, scale: float) -> np.ndarray:
    """Gradient of `scale * sum of triplet penalties` over the given batch:
    row t is the pair of its own edges (i, j) and (i, k)."""
    rows = np.arange(len(triplets))
    return _margin_term(U, triplets[:, :2], triplets[:, ::2], [(rows, rows)], hp, scale)[1]
