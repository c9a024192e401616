"""Batch gradient descent and mini-batch SGD over the factorization objective."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import (
    FactorModel,
    Hyperparams,
    SparseRatings,
    TripletStore,
    init_model,
    sample_triplets,
)
from .metrics import evaluate_model, evaluate_predictions
from .objective import PAPER_LITERAL, SKIP, VALUE, _objective_pass, triplet_batch_gradient
from .seeding import substream

DIVERGENCE_LIMIT = 1e8

STOP_MAX_ITERS = "max-iters"
STOP_EARLY = "early-stop"
STOP_DIVERGENCE = "divergence"


@dataclass
class IterationRecord:
    iteration: int
    objective: float
    train_rmse: float
    val_rmse: float | None = None
    val_mae: float | None = None
    elapsed: float = 0.0


@dataclass
class FitReport:
    """Per-iteration telemetry plus why training stopped."""

    initial_objective: float
    records: list = field(default_factory=list)
    stop_reason: str = STOP_MAX_ITERS

    def objectives(self):
        return [r.objective for r in self.records]

    def signature(self):
        """Deterministic content (everything except wall-clock)."""
        return (
            self.initial_objective,
            self.stop_reason,
            tuple(
                (r.iteration, r.objective, r.train_rmse, r.val_rmse, r.val_mae)
                for r in self.records
            ),
        )


def _diverged(*factors) -> bool:
    # the extremes, not an |x| copy; a nan entry fails the comparisons, as an inf one does
    limit = DIVERGENCE_LIMIT
    return not all(x.max(initial=0.0) <= limit and -x.min(initial=0.0) <= limit for x in factors)


def _run(ratings, store, hp, validation, seed, step, patience, eval_every, model0):
    """Descent loop shared by GD and SGD.

    step(model, need_value) returns the objective Pass at the current model
    whose gradients make the next update, its value set if need_value is. A
    record reads its objective and train RMSE from the step taken at its
    model, or from a value-only pass when no step follows. With `patience`,
    the fit stops once max(patience, 1) evaluations in a row have not beaten
    the best validation RMSE; while every prediction clamps alike the RMSE
    holds its first value, and a repeat of it before any other value is no stall.
    """
    if eval_every < 1:
        raise ValueError("eval_every must be at least 1")
    model = init_model(ratings.n, ratings.m, hp.k, seed) if model0 is None else model0.copy()
    result = step(model, True) if hp.epochs else _objective_pass(
        model, ratings, store, hp, need_grad=False, social=VALUE)
    report = FitReport(initial_objective=result.value)
    start = time.perf_counter()
    best, stall = np.inf, -1  # the RMSE to beat, evaluations since; -1 while all equal the first
    for t in range(1, hp.epochs + 1):
        eta = hp.eta0 if hp.schedule == "constant" else hp.eta0 / np.sqrt(t)
        # a diverged step is never adopted, so the model stays the last finite one;
        # the step's gradients, read by nothing after it, take the stepped factors
        U, V = (np.subtract(x, np.multiply(eta, g, out=g), out=g)
                for x, g in ((model.U, result.gU), (model.V, result.gV)))
        if _diverged(U, V):
            report.stop_reason = STOP_DIVERGENCE
            break
        model.U, model.V = U, V
        due = t % eval_every == 0 or t == hp.epochs
        val_mae = val_rmse = None
        if due and validation is not None and validation.nnz:
            val_mae, val_rmse = evaluate_model(model, validation, hp.clamp_predictions)
            if val_rmse < best:
                best, stall = val_rmse, -1 if best == np.inf else 0
            elif val_rmse > best or stall >= 0:
                stall = max(stall, 0) + 1
            if patience is not None and stall >= max(patience, 1):
                report.stop_reason = STOP_EARLY
        last = t == hp.epochs or report.stop_reason == STOP_EARLY
        # the pass for step t + 1 is taken at the model this record describes
        result = _objective_pass(model, ratings, store, hp, need_grad=False, social=VALUE) \
            if last else step(model, due)
        if due:
            train_rmse = evaluate_predictions(ratings, result.pred, hp.clamp_predictions)[1]
            report.records.append(IterationRecord(t, result.value, train_rmse, val_rmse, val_mae,
                                                  time.perf_counter() - start))
        if last:
            break
    return model, report


def fit_gd(ratings: SparseRatings, store: TripletStore | None, hp: Hyperparams,
           validation: SparseRatings | None = None, seed: int = 0,
           patience: int | None = None, eval_every: int = 1,
           model0: FactorModel | None = None):
    """Full-gradient descent; returns (model, report)."""
    return _run(ratings, store, hp, validation, seed,
                lambda model, need_value: _objective_pass(model, ratings, store, hp),
                patience, eval_every, model0)


def fit_sgd(ratings: SparseRatings, store: TripletStore | None, hp: Hyperparams,
            validation: SparseRatings | None = None, seed: int = 0,
            sample_seed: int | None = None, patience: int | None = None,
            eval_every: int = 1, model0: FactorModel | None = None):
    """Mini-batch SGD: per iteration, B triplets sampled uniformly drive the
    social term; the rating residual and Frobenius gradients stay exact. With
    no triplets to sample (another social term, or none) it is fit_gd.

    The batch gradient is scaled by lambda_s / B, the unbiased estimate of the
    full term; under the paper-literal fidelity convention the scaling is
    lambda_s / (B * total) instead. Lazy and materialized stores sample the
    same stream.
    """
    if hp.social != "triplet-margin" or store is None or store.total == 0:
        return fit_gd(ratings, store, hp, validation, seed, patience, eval_every, model0)
    if hp.batch_size > store.total:
        raise ValueError(f"batch_size {hp.batch_size} exceeds constraint count {store.total}")
    rng = substream(seed if sample_seed is None else sample_seed, "sgd")

    def step(model, need_value):
        result = _objective_pass(model, ratings, store, hp, social=VALUE if need_value else SKIP)
        batch = sample_triplets(store, rng, hp.batch_size)
        scale = hp.lambda_s / len(batch)
        if hp.sign_convention == PAPER_LITERAL:
            scale /= store.total
        result.gU += triplet_batch_gradient(model.U, batch, hp, scale)
        return result

    return _run(ratings, store, hp, validation, seed, step, patience, eval_every, model0)
