"""Accuracy metrics (MAE, RMSE) and ranking metrics (AP, NDCG@k)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .data import FactorModel, SparseRatings, predict_many


def left_sum(values) -> float:
    """Sum of floats added left to right, the order of the builtin sum up to
    Python 3.11 (from 3.12 on, the builtin compensates its rounding)."""
    return reduce(add, values, 0.0)


def mae_rmse(actual: np.ndarray, predicted: np.ndarray):
    """(MAE, RMSE) of predictions against the actual ratings, as arrays."""
    errors = actual - predicted
    return float(np.mean(np.abs(errors))), math.sqrt(float(np.mean(errors * errors)))


def _columns(pairs):
    """The actual and predicted columns of an (N, 2) array-like of pairs."""
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.size == 0:
        raise ValueError("empty prediction set")
    return pairs[:, 0], pairs[:, 1]


def mae(pairs) -> float:
    """Mean absolute error over (actual, predicted) pairs."""
    return mae_rmse(*_columns(pairs))[0]


def rmse(pairs) -> float:
    """Root mean squared error over (actual, predicted) pairs."""
    return mae_rmse(*_columns(pairs))[1]


def evaluate_predictions(test: SparseRatings, raw: np.ndarray, clamp: bool = True):
    """(MAE, RMSE) of raw predictions of a rating set's entries, clamped to
    the set's own bounds."""
    if test.nnz == 0:
        raise ValueError("empty test set")
    return mae_rmse(test.values, np.clip(raw, test.r_min, test.r_max) if clamp else raw)


def evaluate_model(model: FactorModel, test: SparseRatings, clamp: bool = True):
    """(MAE, RMSE) of the model on a rating set, clamped to the set's own bounds."""
    return evaluate_predictions(test, predict_many(model, test.users, test.items, False), clamp)


@dataclass(frozen=True)
class RankedList:
    """Ordered candidates reduced to binary relevance flags.

    `total_relevant` counts relevant candidates over the full pool; it
    defaults to the sum of flags, and must be given explicitly when the list
    is truncated.
    """

    flags: tuple
    total_relevant: int = None

    def __post_init__(self):
        flags = tuple(int(f) for f in self.flags)
        if any(f not in (0, 1) for f in flags):
            raise ValueError("relevance flags must be binary")
        object.__setattr__(self, "flags", flags)
        if self.total_relevant is None:
            object.__setattr__(self, "total_relevant", flags.count(1))
        elif self.total_relevant < flags.count(1):
            raise ValueError("total_relevant smaller than observed relevant count")


def average_precision(ranked: RankedList) -> float:
    """Sum of precision at each relevant position, over the relevant count."""
    if ranked.total_relevant == 0:
        raise ValueError("average precision undefined with zero relevant candidates")
    hits = 0
    acc = 0.0
    for pos, flag in enumerate(ranked.flags, start=1):
        if flag:
            hits += 1
            acc += hits / pos
    return acc / ranked.total_relevant


def ndcg_at_k(ranked: RankedList, k: int) -> float:
    """Gain (2^r - 1) with natural-log position discount, normalized by the
    ideal reordering; 0 when the ideal DCG is 0."""
    if k < 1:
        raise ValueError("k must be at least 1")
    dcg = left_sum((2.0 ** ranked.flags[i] - 1.0) / math.log(i + 2)
                   for i in range(min(k, len(ranked.flags))))
    ideal_hits = min(k, ranked.total_relevant)
    idcg = left_sum(1.0 / math.log(i + 2) for i in range(ideal_hits))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg
