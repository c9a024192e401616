import math

import numpy as np
import pytest

from trustfactor.data import SparseRatings
from trustfactor.metrics import (RankedList, average_precision, evaluate_predictions, mae,
                                 ndcg_at_k, rmse)

from conftest import precision_recall_at_k


class TestAccuracy:
    def test_mae_hand_value(self):
        assert mae([(3, 4), (5, 3)]) == 1.5

    def test_mae_perfect(self):
        assert mae([(2.5, 2.5), (4, 4)]) == 0.0

    def test_mae_single_pair(self):
        assert mae([(1, 5)]) == 4.0

    def test_rmse_hand_value(self):
        assert rmse([(3, 4), (5, 3)]) == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_rmse_perfect(self):
        assert rmse([(4, 4)]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mae([])
        with pytest.raises(ValueError):
            rmse([])

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            size = int(rng.integers(1, 30))
            pairs = list(zip(rng.uniform(1, 5, size), rng.uniform(1, 5, size)))
            assert rmse(pairs) >= mae(pairs) - 1e-12


class TestPrecisionRecall:
    def test_counting_example(self):
        ranked = RankedList((1, 0), total_relevant=3)
        precision, recall = precision_recall_at_k(ranked, 2)
        assert precision == 0.5
        assert recall == pytest.approx(1 / 3)

    def test_all_relevant(self):
        ranked = RankedList((1, 1, 1))
        assert precision_recall_at_k(ranked, 3) == (1.0, 1.0)

    def test_none_relevant_in_top_k(self):
        ranked = RankedList((0, 0, 1, 1))
        precision, recall = precision_recall_at_k(ranked, 2)
        assert precision == 0.0 and recall == 0.0

    def test_zero_relevant_recall_undefined(self):
        precision, recall = precision_recall_at_k(RankedList((0, 0)), 2)
        assert precision == 0.0 and recall is None


class TestAveragePrecision:
    def test_hand_value(self):
        assert average_precision(RankedList((1, 0, 1))) == pytest.approx(5 / 6, abs=1e-12)

    def test_prefix_of_relevant(self):
        assert average_precision(RankedList((1, 1, 0, 0))) == 1.0

    def test_single_relevant_at_rank_4(self):
        assert average_precision(RankedList((0, 0, 0, 1))) == 0.25

    def test_zero_relevant_raises(self):
        with pytest.raises(ValueError):
            average_precision(RankedList((0, 0)))

    def test_invariant_to_nonrelevant_tail(self):
        # AP only sees relevant positions: padding with non-relevant
        # candidates after the last hit changes nothing
        assert average_precision(RankedList((1, 0, 0, 1))) == \
            average_precision(RankedList((1, 0, 0, 1, 0, 0, 0)))

    def test_moving_relevant_earlier_never_hurts(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            flags = list(rng.integers(0, 2, size=8))
            if sum(flags) == 0:
                flags[rng.integers(0, 8)] = 1
            ones = [i for i, f in enumerate(flags) if f == 1 and i > 0 and flags[i - 1] == 0]
            if not ones:
                continue
            pos = ones[0]
            moved = flags.copy()
            moved[pos - 1], moved[pos] = moved[pos], moved[pos - 1]
            assert average_precision(RankedList(tuple(moved))) >= \
                average_precision(RankedList(tuple(flags)))
            assert ndcg_at_k(RankedList(tuple(moved)), 8) >= \
                ndcg_at_k(RankedList(tuple(flags)), 8)


class TestNdcg:
    def test_ideal_ranking(self):
        assert ndcg_at_k(RankedList((1, 1, 0)), 3) == 1.0

    def test_hand_value(self):
        expected = math.log(2) / math.log(3)
        assert ndcg_at_k(RankedList((0, 1)), 2) == pytest.approx(expected, abs=1e-12)

    def test_all_zero(self):
        assert ndcg_at_k(RankedList((0, 0, 0)), 3) == 0.0

    def test_range_and_prefix_property(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            flags = tuple(int(f) for f in rng.integers(0, 2, size=6))
            ranked = RankedList(flags)
            for k in (1, 3, 6):
                value = ndcg_at_k(ranked, k)
                assert 0.0 <= value <= 1.0 + 1e-12
                if ranked.total_relevant:
                    hits = sum(flags[:k])
                    prefix = all(
                        flags[i] >= flags[i + 1] for i in range(min(k, len(flags)) - 1))
                    if value == pytest.approx(1.0) and hits:
                        assert prefix

    def test_binary_flags_enforced(self):
        with pytest.raises(ValueError):
            RankedList((0, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: evaluate_predictions(SparseRatings(1, 1, [], [], []), np.zeros(0)), "empty test set"),
    (lambda: RankedList((1, 0, 1), total_relevant=1),
     "total_relevant smaller than observed relevant count"),
    (lambda: ndcg_at_k(RankedList((1,)), 0), "k must be at least 1"),
])
def test_diagnostics(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
