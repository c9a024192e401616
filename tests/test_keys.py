import numpy as np

from trustfactor import keys
from trustfactor.keys import drop, find, member


def _cases(rng):
    """(keys, needles, dense): sorted unique keys, needles with repeats, and
    whether member reads them off a table, which it does when the largest of
    them + 1 is at most 16 times the needle count."""
    empty = np.zeros(0, np.int64)
    cases = [(empty, empty, True), (empty, np.array([0, 3, 3]), True),
             (np.array([2, 5]), empty, False), (empty, np.array([100]), False),
             (np.array([1, 4, 9]), np.array([9, 10, 200, 1, 0]), False),
             (np.array([1, 4, 9]), np.array([9, 10, 30, 1, 0]), True)]
    for length in (1, 7, 64, 500):
        for span, dense in ((16 * length, True), (16 * length + 1, False), (40 * length, False)):
            needles = rng.integers(0, span, length)
            needles[rng.integers(0, length)] = span - 1  # the largest sets the span
            found = np.unique(rng.choice(needles, length // 2 + 1))
            extra = rng.integers(0, span, length)
            cases.append((np.unique(np.concatenate((found, extra))), needles, dense))
            above = needles + span  # every needle above the largest key
            cases.append((np.unique(extra), above, 2 * span <= 16 * length))
    return cases


def test_member_find_and_drop_match_numpy(rng, monkeypatch):
    searched = []

    def spy(sorted_keys, needles):
        searched.append(True)
        return find(sorted_keys, needles)

    monkeypatch.setattr(keys, "find", spy)
    for sorted_keys, needles, dense in _cases(rng):
        searched.clear()
        inside = np.isin(needles, sorted_keys)
        assert member(sorted_keys, needles).tolist() == inside.tolist()
        assert searched == ([] if dense else [True])
        at = find(sorted_keys, needles)
        assert at.tolist() == np.where(inside, np.searchsorted(sorted_keys, needles), -1).tolist()
        other = np.unique(needles)
        assert drop(sorted_keys, other).tolist() == np.setdiff1d(sorted_keys, other).tolist()
        assert drop(other, sorted_keys).tolist() == np.setdiff1d(other, sorted_keys).tolist()



class NoScan(np.ndarray):
    """A key array whose maximum may only be read off its end."""

    def max(self, *args, **kwargs):
        raise AssertionError("member scanned the sorted keys for their largest")


def test_member_reads_the_largest_key_off_the_end():
    empty = np.zeros(0, np.int64)
    for sorted_keys, needles, expected in (
            (empty, empty, []), (empty, np.array([0, 3, 3]), [False] * 3),
            (np.array([2, 5]), empty, []), (np.array([2, 5]), np.array([5, 4, 2]), [1, 0, 1]),
            (np.array([7]), np.array([1000]), [False])):
        got = member(sorted_keys.view(NoScan), needles)
        assert got.dtype == bool and got.tolist() == [bool(x) for x in expected]


def test_find_routes_match_numpy(rng, monkeypatch):
    """find reads a dense int32 table while the span is at most 4 per needle
    (member's bytes), searches only the needles member finds while member
    reads its table (16 per needle), and searches every needle past that."""
    calls = []
    real_member, real_search = keys.member, np.searchsorted
    monkeypatch.setattr(keys, "member", lambda *a: calls.append("member") or real_member(*a))
    monkeypatch.setattr(np, "searchsorted", lambda *a: calls.append("search") or real_search(*a))
    for length in (1, 7, 64, 500):
        for ratio, route in ((1, []), (4, []), (5, ["member", "search"]),
                             (16, ["member", "search"]), (17, ["search"])):
            span = ratio * length
            needles = rng.integers(0, span, length)
            needles[rng.integers(0, length)] = span - 1  # the largest sets the span
            sorted_keys = np.unique(rng.integers(0, span, length))
            inside = np.isin(needles, sorted_keys)
            expected = np.where(inside, real_search(sorted_keys, needles), -1).tolist()
            calls.clear()
            assert find(sorted_keys, needles).tolist() == expected
            assert calls == route
