"""Sorted int64 keys, such as user pairs u * n + v: stable orders, index
ranges, and lookups of needles in sorted unique key arrays. Package-internal."""

from __future__ import annotations

import numpy as np


def sort_by_key(keys, bound):
    """(np.sort(keys), np.argsort(keys, kind="stable")) of int64 keys in
    [0, bound), from one np.sort of keys << b | position with b the bit
    length of len(keys) - 1, several times faster; by the stable argsort
    where that would overflow int64."""
    b = max(len(keys) - 1, 0).bit_length()
    if int(bound) << b > 1 << 63:
        order = np.argsort(keys, kind="stable")
        return keys[order], order
    packed = keys << b
    packed |= np.arange(len(keys))
    packed.sort()
    order = packed & ((1 << b) - 1)
    packed >>= b
    return packed, order


def stable_order(keys, bound):
    """np.argsort(keys, kind="stable") of int64 keys in [0, bound) (sort_by_key)."""
    return sort_by_key(keys, bound)[1]


def ranges(starts, lengths):
    """Concatenation of arange(s, s + l) over paired starts s and lengths l."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def find(keys, needles):
    """Position of each needle in the sorted unique `keys`, -1 where absent,
    all non-negative: read off a dense int32 table of positions where it takes
    no more memory than member's table, else found by binary search, of only
    the needles member finds where its table serves."""
    span = max(keys[-1] if len(keys) else -1, needles.max(initial=-1)) + 1
    if span <= min(4 * len(needles), 1 << 31):
        table = np.full(span, -1, np.int32)
        table[keys] = np.arange(len(keys))
        return table[needles]
    if span <= 16 * len(needles):
        found = np.full(len(needles), -1)
        hit = np.flatnonzero(member(keys, needles))
        found[hit] = np.searchsorted(keys, needles[hit])
        return found
    at = np.searchsorted(keys, needles)
    found = at < len(keys)
    found[found] = keys[at[found]] == needles[found]
    return np.where(found, at, -1)


def member(keys, needles):
    """Whether each needle is in the sorted unique `keys`, all non-negative:
    read off a dense table up to the largest of them when it takes no more
    memory than two int64 copies of the needles, else found by binary search."""
    span = max(keys[-1] if len(keys) else -1, needles.max(initial=-1)) + 1
    if span > 16 * len(needles):
        return find(keys, needles) >= 0
    table = np.zeros(span, dtype=bool)
    table[keys] = True
    return table[needles]


def drop(keys, other):
    """The sorted `keys` that are not in the sorted unique `other`."""
    return keys[~member(other, keys)]


def row(keys, u, n):
    """The v, ascending, of the sorted keys u * n + v with the given u."""
    lo, hi = np.searchsorted(keys, (u * n, (u + 1) * n))
    return (keys[lo:hi] - u * n).tolist()
