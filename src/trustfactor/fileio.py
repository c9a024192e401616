"""Data ingestion, model persistence, and CSV reporting.

File formats:
  ratings:  UTF-8 lines  user_id<TAB>item_id<TAB>rating   ('#' comments allowed)
  social:   user_id<TAB>user_id<TAB>sign  with sign in {1, -1}; two-column
            files are accepted when the sign is supplied by the caller
  model:    magic 'MFTD', u32 version, u64 n/m/k (little endian), U then V as
            row-major float64, i64 seed
"""

from __future__ import annotations

import csv
import logging
import os
import struct
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .data import FactorModel, SocialGraph, SparseRatings
from .keys import ranges, sort_by_key, stable_order

log = logging.getLogger(__name__)

MODEL_MAGIC = b"MFTD"
MODEL_VERSION = 1


class _Columns:
    """The data rows of a TSV file, before its first width fault, and the
    first fault. Field f of the file is raw[seps[f] + 1:seps[f + 1]]; raw
    has a newline before the file and, after its last newline, a line
    holding the pad field alone, then room for _intern's words.

    Lines end at '\\n' alone, after universal newlines ('\\r\\n', '\\r'):
    str.splitlines() would also split ids at U+0085 or U+2028. A check sees
    only the rows before the first fault so far, so checks applied in a
    line's validation order leave its first failing check as the fault.
    """

    def __init__(self, path, width, width_message, pad=None):
        """With `pad`, a line one field short gets `pad` as its last field."""
        with open(path, "rb") as handle:
            raw = handle.read()
        raw.decode("utf-8")  # fails as a text-mode read does, at the same byte
        if b"\r" in raw:  # universal newlines
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        self.raw = raw = b"".join((b"\n", raw, b"\n", (pad or "").encode(), b"\n", bytes(8)))
        buf = np.frombuffer(raw, np.uint8, len(raw) - 8)
        # tab, newline and '#' are ASCII, never inside a UTF-8 multibyte sequence
        self.seps = seps = np.flatnonzero((buf == 9) | (buf == 10))
        # a line's first field follows a newline; field len(seps) - 2 is the pad
        first = np.flatnonzero(buf[seps[:-2]] == 10)
        fields = np.diff(first, append=len(seps) - 2)
        lead = buf[seps[first] + 1]  # a newline on a blank line, '#' on a comment
        kept = np.flatnonzero((lead != 10) & (lead != ord("#")))
        self.first, fields = first[kept], fields[kept]
        self.padded = np.flatnonzero((fields == width - 1) & (pad is not None))
        fields[self.padded] = width
        self.path, self.width, self.linenos, self.limit, self.fault = (
            path, width, kept + 1, len(kept), None)
        self.check(np.flatnonzero(fields != width), lambda row: width_message(fields[row]))

    def check(self, rows, message):
        """Make the first of `rows`, if it lies before the current fault, the
        fault, worded by message(row)."""
        if len(rows) and (row := int(rows.min())) < self.limit:
            self.limit = row
            self.fault = f"{self.path}:{self.linenos[row]}: {message(row)}"

    def raise_fault(self):
        if self.fault is not None:
            raise ValueError(self.fault)

    def intern(self, columns):
        """(codes, tokens, first): _intern codes of the fields of `columns`, an index
        or a tuple, of the rows before the fault, shaped (rows,) + shape(columns);
        the text of each code's field; and the row of its first field."""
        index = np.add.outer(self.first[:self.limit], columns).ravel()
        if columns == self.width - 1:
            index[self.padded[self.padded < self.limit]] = len(self.seps) - 2
        starts = self.seps[index]
        starts += 1
        index += 1
        stops = self.seps[index]
        del index  # one int64 array fewer alive while interning
        codes, first = _intern(self.raw, starts, stops)
        # one decode of the first field of each code, each with its separator as a tab
        lengths = stops[first] - starts[first] + 1
        joined = np.frombuffer(self.raw, np.uint8)[ranges(starts[first], lengths)]
        joined[np.cumsum(lengths) - 1] = 9
        return (codes.reshape(-1, *np.shape(columns)),
                joined.tobytes().decode().split("\t")[:-1], first // np.size(columns))


# _MASKS[j] keeps the low j bytes of a word; _KEYS[j], applied to a word whose
# top byte is all ones, keeps its low min(j, 7) bytes and leaves j in the top byte
_MASKS = np.array([(1 << 8 * j) - 1 for j in range(9)], np.uint64)
_KEYS = _MASKS[np.minimum(np.arange(9), 7)] | np.arange(9, dtype=np.uint64) << np.uint64(56)


def _intern(raw, starts, stops):
    """_first_appearance of the byte strings raw[starts[t]:stops[t]], where raw
    holds at least 8 bytes past every field. One word keys a field by its first
    7 bytes, zero-padded, and its length, or 8 if longer, so "a", "a\\0" and ""
    differ. Groups of longer fields then split by length and their next bytes
    in steps of up to 64 words a field, a step's keys about one word per field
    interned, so no key grows with the widest field."""
    lengths = stops - starts
    rows, at = np.flatnonzero(lengths > 7), 7
    # words[p] is the little-endian word of the 8 bytes at raw[p]
    words = np.ndarray((len(raw) - 7,), "<u8", raw, strides=(1,))
    key = words[starts]  # built in place: each new array costs its page faults
    key |= np.uint64(0xFF << 56)
    key &= _KEYS[np.minimum(lengths, 8, out=lengths)]
    del lengths  # not alive while the keys sort
    codes, first = _first_appearance([key])
    if not len(rows):
        return codes, first
    lengths = stops - starts
    while len(rows):  # a group's rows all go on or all stop, so groups split whole
        offsets = at + 8 * np.arange(min(64, max(1, len(codes) // len(rows))))
        key = words[np.minimum(starts[rows, None] + offsets, stops[rows, None])]
        key &= _MASKS[np.clip(lengths[rows, None] - offsets, 0, 8)]
        span = lengths[rows].max() + 1  # (code, length) as one key below len(raw) ** 2 / 4
        parts, heads = _first_appearance([*key.T, codes[rows] * span + lengths[rows]],
                                         len(first) * span)
        codes[rows] = len(first) + parts  # no row keeps a split group's code
        first = np.concatenate((first, rows[heads]))
        at += 8 * len(offsets)
        rows = rows[lengths[rows] > at]
    # renumber by first appearance; a split group's first row is its first part's
    is_first = np.zeros(len(codes), bool)
    is_first[first] = True
    return (np.cumsum(is_first) - 1)[first[codes]], np.flatnonzero(is_first)


def _first_appearance(keys, bound=None):
    """(codes, first): rows with equal `keys` (equal-length arrays) share a
    code, numbered by first appearance; first[code] is the code's first row.
    Rows sort by each key in turn, stably after the first (np.lexsort is
    several times slower); with `bound`, the last, int64 in [0, bound), by a packed sort."""
    order = None
    for t, key in enumerate(keys):
        key = key if order is None else key[order]
        step = (stable_order(key, bound) if bound is not None and t == len(keys) - 1
                else np.argsort(key, kind=None if order is None else "stable"))
        order = step if order is None else order[step]
    head = np.ones(len(order), bool)  # where a new key starts in sorted order
    head[1:] = np.any([key[1:] != key[:-1] for key in (key[order] for key in keys)], axis=0)
    starts = np.flatnonzero(head)
    first = np.minimum.reduceat(order, starts) if len(order) else order
    by_first = np.argsort(first)
    rank = np.empty(len(first), np.int64)
    rank[by_first] = np.arange(len(first))
    codes = np.empty(len(order), np.int64)
    codes[order] = np.repeat(rank, np.diff(starts, append=len(order)))
    return codes, first[by_first]


def _parse(convert, raw):
    """convert(raw), or None where it raises ValueError."""
    try:
        return convert(raw)
    except ValueError:
        return None


def _read_ratings(path, r_min, r_max):
    """((user codes, ids), (item codes, ids), float64 values) of a ratings file."""
    table = _Columns(path, 3, lambda fields: f"expected 3 tab-separated fields, got {fields}")
    codes, tokens, first = table.intern(2)
    numbers = list(map(_parse, repeat(float), tokens))
    table.check(first[np.equal(numbers, None)],
                lambda row: f"rating {tokens[codes[row]]!r} is not a number")
    values = np.array(numbers, np.float64)  # NaN where None
    table.check(first[~((values >= r_min) & (values <= r_max))],
                lambda row: f"rating {float(values[codes[row]])} outside [{r_min}, {r_max}]")
    table.raise_fault()
    return table.intern(0)[:2], table.intern(1)[:2], values[codes]


_SIGNS = {"1": 1, "+1": 1, "-1": -1}


def _read_social(path, sign=None):
    """((path, line numbers), the (E, 2) codes of its (u, v) ids, the ids and
    its int64 signs) of a signed social file, or of an unsigned one with `sign`."""
    table = _Columns(path, 3, lambda fields: "expected 2 or 3 tab-separated fields",
                     pad=None if sign is None else str(sign))
    pairs, ids, _ = table.intern((0, 1))  # the largest intern, before the sign codes exist
    codes, tokens, first = table.intern(2)
    signs = np.array([_SIGNS.get(token, 0) for token in tokens], np.int64)
    table.check(first[signs == 0], lambda row: f"sign {tokens[codes[row]]!r} must be 1 or -1")
    if sign is not None:
        table.check(first[signs != sign],
                    lambda row: f"expected sign {sign}, got {signs[codes[row]]}")
    table.check(np.flatnonzero(pairs[:, 0] == pairs[:, 1]),
                lambda row: f"self-edge {ids[pairs[row, 0]]!r}")
    table.raise_fault()
    return (table.path, table.linenos), pairs, ids, signs[codes]


def _runs(keys, bound):
    """(order, starts, first): the stable order of int64 keys in [0, bound),
    where each run of equal keys starts in it, and a mask of each run's first
    row. keys[:1] >= 0 heads the first run, if there is one."""
    keys, order = sort_by_key(keys, bound)
    starts = np.flatnonzero(np.concatenate((keys[:1] >= 0, keys[1:] != keys[:-1])))
    first = np.zeros(len(order), bool)
    first[order[starts]] = True
    return order, starts, first


def _build_ratings(user_idx, item_idx, values, n, m, r_min, r_max):
    """SparseRatings of the rating rows; a repeated (user, item) keeps its
    first position and its last value, so the pairs are proved distinct."""
    order, starts, first = _runs(user_idx * m + item_idx, n * m)
    last = np.empty_like(values)  # at each pair's first row, the value of its last
    last[order[starts]] = values[order[starts + np.diff(starts, append=len(order)) - 1]]
    if len(starts) < len(order):
        log.warning("%d duplicate (user, item) rows; last occurrence wins", len(order) - len(starts))
    if not len(order):
        log.warning("no rating rows found")
    rows = np.flatnonzero(first)
    return SparseRatings(n, m, user_idx[rows], item_idx[rows], last[rows], r_min, r_max,
                         _distinct=True)


def _build_graph(files, user_ids):
    """Signed graph of the rows of the social files, each given as its (path,
    line numbers), (E, 2) codes, the index in `user_ids` of each code and its
    signs; a repeated (u, v) keeps its first row and must repeat its sign."""
    n = len(user_ids)
    pairs = np.concatenate([numbers[codes] for _, codes, numbers, _ in files])
    signs = np.concatenate([signs for *_, signs in files])
    order, starts, first = _runs(pairs[:, 0] * n + pairs[:, 1], n * n)
    ranked = signs[order]
    clash = np.flatnonzero(ranked != np.repeat(ranked[starts], np.diff(starts, append=len(order))))
    if len(clash):
        at = clash[np.argmin(order[clash])]
        row, head = order[at], order[starts[np.searchsorted(starts, at, "right") - 1]]
        u, v = (user_ids[idx] for idx in pairs[row])
        raise ValueError(f"{_where(files, row)}: contradicts {_where(files, head)}: "
                         f"{u!r} cannot both trust and distrust {v!r}")
    if len(starts) < len(pairs):
        log.warning("%d duplicate social edges dropped", len(pairs) - len(starts))
    # compress picks each sign's first copies several times faster than a boolean index
    trust, distrust = (pairs.compress(first & keep, axis=0) for keep in (signs > 0, signs < 0))
    del pairs, order, starts, first, ranked  # freed before from_edges builds the graph's own arrays
    # the edges are proved distinct and of one sign each, which the graph need not redo
    return SocialGraph.from_edges(n, trust, distrust, _distinct=True)


def _where(files, row):
    """`path:line` of a row of the social files taken in order."""
    for (path, linenos), *_, signs in files:
        if row < len(signs):
            return f"{path}:{linenos[row]}"
        row -= len(signs)


@dataclass
class DatasetBundle:
    """Ratings plus graph under one shared user indexing; the external id of
    user (item) index i is user_ids[i] (item_ids[i])."""

    ratings: SparseRatings
    graph: SocialGraph | None
    user_ids: list[str]
    item_ids: list[str]


def load_dataset(ratings_path, social_path=None, trust_path=None, distrust_path=None,
                 r_min: float = 1.0, r_max: float = 5.0) -> DatasetBundle:
    """Load ratings and social files under a single user-id space.

    Users appearing only in the social graph still get indices; their rows
    exist in the model even without ratings.
    """
    (users, user_ids), (items, item_ids), values = _read_ratings(ratings_path, r_min, r_max)
    files = [_read_social(path, sign)
             for path, sign in ((social_path, None), (trust_path, 1), (distrust_path, -1))
             if path is not None]
    # users are numbered in the ratings first, so their codes are their indices;
    # a user first seen in a social file takes the next index (the one dict of
    # the user space, built after the reads so that it is not alive at their peak)
    index = dict(zip(user_ids, range(len(user_ids))))
    files = [(where, codes, np.array([index.setdefault(id_, len(index)) for id_ in ids], np.int64),
              signs) for where, codes, ids, signs in files]
    user_ids = list(index)
    ratings = _build_ratings(users, items, values, len(user_ids), len(item_ids), r_min, r_max)
    graph = _build_graph(files, user_ids) if any(len(signs) for *_, signs in files) else None
    return DatasetBundle(ratings, graph, user_ids, item_ids)


def load_ratings_with_maps(path, user_ids, item_ids):
    """(users, items, values) arrays of a ratings file mapped through saved id
    lists; an id its list lacks becomes index -1. Rows are kept as read."""
    (users, seen_users), (items, seen_items), values = _read_ratings(path, 1.0, 5.0)
    return _indices(user_ids, seen_users)[users], _indices(item_ids, seen_items)[items], values


def _indices(ids, wanted):
    """Index in `ids` of each of `wanted`; -1 for one `ids` lacks."""
    index = dict(zip(ids, range(len(ids))))
    return np.fromiter(map(index.get, wanted, repeat(-1)), np.int64, len(wanted))


def save_ratings(path, ratings: SparseRatings, user_ids, item_ids):
    # ratings are finite, where format_number is the .6g format
    Path(path).write_text("".join(map(
        "{}\t{}\t{:.6g}\n".format, map(user_ids.__getitem__, ratings.users.tolist()),
        map(item_ids.__getitem__, ratings.items.tolist()), ratings.values.tolist())),
        encoding="utf-8")


def save_social(path, graph: SocialGraph, user_ids):
    sources, targets = np.concatenate((graph.trust_edge_array, graph.distrust_edge_array)).T
    Path(path).write_text("".join(map(
        "{}\t{}\t{}\n".format, map(user_ids.__getitem__, sources.tolist()),
        map(user_ids.__getitem__, targets.tolist()),
        ["1"] * graph.trust_count + ["-1"] * graph.distrust_count)), encoding="utf-8")


def save_id_map(path, ids):
    Path(path).write_text("".join(map("{}\t{}\n".format, range(len(ids)), ids)),
                          encoding="utf-8")


def load_id_map(path) -> list[str]:
    table = _Columns(path, 2, lambda fields: "expected 2 tab-separated fields")
    codes, tokens, first = table.intern(0)
    numbers = list(map(_parse, repeat(int), tokens))
    table.check(first[np.equal(numbers, None)],
                lambda row: f"index {tokens[codes[row]]!r} is not an integer")
    table.check(np.flatnonzero(np.array(numbers, object)[codes] != np.arange(len(codes))),
                lambda row: f"index {numbers[codes[row]]} out of order")
    # before the first repeated id, each id's code is its row
    codes, ids, _ = table.intern(1)
    table.check(np.flatnonzero(codes != np.arange(len(codes))),
                lambda row: f"id {ids[codes[row]]!r} already has index {codes[row]}")
    table.raise_fault()
    return ids


# ---------------------------------------------------------------------------
# model persistence


def save_model(model: FactorModel, path):
    if not -2**63 <= model.seed < 2**63:
        raise ValueError(f"model seed {model.seed} does not fit in int64")
    header = struct.pack("<4sIQQQ", MODEL_MAGIC, MODEL_VERSION, model.n, model.m, model.k)
    with open(path, "wb") as handle:
        handle.writelines((header, np.ascontiguousarray(model.U, dtype="<f8"),
                           np.ascontiguousarray(model.V, dtype="<f8"),
                           struct.pack("<q", model.seed)))


def load_model(path) -> FactorModel:
    with open(path, "rb") as handle:
        header = handle.read(32)
        if len(header) < 8:
            raise ValueError(f"{path}: unexpected end of model file")
        magic, version = struct.unpack_from("<4sI", header)
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != MODEL_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        if len(header) < 32:
            raise ValueError(f"{path}: unexpected end of model file")
        n, m, k = struct.unpack_from("<QQQ", header, 8)
        # check the header against the file before sizing any read by it
        need, size = 32 + 8 * (n + m) * k + 8, os.fstat(handle.fileno()).st_size
        if size < need:
            raise ValueError(f"{path}: unexpected end of model file "
                             f"(header n={n} m={m} k={k} needs {need} bytes, file has {size})")
        if size > need:
            raise ValueError(f"{path}: trailing bytes after model payload")
        body = handle.read()
    U, V = (np.frombuffer(body, "<f8", rows * k, 8 * start * k).reshape(rows, k).copy()
            for start, rows in ((0, n), (n, m)))
    return FactorModel(U, V, int(k), struct.unpack_from("<q", body, 8 * (n + m) * k)[0])


# ---------------------------------------------------------------------------
# CSV reporting


def format_number(value) -> str:
    """Locale-independent numeric formatting at 6 significant digits."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


def write_csv(path, header, rows):
    """Plain CSV with formatted numerics; strings pass through untouched."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                cell if isinstance(cell, str) else format_number(cell)
                for cell in row
            ])
