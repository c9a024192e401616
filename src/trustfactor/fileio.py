"""Data ingestion, model persistence, and CSV reporting.

File formats:
  ratings:  UTF-8 lines  user_id<TAB>item_id<TAB>rating   ('#' comments allowed)
  social:   user_id<TAB>user_id<TAB>sign  with sign in {1, -1}; two-column
            files are accepted when the sign is supplied by the caller
  model:    magic 'MFTD', u32 version, u64 n/m/k (little endian), U then V as
            row-major float64, u64 seed
"""

from __future__ import annotations

import csv
import logging
import os
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .data import FactorModel, SocialGraph, SparseRatings

log = logging.getLogger(__name__)

MODEL_MAGIC = b"MFTD"
MODEL_VERSION = 1


class IdMap:
    """Insertion-ordered bijection between external ids and dense indices;
    a repeated id keeps the index of its first appearance."""

    def __init__(self, ids=()):
        self.ids = list(dict.fromkeys(ids))
        self.index = dict(zip(self.ids, range(len(self.ids))))

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, idx: int) -> str:
        return self.ids[idx]


class _Columns:
    """The data lines of a TSV file as columns, and the first fault found.

    Lines end at '\\n' alone, after universal newlines ('\\r\\n', '\\r'):
    str.splitlines() would also split ids at U+0085 or U+2028. A check sees
    only the rows before the first fault so far, so checks applied in a
    line's validation order leave its first failing check as the fault.
    """

    def __init__(self, path, width, width_message, pad=None):
        """With `pad`, a line one field short gets `pad` as its last field."""
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        kept = np.flatnonzero(np.fromiter(map(bool, lines), bool, len(lines))
                              & ~np.fromiter(map(str.startswith, lines, repeat("#")), bool, len(lines)))
        lines = list(map(lines.__getitem__, kept.tolist()))
        tabs = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, len(lines))
        if pad is not None:
            short = tabs == width - 2
            lines = list(map(str.__add__, lines, np.where(short, "\t" + pad, "").tolist()))
            tabs += short
        self.path, self.linenos, self.limit, self.fault = path, kept + 1, len(lines), None
        self.check(tabs != width - 1, lambda row: width_message(tabs[row] + 1))
        fields = "\t".join(lines[:self.limit]).split("\t") if self.limit else []
        self.columns = [fields[c::width] for c in range(width)]

    def check(self, bad, message):
        """Make the first row where the mask `bad` holds, if it lies before
        the current fault, the fault, worded by message(row)."""
        hits = np.flatnonzero(bad[:self.limit])
        if len(hits):
            self.limit = row = int(hits[0])
            self.fault = f"{self.path}:{self.linenos[row]}: {message(row)}"

    def raise_fault(self):
        if self.fault is not None:
            raise ValueError(self.fault)


def _rejects(convert, raw) -> bool:
    try:
        convert(raw)
    except ValueError:
        return True
    return False


def _read_ratings(path, r_min, r_max):
    """(user column, item column, float64 values) of a ratings file."""
    table = _Columns(path, 3, lambda fields: f"expected 3 tab-separated fields, got {fields}")
    users, items, raws = table.columns
    try:
        values = np.fromiter(map(float, raws), np.float64, len(raws))
    except ValueError:
        table.check(np.fromiter(map(_rejects, repeat(float), raws), bool, len(raws)),
                    lambda row: f"rating {raws[row]!r} is not a number")
        values = np.fromiter(map(float, raws[:table.limit]), np.float64, table.limit)
    table.check(~((values >= r_min) & (values <= r_max)),
                lambda row: f"rating {float(values[row])} outside [{r_min}, {r_max}]")
    table.raise_fault()
    return users, items, values


_SIGNS = {"1": 1, "+1": 1, "-1": -1}


def _read_social(path, sign=None):
    """(the file's _Columns, its user ids u0, v0, u1, v1, ... and its int64
    signs) of a signed social file, or of an unsigned one with `sign`."""
    table = _Columns(path, 3, lambda fields: "expected 2 or 3 tab-separated fields",
                     pad=None if sign is None else str(sign))
    us, vs, tokens = table.columns
    signs = np.fromiter(map(_SIGNS.get, tokens, repeat(0)), np.int64, len(tokens))
    table.check(signs == 0, lambda row: f"sign {tokens[row]!r} must be 1 or -1")
    if sign is not None:
        table.check(signs != sign, lambda row: f"expected sign {sign}, got {signs[row]}")
    table.check(np.fromiter(map(str.__eq__, us, vs), bool, len(us)),
                lambda row: f"self-edge {us[row]!r}")
    table.raise_fault()
    pairs = us + vs
    pairs[0::2], pairs[1::2] = us, vs
    return table, pairs, signs


def _indices(id_map, ids):
    """Index of each id; -1 for an id the map lacks."""
    return np.fromiter(map(id_map.index.get, ids, repeat(-1)), np.int64)


def _build_ratings(users, items, values, user_map, item_map, r_min, r_max):
    """SparseRatings of the rating columns; a repeated (user, item) keeps its
    first position and its last value."""
    user_idx, item_idx = _indices(user_map, users), _indices(item_map, items)
    keys = user_idx * len(item_map) + item_idx
    # a stable sort keeps each key's rows in file order; head marks its first
    # row, and as head[0] is set, head rolled back by one marks its last row
    order = np.argsort(keys, kind="stable")
    head = np.ones(len(keys), bool)
    head[1:] = np.diff(keys[order]) != 0
    is_first, last_of = np.zeros(len(keys), bool), np.empty(len(keys), np.int64)
    is_first[order[head]] = True
    last_of[order[head]] = order[np.roll(head, -1)]
    first = np.flatnonzero(is_first)
    last = last_of[first]
    if len(first) < len(keys):
        log.warning("%d duplicate (user, item) rows; last occurrence wins", len(keys) - len(first))
    if not len(keys):
        log.warning("no rating rows found")
    return SparseRatings(len(user_map), len(item_map), user_idx[first], item_idx[first],
                         values[last], r_min, r_max)


def _build_graph(files, user_map):
    """Signed graph of the rows of the social files (as `_read_social` returns
    them); a repeated (u, v) keeps its first row and must repeat its sign."""
    pairs = _indices(user_map, chain.from_iterable(ids for _, ids, _ in files)).reshape(-1, 2)
    signs = np.concatenate([signs for _, _, signs in files])
    _, first, key = np.unique(pairs[:, 0] * len(user_map) + pairs[:, 1],
                              return_index=True, return_inverse=True)
    clash = np.flatnonzero(signs != signs[first[key]])
    if len(clash):
        row = clash[0]
        u, v = (user_map[int(idx)] for idx in pairs[row])
        raise ValueError(f"{_where(files, row)}: contradicts {_where(files, first[key[row]])}: "
                         f"{u!r} cannot both trust and distrust {v!r}")
    if len(first) < len(pairs):
        log.warning("%d duplicate social edges dropped", len(pairs) - len(first))
    keep = np.sort(first)
    pairs, signs = pairs[keep], signs[keep]
    return SocialGraph.from_edges(len(user_map), pairs[signs > 0], pairs[signs < 0])


def _where(files, row):
    """`path:line` of a row of the social files taken in order."""
    for table, _, signs in files:
        if row < len(signs):
            return f"{table.path}:{table.linenos[row]}"
        row -= len(signs)


@dataclass
class DatasetBundle:
    """Ratings plus graph under one shared user indexing."""

    ratings: SparseRatings
    graph: SocialGraph | None
    user_map: IdMap
    item_map: IdMap


def load_dataset(ratings_path, social_path=None, trust_path=None, distrust_path=None,
                 r_min: float = 1.0, r_max: float = 5.0) -> DatasetBundle:
    """Load ratings and social files under a single user-id space.

    Users appearing only in the social graph still get indices; their rows
    exist in the model even without ratings.
    """
    users, items, values = _read_ratings(ratings_path, r_min, r_max)
    files = [_read_social(path, sign)
             for path, sign in ((social_path, None), (trust_path, 1), (distrust_path, -1))
             if path is not None]
    user_map = IdMap(chain(users, *(ids for _, ids, _ in files)))
    item_map = IdMap(items)
    ratings = _build_ratings(users, items, values, user_map, item_map, r_min, r_max)
    graph = _build_graph(files, user_map) if any(ids for _, ids, _ in files) else None
    return DatasetBundle(ratings, graph, user_map, item_map)


def load_ratings(path, r_min: float = 1.0, r_max: float = 5.0) -> SparseRatings:
    """Parse a ratings file; indices follow first-appearance order."""
    return load_dataset(path, r_min=r_min, r_max=r_max).ratings


def load_ratings_with_maps(path, user_map: IdMap, item_map: IdMap):
    """(users, items, values) arrays of a ratings file mapped through saved
    id maps; an id the map lacks becomes index -1. Rows are kept as read."""
    users, items, values = _read_ratings(path, 1.0, 5.0)
    return _indices(user_map, users), _indices(item_map, items), values


def load_social(path, sign: int | None = None) -> SocialGraph:
    """Parse a signed social file (or an unsigned one with `sign` supplied)."""
    social = _read_social(path, sign)
    return _build_graph([social], IdMap(social[1]))


def save_ratings(path, ratings: SparseRatings, user_map: IdMap, item_map: IdMap):
    # ratings are finite, where format_number is the .6g format
    Path(path).write_text("".join(map(
        "{}\t{}\t{:.6g}\n".format, map(user_map.ids.__getitem__, ratings.users.tolist()),
        map(item_map.ids.__getitem__, ratings.items.tolist()), ratings.values.tolist())),
        encoding="utf-8")


def save_social(path, graph: SocialGraph, user_map: IdMap):
    sources, targets = np.concatenate((graph.trust_edge_array, graph.distrust_edge_array)).T
    Path(path).write_text("".join(map(
        "{}\t{}\t{}\n".format, map(user_map.ids.__getitem__, sources.tolist()),
        map(user_map.ids.__getitem__, targets.tolist()),
        ["1"] * graph.trust_count + ["-1"] * graph.distrust_count)), encoding="utf-8")


def save_id_map(path, id_map: IdMap):
    Path(path).write_text("".join(map("{}\t{}\n".format, range(len(id_map)), id_map.ids)),
                          encoding="utf-8")


def load_id_map(path) -> IdMap:
    table = _Columns(path, 2, lambda fields: "expected 2 tab-separated fields")
    indices, ids = table.columns
    table.check(np.fromiter(map(_rejects, repeat(int), indices), bool, len(indices)),
                lambda row: f"index {indices[row]!r} is not an integer")
    table.check(np.fromiter(map(int.__ne__, map(int, indices[:table.limit]), range(table.limit)),
                            bool, table.limit),
                lambda row: f"index {int(indices[row])} out of order")
    id_map = IdMap(ids)
    # before the first repeated id, each id's index is its row
    table.check(_indices(id_map, ids) != np.arange(len(ids)),
                lambda row: f"id {ids[row]!r} already has index {id_map.index[ids[row]]}")
    table.raise_fault()
    return id_map


# ---------------------------------------------------------------------------
# model persistence


def save_model(model: FactorModel, path):
    header = struct.pack("<4sI", MODEL_MAGIC, MODEL_VERSION)
    dims = struct.pack("<QQQ", model.n, model.m, model.k)
    tail = struct.pack("<Q", int(model.seed) & 0xFFFFFFFFFFFFFFFF)
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(dims)
        handle.write(np.ascontiguousarray(model.U, dtype="<f8").tobytes())
        handle.write(np.ascontiguousarray(model.V, dtype="<f8").tobytes())
        handle.write(tail)


def _read_exact(handle, count, path):
    data = handle.read(count)
    if len(data) != count:
        raise ValueError(f"{path}: unexpected end of model file")
    return data


def load_model(path) -> FactorModel:
    with open(path, "rb") as handle:
        magic, version = struct.unpack("<4sI", _read_exact(handle, 8, path))
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != MODEL_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        n, m, k = struct.unpack("<QQQ", _read_exact(handle, 24, path))
        # check the header against the file before sizing any read by it
        need = 8 + 24 + 8 * (n + m) * k + 8
        size = os.fstat(handle.fileno()).st_size
        if size < need:
            raise ValueError(f"{path}: unexpected end of model file "
                             f"(header n={n} m={m} k={k} needs {need} bytes, file has {size})")
        if size > need:
            raise ValueError(f"{path}: trailing bytes after model payload")
        U = np.frombuffer(_read_exact(handle, 8 * n * k, path), dtype="<f8").reshape(n, k)
        V = np.frombuffer(_read_exact(handle, 8 * m * k, path), dtype="<f8").reshape(m, k)
        (seed,) = struct.unpack("<Q", _read_exact(handle, 8, path))
    return FactorModel(U.copy(), V.copy(), int(k), int(seed))


# ---------------------------------------------------------------------------
# CSV reporting


def format_number(value) -> str:
    """Locale-independent numeric formatting at 6 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if value != value:
        return "nan"
    if value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    return f"{value:.6g}"


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
