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

import numpy as np

from .data import FactorModel, SocialGraph, SparseRatings

log = logging.getLogger(__name__)

MODEL_MAGIC = b"MFTD"
MODEL_VERSION = 1


class IdMap:
    """Insertion-ordered bijection between external ids and dense indices."""

    def __init__(self, ids=()):
        self.ids = []
        self.index = {}
        for external in ids:
            self.intern(external)

    def intern(self, external: str) -> int:
        idx = self.index.get(external)
        if idx is None:
            idx = len(self.ids)
            self.ids.append(external)
            self.index[external] = idx
        return idx

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, idx: int) -> str:
        return self.ids[idx]


def _parse_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split("\t")


def _read_rating_rows(path, r_min, r_max):
    rows = []
    for lineno, fields in _parse_lines(path):
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
        user, item, raw = fields
        try:
            rating = float(raw)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: rating {raw!r} is not a number") from None
        if not r_min <= rating <= r_max:
            raise ValueError(f"{path}:{lineno}: rating {rating} outside [{r_min}, {r_max}]")
        rows.append((user, item, rating))
    return rows


def _read_social_rows(path, sign=None):
    rows = []
    for lineno, fields in _parse_lines(path):
        if sign is not None and len(fields) == 2:
            u, v, s = fields[0], fields[1], sign
        elif len(fields) == 3:
            u, v, raw = fields
            if raw not in ("1", "-1", "+1"):
                raise ValueError(f"{path}:{lineno}: sign {raw!r} must be 1 or -1")
            s = 1 if raw in ("1", "+1") else -1
            if sign is not None and s != sign:
                raise ValueError(f"{path}:{lineno}: expected sign {sign}, got {s}")
        else:
            raise ValueError(f"{path}:{lineno}: expected 2 or 3 tab-separated fields")
        if u == v:
            raise ValueError(f"{path}:{lineno}: self-edge {u!r}")
        rows.append((u, v, s, f"{path}:{lineno}"))
    return rows


def _build_ratings(rows, user_map, item_map, n, m, r_min, r_max):
    seen = {}
    duplicates = 0
    for user, item, rating in rows:
        key = (user_map.intern(user), item_map.intern(item))
        if key in seen:
            duplicates += 1
        seen[key] = rating
    if duplicates:
        log.warning("%d duplicate (user, item) rows; last occurrence wins", duplicates)
    if not rows:
        log.warning("no rating rows found")
    users = [u for u, _ in seen]
    items = [i for _, i in seen]
    values = [seen[key] for key in seen]
    return SparseRatings(max(n, len(user_map)), max(m, len(item_map)),
                         users, items, values, r_min, r_max)


def load_ratings(path, r_min: float = 1.0, r_max: float = 5.0,
                 user_map: IdMap | None = None, item_map: IdMap | None = None) -> SparseRatings:
    """Parse a ratings file; indices follow first-appearance order.

    Passing shared IdMaps lets several files agree on the same indexing.
    """
    user_map = IdMap() if user_map is None else user_map
    item_map = IdMap() if item_map is None else item_map
    rows = _read_rating_rows(path, r_min, r_max)
    return _build_ratings(rows, user_map, item_map, 0, 0, r_min, r_max)


def load_ratings_with_maps(path, user_map: IdMap, item_map: IdMap):
    """(users, items, values) arrays of a ratings file mapped through saved
    id maps; an id the map lacks becomes index -1. Rows are kept as read."""
    rows = _read_rating_rows(path, 1.0, 5.0)
    users = np.array([user_map.index.get(user, -1) for user, _, _ in rows], dtype=np.int64)
    items = np.array([item_map.index.get(item, -1) for _, item, _ in rows], dtype=np.int64)
    values = np.array([rating for _, _, rating in rows], dtype=np.float64)
    return users, items, values


def _build_graph(rows, user_map, n):
    """Signed graph of the social rows; a repeated (u, v) keeps its first row
    and must repeat its sign."""
    pairs = np.array([(user_map.intern(u), user_map.intern(v)) for u, v, _, _ in rows],
                     dtype=np.int64).reshape(-1, 2)
    signs = np.array([s for _, _, s, _ in rows], dtype=np.int64)
    _, first, key = np.unique(pairs[:, 0] * len(user_map) + pairs[:, 1],
                              return_index=True, return_inverse=True)
    clash = np.flatnonzero(signs != signs[first[key]])
    if len(clash):
        u, v, _, where = rows[clash[0]]
        raise ValueError(f"{where}: contradicts {rows[first[key[clash[0]]]][3]}: "
                         f"{u!r} cannot both trust and distrust {v!r}")
    if len(first) < len(rows):
        log.warning("%d duplicate social edges dropped", len(rows) - len(first))
    keep = np.sort(first)
    pairs, signs = pairs[keep], signs[keep]
    return SocialGraph.from_edges(max(n, len(user_map)), pairs[signs > 0], pairs[signs < 0])


def load_social(path, user_map: IdMap | None = None, sign: int | None = None) -> SocialGraph:
    """Parse a signed social file (or an unsigned one with `sign` supplied)."""
    user_map = IdMap() if user_map is None else user_map
    return _build_graph(_read_social_rows(path, sign), user_map, 0)


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
    user_map = IdMap()
    item_map = IdMap()
    rating_rows = _read_rating_rows(ratings_path, r_min, r_max)
    social_rows = []
    if social_path is not None:
        social_rows += _read_social_rows(social_path)
    if trust_path is not None:
        social_rows += _read_social_rows(trust_path, sign=1)
    if distrust_path is not None:
        social_rows += _read_social_rows(distrust_path, sign=-1)
    for user, _, _ in rating_rows:
        user_map.intern(user)
    for u, v, _, _ in social_rows:
        user_map.intern(u)
        user_map.intern(v)
    n = len(user_map)
    ratings = _build_ratings(rating_rows, user_map, item_map, n, 0, r_min, r_max)
    graph = _build_graph(social_rows, user_map, n) if social_rows else None
    return DatasetBundle(ratings, graph, user_map, item_map)


def save_ratings(path, ratings: SparseRatings, user_map: IdMap, item_map: IdMap):
    with open(path, "w", encoding="utf-8") as handle:
        for u, i, r in zip(ratings.users, ratings.items, ratings.values):
            handle.write(f"{user_map[int(u)]}\t{item_map[int(i)]}\t{format_number(float(r))}\n")


def save_social(path, graph: SocialGraph, user_map: IdMap):
    ids = user_map.ids
    with open(path, "w", encoding="utf-8") as handle:
        for sign, edges in (("1", graph.trust_edge_array), ("-1", graph.distrust_edge_array)):
            handle.writelines(f"{ids[u]}\t{ids[v]}\t{sign}\n" for u, v in edges.tolist())


def save_id_map(path, id_map: IdMap):
    with open(path, "w", encoding="utf-8") as handle:
        for idx, external in enumerate(id_map.ids):
            handle.write(f"{idx}\t{external}\n")


def load_id_map(path) -> IdMap:
    ids = []
    for lineno, fields in _parse_lines(path):
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 tab-separated fields")
        idx, external = int(fields[0]), fields[1]
        if idx != len(ids):
            raise ValueError(f"{path}:{lineno}: index {idx} out of order")
        ids.append(external)
    return IdMap(ids)


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
