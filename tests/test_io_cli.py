import argparse
import csv
import logging
import math
import os
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import trustfactor
from trustfactor import cli, data, experiments, fileio
from trustfactor.cli import run_cli
from trustfactor.data import (FactorModel, Hyperparams, SocialGraph, SparseRatings, extract_triplets,
                              init_model)
from trustfactor.experiments import cold_start_split
from trustfactor.fileio import (
    load_dataset,
    load_id_map,
    load_model,
    save_id_map,
    save_model,
    save_ratings,
    save_social,
    format_number,
)
from trustfactor.metrics import evaluate_predictions
from trustfactor.neighborhood import build_propagated_sets, nb_predict_many
from trustfactor.optimize import fit_gd

from conftest import random_graph


def load_ratings(path, r_min: float = 1.0, r_max: float = 5.0) -> SparseRatings:
    """Parse a ratings file; indices follow first-appearance order."""
    return load_dataset(path, r_min=r_min, r_max=r_max).ratings


def load_social(path, sign: int | None = None) -> SocialGraph:
    """Parse a signed social file (or an unsigned one with `sign` supplied)."""
    where, codes, ids, signs = fileio._read_social(path, sign)
    return fileio._build_graph([(where, codes, np.arange(len(ids)), signs)], ids)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# reference loader: the row-at-a-time TSV reader the columnar one replaced,
# kept as the oracle for ids, arrays, warnings and error messages


def _ref_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split("\t")


def _ref_rating_rows(path, r_min, r_max):
    rows = []
    for lineno, fields in _ref_lines(path):
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


def _ref_social_rows(path, sign=None):
    rows = []
    for lineno, fields in _ref_lines(path):
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


class _RefIds:
    def __init__(self):
        self.ids, self.index = [], {}

    def intern(self, external):
        if external not in self.index:
            self.index[external] = len(self.ids)
            self.ids.append(external)
        return self.index[external]


def _ref_ratings(rows, user_map, item_map, n, r_min, r_max, warnings):
    seen = {}
    duplicates = 0
    for user, item, rating in rows:
        key = (user_map.intern(user), item_map.intern(item))
        if key in seen:
            duplicates += 1
        seen[key] = rating
    if duplicates:
        warnings.append(f"{duplicates} duplicate (user, item) rows; last occurrence wins")
    if not rows:
        warnings.append("no rating rows found")
    return SparseRatings(max(n, len(user_map.ids)), len(item_map.ids), [u for u, _ in seen],
                         [i for _, i in seen], list(seen.values()), r_min, r_max)


def _ref_graph(rows, user_map, n, warnings):
    pairs = np.array([(user_map.intern(u), user_map.intern(v)) for u, v, _, _ in rows],
                     dtype=np.int64).reshape(-1, 2)
    signs = np.array([s for _, _, s, _ in rows], dtype=np.int64)
    _, first, key = np.unique(pairs[:, 0] * len(user_map.ids) + pairs[:, 1],
                              return_index=True, return_inverse=True)
    clash = np.flatnonzero(signs != signs[first[key]])
    if len(clash):
        u, v, _, where = rows[clash[0]]
        raise ValueError(f"{where}: contradicts {rows[first[key[clash[0]]]][3]}: "
                         f"{u!r} cannot both trust and distrust {v!r}")
    if len(first) < len(rows):
        warnings.append(f"{len(rows) - len(first)} duplicate social edges dropped")
    keep = np.sort(first)
    pairs, signs = pairs[keep], signs[keep]
    return SocialGraph.from_edges(max(n, len(user_map.ids)), pairs[signs > 0], pairs[signs < 0])


def ref_load_ratings(path, r_min=1.0, r_max=5.0):
    """(ratings, user ids, item ids, warnings)"""
    users, items, warnings = _RefIds(), _RefIds(), []
    rows = _ref_rating_rows(path, r_min, r_max)
    return _ref_ratings(rows, users, items, 0, r_min, r_max, warnings), users.ids, items.ids, warnings


def ref_load_social(path, sign=None):
    """(graph, user ids, warnings)"""
    users, warnings = _RefIds(), []
    return _ref_graph(_ref_social_rows(path, sign), users, 0, warnings), users.ids, warnings


def ref_load_dataset(ratings_path, social_path=None, trust_path=None, distrust_path=None):
    """(ratings, graph or None, user ids, item ids, warnings)"""
    users, items, warnings = _RefIds(), _RefIds(), []
    rating_rows = _ref_rating_rows(ratings_path, 1.0, 5.0)
    social_rows = []
    for path, sign in ((social_path, None), (trust_path, 1), (distrust_path, -1)):
        if path is not None:
            social_rows += _ref_social_rows(path, sign)
    for user, _, _ in rating_rows:
        users.intern(user)
    for u, v, _, _ in social_rows:
        users.intern(u)
        users.intern(v)
    n = len(users.ids)
    ratings = _ref_ratings(rating_rows, users, items, n, 1.0, 5.0, warnings)
    graph = _ref_graph(social_rows, users, n, warnings) if social_rows else None
    return ratings, graph, users.ids, items.ids, warnings


FIGURE_SOCIAL = (
    "u1\tu2\t1\n"
    "u1\tu4\t1\n"
    "u1\tu6\t1\n"
    "u1\tu7\t1\n"
    "u1\tu3\t-1\n"
    "u1\tu5\t-1\n"
)


class TestLoadRatings:
    def test_basic(self, tmp_path):
        path = write(tmp_path / "r.tsv", "u1\ti1\t4\nu1\ti2\t3.5\nu2\ti3\t1\n")
        ratings = load_ratings(path)
        assert ratings.n == 2 and ratings.m == 3 and ratings.nnz == 3

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "r.tsv", "")
        ratings = load_ratings(path)
        assert ratings.n == 0 and ratings.m == 0 and ratings.nnz == 0

    def test_malformed_line_names_line_number(self, tmp_path):
        path = write(tmp_path / "r.tsv", "u1\ti1\tsix\n")
        with pytest.raises(ValueError, match=r":1: rating 'six'"):
            load_ratings(path)

    def test_out_of_bounds_rating(self, tmp_path):
        path = write(tmp_path / "r.tsv", "u1\ti1\t9\n")
        with pytest.raises(ValueError, match="outside"):
            load_ratings(path)

    def test_duplicate_last_wins(self, tmp_path, caplog):
        path = write(tmp_path / "r.tsv", "u1\ti1\t4\nu1\ti1\t2\n")
        with caplog.at_level("WARNING"):
            ratings = load_ratings(path)
        assert ratings.nnz == 1
        assert ratings.values[0] == 2.0
        assert any("duplicate" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("text", [
        "a\tx\t1\na\tx\t2\nb\ty\t3\n",                      # first two rows
        "a\tx\t1\nb\ty\t3\na\tx\t2\n",                      # first and last
        "b\ty\t3\na\tx\t1\na\tx\t2\n",                      # last two
        "a\tx\t1\nb\ty\t2\nb\ty\t3\nc\tz\t4\n",             # middle
        "a\tx\t1\na\tx\t2\na\tx\t3\n",                      # every row
        "a\tx\t1\nb\tx\t2\na\tx\t3\nb\tx\t4\na\ty\t5\nb\tx\t1\n",  # interleaved
    ])
    def test_duplicates_keep_first_position_and_last_value(self, tmp_path, caplog, text):
        path = write(tmp_path / "r.tsv", text)
        expected, _, _, warnings = ref_load_ratings(path)
        with caplog.at_level(logging.WARNING, logger="trustfactor.fileio"):
            _assert_same_ratings(load_ratings(path), expected)
        assert _warnings(caplog) == warnings and len(warnings) == 1

    def test_comments_skipped(self, tmp_path):
        path = write(tmp_path / "r.tsv", "# header\nu1\ti1\t4\n")
        assert load_ratings(path).nnz == 1


class TestLoadSocial:
    def test_figure_fixture(self, tmp_path):
        path = write(tmp_path / "s.tsv", FIGURE_SOCIAL)
        graph = load_social(path)
        assert graph.trust_count == 4
        assert graph.distrust_count == 2

    def test_self_edge_rejected(self, tmp_path):
        path = write(tmp_path / "s.tsv", "u1\tu1\t1\n")
        with pytest.raises(ValueError, match="self-edge"):
            load_social(path)

    def test_bad_sign_rejected(self, tmp_path):
        path = write(tmp_path / "s.tsv", "u1\tu2\t2\n")
        with pytest.raises(ValueError, match="sign"):
            load_social(path)

    def test_contradiction_cites_both_lines(self, tmp_path):
        path = write(tmp_path / "s.tsv", "u1\tu2\t1\nu1\tu2\t-1\n")
        with pytest.raises(ValueError, match=r"s.tsv:2.*s.tsv:1"):
            load_social(path)

    def test_duplicate_edge_deduplicated(self, tmp_path, caplog):
        path = write(tmp_path / "s.tsv", "u1\tu2\t1\nu1\tu2\t1\n")
        with caplog.at_level("WARNING"):
            graph = load_social(path)
        assert graph.trust_count == 1
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_unsigned_files_merged(self, tmp_path):
        ratings = write(tmp_path / "r.tsv", "u1\ti1\t4\nu2\ti1\t3\n")
        trust = write(tmp_path / "t.tsv", "u1\tu2\n")
        distrust = write(tmp_path / "d.tsv", "u1\tu3\n")
        bundle = load_dataset(ratings, trust_path=trust, distrust_path=distrust)
        # u3 appears only in the social data yet still gets a row
        assert bundle.ratings.n == 3
        assert bundle.graph.trust_count == 1
        assert bundle.graph.distrust_count == 1


# ids with characters str.splitlines() would break on but the loader keeps;
# then ids the byte keys must tell apart: 8 to 20 bytes and 300 bytes (more
# than one key word, a length that does not fit a byte), byte prefixes of
# each other, multibyte characters, and the empty field
ODD_IDS = ["u\x85x", "u\u2028y", "u\x0cz", "ü", " pad ", "#mid",
           "abcdefgh", "user-00000012", "a-twenty-byte-userid", "x" * 300,
           "u1", "u10", "u1\x00", "üü", "ü" * 4, ""]
VALID_RATINGS = ["1", "2.5", "5", "3.0", " 4 ", "4e0", "+2", "0_3"]


def _random_text(rng, rows, newline):
    """Lines of tab-joined fields with comment and blank lines mixed in and
    the given line end ('mixed': a random one per line)."""
    lines = []
    for fields in rows:
        while rng.random() < 0.1:
            lines.append("# comment" if rng.random() < 0.5 else "")
        lines.append("\t".join(fields))
    ends = ["\n", "\r\n", "\r"]
    text = "".join(line + (ends[rng.integers(3)] if newline == "mixed" else newline)
                   for line in lines)
    if lines and rng.random() < 0.3:
        text = text.rstrip("\r\n")  # no line end after the last line
    return text


def _random_files(tmp_path, seed):
    """A ratings file, a signed social file and two-column trust and
    distrust files whose (u, v) pairs keep one sign across all three."""
    rng = np.random.default_rng(seed)
    newline = ["\n", "\r\n", "\r", "mixed"][seed % 4]
    pool = [f"u{j}" for j in range(int(rng.integers(2, 12)))] + ODD_IDS[: seed % 17]
    social_pool = pool + [f"s{j}" for j in range(int(rng.integers(1, 6)))]
    items = [f"i{j}" for j in range(int(rng.integers(1, 8)))] + ODD_IDS[:2] + \
        (ODD_IDS[6:] if seed % 3 else [])
    empty = seed % 5 == 4

    def pick(values, size):
        return [values[j] for j in rng.integers(len(values), size=size)]

    n_ratings = 0 if empty and seed % 2 else int(rng.integers(1, 60))
    ratings = list(zip(pick(pool, n_ratings), pick(items, n_ratings), pick(VALID_RATINGS, n_ratings)))
    edges = {"social": [], "trust": [], "distrust": []}
    n_edges = 0 if empty and not seed % 2 else int(rng.integers(1, 80))
    for u, v in zip(pick(social_pool, n_edges), pick(social_pool, n_edges)):
        if u == v:
            continue
        positive = sum(map(ord, u + "|" + v)) % 2 == 0  # one sign per (u, v)
        token = pick(["1", "+1"], 1)[0] if positive else "-1"
        target = pick(["social", "social", "trust" if positive else "distrust"], 1)[0]
        if target == "social" or rng.random() < 0.3:
            edges[target].append((u, v, token))
        else:
            edges[target].append((u, v))
    paths = {}
    for name, rows in (("ratings", ratings), *edges.items()):
        path = tmp_path / f"{name}.tsv"
        path.write_bytes(_random_text(rng, rows, newline).encode("utf-8"))
        paths[name] = str(path)
    return paths


def _warnings(caplog):
    return [rec.getMessage() for rec in caplog.records if rec.name == "trustfactor.fileio"]


def _assert_same_graph(graph, expected):
    assert graph.n == expected.n
    for name in ("trust_offsets", "trust_targets", "distrust_offsets", "distrust_targets"):
        got, want = getattr(graph, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def _assert_same_ratings(ratings, expected):
    assert (ratings.n, ratings.m) == (expected.n, expected.m)
    for name in ("users", "items", "values"):
        got, want = getattr(ratings, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


class TestLoaderOracle:
    """The columnar loader against the row-at-a-time reference above."""

    @staticmethod
    def _assert_loads_as_reference(caplog, ratings_path, **social):
        ratings, graph, user_ids, item_ids, warnings = ref_load_dataset(ratings_path, **social)
        with caplog.at_level(logging.WARNING, logger="trustfactor.fileio"):
            bundle = load_dataset(ratings_path, **social)
        assert bundle.user_ids == user_ids
        assert bundle.item_ids == item_ids
        _assert_same_ratings(bundle.ratings, ratings)
        assert (bundle.graph is None) == (graph is None)
        if graph is not None:
            _assert_same_graph(bundle.graph, graph)
        assert _warnings(caplog) == warnings

    @pytest.mark.parametrize("seed", range(30))
    def test_load_dataset_matches_reference(self, tmp_path, caplog, seed):
        paths = _random_files(tmp_path, seed)
        self._assert_loads_as_reference(caplog, paths["ratings"], social_path=paths["social"],
                                        trust_path=paths["trust"], distrust_path=paths["distrust"])

    def test_eight_byte_ids_one_bit_apart(self, tmp_path, caplog):
        """Ids of at most 8 bytes whose last bytes differ in bit 3 ('1', '9')."""
        rng = np.random.default_rng(8)
        users = ["user0001", "user0009", "user0008", "user000", "u1"]
        items = ["3.500001", "3.500009", "item0001", "item0009"]
        rows = [(users[u], items[i], str(1 + k % 5)) for k, (u, i) in
                enumerate(zip(rng.integers(5, size=40), rng.integers(4, size=40)))]
        edges = [(users[u], users[(u + d) % 5], "1" if d % 2 else "-1")
                 for u, d in zip(rng.integers(5, size=20), rng.integers(1, 5, size=20))]
        ratings = write(tmp_path / "r.tsv", "".join("\t".join(row) + "\n" for row in rows))
        social = write(tmp_path / "s.tsv", "".join("\t".join(edge) + "\n" for edge in edges))
        self._assert_loads_as_reference(caplog, ratings, social_path=social)

    def test_one_long_id_among_many_short_rows(self, tmp_path, caplog, monkeypatch):
        """Two 20 kB ids that differ in their last byte, in a few of 3,000
        rows, load as the reference loads them, and no key sort inside
        _intern takes more than three words per field interned."""
        rng = np.random.default_rng(20)
        long_ids = ["L" * 19999 + "1", "L" * 19999 + "9"]
        users = [f"u{j}" for j in rng.integers(100, size=3000)]
        for row in rng.choice(3000, size=8, replace=False):
            users[row] = long_ids[row % 2]
        rows = [(u, f"i{i}", str(1 + i % 5)) for u, i in zip(users, rng.integers(50, size=3000))]
        edges = [(long_ids[0], "u1", "1"), ("u2", long_ids[1], "-1"), (long_ids[1], long_ids[0], "1")]
        edges += [(f"u{u}", f"u{u + 1 + d}", "1") for u, d in
                  zip(rng.integers(100, size=500), rng.integers(50, size=500))]
        ratings = write(tmp_path / "r.tsv", "".join("\t".join(row) + "\n" for row in rows))
        social = write(tmp_path / "s.tsv", "".join("\t".join(edge) + "\n" for edge in edges))
        intern, first_appearance, fields = fileio._intern, fileio._first_appearance, []

        def spy_intern(raw, starts, stops):
            fields.append(len(starts))
            try:
                return intern(raw, starts, stops)
            finally:
                fields.pop()

        def spy_first_appearance(keys, bound=None):
            assert not fields or sum(map(len, keys)) <= 3 * fields[-1]
            return first_appearance(keys, bound)

        monkeypatch.setattr(fileio, "_intern", spy_intern)
        monkeypatch.setattr(fileio, "_first_appearance", spy_first_appearance)
        self._assert_loads_as_reference(caplog, ratings, social_path=social)

    @pytest.mark.parametrize("seed", range(30))
    def test_single_file_loaders_match_reference(self, tmp_path, caplog, seed):
        paths = _random_files(tmp_path, seed)
        files = (("social", None), ("trust", 1), ("distrust", -1))
        expected, _, _, warnings = ref_load_ratings(paths["ratings"])
        graphs = []
        for name, sign in files:
            graph, _, more = ref_load_social(paths[name], sign)
            graphs.append(graph)
            warnings += more
        with caplog.at_level(logging.WARNING, logger="trustfactor.fileio"):
            _assert_same_ratings(load_ratings(paths["ratings"]), expected)
            for (name, sign), graph in zip(files, graphs):
                _assert_same_graph(load_social(paths[name], sign=sign), graph)
        assert _warnings(caplog) == warnings


# load_dataset's tracemalloc peak on the hub files below: 52.3 MB before the
# loader gathered each column through one separator array, 35.7 MB after;
# the bound is the latter plus 20%
HUB_LOAD_PEAK_BOUND = int(1.2 * 35.7e6)


def test_load_dataset_traced_peak_on_hub_files(tmp_path):
    """A hub-heavy graph of 208,504 signed edges (3.2 MB) and 60,000 ratings
    (0.85 MB), shaped as the benchmark's lazy-SGD inputs: capped Zipf
    out-degrees, uniform targets. The peak is deterministic for given inputs."""
    rng = np.random.default_rng(17)
    n, m = 20_000, 4_000
    src = np.repeat(np.arange(n), np.minimum(rng.zipf(1.8, size=n), 800))
    dst = rng.integers(0, n - 1, size=len(src))
    dst += dst >= src  # no self-edge
    keep = np.sort(np.unique(src * n + dst, return_index=True)[1])
    src, dst = src[keep], dst[keep]
    signs = np.where(rng.random(len(src)) < 0.5, "1", "-1")
    flat = rng.choice(n * m, size=60_000, replace=False)
    social = write(tmp_path / "s.tsv", "".join(map(
        "u{}\tu{}\t{}\n".format, src.tolist(), dst.tolist(), signs.tolist())))
    ratings = write(tmp_path / "r.tsv", "".join(map(
        "u{}\ti{}\t{}\n".format, (flat // m).tolist(), (flat % m).tolist(),
        rng.integers(1, 6, size=len(flat)).tolist())))
    tracemalloc.start()
    try:
        bundle = load_dataset(ratings, social_path=social)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bundle.graph.trust_count + bundle.graph.distrust_count == len(src) == 208_504
    assert peak <= HUB_LOAD_PEAK_BOUND, f"traced peak {peak / 1e6:.1f} MB"


def _byte_tokens(rng, size, max_length):
    """Random byte strings over a four-byte alphabet, so that many repeat or
    are prefixes of one another; '1' and '9' differ in one bit (0x08)."""
    alphabet = np.array([0, ord("1"), ord("9"), 0xFF], np.uint8)
    return [alphabet[rng.integers(4, size=int(rng.integers(max_length + 1)))].tobytes()
            for _ in range(size)]


def _assert_interned_as_dict_fromkeys(rng, tokens):
    """Codes and first rows of _intern against dict.fromkeys numbering, with
    fields out of buffer order, stray bytes between them and after the last."""
    gaps = [bytes(rng.integers(256, size=int(rng.integers(3))).astype(np.uint8)) for _ in tokens]
    raw = b"".join(gap + token for gap, token in zip(gaps, tokens))
    stops = np.cumsum([len(gap) + len(token) for gap, token in zip(gaps, tokens)], dtype=np.int64)
    starts = stops - np.array([len(token) for token in tokens], np.int64)
    order = rng.permutation(len(tokens))
    fields = [tokens[t] for t in order]
    numbering = dict(zip(dict.fromkeys(fields), range(len(fields))))
    tail = rng.integers(1, 256, size=8).astype(np.uint8).tobytes()
    codes, first = fileio._intern(raw + tail, starts[order], stops[order])
    assert codes.dtype == first.dtype == np.int64
    assert codes.tolist() == [numbering[field] for field in fields]
    assert first.tolist() == [fields.index(field) for field in numbering]


class TestIntern:
    @pytest.mark.parametrize("max_length", [0, 1, 7, 8, 9, 20, 300])
    def test_numbers_fields_as_dict_fromkeys(self, max_length):
        rng = np.random.default_rng(max_length)
        for size in (0, 1, 5, 400):
            _assert_interned_as_dict_fromkeys(rng, _byte_tokens(rng, size, max_length))

    def test_eight_byte_fields_one_bit_apart(self):
        """The widest field has 8 bytes, the last of which differ in bit 3."""
        tokens = [b"user0001", b"user0009", b"3.500001", b"3.500009", b"user0001", b"user000",
                  b"3.500009", b""]
        _assert_interned_as_dict_fromkeys(np.random.default_rng(0), tokens)

    @pytest.mark.parametrize("seed", range(4))
    def test_long_fields_sharing_long_prefixes(self, seed):
        """Fields that tie for hundreds of bytes, past one step's 64 words, among
        many short ones, so the steps take one word or many."""
        rng = np.random.default_rng(seed)
        prefix = rng.integers(256, size=1200).astype(np.uint8).tobytes()
        cuts = [0, 7, 8, 14, 15, 518, 519, 520, 526, 527, 1100, 1200]  # around word ends
        tokens = [prefix[:cuts[c]] + tail for c, tail in
                  zip(rng.integers(len(cuts), size=120), _byte_tokens(rng, 120, 2))]
        tokens += _byte_tokens(rng, [0, 20, 1000][seed % 3], 6)
        _assert_interned_as_dict_fromkeys(rng, [tokens[t] for t in rng.permutation(len(tokens))])

    @pytest.mark.parametrize("seed", range(3))
    def test_thirteen_byte_ids_sharing_a_seven_byte_prefix(self, seed):
        """Ids like user-00000123: one word keys the shared prefix, so every
        field goes on to a step keyed by one word and its (code, length)."""
        rng = np.random.default_rng(seed)
        tokens = [b"user-%08d" % u for u in rng.integers(0, 300, 2000)]
        tokens += [b"user-00", b"user-00\0", b"user-0000000001\0"] + _byte_tokens(rng, 50, 14)
        _assert_interned_as_dict_fromkeys(rng, [tokens[t] for t in rng.permutation(len(tokens))])


def test_ratings_with_maps_match_per_row_lookup(tmp_path):
    """Each id through the saved id list as a per-row search would map it,
    unknown ids -1, repeated ids and rows kept as read."""
    rng = np.random.default_rng(5)
    user_ids = ["a", "b", "ü", "long-user-id-0001", ""]
    item_ids = ["x", "y", "x" * 30]
    users = ["a", "b", "ü", "long-user-id-0001", "", "c", "long-user-id-0002", "üü"]
    items = ["x", "y", "x" * 30, "z", "x" * 31, ""]
    rows = [(users[u], items[i], str(1 + r % 5))
            for u, i, r in zip(rng.integers(len(users), size=60),
                               rng.integers(len(items), size=60), range(60))]
    path = write(tmp_path / "r.tsv", "".join("\t".join(row) + "\n" for row in rows))
    got = fileio.load_ratings_with_maps(path, user_ids, item_ids)
    want = (np.array([user_ids.index(u) if u in user_ids else -1 for u, _, _ in rows], np.int64),
            np.array([item_ids.index(i) if i in item_ids else -1 for _, i, _ in rows], np.int64),
            np.array([float(r) for _, _, r in rows]))
    for array, expected in zip(got, want):
        assert array.dtype == expected.dtype and array.tobytes() == expected.tobytes()


def test_non_utf8_input_fails_as_a_text_mode_read(tmp_path, capsys):
    """The error of a file that is not UTF-8 counts its byte position in the
    raw file, '\\r\\n' line ends included, and the CLI prints it on one line."""
    path = tmp_path / "r.tsv"
    path.write_bytes(b"u1\ti1\t4\r\nu2\ti\xff2\t3\r\nu3\ti1\t5\r\n")
    with pytest.raises(UnicodeDecodeError) as want:
        with open(path, encoding="utf-8") as handle:
            handle.read()
    with pytest.raises(UnicodeDecodeError) as got:
        load_ratings(path)
    assert str(got.value) == str(want.value)
    social = write(tmp_path / "s.tsv", "u1\tu2\t1\n")
    code = run_cli(["fit", "--ratings", str(path), "--social", social,
                    "--out", str(tmp_path / "fit"), "--epochs", "2"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {want.value}\n"


# (file kind, text, message after "path:"): every file has faults on several
# lines, and the first faulty line fails a check that a later line passes
FIRST_FAULTS = [
    ("ratings", "u1\ti1\tsix\nu1\ti2\n", "1: rating 'six' is not a number"),
    ("ratings", "u1\ti1\t9\nu1\ti2\tx\n", "1: rating 9.0 outside [1.0, 5.0]"),
    ("ratings", "u1\ti1\t3\nu1\ti2\t7\nu1\ti3\tx\nu1\n", "2: rating 7.0 outside [1.0, 5.0]"),
    ("ratings", "# c\n\nu1\ti1\t3\t4\nu1\ti1\tzz\n", "3: expected 3 tab-separated fields, got 4"),
    ("ratings", "u\ti\tnan\nu\ti\tq\n", "1: rating nan outside [1.0, 5.0]"),
    ("ratings", "u1\ti1\t2\r\nu2\ti2\tbad\r\nu3\ti3\t0\r\n", "2: rating 'bad' is not a number"),
    ("ratings", "u1\ti1\t4\ru2\ti2\t5\t\ru3\ti3\tx\r", "2: expected 3 tab-separated fields, got 4"),
    ("social", "u1\tu2\t2\nu1\tu1\t1\nu3\n", "1: sign '2' must be 1 or -1"),
    ("social", "u1\tu1\t1\nu2\tu3\tx\n", "1: self-edge 'u1'"),
    ("social", "u1\tu1\tx\n", "1: sign 'x' must be 1 or -1"),
    ("social", "u1\tu2\t1\nu3\tu4\nu5\tu5\t1\n", "2: expected 2 or 3 tab-separated fields"),
    ("social", "u1\tu2\t1\nu1\tu2\t-1\nu3\tu3\t1\n", "3: self-edge 'u3'"),
    ("trust", "u1\tu2\nu1\tu3\t-1\nu1\tu1\n", "2: expected sign 1, got -1"),
    ("trust", "u1\tu2\t1\nu2\tu2\t-1\n", "2: expected sign 1, got -1"),
    ("trust", "u1\tu2\nu2\tu3\tfoo\nu1\tu2\t1\t1\n", "2: sign 'foo' must be 1 or -1"),
    ("trust", "a\tb\nc\td\te\tf\na\ta\n", "2: expected 2 or 3 tab-separated fields"),
    ("distrust", "u1\tu2\t+1\nu3\n", "1: expected sign -1, got 1"),
]


class TestFirstFault:
    """Each error names the first faulty line with that line's first failing
    check, exactly as the reference loader words it."""

    @pytest.mark.parametrize("kind,text,message", FIRST_FAULTS)
    def test_first_fault_matches_reference(self, tmp_path, kind, text, message):
        path = write(tmp_path / f"{kind}.tsv", text)
        if kind == "ratings":
            calls = (lambda: load_ratings(path), lambda: ref_load_ratings(path))
        else:
            sign = {"social": None, "trust": 1, "distrust": -1}[kind]
            calls = (lambda: load_social(path, sign=sign), lambda: ref_load_social(path, sign))
        with pytest.raises(ValueError) as got:
            calls[0]()
        with pytest.raises(ValueError) as want:
            calls[1]()
        assert str(got.value) == str(want.value) == f"{path}:{message}"

    def test_dataset_contradiction_across_files(self, tmp_path):
        ratings = write(tmp_path / "r.tsv", "u1\ti1\t4\n")
        social = write(tmp_path / "s.tsv", "u3\tu4\t1\nu1\tu2\t1\n")
        distrust = write(tmp_path / "d.tsv", "u1\tu2\n")
        with pytest.raises(ValueError) as got:
            load_dataset(ratings, social_path=social, distrust_path=distrust)
        with pytest.raises(ValueError) as want:
            ref_load_dataset(ratings, social_path=social, distrust_path=distrust)
        assert str(got.value) == str(want.value) == (
            f"{distrust}:1: contradicts {social}:2: 'u1' cannot both trust and distrust 'u2'")

    def test_dataset_reports_ratings_before_social(self, tmp_path):
        ratings = write(tmp_path / "r.tsv", "u1\ti1\t4\nu1\ti2\t8\n")
        social = write(tmp_path / "s.tsv", "u1\tu1\t1\n")
        with pytest.raises(ValueError) as got:
            load_dataset(ratings, social_path=social)
        assert str(got.value) == f"{ratings}:2: rating 8.0 outside [1.0, 5.0]"


class TestRoundtrips:
    def test_dataset_roundtrip(self, tmp_path):
        ratings_path = write(tmp_path / "r.tsv", "u1\ti1\t4\nu1\ti2\t3.5\nu2\ti1\t1\n")
        social_path = write(tmp_path / "s.tsv", FIGURE_SOCIAL)
        bundle = load_dataset(ratings_path, social_path=social_path)
        out_r = tmp_path / "r2.tsv"
        out_s = tmp_path / "s2.tsv"
        save_ratings(out_r, bundle.ratings, bundle.user_ids, bundle.item_ids)
        save_social(out_s, bundle.graph, bundle.user_ids)
        orig_r = set(open(ratings_path).read().strip().splitlines())
        got_r = set(out_r.read_text().strip().splitlines())
        assert orig_r == got_r
        orig_s = set(open(social_path).read().strip().splitlines())
        got_s = set(out_s.read_text().strip().splitlines())
        assert orig_s == got_s

    def test_id_map_roundtrip(self, tmp_path):
        ids = ["alpha", "beta", "gamma"]
        save_id_map(tmp_path / "ids.tsv", ids)
        assert load_id_map(tmp_path / "ids.tsv") == ids

    @pytest.mark.parametrize("text,message", [
        ("0\tu1\nx\tu2\n", "2: index 'x' is not an integer"),
        ("0\tu1\n2\tu2\nx\tu3\n", "2: index 2 out of order"),
        ("0\tu1\n1\nx\tu3\n", "2: expected 2 tab-separated fields"),
        ("0\ta\n1\ta\n2\tb\n", "2: id 'a' already has index 0"),
        ("0\ta\n1\tb\n2\tc\n3\tb\n5\ta\n", "4: id 'b' already has index 1"),
        ("0\ta\n2\ta\n", "2: index 2 out of order"),
        ("0\ta\n0\tb\n1\tc\n", "2: index 0 out of order"),
    ])
    def test_id_map_fault_names_line(self, tmp_path, text, message):
        path = write(tmp_path / "ids.tsv", text)
        with pytest.raises(ValueError) as got:
            load_id_map(path)
        assert str(got.value) == f"{path}:{message}"

    def test_writers_match_per_row_reference(self, tmp_path):
        """The columnar writers against the row-at-a-time writers they
        replaced, byte for byte, on seeded random data."""
        rng = np.random.default_rng(11)
        letters = list("abcxyz\u00e9\u4e2d_-.0123456789")
        for trial in range(5):
            n, m = int(rng.integers(1, 40)), int(rng.integers(1, 30))
            user_ids, item_ids = (list(dict.fromkeys(
                "".join(rng.choice(letters, int(rng.integers(1, 8)))) for _ in range(size * 3)))
                for size in (n, m))
            n, m = len(user_ids), len(item_ids)
            mask = rng.random((n, m)) < 0.4
            users, items = np.nonzero(mask)
            values = rng.uniform(1.0, 5.0, len(users))
            values[::3] = np.round(values[::3])
            ratings = SparseRatings(n, m, users, items, values)
            graph = random_graph(rng, n_max=max(n, 2)) if n >= 2 else SocialGraph.from_edges(n)
            ids = user_ids + [f"extra{t}" for t in range(graph.n - n)]
            save_ratings(tmp_path / "r.tsv", ratings, user_ids, item_ids)
            save_social(tmp_path / "s.tsv", graph, ids)
            save_id_map(tmp_path / "ids.tsv", user_ids)
            with open(tmp_path / "r_ref.tsv", "w", encoding="utf-8") as handle:
                for u, i, r in zip(ratings.users, ratings.items, ratings.values):
                    handle.write(f"{user_ids[u]}\t{item_ids[i]}\t"
                                 f"{format_number(float(r))}\n")
            with open(tmp_path / "s_ref.tsv", "w", encoding="utf-8") as handle:
                for sign, edges in (("1", graph.trust_edge_array),
                                    ("-1", graph.distrust_edge_array)):
                    handle.writelines(f"{ids[u]}\t{ids[v]}\t{sign}\n"
                                      for u, v in edges.tolist())
            with open(tmp_path / "ids_ref.tsv", "w", encoding="utf-8") as handle:
                for idx, external in enumerate(user_ids):
                    handle.write(f"{idx}\t{external}\n")
            for name in ("r", "s", "ids"):
                assert (tmp_path / f"{name}.tsv").read_bytes() == \
                    (tmp_path / f"{name}_ref.tsv").read_bytes(), (trial, name)

    def test_model_roundtrip_bit_exact(self, tmp_path):
        model = init_model(7, 5, 3, seed=123)
        save_model(model, tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin")
        assert loaded.U.tobytes() == model.U.tobytes()
        assert loaded.V.tobytes() == model.V.tobytes()
        assert loaded.k == 3 and loaded.seed == 123

    @pytest.mark.parametrize("seed", [77, -2, -2**63, 2**63 - 1])
    def test_model_seed_roundtrips_as_int64(self, tmp_path, seed):
        save_model(FactorModel(np.array([[2.0]]), np.array([[3.0]]), 1, seed), tmp_path / "m.bin")
        assert (tmp_path / "m.bin").read_bytes()[-8:] == struct.pack("<q", seed)
        assert load_model(tmp_path / "m.bin").seed == seed

    @pytest.mark.parametrize("seed", [2**63, 2**64 + 5, -2**63 - 1])
    def test_model_seed_outside_int64_is_refused(self, tmp_path, seed):
        # masked to 64 bits, these would load back as -2**63, 5 and 2**63 - 1
        with pytest.raises(ValueError, match=f"^model seed {seed} does not fit in int64$"):
            save_model(FactorModel(np.array([[2.0]]), np.array([[3.0]]), 1, seed),
                       tmp_path / "m.bin")
        assert not (tmp_path / "m.bin").exists()

    def test_model_file_length(self, tmp_path):
        model = FactorModel(np.array([[2.0]]), np.array([[3.0]]), 1, seed=9)
        save_model(model, tmp_path / "m.bin")
        assert os.path.getsize(tmp_path / "m.bin") == 4 + 4 + 24 + 8 + 8 + 8

    def test_truncated_model_rejected(self, tmp_path):
        # every cut: inside the magic and version, the dimensions, the factors and the seed
        model = init_model(4, 4, 2, seed=0)
        save_model(model, tmp_path / "m.bin")
        blob = (tmp_path / "m.bin").read_bytes()
        for length in range(len(blob)):
            (tmp_path / "cut.bin").write_bytes(blob[:length])
            with pytest.raises(ValueError, match="unexpected end"):
                load_model(tmp_path / "cut.bin")
        (tmp_path / "long.bin").write_bytes(blob + b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_model(tmp_path / "long.bin")

    def test_loaded_factors_are_writable_and_refit(self, tmp_path):
        ratings = SparseRatings.from_entries(3, 2, [(0, 0, 4.0), (1, 1, 2.0), (2, 0, 5.0)])
        save_model(init_model(3, 2, 2, seed=5), tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin")
        for x in (loaded.U, loaded.V):
            assert x.flags.writeable and x.flags.owndata
        U = loaded.U.copy()
        model, report = fit_gd(ratings, None, Hyperparams(k=2, epochs=3), model0=loaded)
        assert len(report.records) == 3 and not np.array_equal(model.U, U)
        assert loaded.U.tobytes() == U.tobytes()  # the fit starts from a copy

    @pytest.mark.parametrize("dims", [(2**62, 2**62, 1), (10**5, 10**5, 64)])
    def test_header_dims_checked_against_file_size(self, tmp_path, capsys, dims):
        model = init_model(2, 2, 1, seed=0)
        save_model(model, tmp_path / "m.bin")
        blob = bytearray((tmp_path / "m.bin").read_bytes())
        blob[8:32] = struct.pack("<QQQ", *dims)
        (tmp_path / "m.bin").write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="unexpected end"):
            load_model(tmp_path / "m.bin")
        code = run_cli(["eval", "--ratings", write(tmp_path / "r.tsv", "u\ti\t3\n"),
                        "--model", str(tmp_path / "m.bin"), "--out", str(tmp_path / "ev")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unsupported_version_rejected(self, tmp_path):
        save_model(init_model(2, 2, 1, seed=0), tmp_path / "m.bin")
        blob = bytearray((tmp_path / "m.bin").read_bytes())
        blob[4:8] = struct.pack("<I", 2)
        (tmp_path / "m.bin").write_bytes(bytes(blob))
        with pytest.raises(ValueError) as info:
            load_model(tmp_path / "m.bin")
        assert str(info.value) == f"{tmp_path / 'm.bin'}: unsupported format version 2"

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad.bin").write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError, match="magic"):
            load_model(tmp_path / "bad.bin")


def _exact_pstdev(values):
    """The float nearest the square root of the exact population variance of
    `values`, by integer square root with a sticky bit below 56 or more bits."""
    xs = [Fraction(value) for value in values]
    mean = sum(xs) / len(xs)
    variance = sum((x - mean) ** 2 for x in xs) / len(xs)
    num, den = variance.numerator, variance.denominator
    k = 64 + max(0, den.bit_length() - num.bit_length()) // 2 + 1
    scaled, rest = divmod(num << 2 * k, den)
    root = math.isqrt(scaled)
    inexact = rest != 0 or root * root != scaled
    return float(Fraction(2 * root + inexact, 1 << (k + 1)))


def _naive_pstdev(values):
    mean = 0.0
    for value in values:
        mean += value
    mean /= len(values)
    squares = 0.0
    for value in values:
        squares += (value - mean) ** 2
    return math.sqrt(squares / len(values))


def test_std_rows_are_the_correctly_rounded_exact_deviation():
    """The -std rows hold the correctly rounded root of the exact variance
    (statistics.pstdev sums in Fractions), so they do not depend on the order
    of the repetitions; on these inputs a float fold gives other bytes."""
    rng = np.random.default_rng(6)
    naive_differs = 0
    for size in (2, 3, 5, 10, 30):
        for _ in range(20):
            values = (rng.random(size) * 10.0 ** rng.integers(-3, 4)).tolist()
            rows = [["mf", rep, rep, value, 2.0 * value] for rep, value in enumerate(values)]
            mean_row, std_row = cli._mean_std_rows(rows, "mf", 3)
            assert std_row[:3] == ["mf-std", "", ""]
            assert std_row[3:] == [_exact_pstdev(values), _exact_pstdev([2.0 * v for v in values])]
            shuffled = [rows[t] for t in rng.permutation(size)]
            assert cli._mean_std_rows(shuffled, "mf", 3)[1] == std_row
            naive_differs += _naive_pstdev(values) != std_row[3]
    assert naive_differs > 0


class TestFormatNumber:
    def test_six_significant_digits(self):
        assert format_number(1.2345678) == "1.23457"
        assert format_number(0.000123456789) == "0.000123457"
        assert format_number(3) == "3"
        assert format_number(None) == ""

    @staticmethod
    def branchy_format_number(value):
        """format_number with its former bool, NaN and infinity branches: the
        oracle for the shorter one."""
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

    def test_matches_the_branchy_oracle(self):
        values = [None, True, False, np.bool_(True), np.bool_(False), 0, 1, -7, 10**6,
                  10**15, 10**20, -10**20, np.int64(-(2**63)), np.int32(5), np.uint8(255),
                  0.0, -0.0, 1.5, -2.25e-300, 1e300, 123456.5, 1234567.0, 1 / 3,
                  np.float32(0.1), np.float32(-3.0e38), np.float64(2.5e-7),
                  float("nan"), -float("nan"), np.float32("nan"),
                  float("inf"), float("-inf"), np.float32("-inf")]
        for value in values:
            assert format_number(value) == self.branchy_format_number(value), repr(value)


def _synth_dir(tmp_path, seed=0):
    out = tmp_path / f"synth{seed}"
    code = run_cli([
        "synth", "--out", str(out), "--seed", str(seed),
        "--n", "40", "--m", "20", "--rank", "2", "--clusters", "2",
        "--density", "0.4", "--noise", "0.1",
        "--trust-edges", "60", "--distrust-edges", "60",
    ])
    assert code == 0
    return out


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestCli:
    def test_unknown_subcommand_fails(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        assert "{" + ",".join(cli.COMMANDS) + "}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [([], 2), (["--help"], 0)])
    def test_without_a_command_every_command_is_listed(self, capsys, argv, code):
        assert run_cli(argv) == code
        printed = capsys.readouterr()
        assert "{" + ",".join(cli.COMMANDS) + "}" in printed.out + printed.err

    # (command, flag, value) of the flags commands took before and never read
    UNREAD = [("grid", "--p", "2"), ("grid", "--q", "2"), ("coldstart", "--method", "nb"),
              ("tradeoff", "--method", "nb"), ("tradeoff", "--p", "2"), ("tradeoff", "--q", "2"),
              ("tradeoff", "--beta", "0.5"), ("batch-study", "--method", "nb"),
              ("batch-study", "--optimizer", "sgd"), ("batch-study", "--batch-size", "4"),
              ("batch-study", "--alpha", "0.5"), ("batch-study", "--beta", "0.5"),
              ("batch-study", "--p", "2"), ("batch-study", "--q", "2")]

    @pytest.mark.parametrize("command, flag, value",
                             UNREAD + [("fit", "--meth", "mf"), ("split", "--repeat", "2")])
    def test_unread_or_abbreviated_flag_exits_2(self, tmp_path, capsys, command, flag, value):
        # an abbreviation is no flag: coldstart --method is not --methods
        required = ["--lambda-s-grid", "0"] if command == "grid" else []
        out = tmp_path / "out"
        code = run_cli([command, "--ratings", "r.tsv", *required, flag, value, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"usage: trustfactor [-h] {{{command}}} ...\n"
            f"trustfactor: error: unrecognized arguments: {flag} {value}\n")
        assert not out.exists()

    def test_every_accepted_flag_is_read(self, tmp_path):
        """Each command's body reads every flag its subparser takes, but for
        --out, which run_cli reads, and --seed on eval and consistency: every
        command takes --seed."""
        out = _synth_dir(tmp_path)
        data = ["--ratings", str(out / "ratings.tsv"), "--social", str(out / "social.tsv")]
        runs = {  # in COMMANDS order, so eval reads the model fit writes
            "synth": [],
            "fit": [*data, "--epochs", "2"],
            "eval": ["--ratings", str(out / "ratings.tsv"),
                     "--model", str(tmp_path / "fit" / "model.bin")],
            "split": ["--ratings", str(out / "ratings.tsv"), "--repeats", "1"],
            "grid": [*data, "--epochs", "2", "--lambda-s-grid", "0", "--lambda-v-grid", "0.1"],
            "coldstart": [*data, "--epochs", "2", "--repeats", "1"],
            "consistency": data,
            "majority-vote": data,
            "tradeoff": [*data, "--epochs", "2", "--distrust-fracs", "0.5"],
            "batch-study": [*data, "--epochs", "2", "--batch-sizes", "1"],
        }
        assert list(runs) == list(cli.COMMANDS)
        unread = {"eval": {"seed"}, "consistency": {"seed"}}
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        for name, argv in runs.items():
            args = cli.build_parser([name]).parse_args(
                [name, *argv, "--out", str(tmp_path / name)])
            (tmp_path / name).mkdir()
            reads.clear()
            cli.COMMANDS[name].run(Recording(**vars(args)), tmp_path / name)
            assert set(vars(args)) - {"command", "out"} - reads == unread.get(name, set()), name

    @pytest.mark.parametrize("flag, value", [
        ("--m", "0"), ("--m", "-3"), ("--noise", "nan"), ("--noise", "-1"),
        ("--trust-edges", "-1"), ("--distrust-edges", "-2")])
    def test_synth_refuses_bad_sizes_and_noise(self, tmp_path, capsys, flag, value):
        out = tmp_path / "synth"
        assert run_cli(["synth", "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "ratings.tsv").exists()

    def test_bad_train_frac(self, tmp_path, capsys):
        out = _synth_dir(tmp_path)
        code = run_cli([
            "fit", "--ratings", str(out / "ratings.tsv"),
            "--social", str(out / "social.tsv"),
            "--out", str(tmp_path / "fit"), "--train-frac", "1.5", "--epochs", "2",
        ])
        assert code != 0
        assert "train-frac" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "coldstart", "split"])
    def test_zero_repeats_rejected(self, tmp_path, capsys, command):
        out = _synth_dir(tmp_path)
        social = [] if command == "split" else ["--social", str(out / "social.tsv")]
        code = run_cli([command, "--ratings", str(out / "ratings.tsv"), *social, "--repeats", "0",
                        "--out", str(tmp_path / "zero")])
        assert code == 1
        assert capsys.readouterr().err == "error: --repeats must be at least 1, got 0\n"

    # (argv, exit status, stderr) of diagnostics no other test reaches; {d} is a
    # synth directory, where unknown.tsv rates an item none of its users rated
    @pytest.mark.parametrize("argv, code, err", [
        (["grid", "--ratings", "{d}/ratings.tsv", "--social", "{d}/social.tsv", "--method", "nb",
          "--lambda-s-grid", "1", "--lambda-v-grid", "0.1"], 1,
         "error: nb is not a factorization method\n"),
        (["consistency", "--ratings", "{d}/ratings.tsv"], 1,
         "error: consistency needs a social graph (--social/--trust/--distrust)\n"),
        (["eval", "--ratings", "{d}/unknown.tsv", "--model", "{d}/planted.bin"], 1,
         "warning: skipped 1 pairs with ids unknown to the model\nerror: no evaluable pairs\n"),
        (["grid", "--ratings", "{d}/ratings.tsv", "--social", "{d}/social.tsv",
          "--lambda-s-grid", "1", "--lambda-v-grid", "0.1", "--lambda-u-grid", "0.1"], 1,
         "error: provide exactly one of --lambda-v-grid / --lambda-u-grid\n"),
        (["grid", "--ratings", "{d}/ratings.tsv", "--social", "{d}/social.tsv",
          "--lambda-s-grid", "1"], 1,
         "error: provide exactly one of --lambda-v-grid / --lambda-u-grid\n"),
        (["fit", "--ratings", "{d}/ratings.tsv", "--method", "mf", "--p", "2", "--epochs", "2"],
         0, "warning: propagation depths ignored for mf\n"),
        (["fit", "--ratings", "{d}/ratings.tsv", "--method", "nb", "--p", "0"],
         0, "warning: propagation depths ignored for nb\n"),
    ])
    def test_unreached_diagnostics(self, tmp_path, capsys, argv, code, err):
        d = _synth_dir(tmp_path)
        write(d / "unknown.tsv", "u00\tnew\t3\n")
        capsys.readouterr()
        assert run_cli([arg.format(d=d) for arg in argv] + ["--out", str(tmp_path / "run")]) == code
        assert capsys.readouterr().err == err

    def test_grid_refuses_a_neighborhood_method_before_reading(self, tmp_path, capsys):
        assert run_cli(["grid", "--method", "nb", "--ratings", str(tmp_path / "missing.tsv"),
                        "--lambda-s-grid", "1", "--lambda-v-grid", "0.1",
                        "--out", str(tmp_path / "grid")]) == 1
        assert capsys.readouterr().err == "error: nb is not a factorization method\n"

    @pytest.mark.parametrize("command, seed, repeats", [
        ("fit", 2**63, 1), ("fit", 2**64 + 5, 1), ("fit", -2**63 - 1, 1), ("fit", 2**63 - 1, 2),
        ("coldstart", 2**63 - 2, 3), ("grid", -2**63 - 1, None), ("synth", 2**63, None)])
    def test_seed_outside_int64_is_refused_before_reading(self, tmp_path, capsys, command, seed,
                                                          repeats):
        # fit saves the model of seed --seed + rep, so every repetition's seed must fit
        argv = {"synth": [], "grid": ["--ratings", str(tmp_path / "missing.tsv"),
                                      "--lambda-s-grid", "1", "--lambda-v-grid", "0.1"]}.get(
            command, ["--ratings", str(tmp_path / "missing.tsv"), "--repeats", str(repeats)])
        assert run_cli([command, *argv, f"--seed={seed}", "--out", str(tmp_path / "run")]) == 1
        last = 2**63 - (repeats or 1)
        assert capsys.readouterr().err == \
            f"error: --seed must lie in [{-2**63}, {last}], got {seed}\n"
        assert [path.name for path in (tmp_path / "run").iterdir()] == []

    # (command, flag, out-of-range value, the rest of the error line): one row
    # per flag of cli.BOUNDS
    BOUNDED = [("fit", "--train-frac", "1.0", "must lie strictly between 0.0 and 1.0, got 1.0"),
               ("grid", "--val-frac", "0", "must lie strictly between 0.0 and 1.0, got 0.0"),
               ("coldstart", "--cold-frac", "1.5",
                "must lie strictly between 0.0 and 1.0, got 1.5"),
               ("majority-vote", "--holdout-frac", "-0.2",
                "must lie strictly between 0.0 and 1.0, got -0.2"),
               ("split", "--repeats", "0", "must be at least 1, got 0"),
               ("fit", "--patience", "-1", "must be at least 0, got -1")]

    @pytest.mark.parametrize("command, flag, value, message", BOUNDED)
    def test_a_bounded_flag_out_of_range_is_refused_before_reading(self, tmp_path, capsys,
                                                                   command, flag, value, message):
        assert [row[1] for row in self.BOUNDED] == list(cli.BOUNDS)
        grid = ["--lambda-s-grid", "1", "--lambda-v-grid", "0.1"] if command == "grid" else []
        assert run_cli([command, "--ratings", str(tmp_path / "missing.tsv"), *grid, flag, value,
                        "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {flag} {message}\n"
        assert [path.name for path in (tmp_path / "run").iterdir()] == []

    @pytest.mark.parametrize("argv, method", [
        (["fit", "--method", "mf-t"], "mf-t"), (["fit", "--method", "mf-d"], "mf-d"),
        (["fit", "--method", "mf-td"], "mf-td"),
        (["fit", "--method", "mf-td", "--optimizer", "sgd"], "mf-td"),
        (["coldstart", "--methods", "mf,mf-td"], "mf-td")])
    def test_a_social_method_without_a_graph_is_refused_before_any_fit(
            self, tmp_path, capsys, monkeypatch, argv, method):
        out = _synth_dir(tmp_path)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return experiments.fit_and_score(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_and_score", spy)
        capsys.readouterr()
        assert run_cli([*argv, "--ratings", str(out / "ratings.tsv"), "--epochs", "2",
                        "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {method} needs a social graph\n"
        assert calls == []
        assert [path.name for path in (tmp_path / "run").iterdir()] == []

    def test_trust_and_distrust_files_fit_as_the_social_file(self, tmp_path):
        # the golden synth set's signed edges, one two-column file per sign
        assert run_cli(["synth", "--seed", "3", "--out", str(tmp_path / "synth")]) == 0
        ratings, social = tmp_path / "synth" / "ratings.tsv", tmp_path / "synth" / "social.tsv"
        rows = [line.split("\t") for line in social.read_text().splitlines()]
        for name, sign in (("trust.tsv", "1"), ("distrust.tsv", "-1")):
            write(tmp_path / name, "".join(f"{s}\t{t}\n" for s, t, mark in rows if mark == sign))
        fit = ["fit", "--ratings", str(ratings), "--method", "mf-td", "--epochs", "5"]
        assert run_cli([*fit, "--social", str(social), "--out", str(tmp_path / "signed")]) == 0
        assert run_cli([*fit, "--trust", str(tmp_path / "trust.tsv"), "--distrust",
                        str(tmp_path / "distrust.tsv"), "--out", str(tmp_path / "split")]) == 0
        for name in ("metrics.csv", "model.bin", "user_ids.tsv", "item_ids.tsv"):
            assert (tmp_path / "split" / name).read_bytes() == \
                (tmp_path / "signed" / name).read_bytes(), name

    @pytest.mark.parametrize("argv, held_out", [([], 180), (["--holdout-frac", "0.5"], 300)])
    def test_holdout_frac_sets_the_held_out_edges(self, tmp_path, capsys, argv, held_out):
        # the golden synth set has 300 trust and 300 distrust edges
        assert run_cli(["synth", "--seed", "3", "--out", str(tmp_path / "synth")]) == 0
        capsys.readouterr()
        assert run_cli(["majority-vote", "--ratings", str(tmp_path / "synth" / "ratings.tsv"),
                        "--social", str(tmp_path / "synth" / "social.tsv"), *argv,
                        "--out", str(tmp_path / "vote")]) == 0
        assert f" over {held_out} held-out edges; " in capsys.readouterr().out

    @pytest.mark.parametrize("val_frac", ["0.25", "0.5"])
    def test_val_frac_sets_the_validation_side(self, tmp_path, monkeypatch, val_frac):
        out = _synth_dir(tmp_path)
        sides = []

        def spy(train, validation, *args, **kwargs):
            sides.append((train.nnz, validation.nnz))
            return experiments.grid_search(train, validation, *args, **kwargs)

        monkeypatch.setattr(cli, "grid_search", spy)
        assert run_cli(["grid", "--ratings", str(out / "ratings.tsv"), "--social",
                        str(out / "social.tsv"), "--epochs", "2", "--lambda-s-grid", "1",
                        "--lambda-v-grid", "0.1", "--val-frac", val_frac,
                        "--out", str(tmp_path / "grid")]) == 0
        train_all = int(0.9 * load_dataset(out / "ratings.tsv").ratings.nnz)  # --train-frac
        train = int((1.0 - float(val_frac)) * train_all)
        assert sides == [(train, train_all - train)]

    @pytest.mark.parametrize("relation", ["trust", "distrust"])
    def test_relation_picks_the_scored_edges(self, tmp_path, capsys, relation):
        out = _synth_dir(tmp_path)
        argv = ["consistency", "--ratings", str(out / "ratings.tsv"), "--social",
                str(out / "social.tsv"), "--relation", relation, "--out", str(tmp_path / "c")]
        capsys.readouterr()
        assert run_cli(argv) == 0
        bundle = load_dataset(out / "ratings.tsv", social_path=out / "social.tsv")
        bins = experiments.consistency_eval(bundle.ratings, bundle.graph, relation)
        assert [row[:2] for row in read_csv(tmp_path / "c" / "consistency.csv")[1:]] == \
            [[label, str(agg["users"])] for label, agg in sorted(bins.items())]
        assert capsys.readouterr().out.startswith(f"{relation} alignment over ")

    def test_item_low_and_high_bound_the_planted_item_factors(self, tmp_path):
        assert run_cli(["synth", "--item-low", "2", "--item-high", "3",
                        "--out", str(tmp_path / "synth")]) == 0
        V = load_model(tmp_path / "synth" / "planted.bin").V
        assert set(np.unique(V)) == {2.0, 3.0}

    @pytest.mark.parametrize("seed", [-2**63, 2**63 - 1])
    def test_int64_extreme_seeds_fit_and_round_trip(self, tmp_path, seed):
        out = _synth_dir(tmp_path)
        assert run_cli(["fit", "--ratings", str(out / "ratings.tsv"), "--method", "mf",
                        "--epochs", "2", f"--seed={seed}", "--out", str(tmp_path / "fit")]) == 0
        assert load_model(tmp_path / "fit" / "model.bin").seed == seed
        assert read_csv(tmp_path / "fit" / "metrics.csv")[1][2] == str(seed)

    def test_unallocatable_model_is_one_line(self, tmp_path, capsys):
        # n * k * 8 bytes beyond 2**48 exceeds the address space: nothing is allocated
        out = _synth_dir(tmp_path)
        code = run_cli(["fit", "--ratings", str(out / "ratings.tsv"),
                        "--social", str(out / "social.tsv"), "--k", str(2 ** 45),
                        "--epochs", "2", "--out", str(tmp_path / "huge")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize("command, method", [("fit", "--method"), ("coldstart", "--methods")])
    def test_diverged_fit_warns(self, tmp_path, capsys, command, method):
        out = _synth_dir(tmp_path)
        base = [command, "--ratings", str(out / "ratings.tsv"), "--social", str(out / "social.tsv"),
                method, "mf", "--epochs", "5", "--repeats", "1", "--out", str(tmp_path / "run")]
        assert run_cli(base + ["--eta", "0.01"]) == 0
        assert capsys.readouterr().err == ""
        assert run_cli(base + ["--eta", "1e300", "--out", str(tmp_path / "diverged")]) == 0
        # the last finite model is not the fitted point: fit writes no model
        # and says so
        unsaved = "warning: no model written: the mf fit (seed 0) diverged\n"
        assert capsys.readouterr().err == (
            "warning: mf fit (seed 0) stopped by divergence after 0 of 5 iterations\n"
            + (unsaved if command == "fit" else ""))
        # it scores inf, and the std of a column that is not finite is nan
        table = "metrics.csv" if command == "fit" else "coldstart.csv"
        assert sorted(path.name for path in (tmp_path / "diverged").iterdir()) == [table]
        assert [row[3:] for row in read_csv(tmp_path / "diverged" / table)[1:]] == \
            [["inf", "inf"]] * 2 + [["nan", "nan"]]
        if command == "fit":
            assert {"model.bin", "user_ids.tsv", "item_ids.tsv"} <= {
                path.name for path in (tmp_path / "run").iterdir()}

    @pytest.mark.parametrize("diverged_seed, saved", [(0, True), (1, False)])
    def test_only_the_last_repetition_withholds_the_model(self, tmp_path, capsys, monkeypatch,
                                                          diverged_seed, saved):
        # fit writes the last repetition's model, so only that fit's divergence withholds it
        out = _synth_dir(tmp_path)
        fit_and_score = cli.fit_and_score

        def diverging(train, scored, store, hp, optimizer, seed, patience):
            eta0 = 1e300 if seed == diverged_seed else hp.eta0
            return fit_and_score(train, scored, store, hp.replace(eta0=eta0), optimizer, seed,
                                 patience)

        monkeypatch.setattr(cli, "fit_and_score", diverging)
        assert run_cli(["fit", "--ratings", str(out / "ratings.tsv"), "--method", "mf",
                        "--epochs", "5", "--repeats", "2", "--out", str(tmp_path / "run")]) == 0
        err = capsys.readouterr().err
        assert err.startswith(f"warning: mf fit (seed {diverged_seed}) stopped by divergence")
        assert err.endswith("diverged\n") != saved and err.count("\n") == 2 - saved
        assert {path.name for path in (tmp_path / "run").iterdir()} == {"metrics.csv"} | (
            {"model.bin", "user_ids.tsv", "item_ids.tsv"} if saved else set())

    def test_a_reused_out_keeps_no_stale_model_or_best(self, tmp_path, capsys):
        # a fit that writes no model, and a grid with no best, remove what an
        # earlier run left in the same --out, so eval cannot score an old model
        assert run_cli(["synth", "--seed", "3", "--out", str(tmp_path / "synth")]) == 0
        ratings = str(tmp_path / "synth" / "ratings.tsv")
        data = ["--ratings", ratings, "--social", str(tmp_path / "synth" / "social.tsv")]
        run, model = tmp_path / "run", str(tmp_path / "run" / "model.bin")
        fit = ["fit", "--ratings", ratings, "--epochs", "5", "--out", str(run)]
        evaluate = ["eval", "--ratings", ratings, "--model", model, "--out", str(tmp_path / "e")]
        for second in (["--method", "mf", "--eta", "1e300"], ["--method", "nb"]):
            assert run_cli(fit + ["--method", "mf", "--eta", "0.01"]) == 0
            assert run_cli(evaluate) == 0
            assert run_cli(fit + second) == 0
            assert sorted(path.name for path in run.iterdir()) == ["metrics.csv"]
            capsys.readouterr()
            assert run_cli(evaluate) == 1
            assert capsys.readouterr().err == \
                f"error: [Errno 2] No such file or directory: {model!r}\n"
        grid = ["grid", *data, "--epochs", "5", "--lambda-s-grid", "0,1", "--lambda-v-grid", "0.1",
                "--out", str(tmp_path / "grid")]
        assert run_cli(grid + ["--eta", "0.01"]) == 0
        assert run_cli(grid + ["--eta", "1e300"]) == 0
        assert sorted(path.name for path in (tmp_path / "grid").iterdir()) == ["grid.csv"]

    def test_loader_warnings_take_the_cli_prefix(self, tmp_path, capsys):
        ratings = write(tmp_path / "r.tsv", "u1\ti1\t3\nu1\ti2\t4\nu2\ti1\t5\nu1\ti1\t2\n")
        handlers = list(logging.getLogger("trustfactor").handlers)
        assert run_cli(["split", "--ratings", ratings, "--train-frac", "0.5", "--repeats", "1",
                        "--out", str(tmp_path / "split")]) == 0
        assert capsys.readouterr().err == \
            "warning: 1 duplicate (user, item) rows; last occurrence wins\n"
        assert logging.getLogger("trustfactor").handlers == handlers

    def test_fit_patience_stops_on_rising_validation_error(self, tmp_path, capsys):
        # pure-noise ratings: unclamped and unregularized, the RMSE on the
        # held-out validation share falls for about 20 iterations, then rises
        # for good as the model memorizes the noise of the training side
        rng = np.random.default_rng(0)
        users, items = np.nonzero(rng.random((40, 20)) < 0.5)
        ratings = write(tmp_path / "r.tsv", "".join(
            f"u{u}\ti{i}\t{v}\n" for u, i, v in zip(users, items, rng.integers(1, 6, len(users)))))
        base = ["fit", "--ratings", ratings, "--method", "mf", "--k", "8", "--eta", "0.02",
                "--lambda-u", "0", "--lambda-v", "0", "--no-clamp", "--epochs", "300",
                "--out", str(tmp_path / "run")]
        assert run_cli(base) == 0
        assert capsys.readouterr().err == ""
        plain = (tmp_path / "run" / "metrics.csv").read_bytes()
        assert run_cli(base + ["--patience", "2"]) == 0
        err = capsys.readouterr().err
        prefix = "warning: mf fit (seed 0) stopped by early-stop after "
        suffix = " of 300 iterations\n"
        assert err.startswith(prefix) and err.endswith(suffix) and err.count("\n") == 1
        assert 15 < int(err[len(prefix):-len(suffix)]) < 300
        assert (tmp_path / "run" / "metrics.csv").read_bytes() != plain

    def test_fit_patience_waits_out_a_flat_start(self, tmp_path, capsys):
        # from the small initial factors every prediction clamps to r_min, so
        # the validation RMSE holds its first value exactly for a few
        # iterations; that stretch is no sign of overfitting, and this fit
        # runs all its 300 iterations without stopping
        out = tmp_path / "synth"
        assert run_cli(["synth", "--out", str(out), "--seed", "3", "--n", "40", "--m", "30",
                        "--density", "0.5"]) == 0
        assert run_cli(["fit", "--ratings", str(out / "ratings.tsv"), "--method", "mf",
                        "--k", "8", "--eta", "0.02", "--lambda-u", "0", "--lambda-v", "0",
                        "--epochs", "300", "--patience", "2", "--out", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().err == ""
        assert float(read_csv(tmp_path / "run" / "metrics.csv")[1][4]) < 0.5

    def test_synth_fit_eval_pipeline(self, tmp_path, capsys):
        out = _synth_dir(tmp_path)
        fit_dir = tmp_path / "fit"
        code = run_cli([
            "fit", "--ratings", str(out / "ratings.tsv"),
            "--social", str(out / "social.tsv"),
            "--method", "mf-td", "--epochs", "60", "--eta", "0.02",
            "--lambda-s", "1.0", "--lambda-u", "0.05", "--lambda-v", "0.05",
            "--out", str(fit_dir), "--seed", "1",
        ])
        assert code == 0
        table = read_csv(fit_dir / "metrics.csv")
        assert table[0] == ["method", "repetition", "seed", "mae", "rmse"]
        assert len(table) == 4  # header + 1 repetition + mean + std
        eval_dir = tmp_path / "eval"
        code = run_cli([
            "eval", "--ratings", str(out / "ratings.tsv"),
            "--model", str(fit_dir / "model.bin"), "--out", str(eval_dir),
        ])
        assert code == 0
        table = read_csv(eval_dir / "eval.csv")
        assert table[0] == ["pairs", "skipped", "mae", "rmse"]
        assert float(table[1][2]) >= 0.0

    def test_eval_skips_unknown_ids(self, tmp_path, capsys):
        model = FactorModel(np.array([[1.0, 0.5], [2.0, -1.0]]),
                            np.array([[1.5, 1.0], [0.2, 3.0]]), 2, seed=4)
        save_model(model, tmp_path / "model.bin")
        save_id_map(tmp_path / "user_ids.tsv", ["a", "b"])
        save_id_map(tmp_path / "item_ids.tsv", ["x", "y"])
        ratings = write(tmp_path / "r.tsv", "a\tx\t2\nb\ty\t1\nc\tx\t3\na\tz\t4\nb\tx\t5\n")
        code = run_cli(["eval", "--ratings", ratings, "--model", str(tmp_path / "model.bin"),
                        "--out", str(tmp_path / "ev")])
        assert code == 0
        assert "skipped 2 pairs" in capsys.readouterr().err
        # oracle: clamped dot products of the three known pairs (a,x), (b,y), (b,x)
        errors = [2 - 2.0, 1 - 1.0, 5 - 2.0]
        table = read_csv(tmp_path / "ev" / "eval.csv")
        assert table[1][:2] == ["3", "2"]
        assert float(table[1][2]) == pytest.approx(np.mean(np.abs(errors)), rel=1e-5)
        assert float(table[1][3]) == pytest.approx(np.sqrt(np.mean(np.square(errors))), rel=1e-5)

    def test_nb_method_warns_on_optimizer(self, tmp_path, capsys):
        out = _synth_dir(tmp_path)
        code = run_cli([
            "fit", "--ratings", str(out / "ratings.tsv"),
            "--social", str(out / "social.tsv"),
            "--method", "nb", "--optimizer", "sgd",
            "--out", str(tmp_path / "nbfit"), "--seed", "1",
        ])
        assert code == 0
        assert "optimizer ignored for nb" in capsys.readouterr().err

    def test_nb_method_warns_on_patience(self, tmp_path, capsys):
        out = _synth_dir(tmp_path)
        assert run_cli(["fit", "--ratings", str(out / "ratings.tsv"),
                        "--social", str(out / "social.tsv"), "--method", "nb", "--patience", "3",
                        "--out", str(tmp_path / "nbfit")]) == 0
        assert capsys.readouterr().err == "warning: patience ignored for nb\n"

    @pytest.mark.parametrize("depth", [["--p", "0"], ["--q", "0"], ["--p", "-1"]])
    def test_nb_rejects_depth_below_one(self, tmp_path, capsys, depth):
        out = _synth_dir(tmp_path)
        code = run_cli([
            "fit", "--ratings", str(out / "ratings.tsv"),
            "--social", str(out / "social.tsv"), "--method", "nb-td-f", *depth,
            "--out", str(tmp_path / "nbfit"), "--seed", "1",
        ])
        assert code == 1
        assert "propagation depth must be at least 1" in capsys.readouterr().err
        # coldstart reads no pool, and still refuses the depth
        code = run_cli(["coldstart", "--ratings", str(out / "ratings.tsv"),
                        "--social", str(out / "social.tsv"), "--methods", "nb-t", *depth,
                        "--out", str(tmp_path / "cold")])
        assert code == 1
        assert "propagation depth must be at least 1" in capsys.readouterr().err

    # metrics.csv of `fit --p 2 --q 2` per nb method and coldstart.csv of the
    # four, as the per-prediction predictor wrote them on nb_golden_inputs
    NB_GOLDEN = {
        "nb": b"nb,0,1,0.414625,0.540421\r\nnb-mean,,,0.414625,0.540421\r\n",
        "nb-t": b"nb-t,0,1,0.377377,0.507127\r\nnb-t-mean,,,0.377377,0.507127\r\n",
        "nb-td-f": b"nb-td-f,0,1,0.39409,0.561743\r\nnb-td-f-mean,,,0.39409,0.561743\r\n",
        "nb-td-d": b"nb-td-d,0,1,0.383204,0.52377\r\nnb-td-d-mean,,,0.383204,0.52377\r\n",
    }
    COLDSTART_GOLDEN = b"".join(
        b"%s,0,2,1.18498,1.35983\r\n%s,1,3,1.14508,1.304\r\n%s-mean,,,1.16503,1.33191\r\n"
        b"%s-std,,,0.0199501,0.0279167\r\n" % ((method,) * 4)
        for method in (b"nb", b"nb-t", b"nb-td-f", b"nb-td-d"))

    def nb_golden_inputs(self, tmp_path):
        """A synth dataset with every third edge's sign flipped, so that trust
        and distrust cross the clusters and the four pools differ."""
        out = tmp_path / "nbsynth"
        assert run_cli(["synth", "--out", str(out), "--seed", "3", "--n", "60", "--m", "30",
                        "--rank", "2", "--clusters", "2", "--density", "0.5", "--noise", "0.3",
                        "--trust-edges", "300", "--distrust-edges", "300"]) == 0
        rows = [line.split("\t") for line in (out / "social.tsv").read_text().splitlines()]
        for row in rows[::3]:
            row[2] = str(-int(row[2]))
        (out / "mixed.tsv").write_text("".join("\t".join(row) + "\n" for row in rows))
        return ["--ratings", str(out / "ratings.tsv"), "--social", str(out / "mixed.tsv"),
                "--p", "2", "--q", "2"]

    def run_nb_commands(self, data, out):
        header = b"method,repetition,seed,mae,rmse\r\n"
        for method, golden in self.NB_GOLDEN.items():
            assert run_cli(["fit", *data, "--method", method, "--seed", "1",
                            "--out", str(out / method)]) == 0
            std = b"%s-std,,,0,0\r\n" % method.encode()
            assert (out / method / "metrics.csv").read_bytes() == header + golden + std
        assert run_cli(["coldstart", *data, "--methods", "nb,nb-t,nb-td-f,nb-td-d",
                        "--seed", "2", "--cold-frac", "0.2", "--repeats", "2",
                        "--out", str(out / "cold")]) == 0
        assert (out / "cold" / "coldstart.csv").read_bytes() == header + self.COLDSTART_GOLDEN

    def test_nb_outputs_match_golden_bytes(self, tmp_path):
        self.run_nb_commands(self.nb_golden_inputs(tmp_path), tmp_path)

    def test_nb_commands_take_the_batched_path(self, tmp_path, monkeypatch):
        # neither the full similarity cache nor the per-pair predictor is used
        data = self.nb_golden_inputs(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("an nb command left the batched path")

        for module in (trustfactor, trustfactor.neighborhood, cli, experiments):
            for name in ("build_similarity_cache", "nb_predict"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        self.run_nb_commands(data, tmp_path)

    def test_coldstart_builds_no_propagated_sets(self, tmp_path, monkeypatch, capsys):
        # cold users have no training ratings: every nb prediction is the
        # fallback, so no pool is read, yet the graph is still required
        data = self.nb_golden_inputs(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("coldstart propagated trust for cold users")

        monkeypatch.setattr(cli, "build_propagated_sets", refuse)
        assert run_cli(["coldstart", *data, "--methods", "nb,nb-t,nb-td-f,nb-td-d",
                        "--seed", "2", "--cold-frac", "0.2", "--repeats", "2",
                        "--out", str(tmp_path / "cold")]) == 0
        assert (tmp_path / "cold" / "coldstart.csv").read_bytes() == \
            b"method,repetition,seed,mae,rmse\r\n" + self.COLDSTART_GOLDEN
        assert capsys.readouterr().err == "warning: propagation depths ignored for nb\n"
        assert run_cli(["coldstart", *data[:2], "--methods", "nb-t",
                        "--out", str(tmp_path / "alone")]) == 1
        assert capsys.readouterr().err == "error: nb-t needs a social graph\n"

    @pytest.mark.parametrize("variant", ["nb", "nb-t", "nb-td-f", "nb-td-d"])
    def test_nb_eval_matches_always_built_sets(self, tmp_path, variant):
        # the skip of propagation for test users without training ratings,
        # and the reuse of the sets once built, change no byte against a pass
        # that always builds them
        ratings, social = self.nb_golden_inputs(tmp_path)[1:4:2]
        bundle = load_dataset(ratings, social_path=social)
        splits = [cold_start_split(bundle.ratings, 0.2, 2, rep)[:2] for rep in range(2)]
        splits += [experiments.split_ratings(bundle.ratings, experiments.SplitSpec(0.9, seed, 1))
                   for seed in range(2)]
        score = cli._scorer(bundle.graph, argparse.Namespace(optimizer=None, p=2, q=2), variant)
        for train, test in [*splits, *splits[:2]]:  # the cold splits again, once the sets exist
            sets = None if variant == "nb" else build_propagated_sets(bundle.graph, 2, 2)
            pred = nb_predict_many(train, None, sets, test.users, test.items, variant)
            expected = evaluate_predictions(test, pred, clamp=False)
            assert score(train, test, 0) == (None, expected)

    def test_scorer_builds_the_propagated_sets_at_most_once(self, tmp_path, monkeypatch):
        # the sets depend on the graph and the depths alone: fit builds them
        # once over its repetitions, and coldstart, whose test users have no
        # training ratings, never
        data = self.nb_golden_inputs(tmp_path)
        calls = []

        def spy(graph, p, q):
            calls.append((p, q))
            return build_propagated_sets(graph, p, q)

        monkeypatch.setattr(cli, "build_propagated_sets", spy)
        assert run_cli(["fit", *data, "--method", "nb-td-f", "--repeats", "3",
                        "--out", str(tmp_path / "fit")]) == 0
        assert calls == [(2, 2)]
        assert run_cli(["coldstart", *data, "--methods", "nb-t,nb-td-f",
                        "--out", str(tmp_path / "cold")]) == 0
        assert calls == [(2, 2)]

    @pytest.mark.parametrize("argv, warning", [
        (["fit", "--method", "nb", "--optimizer", "gd", "--repeats", "3"],
         "optimizer ignored for nb"),
        (["fit", "--method", "nb", "--p", "2", "--q", "3", "--repeats", "3"],
         "propagation depths ignored for nb"),
        (["coldstart", "--methods", "mf,nb-t", "--p", "2", "--epochs", "2", "--repeats", "2"],
         "propagation depths ignored for mf")])
    def test_an_ignored_flag_warns_once_per_method(self, tmp_path, capsys, argv, warning):
        out = _synth_dir(tmp_path)
        capsys.readouterr()
        assert run_cli([*argv, "--ratings", str(out / "ratings.tsv"),
                        "--social", str(out / "social.tsv"), "--out", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().err == f"warning: {warning}\n"

    def test_split_deterministic(self, tmp_path):
        out = _synth_dir(tmp_path)
        args = ["split", "--ratings", str(out / "ratings.tsv"),
                "--train-frac", "0.8", "--repeats", "2", "--seed", "7"]
        assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
        assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("splits.csv", "train_0.tsv", "test_1.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_grid_writes_surface(self, tmp_path):
        out = _synth_dir(tmp_path)
        grid_dir = tmp_path / "grid"
        code = run_cli([
            "grid", "--ratings", str(out / "ratings.tsv"),
            "--social", str(out / "social.tsv"),
            "--epochs", "20", "--eta", "0.02",
            "--lambda-s-grid", "0,1", "--lambda-v-grid", "0.05,0.5",
            "--out", str(grid_dir), "--seed", "3",
        ])
        assert code == 0
        surface = read_csv(grid_dir / "grid.csv")
        assert surface[0] == ["lambda_s", "lambda_v", "val_rmse"]
        assert len(surface) == 5
        best = read_csv(grid_dir / "grid_best.csv")
        rmses = [float(row[2]) for row in surface[1:]]
        assert float(best[1][2]) == min(rmses)

    def test_consistency_and_vote_and_tradeoff(self, tmp_path):
        out = _synth_dir(tmp_path)
        base = ["--ratings", str(out / "ratings.tsv"),
                "--social", str(out / "social.tsv"), "--seed", "5"]
        assert run_cli(["consistency", *base, "--out", str(tmp_path / "c")]) == 0
        table = read_csv(tmp_path / "c" / "consistency.csv")
        assert table[0][0] == "bin"
        assert run_cli(["majority-vote", *base, "--out", str(tmp_path / "v")]) == 0
        rows = read_csv(tmp_path / "v" / "majority_vote.csv")
        shares = [float(r[2]) for r in rows[1:]]
        assert sum(shares) == pytest.approx(100.0)
        assert run_cli([
            "tradeoff", *base, "--out", str(tmp_path / "t"),
            "--epochs", "15", "--eta", "0.02", "--distrust-fracs", "0.5,1.0",
        ]) == 0
        rows = read_csv(tmp_path / "t" / "tradeoff.csv")
        assert [r[0] for r in rows[1:]] == ["mf-td", "mf-td", "mf-t"]

    @pytest.mark.parametrize("bad", [["--distrust-fracs=-0.5,1.5"], ["--distrust-fracs", "0.5,1.5"],
                                     ["--distrust-fracs", "nan"], ["--trust-keep", "1.5"]])
    def test_tradeoff_rejects_fractions_outside_the_unit_interval(self, tmp_path, capsys, bad):
        out = _synth_dir(tmp_path)
        code = run_cli(["tradeoff", "--ratings", str(out / "ratings.tsv"),
                        "--social", str(out / "social.tsv"), "--epochs", "2", *bad,
                        "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must lie in [0, 1], got" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "t" / "tradeoff.csv").exists()

    @pytest.mark.parametrize("sizes", ["1.7", "", ",", "1,x", "8,2.0", "0", "4,-1", "8,08"])
    def test_batch_study_rejects_non_positive_integer_or_empty_sizes(self, tmp_path, capsys, sizes):
        out = _synth_dir(tmp_path)
        code = run_cli(["batch-study", "--ratings", str(out / "ratings.tsv"),
                        "--social", str(out / "social.tsv"), "--epochs", "2",
                        "--batch-sizes", sizes, "--out", str(tmp_path / "bs")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --batch-sizes must list distinct positive integers, got {sizes!r}\n")
        assert not (tmp_path / "bs" / "batch_study.csv").exists()

    @pytest.mark.parametrize("methods", ["mf,mf", "mf, mf-td,mf", ",", ""])
    def test_coldstart_rejects_repeated_or_empty_methods(self, tmp_path, capsys, methods):
        out = _synth_dir(tmp_path)
        code = run_cli(["coldstart", "--ratings", str(out / "ratings.tsv"),
                        "--social", str(out / "social.tsv"), "--epochs", "2",
                        "--methods", methods, "--out", str(tmp_path / "cold")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --methods must name distinct methods, got {methods!r}\n")
        assert not (tmp_path / "cold" / "coldstart.csv").exists()

    def test_coldstart_rejects_an_empty_cold_side_before_fitting(self, tmp_path, capsys,
                                                                 monkeypatch):
        # 0.01 of the 40 users rounds down to no cold user
        out = _synth_dir(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("coldstart fitted before checking every cold split")

        monkeypatch.setattr(cli, "_scorer", refuse)
        code = run_cli(["coldstart", "--ratings", str(out / "ratings.tsv"),
                        "--social", str(out / "social.tsv"), "--cold-frac", "0.01",
                        "--out", str(tmp_path / "cold")])
        assert code == 1
        assert capsys.readouterr().err == "error: cold-start test side is empty\n"
        assert not (tmp_path / "cold" / "coldstart.csv").exists()

    @pytest.mark.parametrize("flag, other", [("--lambda-s-grid", ["--lambda-v-grid", "0.1"]),
                                             ("--lambda-v-grid", ["--lambda-s-grid", "1"]),
                                             ("--lambda-u-grid", ["--lambda-s-grid", "1"])])
    @pytest.mark.parametrize("values", ["0.1,0.1", "0.1, 1,0.10", ",", "0.1,x"])
    def test_grid_rejects_empty_or_repeated_lists(self, tmp_path, capsys, flag, other, values):
        out = _synth_dir(tmp_path)
        code = run_cli(["grid", "--ratings", str(out / "ratings.tsv"),
                        "--social", str(out / "social.tsv"), "--epochs", "2", *other,
                        flag, values, "--out", str(tmp_path / "grid")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {flag} must list distinct numbers, got {values!r}\n")
        assert not (tmp_path / "grid" / "grid.csv").exists()

    @pytest.mark.parametrize("fractions", ["", ",", "0.5,0.5", "0.2,1,0.50,0.5", "0.5,x"])
    def test_tradeoff_rejects_empty_or_repeated_fractions(self, tmp_path, capsys, fractions):
        out = _synth_dir(tmp_path)
        code = run_cli(["tradeoff", "--ratings", str(out / "ratings.tsv"),
                        "--social", str(out / "social.tsv"), "--epochs", "2",
                        "--distrust-fracs", fractions, "--out", str(tmp_path / "t")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --distrust-fracs must list distinct numbers, got {fractions!r}\n")
        assert not (tmp_path / "t" / "tradeoff.csv").exists()

    def test_tradeoff_rejects_fractions_keeping_the_same_edge_count(self, tmp_path, capsys):
        """0.5 and 0.505 of the 60 distrust edges both round to 30 edges, which
        would fit the same sweep point twice."""
        out = _synth_dir(tmp_path)
        code = run_cli(["tradeoff", "--ratings", str(out / "ratings.tsv"),
                        "--social", str(out / "social.tsv"), "--epochs", "2",
                        "--distrust-fracs", "0.2,0.5,0.505", "--out", str(tmp_path / "t")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: distrust fractions 0.5 and 0.505 both keep 30 of the 60 distrust edges\n")
        assert not (tmp_path / "t" / "tradeoff.csv").exists()

    def test_fit_rejects_negative_patience(self, tmp_path, capsys):
        out = _synth_dir(tmp_path)
        code = run_cli(["fit", "--ratings", str(out / "ratings.tsv"),
                        "--social", str(out / "social.tsv"), "--epochs", "2",
                        "--patience", "-3", "--out", str(tmp_path / "fit")])
        assert code == 1
        assert capsys.readouterr().err == "error: --patience must be at least 0, got -3\n"
        assert not (tmp_path / "fit" / "metrics.csv").exists()

    def test_tradeoff_rerun_byte_identical(self, tmp_path):
        out = _synth_dir(tmp_path)
        args = ["tradeoff", "--ratings", str(out / "ratings.tsv"),
                "--social", str(out / "social.tsv"), "--seed", "5",
                "--epochs", "10", "--eta", "0.02", "--distrust-fracs", "0.5,1.0"]
        assert run_cli(args + ["--out", str(tmp_path / "t1")]) == 0
        assert run_cli(args + ["--out", str(tmp_path / "t2")]) == 0
        assert (tmp_path / "t1" / "tradeoff.csv").read_bytes() == \
            (tmp_path / "t2" / "tradeoff.csv").read_bytes()

    def test_coldstart_and_batch_study(self, tmp_path):
        out = _synth_dir(tmp_path)
        base = ["--ratings", str(out / "ratings.tsv"),
                "--social", str(out / "social.tsv"), "--seed", "2"]
        assert run_cli([
            "coldstart", *base, "--out", str(tmp_path / "cold"),
            "--cold-frac", "0.2", "--repeats", "2", "--epochs", "30",
            "--eta", "0.02", "--methods", "mf,mf-td",
        ]) == 0
        table = read_csv(tmp_path / "cold" / "coldstart.csv")
        assert table[0] == ["method", "repetition", "seed", "mae", "rmse"]
        assert run_cli([
            "batch-study", *base, "--out", str(tmp_path / "bs"),
            "--epochs", "10", "--eta", "0.02", "--batch-sizes", "1,8",
        ]) == 0
        table = read_csv(tmp_path / "bs" / "batch_study.csv")
        assert table[0] == ["optimizer", "batch_size", "iteration", "test_rmse", "test_mae"]
        optimizers = {row[0] for row in table[1:]}
        assert optimizers == {"gd", "sgd-1", "sgd-8"}

    def test_no_command_lists_triplets(self, tmp_path, monkeypatch):
        out = _synth_dir(tmp_path)
        base = ["--ratings", str(out / "ratings.tsv"), "--social", str(out / "social.tsv"),
                "--seed", "5", "--epochs", "8", "--eta", "0.05"]
        sgd = ["--optimizer", "sgd", "--batch-size", "4"]
        commands = {
            "fit-gd": ["fit", "--method", "mf-td", *base],
            "fit-sgd": ["fit", "--method", "mf-td", *base, *sgd],
            "fit-sgd-8": ["fit", "--method", "mf-td", *base, "--optimizer", "sgd",
                          "--batch-size", "8"],
            "grid": ["grid", *base, *sgd, "--lambda-s-grid", "0,1",
                     "--lambda-v-grid", "0.05,0.5"],
            "tradeoff": ["tradeoff", *base, *sgd, "--distrust-fracs", "0.5,1.0"],
            "coldstart": ["coldstart", *base, *sgd, "--cold-frac", "0.2", "--repeats", "2"],
            "batch-study": ["batch-study", *base, "--batch-sizes", "1,8"],
        }
        # every store listed, as SGD runs and batch-study built them before
        listings = []

        def listing(graph):
            listings.append(graph)
            return extract_triplets(graph)

        with monkeypatch.context() as patch:
            patch.setattr(experiments, "lazy_triplets", listing)
            patch.setattr(cli, "lazy_triplets", listing)
            for name, argv in commands.items():
                del listings[:]
                assert run_cli(argv + ["--out", str(tmp_path / "listed" / name)]) == 0
                assert listings, name

        def refuse(graph):
            raise AssertionError("a command listed the triplets")

        for module in (trustfactor, data, experiments, cli):
            monkeypatch.setattr(module, "extract_triplets", refuse, raising=False)
        # SGD samples the same stream without the listing
        for name, argv in commands.items():
            assert run_cli(argv + ["--out", str(tmp_path / "lazy" / name)]) == 0
            listed = sorted((tmp_path / "listed" / name).iterdir())
            assert [p.name for p in listed] == sorted(
                p.name for p in (tmp_path / "lazy" / name).iterdir())
            for path in listed:
                assert path.read_bytes() == (tmp_path / "lazy" / name / path.name).read_bytes()
        # the fits leave the clamped start, so the sampled triplets show in the metrics
        rows = [(tmp_path / "lazy" / name / "metrics.csv").read_text().splitlines()[1]
                for name in ("fit-gd", "fit-sgd", "fit-sgd-8")]
        assert len(set(rows)) == 3, rows

    def test_synth_rerun_byte_identical(self, tmp_path):
        a = _synth_dir(tmp_path / "x", seed=4)
        b = _synth_dir(tmp_path / "y", seed=4)
        assert (a / "ratings.tsv").read_bytes() == (b / "ratings.tsv").read_bytes()
        assert (a / "social.tsv").read_bytes() == (b / "social.tsv").read_bytes()

    def test_fit_variants_and_repeats(self, tmp_path):
        out = _synth_dir(tmp_path)
        base = ["fit", "--ratings", str(out / "ratings.tsv"),
                "--social", str(out / "social.tsv"), "--epochs", "10",
                "--eta", "0.02"]
        code = run_cli(base + [
            "--method", "mf-td", "--optimizer", "sgd", "--batch-size", "4",
            "--loss", "logistic", "--sign-convention", "paper-literal",
            "--repeats", "2", "--out", str(tmp_path / "v1"), "--seed", "3",
        ])
        assert code == 0
        table = read_csv(tmp_path / "v1" / "metrics.csv")
        assert len(table) == 5  # header + 2 repetitions + mean + std
        assert table[3][0] == "mf-td-mean" and table[4][0] == "mf-td-std"
        for method in ("mf-t", "mf-d", "nb-t", "nb-td-f", "nb-td-d"):
            extra = ["--p", "1", "--q", "2"] if method.startswith("nb") else []
            code = run_cli(base + [
                "--method", method, *extra,
                "--out", str(tmp_path / f"v_{method}"), "--seed", "3",
            ])
            assert code == 0, method
