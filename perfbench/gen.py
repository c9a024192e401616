"""Seeded input generator for the benchmark workloads.

Writes ratings and signed-social TSV files in the formats `trustfactor`
reads. Everything is O(ratings + edges) numpy; nothing here calls into
`trustfactor`, so a change to the package's own synthetic generator cannot
change any workload's inputs.

Two graph shapes:
  planted   users fall into equal clusters, each item has one integer score
            per cluster, trust edges stay inside a cluster and distrust edges
            cross clusters (the social signal agrees with the ratings);
  hubs      out-degrees follow a Zipf law with a cap, each edge's sign is a
            fair coin, so the heaviest users carry both signs and the triplet
            count sum |N+(u)| * |N-(u)| is dominated by a few hubs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class InputSpec:
    n: int
    m: int
    density: float
    noise: float
    clusters: int = 5
    # planted graph: exact edge counts
    trust_edges: int = 0
    distrust_edges: int = 0
    # hub graph: Zipf exponent and out-degree cap
    zipf_a: float = 0.0
    degree_cap: int = 0


def _first_unique(keys, limit):
    """Positions of the first occurrence of each key, in draw order, at most `limit`."""
    _, first = np.unique(keys, return_index=True)
    return np.sort(first)[:limit]


def _ratings(rng, spec):
    cluster = np.sort(np.arange(spec.n) % spec.clusters)
    scores = rng.integers(1, 6, size=(spec.m, spec.clusters)).astype(float)
    nnz = int(round(spec.density * spec.n * spec.m))
    flat = rng.integers(0, spec.n * spec.m, size=nnz + nnz // 4 + 64)
    keep = _first_unique(flat, nnz)
    if len(keep) < nnz:
        raise ValueError("rating draw too dense for this spec")
    flat = flat[keep]
    users, items = flat // spec.m, flat % spec.m
    noise = rng.normal(0.0, spec.noise, size=nnz)
    values = np.clip(np.rint(scores[items, cluster[users]] + noise), 1.0, 5.0)
    return cluster, users, items, values


def _cluster_partner(rng, cluster, spec, src, same):
    """A uniform partner of each source inside (same=True) or outside its cluster."""
    size = spec.n // spec.clusters
    if same:
        target_cluster = cluster[src]
    else:
        target_cluster = (cluster[src] + rng.integers(1, spec.clusters, size=len(src))) % spec.clusters
    return target_cluster * size + rng.integers(0, size, size=len(src))


def _planted_edges(rng, cluster, spec):
    edges = []
    for count, same in ((spec.trust_edges, True), (spec.distrust_edges, False)):
        draw = count + count // 2 + 64
        src = rng.integers(0, spec.n, size=draw)
        dst = _cluster_partner(rng, cluster, spec, src, same)
        ok = np.flatnonzero(src != dst)
        src, dst = src[ok], dst[ok]
        keep = _first_unique(src * spec.n + dst, count)
        if len(keep) < count:
            raise ValueError("edge draw too dense for this spec")
        edges.append((src[keep], dst[keep]))
    (ts, td), (ds, dd) = edges
    src = np.concatenate([ts, ds])
    dst = np.concatenate([td, dd])
    sign = np.concatenate([np.ones(len(ts), np.int64), -np.ones(len(ds), np.int64)])
    return src, dst, sign


def _zipf_degrees(rng, spec):
    """Capped Zipf out-degrees from stratified quantiles, dealt to users at random.

    Stratifying keeps the degree multiset, and with it the triplet count,
    nearly the same from seed to seed; only who gets which degree changes.
    """
    k = np.arange(1, spec.degree_cap, dtype=np.float64)
    zeta = np.sum(np.arange(1, 1_000_000, dtype=np.float64) ** -spec.zipf_a)
    cdf = np.cumsum(k ** -spec.zipf_a) / zeta
    quantiles = (np.arange(spec.n) + rng.random(spec.n)) / spec.n
    degree = np.searchsorted(cdf, quantiles, side="right") + 1
    return rng.permutation(degree)


def _hub_edges(rng, spec):
    degree = _zipf_degrees(rng, spec)
    src = np.repeat(np.arange(spec.n), degree)
    dst = rng.integers(0, spec.n - 1, size=len(src))
    dst += dst >= src  # never a self-edge
    keep = _first_unique(src * spec.n + dst, len(src))
    src, dst = src[keep], dst[keep]
    sign = np.where(rng.random(len(src)) < 0.5, 1, -1)
    return src, dst, sign


def generate(spec: InputSpec, seed: int):
    """(users, items, values, src, dst, sign) arrays for one seed."""
    if spec.n % spec.clusters:
        raise ValueError("the user count must be a multiple of the cluster count")
    rng = np.random.default_rng([seed, spec.n, spec.m])
    cluster, users, items, values = _ratings(rng, spec)
    if spec.zipf_a:
        src, dst, sign = _hub_edges(rng, spec)
    else:
        src, dst, sign = _planted_edges(rng, cluster, spec)
    return users, items, values, src, dst, sign


def _write_lines(path, columns, fmt):
    body = "\n".join(fmt % row for row in zip(*columns))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(body + "\n")


def write_inputs(spec: InputSpec, seed: int, out_dir) -> dict:
    """Write ratings.tsv and social.tsv into out_dir; return their counts and sha256."""
    users, items, values, src, dst, sign = generate(spec, seed)
    ratings_path = out_dir / "ratings.tsv"
    social_path = out_dir / "social.tsv"
    _write_lines(ratings_path, (users.tolist(), items.tolist(), values.astype(int).tolist()),
                 "u%d\ti%d\t%d")
    _write_lines(social_path, (src.tolist(), dst.tolist(), sign.tolist()), "u%d\tu%d\t%d")
    return {
        "ratings": int(len(users)),
        "trust_edges": int((sign > 0).sum()),
        "distrust_edges": int((sign < 0).sum()),
        "sha256": {p.name: file_digest(p) for p in (ratings_path, social_path)},
    }


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
