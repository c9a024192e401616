"""Experiment protocols: splits, grid search, social/rating consistency,
majority-vote relation prediction, distrust trade-off sweeps, and a seeded
synthetic generator that makes every protocol runnable at desk scale."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import (
    Hyperparams,
    SocialGraph,
    SparseRatings,
    TripletStore,
    _ranges,
    extract_triplets,
)
from .metrics import (
    RankedList,
    average_precision,
    evaluate_model,
    ndcg_at_k,
    precision_recall_at_k,
)
from .neighborhood import build_similarity_cache
from .optimize import fit_gd, fit_sgd
from .seeding import substream

DEFAULT_BIN_EDGES = (0, 20, 40, 60, 80)


def worker_count() -> int:
    """Parallelism cap from TRUSTFACTOR_THREADS (0 = auto, unset = serial)."""
    raw = os.environ.get("TRUSTFACTOR_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        return 1
    if value == 0:
        return os.cpu_count() or 1
    return max(1, value)


def _map_tasks(fn, args_list):
    """Run fn over args in order; results are position-stable regardless of
    the worker count, so outputs stay deterministic."""
    threads = worker_count()
    if threads <= 1 or len(args_list) <= 1:
        return [fn(*args) for args in args_list]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda args: fn(*args), args_list))


# ---------------------------------------------------------------------------
# splits


@dataclass(frozen=True)
class SplitSpec:
    fraction: float = 0.9
    seed: int = 0
    repetitions: int = 5

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("train fraction must lie strictly between 0 and 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")


def split_ratings(ratings: SparseRatings, spec: SplitSpec, repetition: int = 0):
    """Uniform random partition of the observed entries into (train, test).

    The train side gets floor(fraction * nnz) entries; the social graph is
    untouched by splitting.
    """
    rng = substream(spec.seed, f"split:{repetition}")
    n_train = int(spec.fraction * ratings.nnz)
    if n_train == 0 or n_train == ratings.nnz:
        raise ValueError(
            f"fraction {spec.fraction} leaves an empty side for {ratings.nnz} ratings")
    perm = rng.permutation(ratings.nnz)
    return ratings.subset(np.sort(perm[:n_train])), ratings.subset(np.sort(perm[n_train:]))


def cold_start_split(ratings: SparseRatings, user_fraction: float, seed: int = 0,
                     repetition: int = 0):
    """Move every rating of a sampled user subset to the test side.

    Returns (train, test, cold_users). Cold users keep their social edges;
    that is the side information meant to rescue them.
    """
    if not 0.0 < user_fraction < 1.0:
        raise ValueError("cold-start user fraction must lie strictly between 0 and 1")
    rng = substream(seed, f"coldstart:{repetition}")
    n_cold = int(user_fraction * ratings.n)
    cold = np.sort(rng.permutation(ratings.n)[:n_cold])
    cold_set = set(cold.tolist())
    is_cold = np.isin(ratings.users, cold)
    train = ratings.subset(np.flatnonzero(~is_cold))
    test = ratings.subset(np.flatnonzero(is_cold))
    return train, test, cold_set


# ---------------------------------------------------------------------------
# model fitting helpers


def fit_method(train: SparseRatings, store: TripletStore | None, hp: Hyperparams,
               optimizer: str = "gd", validation: SparseRatings | None = None,
               seed: int = 0, patience: int | None = None, eval_every: int = 1):
    if optimizer == "gd":
        return fit_gd(train, store, hp, validation, seed=seed,
                      patience=patience, eval_every=eval_every)
    if optimizer == "sgd":
        return fit_sgd(train, store, hp, validation, seed=seed,
                       patience=patience, eval_every=eval_every)
    raise ValueError(f"unknown optimizer {optimizer!r}")


# ---------------------------------------------------------------------------
# grid search


@dataclass
class GridResult:
    param_names: tuple
    rows: list              # (value_a, value_b, validation_rmse)
    best: tuple             # (value_a, value_b, validation_rmse)


def grid_search(train: SparseRatings, validation: SparseRatings,
                store: TripletStore | None, hp: Hyperparams,
                second_param: str, lambda_s_values, second_values,
                optimizer: str = "gd", seed: int = 0) -> GridResult:
    """Sweep (lambda_s x second_param), fit each point, score validation RMSE.

    second_param is "lambda_v" or "lambda_u". Diverged fits score +inf and
    never abort the sweep. Ties break toward smaller lambda_s, then the
    smaller second value.
    """
    if second_param not in ("lambda_v", "lambda_u"):
        raise ValueError("second_param must be lambda_v or lambda_u")
    points = [(float(a), float(b)) for a in lambda_s_values for b in second_values]
    if not points:
        raise ValueError("empty grid")

    def run_point(ls, second):
        point_hp = hp.replace(lambda_s=ls, **{second_param: second})
        model, report = fit_method(train, store, point_hp, optimizer, seed=seed)
        if report.stop_reason == "divergence":
            return ls, second, float("inf")
        try:
            _, val_rmse = evaluate_model(model, validation, point_hp.clamp_predictions)
        except ValueError:
            return ls, second, float("inf")
        return ls, second, val_rmse

    rows = _map_tasks(run_point, points)
    best = min(rows, key=lambda r: (r[2], r[0], r[1]))
    return GridResult(("lambda_s", second_param), rows, best)


# ---------------------------------------------------------------------------
# consistency of social relations and rating information


def _bin_label(count, edges):
    for lo, hi in zip(edges, edges[1:]):
        if lo <= count < hi:
            return f"[{lo},{hi})"
    return f">={edges[-1]}"


@dataclass
class ConsistencyResult:
    relation: str
    bins: dict  # label -> dict of metric name -> value, plus user count


def consistency_eval(ratings: SparseRatings, graph: SocialGraph, relation: str = "trust",
                     bin_edges=DEFAULT_BIN_EDGES) -> ConsistencyResult:
    """Rank each user's co-raters by rating similarity and score how well the
    ranking recovers the explicit trust (or distrust) list.

    Candidates are users sharing at least one co-rated item, ordered by
    Pearson similarity, descending for trust and ascending for distrust.
    Equal-similarity runs are ordered relevant-first (the optimistic ordering,
    needed because bivalent relations admit no intrinsic order). Users without
    any relevant candidate are skipped. Metrics are averaged within
    rating-count bins.
    """
    if relation not in ("trust", "distrust"):
        raise ValueError("relation must be 'trust' or 'distrust'")
    edges = graph.trust_edge_array if relation == "trust" else graph.distrust_edge_array
    sims = build_similarity_cache(ratings, min_co=1)
    # every co-rated pair in both directions; an undefined similarity reads 0
    a, b = sims.pairs.T
    base = max(ratings.n, graph.n)
    keys = edges[:, 0] * base + edges[:, 1]
    relevant = np.concatenate((np.isin(a * base + b, keys), np.isin(b * base + a, keys)))
    similarity = np.tile((-1.0 if relation == "trust" else 1.0) * np.nan_to_num(sims.pcc), 2)
    users, candidates = np.concatenate((a, b)), np.concatenate((b, a))
    del sims, a, b
    relevant = relevant[np.lexsort((candidates, ~relevant, similarity, users))]
    bounds = np.cumsum(np.bincount(users, minlength=ratings.n))[:-1]
    per_bin = {}
    for u, segment in enumerate(np.split(relevant, bounds)):
        flags = RankedList(segment.tolist())
        if flags.total_relevant == 0:
            continue
        row = {
            "ndcg@10": ndcg_at_k(flags, 10),
            "ndcg@20": ndcg_at_k(flags, 20),
            "recall@10": precision_recall_at_k(flags, 10)[1],
            "recall@20": precision_recall_at_k(flags, 20)[1],
            "recall@40": precision_recall_at_k(flags, 40)[1],
            "ap": average_precision(flags),
        }
        label = _bin_label(int(ratings.user_counts[u]), bin_edges)
        per_bin.setdefault(label, []).append(row)
    bins = {}
    for label, rows in per_bin.items():
        agg = {key: sum(r[key] for r in rows) / len(rows) for key in rows[0]}
        agg["map"] = agg.pop("ap")
        agg["users"] = len(rows)
        bins[label] = agg
    return ConsistencyResult(relation, bins)


# ---------------------------------------------------------------------------
# majority-vote relation prediction


@dataclass
class VoteRecord:
    source: int
    target: int
    actual: int
    n_plus: int
    n_minus: int
    predicted: int       # +1, -1, or 0 for abstain
    aligned: bool | None  # None when abstaining


@dataclass
class MajorityVoteResult:
    rows: list           # (setting, relation type, share pct, vote alignment pct or None)
    records: list
    n_heldout: int
    accuracy: float | None  # majority-prediction accuracy over non-abstentions


def majority_vote_eval(graph: SocialGraph, holdout_fraction: float = 0.3,
                       seed: int = 0) -> MajorityVoteResult:
    """Hold out a fraction of signed edges, then predict each held-out edge's
    sign from the votes of the source's trusted neighbors in the training
    graph (v trusts w counts for +, v distrusts w counts for -).

    Prediction follows the strict majority; ties (including no votes) abstain.
    Each table row carries the cell's share of held-out edges and the mean
    fraction of votes agreeing with the true sign; the tie row has no
    alignment value.
    """
    trust, distrust = graph.trust_edge_array, graph.distrust_edge_array
    edges = np.concatenate((trust, distrust))
    if not len(edges):
        raise ValueError("empty social graph")
    rng = substream(seed, "vote")
    n_hold = int(round(holdout_fraction * len(edges)))
    n_hold = min(max(n_hold, 1), len(edges) - 1) if len(edges) > 1 else 1
    held = np.sort(rng.permutation(len(edges))[:n_hold])
    kept = ~np.isin(np.arange(len(edges)), held)
    train = SocialGraph.from_edges(graph.n, trust[kept[:len(trust)]], distrust[kept[len(trust):]])

    # each held-out (u, w) asks every v that u trusts in training about w
    u, w = edges[held].T
    offsets = train.trust_offsets
    reps = offsets[u + 1] - offsets[u]
    asked = train.trust_targets[_ranges(offsets[u], reps)] * graph.n + np.repeat(w, reps)
    voter_of = np.repeat(np.arange(n_hold), reps)
    n_plus, n_minus = (
        np.bincount(voter_of[np.isin(asked, e[:, 0] * graph.n + e[:, 1])], minlength=n_hold)
        for e in (train.trust_edge_array, train.distrust_edge_array))
    actual = np.where(held < len(trust), 1, -1)
    predicted = np.sign(n_plus - n_minus)
    records = [VoteRecord(source, target, sign, plus, minus, vote, (vote == sign) if vote else None)
               for (source, target), sign, plus, minus, vote in zip(
                   edges[held].tolist(), actual.tolist(), n_plus.tolist(), n_minus.tolist(),
                   predicted.tolist())]

    rows = []
    for setting, side in (("n+>n-", predicted > 0), ("n+<n-", predicted < 0)):
        for sign in (1, -1):
            cell = side & (actual == sign)
            agreeing = (n_plus if sign > 0 else n_minus)[cell] / (n_plus + n_minus)[cell]
            alignment = 100.0 * sum(agreeing.tolist()) / len(agreeing) if len(agreeing) else None
            rows.append((setting, "+" if sign > 0 else "-", 100.0 * int(cell.sum()) / n_hold,
                         alignment))
    rows.append(("n+=n-", "any", 100.0 * int(np.sum(predicted == 0)) / n_hold, None))
    decided = int(np.sum(predicted != 0))
    accuracy = int(np.sum(predicted == actual)) / decided if decided else None
    return MajorityVoteResult(rows, records, n_hold, accuracy)


# ---------------------------------------------------------------------------
# trading trust for distrust


@dataclass
class TradeoffResult:
    rows: list  # (method, trust fraction, distrust fraction, mae, rmse)


def distrust_tradeoff_run(ratings: SparseRatings, graph: SocialGraph, hp: Hyperparams,
                          trust_keep: float = 0.9,
                          distrust_fractions=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
                          train_fraction: float = 0.9, optimizer: str = "gd",
                          seed: int = 0) -> TradeoffResult:
    """Fix a trust subsample, sweep growing distrust subsets, and fit the
    margin model at each point against a fixed train/test split. The full
    trust graph under the trust-pull model is fitted once as the reference
    row. Distrust subsets are nested so the sweep isolates the added edges.
    """
    train, test = split_ratings(ratings, SplitSpec(train_fraction, seed, 1))
    trust_edges, distrust_edges = graph.trust_edge_array, graph.distrust_edge_array
    trust_order = substream(seed, "sweep:trust").permutation(len(trust_edges))
    kept_trust = trust_edges[np.sort(trust_order[:int(round(trust_keep * len(trust_edges)))])]
    distrust_order = substream(seed, "sweep:distrust").permutation(len(distrust_edges))

    rows = []

    def run_fraction(fraction):
        count = int(round(fraction * len(distrust_edges)))
        kept = distrust_edges[np.sort(distrust_order[:count])]
        sub = SocialGraph.from_edges(graph.n, kept_trust, kept)
        store = extract_triplets(sub)
        point_hp = hp.replace(social="triplet-margin")
        model, _ = fit_method(train, store, point_hp, optimizer, seed=seed)
        m, r = evaluate_model(model, test, point_hp.clamp_predictions)
        return ("mf-td", trust_keep, float(fraction), m, r)

    rows.extend(_map_tasks(run_fraction, [(f,) for f in distrust_fractions]))

    full_trust = SocialGraph.from_edges(graph.n, trust_edges, [])
    ref_hp = hp.replace(social="trust-pull")
    ref_store = extract_triplets(full_trust)
    ref_model, _ = fit_method(train, ref_store, ref_hp, optimizer, seed=seed)
    m, r = evaluate_model(ref_model, test, ref_hp.clamp_predictions)
    rows.append(("mf-t", 1.0, 0.0, m, r))
    return TradeoffResult(rows)


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-factor generator settings.

    Users fall into `clusters` equal groups; the planted user factors are the
    one-hot cluster indicators (requires rank >= clusters), item factors are
    integers in [item_low, item_high], so noiseless ratings are integral and
    rounding is essentially lossless. Trust edges connect users within a
    cluster, distrust edges cross clusters.

    `light_user_fraction` > 0 skews observations across users while keeping
    the overall density: that fraction of users rates at `light_density_scale`
    times the base density and the rest absorb the remainder. Lightly rating
    users are the ones social side information has to rescue.
    """

    n: int
    m: int
    rank: int
    clusters: int
    density: float
    noise_sigma: float
    n_trust: int
    n_distrust: int
    seed: int = 0
    r_min: float = 1.0
    r_max: float = 5.0
    item_low: int = 1
    item_high: int = 5
    light_user_fraction: float = 0.0
    light_density_scale: float = 1.0

    def __post_init__(self):
        if self.rank < self.clusters:
            raise ValueError("rank must be at least the cluster count")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        if self.clusters < 1 or self.n < self.clusters:
            raise ValueError("need at least one user per cluster")
        if self.item_low > self.item_high:
            raise ValueError("item_low must not exceed item_high")
        if not 0.0 <= self.light_user_fraction < 1.0:
            raise ValueError("light_user_fraction must lie in [0, 1)")
        if not 0.0 <= self.light_density_scale <= 1.0:
            raise ValueError("light_density_scale must lie in [0, 1]")
        if self.light_user_fraction > 0:
            heavy = self._heavy_scale()
            if heavy * self.density > 1.0:
                raise ValueError("heavy-user density exceeds 1; lower the skew")

    def _heavy_scale(self) -> float:
        f = self.light_user_fraction
        return (1.0 - f * self.light_density_scale) / (1.0 - f)


def _locate(index, block_sizes):
    """Block of each position in the concatenation of blocks of the given
    sizes, and the position's offset inside its block."""
    ends = np.cumsum(block_sizes)
    block = np.searchsorted(ends, index, side="right")
    return block, index - ends[block] + block_sizes[block]


def synth_generate(spec: SyntheticSpec):
    """Seeded synthetic instance: (ratings, graph, (U_star, V_star)).

    Ratings are clamp(round(U* V*^T + noise)) sampled at the observation
    density. Every trust edge is intra-cluster and every distrust edge is
    inter-cluster, so the social structure genuinely reflects latent
    similarity.
    """
    rng = substream(spec.seed, "synth")
    assignment = np.sort(np.arange(spec.n) % spec.clusters)
    u_star = np.zeros((spec.n, spec.rank))
    u_star[np.arange(spec.n), assignment] = 1.0
    v_star = rng.integers(spec.item_low, spec.item_high + 1, size=(spec.m, spec.rank)).astype(float)

    per_user = np.full(spec.n, spec.density)
    if spec.light_user_fraction > 0:
        n_light = int(spec.light_user_fraction * spec.n)
        light = rng.permutation(spec.n)[:n_light]
        per_user *= spec._heavy_scale()
        per_user[light] = spec.density * spec.light_density_scale
    mask = rng.random((spec.n, spec.m)) < per_user[:, None]
    users, items = np.nonzero(mask)
    noise = rng.normal(0.0, spec.noise_sigma, size=len(users)) if spec.noise_sigma > 0 else 0.0
    # the planted rating U*[u] . V*[i] is V*[i, cluster of u], as U* rows are one-hot
    values = np.clip(np.rint(v_star[items, assignment[users]] + noise), spec.r_min, spec.r_max)
    ratings = SparseRatings(spec.n, spec.m, users, items, values, spec.r_min, spec.r_max)

    # Candidate pairs are numbered in enumeration order without being listed:
    # intra-cluster (c, a, b != a) and inter-cluster (ca, cb != ca, a, b), with
    # a, b member positions inside the contiguous cluster blocks.
    sizes = np.bincount(assignment, minlength=spec.clusters)
    starts = np.cumsum(sizes) - sizes
    ca, cb = np.nonzero(~np.eye(spec.clusters, dtype=bool))
    n_intra, n_inter = int(np.sum(sizes * (sizes - 1))), int(np.sum(sizes[ca] * sizes[cb]))
    if spec.n_trust > n_intra:
        raise ValueError(f"cannot place {spec.n_trust} trust edges; only {n_intra} intra-cluster pairs")
    if spec.n_distrust > n_inter:
        raise ValueError(f"cannot place {spec.n_distrust} distrust edges; only {n_inter} inter-cluster pairs")
    trust_idx = rng.choice(n_intra, size=spec.n_trust, replace=False)
    distrust_idx = rng.choice(n_inter, size=spec.n_distrust, replace=False)
    c, local = _locate(np.sort(trust_idx), sizes * (sizes - 1))
    a, b = np.divmod(local, sizes[c] - 1)
    trust_edges = np.column_stack((starts[c] + a, starts[c] + b + (b >= a)))  # b skips a
    block, local = _locate(np.sort(distrust_idx), sizes[ca] * sizes[cb])
    a, b = np.divmod(local, sizes[cb[block]])
    distrust_edges = np.column_stack((starts[ca[block]] + a, starts[cb[block]] + b))
    graph = SocialGraph.from_edges(spec.n, trust_edges, distrust_edges)
    return ratings, graph, (u_star, v_star)
