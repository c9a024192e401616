"""Experiment protocols: splits, grid search, social/rating consistency,
majority-vote relation prediction, distrust trade-off sweeps, and a seeded
synthetic generator that makes every protocol runnable at desk scale."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Hyperparams, SocialGraph, SparseRatings, TripletStore, lazy_triplets
from .keys import member, ranges
from .metrics import evaluate_model, left_sum
from .neighborhood import relevant_ranks
from .optimize import STOP_DIVERGENCE, fit_gd, fit_sgd
from .seeding import substream

DEFAULT_BIN_EDGES = (0, 20, 40, 60, 80)


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

    Returns (train, test, cold_users), the cold users a sorted array. Cold users
    keep their social edges; that is the side information meant to rescue them.
    """
    if not 0.0 < user_fraction < 1.0:
        raise ValueError("cold-start user fraction must lie strictly between 0 and 1")
    rng = substream(seed, f"coldstart:{repetition}")
    n_cold = int(user_fraction * ratings.n)
    cold = np.sort(rng.permutation(ratings.n)[:n_cold])
    is_cold = member(cold, ratings.users)
    train = ratings.subset(np.flatnonzero(~is_cold))
    test = ratings.subset(np.flatnonzero(is_cold))
    return train, test, cold


# ---------------------------------------------------------------------------
# fitting and scoring


def fit_and_score(train: SparseRatings, scored: SparseRatings, store: TripletStore | None,
                  hp: Hyperparams, optimizer: str = "gd", seed: int = 0,
                  patience: int | None = None, validation: SparseRatings | None = None):
    """(model, report, (MAE, RMSE)): a fit_gd or fit_sgd fit on `train`, scored
    on `scored`. Its records and early stopping read `validation`, or with
    `patience` and no `validation` a tenth of `train` held out from the fit. A
    diverged fit scores (inf, inf): its last finite model is not the fitted point."""
    fit = {"gd": fit_gd, "sgd": fit_sgd}.get(optimizer)
    if fit is None:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    if patience is not None and validation is None:
        train, validation = split_ratings(train, SplitSpec(0.9, seed + 1, 1))
    model, report = fit(train, store, hp, validation, seed=seed, patience=patience)
    if report.stop_reason == STOP_DIVERGENCE:
        return model, report, (math.inf, math.inf)
    return model, report, evaluate_model(model, scored, hp.clamp_predictions)


# ---------------------------------------------------------------------------
# grid search


@dataclass
class GridResult:
    rows: list              # (value_a, value_b, validation_rmse)
    best: tuple | None      # (value_a, value_b, validation_rmse); None if every fit diverged
    reports: list           # the FitReport of each row's fit


def grid_search(train: SparseRatings, validation: SparseRatings,
                store: TripletStore | None, hp: Hyperparams,
                second_param: str, lambda_s_values, second_values,
                optimizer: str = "gd", seed: int = 0) -> GridResult:
    """Sweep (lambda_s x second_param), fit each point, score validation RMSE.

    second_param is "lambda_v" or "lambda_u". Diverged fits score +inf and
    never abort the sweep, and no best point is named when every fit diverged;
    an empty validation set is refused before any fit. Ties break toward
    smaller lambda_s, then the smaller second value.
    """
    if second_param not in ("lambda_v", "lambda_u"):
        raise ValueError("second_param must be lambda_v or lambda_u")
    points = [(float(a), float(b)) for a in lambda_s_values for b in second_values]
    if not points:
        raise ValueError("empty grid")
    if not validation.nnz:
        raise ValueError("empty validation set")
    fits = [fit_and_score(train, validation, store,
                          hp.replace(lambda_s=ls, **{second_param: second}), optimizer, seed)[1:]
            for ls, second in points]
    rows = [(ls, second, scores[1]) for (ls, second), (_, scores) in zip(points, fits)]
    finite = [row for row in rows if row[2] < math.inf]
    best = min(finite, key=lambda r: (r[2], r[0], r[1])) if finite else None
    return GridResult(rows, best, [report for report, _ in fits])


# ---------------------------------------------------------------------------
# consistency of social relations and rating information


def consistency_eval(ratings: SparseRatings, graph: SocialGraph, relation: str = "trust",
                     bin_edges=DEFAULT_BIN_EDGES) -> dict:
    """Rank each user's co-raters by rating similarity and score how well the
    ranking recovers the explicit trust (or distrust) list: a dict of bin
    label -> {metric name -> mean, "users" -> user count}, the metrics being
    ndcg@10, ndcg@20, recall@10, recall@20, recall@40 and map.

    Candidates are users sharing at least one co-rated item, ordered by
    Pearson similarity, descending for trust and ascending for distrust; an
    undefined similarity reads 0. Equal-similarity runs are ordered
    relevant-first, then by candidate index (the optimistic ordering, needed
    because bivalent relations admit no intrinsic order). Users without any
    relevant candidate are skipped. Metrics are averaged within rating-count
    bins of the ascending bin_edges, which keep the order in which ascending
    users first fill them. Each metric is read off the relevant candidates'
    ranks, summed in rank order and averaged in user order, as RankedList's are.
    """
    if relation not in ("trust", "distrust"):
        raise ValueError("relation must be 'trust' or 'distrust'")
    edges = graph.trust_edge_array if relation == "trust" else graph.distrust_edge_array
    user, rank = relevant_ranks(ratings, edges, -1.0 if relation == "trust" else 1.0)
    scored, first, total = np.unique(user, return_index=True, return_counts=True)
    owner = np.repeat(np.arange(len(scored)), total)  # index of each rank's user
    hits = np.arange(1, len(user) + 1) - first[owner]
    discount = [1.0 / math.log(i + 2) for i in range(20)]
    ideal = np.cumsum([0.0, *discount])  # a left fold, as ndcg_at_k sums it

    def within(k):
        return np.bincount(owner[rank <= k], minlength=len(scored))

    def ndcg(k):
        gains = np.where(rank <= k, np.array(discount)[np.minimum(rank, k) - 1], 0.0)
        return np.bincount(owner, gains, len(scored)) / ideal[np.minimum(total, k)]

    per_user = {"ndcg@10": ndcg(10), "ndcg@20": ndcg(20), "recall@10": within(10) / total,
                "recall@20": within(20) / total, "recall@40": within(40) / total,
                "map": np.bincount(owner, hits / rank) / total}
    # [lo,hi) of the last edge lo <= count, else >=last, where counts below the first edge go too
    bins = np.array([*map("[{},{})".format, bin_edges, bin_edges[1:]), f">={bin_edges[-1]}"])
    labels = bins[np.searchsorted(bin_edges, ratings.user_counts[scored], "right") - 1]
    names, seen, label = np.unique(labels, return_index=True, return_inverse=True)
    size = np.bincount(label)
    means = {key: (np.bincount(label, value) / size).tolist() for key, value in per_user.items()}
    return {str(names[b]): {**{key: mean[b] for key, mean in means.items()}, "users": int(size[b])}
            for b in np.argsort(seen).tolist()}


# ---------------------------------------------------------------------------
# majority-vote relation prediction


@dataclass
class MajorityVoteResult:
    rows: list           # (setting, relation type, share pct, vote alignment pct or None)
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
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout fraction must lie strictly between 0 and 1")
    trust, distrust = graph.trust_edge_array, graph.distrust_edge_array
    edges = np.concatenate((trust, distrust))
    if not len(edges):
        raise ValueError("empty social graph")
    rng = substream(seed, "vote")
    n_hold = int(round(holdout_fraction * len(edges)))
    n_hold = min(max(n_hold, 1), len(edges) - 1) if len(edges) > 1 else 1
    held = np.sort(rng.permutation(len(edges))[:n_hold])
    kept = ~member(held, np.arange(len(edges)))
    train = SocialGraph.from_edges(graph.n, trust[kept[:len(trust)]], distrust[kept[len(trust):]])

    # each held-out (u, w) asks every v that u trusts in training about w
    u, w = edges[held].T
    offsets = train.trust_offsets
    reps = offsets[u + 1] - offsets[u]
    asked = train.trust_targets[ranges(offsets[u], reps)] * graph.n + np.repeat(w, reps)
    voter_of = np.repeat(np.arange(n_hold), reps)
    n_plus, n_minus = (
        np.bincount(voter_of[member(np.sort(e[:, 0] * graph.n + e[:, 1]), asked)], minlength=n_hold)
        for e in (train.trust_edge_array, train.distrust_edge_array))
    actual = np.where(held < len(trust), 1, -1)
    predicted = np.sign(n_plus - n_minus)
    rows = []
    for setting, side in (("n+>n-", predicted > 0), ("n+<n-", predicted < 0)):
        for sign in (1, -1):
            cell = side & (actual == sign)
            agreeing = (n_plus if sign > 0 else n_minus)[cell] / (n_plus + n_minus)[cell]
            alignment = (100.0 * left_sum(agreeing.tolist()) / len(agreeing) if len(agreeing)
                         else None)
            rows.append((setting, "+" if sign > 0 else "-", 100.0 * int(cell.sum()) / n_hold,
                         alignment))
    rows.append(("n+=n-", "any", 100.0 * int(np.sum(predicted == 0)) / n_hold, None))
    decided = int(np.sum(predicted != 0))
    accuracy = int(np.sum(predicted == actual)) / decided if decided else None
    return MajorityVoteResult(rows, n_hold, accuracy)


# ---------------------------------------------------------------------------
# trading trust for distrust


@dataclass
class TradeoffResult:
    rows: list  # (method, trust fraction, distrust fraction, mae, rmse)
    reports: list  # the FitReport of each row's fit


def distrust_tradeoff_run(ratings: SparseRatings, graph: SocialGraph, hp: Hyperparams,
                          trust_keep: float = 0.9,
                          distrust_fractions=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
                          train_fraction: float = 0.9, optimizer: str = "gd",
                          seed: int = 0) -> TradeoffResult:
    """Fix a trust subsample, sweep growing distrust subsets, and fit the
    margin model at each point against a fixed train/test split. The full
    trust graph under the trust-pull model is fitted as the reference row.
    Distrust subsets are nested so the sweep isolates the added edges. Every
    fraction must lie in [0, 1], and no two may keep the same edge count.
    """
    fractions = list(distrust_fractions)
    bad = [f for f in (trust_keep, *fractions) if not 0.0 <= f <= 1.0]
    if bad:
        raise ValueError(f"trust_keep and distrust fractions must lie in [0, 1], got {bad[0]}")
    trust_edges, distrust_edges = graph.trust_edge_array, graph.distrust_edge_array
    counts = {}
    for f in fractions:
        count = int(round(f * len(distrust_edges)))
        if count in counts:
            raise ValueError(f"distrust fractions {counts[count]} and {f} both keep {count} of "
                             f"the {len(distrust_edges)} distrust edges")
        counts[count] = f
    train, test = split_ratings(ratings, SplitSpec(train_fraction, seed, 1))
    trust_order = substream(seed, "sweep:trust").permutation(len(trust_edges))
    kept_trust = trust_edges[np.sort(trust_order[:int(round(trust_keep * len(trust_edges)))])]
    distrust_order = substream(seed, "sweep:distrust").permutation(len(distrust_edges))

    def run(trust, distrust_count, social):
        distrust = distrust_edges[np.sort(distrust_order[:distrust_count])]
        store = lazy_triplets(SocialGraph.from_edges(graph.n, trust, distrust))
        return fit_and_score(train, test, store, hp.replace(social=social), optimizer, seed)[1:]

    fits = [run(kept_trust, count, "triplet-margin") for count in counts]
    fits.append(run(trust_edges, 0, "trust-pull"))
    labels = [("mf-td", trust_keep, float(f)) for f in fractions] + [("mf-t", 1.0, 0.0)]
    return TradeoffResult([(*label, *scores) for label, (_, scores) in zip(labels, fits)],
                          [report for report, _ in fits])


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
        for name, low in (("m", 1), ("n_trust", 0), ("n_distrust", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not self.noise_sigma >= 0.0:  # a NaN fails the comparison too
            raise ValueError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
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
    # drawn in blocks of about 2**20 cells: the doubles of one (n, m) draw, in order
    step = max(1, 2**20 // max(spec.m, 1))
    cells = [np.nonzero(rng.random((len(p), spec.m)) < p[:, None])
             for p in np.split(per_user, range(step, spec.n, step))]
    users = np.concatenate([u + lo for lo, (u, _) in zip(range(0, spec.n, step), cells)])
    items = np.concatenate([i for _, i in cells])
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
