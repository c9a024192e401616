"""Core data model: sparse ratings, signed social graph, triplets, latent factors.

All containers are immutable after construction (numpy buffers are marked
read-only) except FactorModel, which is mutated by exactly one fit at a time.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, replace
from functools import cached_property

import numpy as np

from .keys import ranges, sort_by_key, stable_order
from .seeding import substream

MATERIALIZED = "materialized"
LAZY = "lazy"

LOSS_KINDS = ("hinge", "logistic")
SIGN_CONVENTIONS = ("figure1", "paper-literal")
SCHEDULES = ("constant", "inverse-sqrt")
SOCIAL_TERMS = ("none", "trust-pull", "distrust-push", "triplet-margin")


def _frozen_array(values, dtype):
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SparseRatings:
    """Partially observed user-item rating matrix in coordinate form.

    ``users[t], items[t], values[t]`` is the t-th observed entry. Indices are
    dense and 0-based; the mapping from external string ids lives in the io
    layer.
    """

    n: int
    m: int
    users: np.ndarray
    items: np.ndarray
    values: np.ndarray
    r_min: float = 1.0
    r_max: float = 5.0
    _distinct: InitVar[bool] = False  # the entries are known to be distinct pairs

    def __post_init__(self, _distinct):
        object.__setattr__(self, "users", _frozen_array(self.users, np.int64))
        object.__setattr__(self, "items", _frozen_array(self.items, np.int64))
        object.__setattr__(self, "values", _frozen_array(self.values, np.float64))
        if not (len(self.users) == len(self.items) == len(self.values)):
            raise ValueError("users, items, values must have equal length")
        if self.r_min >= self.r_max:
            raise ValueError("r_min must be smaller than r_max")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("ratings must be finite numbers")
        if self.nnz:
            if self.users.min() < 0 or self.users.max() >= self.n:
                raise ValueError("user index out of range")
            if self.items.min() < 0 or self.items.max() >= self.m:
                raise ValueError("item index out of range")
            keys = None if _distinct else np.sort(self.users * self.m + self.items)
            if keys is not None and np.any(keys[1:] == keys[:-1]):
                raise ValueError("duplicate (user, item) pair")
            lo, hi = self.values.min(), self.values.max()
            if lo < self.r_min or hi > self.r_max:
                raise ValueError(
                    f"rating outside [{self.r_min}, {self.r_max}]: saw [{lo}, {hi}]"
                )

    @classmethod
    def from_entries(cls, n, m, entries, r_min=1.0, r_max=5.0):
        """Build from an iterable of (user, item, rating) tuples."""
        entries = list(entries)
        users = [e[0] for e in entries]
        items = [e[1] for e in entries]
        values = [e[2] for e in entries]
        return cls(n, m, users, items, values, r_min, r_max)

    @property
    def nnz(self) -> int:
        return len(self.values)

    @cached_property
    def global_mean(self) -> float:
        return float(self.values.mean()) if self.nnz else 0.5 * (self.r_min + self.r_max)

    @cached_property
    def user_counts(self) -> np.ndarray:
        counts = np.bincount(self.users, minlength=self.n)
        counts.setflags(write=False)
        return counts

    @cached_property
    def user_means(self) -> np.ndarray:
        """Mean rating per user; users with no ratings get the global mean."""
        sums = np.bincount(self.users, weights=self.values, minlength=self.n)
        counts = self.user_counts
        means = np.where(counts > 0, sums / np.maximum(counts, 1), self.global_mean)
        means.setflags(write=False)
        return means

    @cached_property
    def folds(self) -> tuple:
        """(by user, by item): the entries' Fold for each side's sums."""
        return (_fold(self.users, self.items, self.n, self.values),
                _fold(self.items, self.users, self.m))

    @cached_property
    def by_item(self) -> tuple:
        """Item-major view (users, values, offsets): the entries sorted by (item,
        user) in one packed sort, item i's raters being users[offsets[i]:offsets[i + 1]]."""
        order = stable_order(self.items * self.n + self.users, self.m * self.n)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(self.items, minlength=self.m))))
        return (_frozen_array(self.users[order], np.int64),
                _frozen_array(self.values[order], np.float64), _frozen_array(offsets, np.int64))

    def subset(self, index: np.ndarray) -> "SparseRatings":
        """Ratings restricted to the given entry positions (same n, m); rising
        positions pick distinct entries, so only others are checked for repeats."""
        index = np.asarray(index, dtype=np.int64)
        return SparseRatings(
            self.n, self.m,
            self.users[index], self.items[index], self.values[index],
            self.r_min, self.r_max,
            _distinct=not len(index) or (index[0] >= 0 and bool(np.all(index[1:] > index[:-1]))),
        )


@dataclass(frozen=True, eq=False)
class Fold:
    """One side's entries in the order of a left fold by key: by their rank
    among their key's entries, in entry order, then by their key's place in
    `keys`, the keys with entries by count, descending. So rank r is one run
    with keys keys[:runs[r]], and sums[:runs[r]] += rows adds every key's r-th
    term. `runs` holds the runs of at least FOLD_MIN_ROWS entries, the ranks
    before the tail; `tail` holds the places of the tail entries' keys."""

    order: np.ndarray  # the entry positions, in fold order
    other: np.ndarray  # each entry's index on the other side, in fold order
    values: np.ndarray | None  # each entry's rating, in fold order (by-user side only)
    runs: tuple
    keys: np.ndarray
    tail: np.ndarray


def _fold(keys, other, bound, values=None) -> Fold:
    """The Fold of entries keyed in [0, bound): a position is a run start plus a place."""
    counts, size = np.bincount(keys, minlength=bound), len(keys)
    top = int(counts.max(initial=0))
    by_count = stable_order(top - counts, top + 1)[:np.count_nonzero(counts)]
    place = np.empty(bound, dtype=np.int64)
    place[by_count] = np.arange(len(by_count))
    sorted_keys, by_key = sort_by_key(keys, bound)
    rank = np.arange(size) - (np.cumsum(counts) - counts)[sorted_keys]
    runs = np.bincount(rank)
    order = np.empty(size, dtype=np.int64)
    order[(np.cumsum(runs) - runs)[rank] + place[sorted_keys]] = by_key
    folded = runs[runs >= FOLD_MIN_ROWS]
    index = np.int32 if max(size, bound) < 1 << 31 else np.int64
    return Fold(*(_frozen_array(a, index) for a in (order, other[order])),
                None if values is None else _frozen_array(values[order], np.float64),
                tuple(folded.tolist()), _frozen_array(by_count, index),
                _frozen_array(place[keys[order[folded.sum():]]], index))


@dataclass(frozen=True, eq=False)
class SocialGraph:
    """Signed directed graph over users in CSR form, one array pair per sign.

    User u trusts trust_targets[trust_offsets[u]:trust_offsets[u + 1]], and
    likewise for distrust. Each user's list keeps its construction order,
    which fixes the deterministic order of extracted triplets.
    """

    n: int
    trust_offsets: np.ndarray
    trust_targets: np.ndarray
    distrust_offsets: np.ndarray
    distrust_targets: np.ndarray
    _distinct: InitVar[bool] = False  # the edges are known distinct, each of one sign

    def __post_init__(self, _distinct):
        for sign in ("trust", "distrust"):
            offsets = _frozen_array(getattr(self, f"{sign}_offsets"), np.int64)
            targets = _frozen_array(getattr(self, f"{sign}_targets"), np.int64)
            object.__setattr__(self, f"{sign}_offsets", offsets)
            object.__setattr__(self, f"{sign}_targets", targets)
            if (len(offsets) != self.n + 1 or offsets[0] != 0
                    or offsets[-1] != len(targets) or np.any(np.diff(offsets) < 0)):
                raise ValueError(f"{sign} offsets must rise from 0 to {len(targets)} "
                                 f"in {self.n + 1} entries")
            u, v = getattr(self, f"{sign}_edge_array").T
            bad = np.flatnonzero((v < 0) | (v >= self.n))
            if len(bad):
                raise ValueError(f"{sign} edge ({u[bad[0]]}, {v[bad[0]]}): "
                                 f"neighbor index {v[bad[0]]} out of range")
            if np.any(u == v):
                raise ValueError(f"self-edge at user {u[u == v][0]}")
        if _distinct:  # the caller proved them distinct and of one sign each
            return
        keys = [edges[:, 0] * self.n + edges[:, 1]
                for edges in (self.trust_edge_array, self.distrust_edge_array)]
        # one stable sort puts a repeated pair's copies side by side, trust copies first
        key, order = sort_by_key(np.concatenate(keys), self.n * self.n)
        same = np.flatnonzero(key[1:] == key[:-1])
        first_trusts, second_trusts = order[same] < len(keys[0]), order[same + 1] < len(keys[0])
        for repeated in (second_trusts, ~first_trusts):  # trust, then distrust duplicates
            if repeated.any():
                raise ValueError(f"duplicate neighbor for user {key[same[repeated][0]] // self.n}")
        common = key[same]  # the rest: a trust copy beside a distrust copy
        if len(common):
            u = common[0] // self.n
            both_ways = set((common[common // self.n == u] % self.n).tolist())
            raise ValueError(f"user {u} both trusts and distrusts {both_ways}")

    @classmethod
    def from_edges(cls, n, trust_edges=(), distrust_edges=(), _distinct=False):
        """Build from (source, target) pair lists or (E, 2) arrays; each
        user's targets keep their input order (a stable order by source)."""
        signed = []
        for sign, edges in (("trust", trust_edges), ("distrust", distrust_edges)):
            edges = np.asarray(edges, dtype=np.int64)
            if edges.size == 0:
                edges = edges.reshape(0, 2)
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise ValueError(f"{sign} edges must be (source, target) pairs")
            bad = np.flatnonzero((edges[:, 0] < 0) | (edges[:, 0] >= n))
            if len(bad):
                u, v = edges[bad[0]]
                raise ValueError(f"{sign} edge ({u}, {v}): source index {u} out of range")
            signed.append(edges)
        trust, distrust = signed
        # each user's trust list, then each user's distrust list, targets in input order
        lists = np.concatenate((trust[:, 0], distrust[:, 0] + n))
        offsets = np.concatenate(([0], np.cumsum(np.bincount(lists, minlength=2 * n))))
        targets = np.concatenate((trust[:, 1], distrust[:, 1]))[stable_order(lists, 2 * n)]
        cut = len(trust)
        return cls(n, offsets[:n + 1], targets[:cut], offsets[n:] - cut, targets[cut:], _distinct)

    @cached_property
    def trust_edge_array(self) -> np.ndarray:
        """(E, 2) read-only array of directed trust edges in adjacency order."""
        return _edge_array(self.trust_offsets, self.trust_targets)

    @cached_property
    def distrust_edge_array(self) -> np.ndarray:
        return _edge_array(self.distrust_offsets, self.distrust_targets)

    @property
    def trust_count(self) -> int:
        return len(self.trust_targets)

    @property
    def distrust_count(self) -> int:
        return len(self.distrust_targets)

    @cached_property
    def trust_adj(self) -> tuple:
        """Per-user trusted lists as read-only slices of trust_targets."""
        return tuple(np.split(self.trust_targets, self.trust_offsets[1:])[:-1])

    @cached_property
    def distrust_adj(self) -> tuple:
        return tuple(np.split(self.distrust_targets, self.distrust_offsets[1:])[:-1])


def _edge_array(offsets, targets):
    sources = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    return _frozen_array(np.column_stack((sources, targets)), np.int64)


@dataclass(frozen=True, eq=False)
class TripletStore:
    """The social constraint set: (i, j, k) with i trusting j and distrusting k.

    The graph defines the set and `counts` holds c(u) = |N+(u)| * |N-(u)|;
    sampling and every fit read only those. Materialized mode also lists the
    set as the (total, 3) `triplets`, for inspection; lazy mode stores nothing.
    """

    mode: str
    graph: SocialGraph
    counts: np.ndarray
    total: int
    triplets: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in (MATERIALIZED, LAZY):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "counts", _frozen_array(self.counts, np.int64))
        if self.triplets is not None:
            object.__setattr__(self, "triplets", _frozen_array(self.triplets, np.int64))
        if int(self.counts.sum()) != self.total:
            raise ValueError("per-user counts do not sum to total")
        if self.mode == MATERIALIZED and len(self.triplets) != self.total:
            raise ValueError("materialized triplet count mismatch")

    @cached_property
    def ends(self) -> np.ndarray:
        """Read-only cumsum(counts): u's triplets are listed at [ends[u] - counts[u], ends[u])."""
        return _frozen_array(np.cumsum(self.counts), np.int64)


def extract_triplets(graph: SocialGraph) -> TripletStore:
    """Materialize every (i, j, k) with j in N+(i) and k in N-(i).

    Order is deterministic: i ascending, then j, then k in adjacency order;
    each trust edge (i, j) is repeated once per k in N-(i).
    """
    offsets = graph.distrust_offsets
    sources, targets = graph.trust_edge_array.T
    reps = np.diff(offsets)[sources]
    rows = np.column_stack((np.repeat(sources, reps), np.repeat(targets, reps),
                            graph.distrust_targets[ranges(offsets[sources], reps)]))
    counts = np.diff(graph.trust_offsets) * np.diff(offsets)
    return TripletStore(MATERIALIZED, graph, counts, len(rows), rows)


def lazy_triplets(graph: SocialGraph) -> TripletStore:
    """Constraint set in lazy mode: counts only, nothing listed."""
    counts = np.diff(graph.trust_offsets) * np.diff(graph.distrust_offsets)
    return TripletStore(LAZY, graph, counts, int(counts.sum()))


def sample_triplets(store: TripletStore, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw `size` triplets i.i.d. uniform over the constraint set.

    Each draw is an index t into the extract_triplets order, read off the
    graph: the user u whose count range holds t (the draws searched in
    sorted order in the cached store.ends), then t's offset within that
    range split by |N-(u)| into the positions of j in N+(u) and k in N-(u).
    The rows equal extract_triplets(store.graph).triplets[t] in either mode.
    """
    if store.total == 0:
        raise ValueError("no social constraints")
    t = rng.integers(0, store.total, size=size)
    ends = store.ends
    ordered, by_draw = sort_by_key(t, store.total)  # searched in sorted order, each near the last
    users = np.empty(size, dtype=np.int64)
    users[by_draw] = np.searchsorted(ends, ordered, side="right")
    g = store.graph
    minus = g.distrust_offsets[users]
    j, k = np.divmod(t - ends[users] + store.counts[users], g.distrust_offsets[users + 1] - minus)
    return np.column_stack((users, g.trust_targets[g.trust_offsets[users] + j],
                            g.distrust_targets[minus + k]))


@dataclass
class FactorModel:
    """Latent factor matrices: U rows are users, V rows are items."""

    U: np.ndarray
    V: np.ndarray
    k: int
    seed: int = 0

    def __post_init__(self):
        self.U = np.ascontiguousarray(self.U, dtype=np.float64)
        self.V = np.ascontiguousarray(self.V, dtype=np.float64)
        if self.U.ndim != 2 or self.V.ndim != 2:
            raise ValueError("U and V must be 2-d")
        if self.U.shape[1] != self.k or self.V.shape[1] != self.k:
            raise ValueError("latent dimension mismatch")

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def m(self) -> int:
        return self.V.shape[0]

    def copy(self) -> "FactorModel":
        return FactorModel(self.U.copy(), self.V.copy(), self.k, self.seed)


INIT_SCALE = 0.01


def init_model(n: int, m: int, k: int, seed: int = 0) -> FactorModel:
    """Gaussian init, mean 0 and scale INIT_SCALE, from the named 'init' stream."""
    rng = substream(seed, "init")
    return FactorModel(rng.normal(0.0, INIT_SCALE, (n, k)), rng.normal(0.0, INIT_SCALE, (m, k)),
                       k, seed)


BLOCK_ROWS = 1 << 12  # rows a block gathers, so its (rows, k) arrays stay in cache
FOLD_MIN_ROWS = 256  # a Fold adds shorter rank runs by np.add.at: a call per run costs more


def predict_many(model: FactorModel, users, items, clamp: bool = True,
                 r_min: float = 1.0, r_max: float = 5.0) -> np.ndarray:
    """U[u] . V[i] of each (user, item) pair, a length-1 side broadcast, and
    clipped to [r_min, r_max] with clamp. Blocks of BLOCK_ROWS pairs each
    gather only their own rows, so beside the output the call holds two
    blocks' gathers, whatever the pair count."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if len(users) and (users.min() < 0 or users.max() >= model.n):
        raise IndexError("user index out of range")
    if len(items) and (items.min() < 0 or items.max() >= model.m):
        raise IndexError("item index out of range")
    users, items = np.broadcast_arrays(users, items)
    out = np.empty(len(users))
    for b in range(0, len(users), BLOCK_ROWS):
        block = slice(b, b + BLOCK_ROWS)
        np.einsum("ij,ij->i", np.take(model.U, users[block], axis=0),
                  np.take(model.V, items[block], axis=0), out=out[block])
    if clamp:
        np.clip(out, r_min, r_max, out=out)
    return out


@dataclass(frozen=True)
class Hyperparams:
    """Everything a fit needs besides the data itself.

    `social` picks the social term variant: "none", "trust-pull" (weight
    alpha), "distrust-push" (weight beta), or "triplet-margin" (weight
    lambda_s with the chosen loss and sign convention).

    `sign_convention` is the fidelity switch. "figure1" scores a triplet by
    z = d2(i,k) - d2(i,j), penalizing unless the distrusted user is farther by
    the unit margin; "paper-literal" flips the argument order and, in SGD,
    also switches the batch scaling to lambda_s / (B * total) instead of the
    unbiased lambda_s / B.
    """

    k: int = 10
    lambda_u: float = 0.0
    lambda_v: float = 0.0
    lambda_s: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    eta0: float = 0.01
    schedule: str = "constant"
    batch_size: int = 1
    epochs: int = 100
    loss: str = "hinge"
    sign_convention: str = "figure1"
    clamp_predictions: bool = True
    social: str = "none"

    def __post_init__(self):
        for name in ("lambda_u", "lambda_v", "lambda_s", "alpha", "beta", "eta0"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.k < 1:
            raise ValueError("k must be positive")
        for name, choices in (("loss", LOSS_KINDS), ("sign_convention", SIGN_CONVENTIONS),
                              ("schedule", SCHEDULES), ("social", SOCIAL_TERMS)):
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}")

    def replace(self, **kw) -> "Hyperparams":
        return replace(self, **kw)
