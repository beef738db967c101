"""Site-percolation sampling and component identification at scale.

Membership is bit-packed (1 bit per vertex) and driven by the keyed
generator in rng.py, so any vertex's coin is recomputable in isolation
and the lazy DFS explorer sees exactly the bits the eager sampler drew.

Component labeling runs on Q^d only (any other oracle is refused) and
has two interchangeable backends behind one canonical output:

* sparse path (the common supercritical case): works on the packed
  sample as uint64 words (see bitset). The edges along coordinate i are
  the set bits of w & (w >> 2^i) within a word for i < 6, and of the
  AND of word pairs 2^(i-6) apart for i >= 6. An edge endpoint's index
  among the members is its rank: the popcount of all earlier words plus
  that of its own word below it. The int32 rank pairs go to scipy's
  compressed sparse connected_components, and once it has run the
  sorted members are read off the unpacked words;
* dense path (retained fraction above 1/4, where an edge list would
  break the O(n)-words budget): vectorized minimum-label propagation
  with pointer jumping over a single length-n label array.

Both paths, and the Python DFS explorer, renumber components by
increasing minimum member, so labelings are comparable bit-for-bit.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _sp_connected

from . import rng
from .bitset import _LOW, pack, ranker, set_bits, unpack, words
from .cube import Hypercube
from .errors import InputDomainError, RefusalError

# 2^16-key blocks keep the hash's uint64 passes in L2: d=22 sampling took 57 ms
# in 2^20-key blocks and 14 ms in these (2-vCPU VM)
_CHUNK = 1 << 16

# === samples ===


class PercolationSample:
    """Bit-packed membership over the 2^d vertices of Q^d."""

    def __init__(self, d: int, p: float, seed: int, bits: np.ndarray):
        self.d = int(d)
        self.p = float(p)
        self.seed = seed
        self.bits = bits  # uint8, little bit order, ceil(n/8) bytes

    @property
    def n(self) -> int:
        return 1 << self.d

    def contains(self, v: int) -> bool:
        return bool((self.bits[v >> 3] >> (v & 7)) & 1)

    def retained_count(self) -> int:
        return int(np.bitwise_count(self.bits).sum(dtype=np.int64))

    def as_bool(self) -> np.ndarray:
        """Unpacked membership as a bool array of length n."""
        return unpack(self.bits, self.d)

    def retained_labels(self) -> np.ndarray:
        """Sorted int64 labels of retained vertices."""
        return np.flatnonzero(self.as_bool()).astype(np.int64)

    @classmethod
    def from_labels(cls, d: int, labels, p: float = 0.0, seed: int = 0):
        """Synthetic sample from an explicit label collection.

        Not reproducible from (d, p, seed); intended for planted inputs
        to checkers and for tests.
        """
        n = 1 << d
        idx = np.asarray(list(labels), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise InputDomainError("label out of range for the given d")
        return cls(d, p, seed, pack(idx, d).view(np.uint8)[: (n + 7) // 8])


def sample_sites(d: int, p: float, seed: int) -> PercolationSample:
    """Retain each vertex of Q^d independently with probability p.

    The coin for vertex v is a pure function of (seed, v), so membership
    of any vertex can be recomputed in isolation and regenerating with
    the same arguments reproduces the identical bit array.
    """
    if d < 1:
        raise InputDomainError(f"dimension must be >= 1, got {d}")
    if not 0.0 <= p <= 1.0:
        raise InputDomainError(f"probability must be in [0, 1], got {p}")
    n = 1 << d
    out = np.empty((n + 7) // 8, dtype=np.uint8)
    for lo, coins in rng.coin_blocks(seed, n, rng.coin_threshold(p), _CHUNK):
        out[lo // 8 : (lo + len(coins) + 7) // 8] = np.packbits(coins, bitorder="little")
    return PercolationSample(d, p, seed, out)


def union_samples(a: PercolationSample, b: PercolationSample) -> PercolationSample:
    """Bitwise union; retention probability composes as 1-(1-pa)(1-pb)."""
    if a.d != b.d:
        raise InputDomainError(f"dimension mismatch: {a.d} != {b.d}")
    p = 1.0 - (1.0 - a.p) * (1.0 - b.p)
    seed = a.seed if a.seed == b.seed else rng.keyed_hash(a.seed, b.seed & ((1 << 63) - 1))
    return PercolationSample(a.d, p, seed, a.bits | b.bits)


# === two-round plan ===


@dataclass(frozen=True)
class TwoRoundPlan:
    """Split of retention probability p into rounds p1, p2.

    p = (1+eps)/d, p1 = (1+eps/2)/d, p2 = eps/(2d-2-eps); the defining
    identity (1-p1)(1-p2) = 1-p holds exactly in rational arithmetic.
    """

    epsilon: float
    d: int
    p: float
    p1: float
    p2: float

    def identity_error(self) -> float:
        """|(1-p1)(1-p2) - (1-p)| in float arithmetic."""
        return abs((1.0 - self.p1) * (1.0 - self.p2) - (1.0 - self.p))

    def identity_exact(self) -> bool:
        """Re-derive the identity in exact rationals from (epsilon, d)."""
        eps = Fraction(self.epsilon)
        d = Fraction(self.d)
        p = (1 + eps) / d
        p1 = (1 + eps / 2) / d
        p2 = eps / (2 * d - 2 - eps)
        return (1 - p1) * (1 - p2) == 1 - p


def two_round_plan(epsilon: float, d: int) -> TwoRoundPlan:
    """Construct the two-round split for supercritical p = (1+eps)/d."""
    if not 0.0 < epsilon < 1.0:
        raise InputDomainError(f"epsilon must be in (0, 1), got {epsilon}")
    if d < 2:
        raise InputDomainError(f"dimension must be >= 2, got {d}")
    p = (1.0 + epsilon) / d
    p1 = (1.0 + epsilon / 2.0) / d
    p2 = epsilon / (2.0 * d - 2.0 - epsilon)
    for name, value in (("p", p), ("p1", p1), ("p2", p2)):
        if not 0.0 < value < 1.0:
            raise InputDomainError(f"{name}={value} outside (0, 1) for eps={epsilon}, d={d}")
    plan = TwoRoundPlan(epsilon, d, p, p1, p2)
    err = plan.identity_error()
    if err > 1e-12:
        raise InputDomainError(f"two-round identity violated by {err:.3e}")
    return plan


# === component labeling ===


class ComponentLabeling:
    """Connected components of the induced subgraph on retained vertices.

    vertices: sorted int64 labels of retained vertices
    labels:   component id per entry of vertices; ids run 0..n_components-1
              in order of increasing minimum member
    sizes:    int64 array of member counts indexed by component id

    Per-component member lists come from one grouping of `vertices` by
    label, built on first use (see member_groups), so asking for every
    component's members costs one sort rather than a scan per component.
    """

    def __init__(self, vertices: np.ndarray, labels: np.ndarray, sizes: np.ndarray):
        self.vertices = vertices
        self.labels = labels
        self.sizes = sizes
        self._order = None
        self._groups = None

    @property
    def n_components(self) -> int:
        return len(self.sizes)

    def retained_count(self) -> int:
        return len(self.vertices)

    @property
    def order_by_size(self) -> np.ndarray:
        """Component ids sorted by decreasing size; ties break to the
        component with the smaller minimum member."""
        if self._order is None:
            self._order = np.argsort(-self.sizes, kind="stable")
        return self._order

    def size_of(self, cid: int) -> int:
        """len(members(cid)): 0 for an id outside [0, n_components)."""
        return int(self.sizes[cid]) if 0 <= cid < self.n_components else 0

    def label_of(self, v: int):
        """Component id of a retained vertex, None if v is not retained."""
        i = np.searchsorted(self.vertices, v)
        if i < len(self.vertices) and self.vertices[i] == v:
            return int(self.labels[i])
        return None

    def member_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """(grouped, offsets): the members of component c, ascending, are
        grouped[offsets[c]:offsets[c + 1]]. Built once; read-only."""
        if self._groups is None:
            grouped = self.vertices[np.argsort(self.labels, kind="stable")]
            grouped.flags.writeable = False
            offsets = np.zeros(len(self.sizes) + 1, dtype=np.int64)
            np.cumsum(self.sizes, out=offsets[1:])
            self._groups = (grouped, offsets)
        return self._groups

    def members(self, cid: int) -> np.ndarray:
        """Sorted members of component cid, as a read-only view."""
        grouped, offsets = self.member_groups()
        if not 0 <= cid < self.n_components:
            return grouped[:0]
        return grouped[offsets[cid] : offsets[cid + 1]]

    def size_multiset(self) -> tuple:
        return tuple(sorted(int(s) for s in self.sizes))


def largest_two(labeling: ComponentLabeling) -> tuple[int, int]:
    """Sizes of the largest and second-largest components (0 when absent)."""
    order = labeling.order_by_size
    first = int(labeling.sizes[order[0]]) if len(order) >= 1 else 0
    second = int(labeling.sizes[order[1]]) if len(order) >= 2 else 0
    return first, second


def canonical_labeling(vertices, raw_labels) -> ComponentLabeling:
    """Renumber an arbitrary equivalence labeling into canonical form.

    `vertices` must be sorted ascending; `raw_labels` may be any values
    constant exactly on components. Ids come out 0..K-1 by order of first
    occurrence, which is increasing minimum member, matching components().
    scipy numbers components from their lowest node, so its ids are
    usually in that order already; an O(m) check on the raw labels
    (start at 0, running maximum steps by at most 1) lets them through
    without the sort. The int64 labels are always a fresh array.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    raw = np.asarray(raw_labels)
    if len(vertices) != len(raw):
        raise InputDomainError("vertices and raw_labels must align")
    if len(vertices) == 0:
        return ComponentLabeling(vertices, np.empty(0, np.int64), np.empty(0, np.int64))
    if raw[0] == 0 and raw.min() >= 0 and np.diff(np.maximum.accumulate(raw)).max(initial=0) <= 1:
        labels = raw.astype(np.int64)
    else:
        uniq, first = np.unique(raw, return_index=True)
        remap = np.empty(len(uniq), dtype=np.int64)
        remap[np.argsort(first, kind="stable")] = np.arange(len(uniq))
        labels = remap[np.searchsorted(uniq, raw)]
    sizes = np.bincount(labels).astype(np.int64, copy=False)
    return ComponentLabeling(vertices, labels, sizes)


def label_packed(d: int, w: np.ndarray) -> ComponentLabeling:
    """Label components of Q^d induced on the packed set w (see bitset)."""
    n = 1 << d
    rank, m = ranker(w)
    if m == 0:
        return ComponentLabeling(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))
    # dense stays O(n) words: d=20 peaks 15/47/75 vs sparse 51/236/701 B/vertex at p=.3/.6/1
    if m > n // 4:
        return _label_dense(d, unpack(w, d))
    lower, upper = [], []
    for i in range(d):
        if i < 6:
            shift = np.uint64(1 << i)
            j, bit = set_bits(w & (w >> shift) & _LOW[i])
            lower.append(rank(j, bit))
            upper.append(rank(j, bit << shift))
        else:
            half = 1 << (i - 6)
            pairs = w.reshape(-1, 2, half)
            f, bit = set_bits((pairs[:, 0] & pairs[:, 1]).ravel())
            j = f + (f // half) * half
            lower.append(rank(j, bit))
            upper.append(rank(j + half, bit))
    rows = np.concatenate(lower)
    del lower
    cols = np.concatenate(upper)
    del upper
    # float64 is the dtype csgraph converts any input to
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(m, m))
    del rows, cols
    _, raw = _sp_connected(graph, directed=False)
    del graph
    return canonical_labeling(np.flatnonzero(unpack(w, d)), raw)


def _label_dense(d: int, member_mask: np.ndarray) -> ComponentLabeling:
    """Minimum-label propagation with pointer jumping; O(n) words.

    Labels cross an edge only where both endpoints are members, so
    components never merge through a non-retained vertex; non-member
    slots keep the sentinel n forever.
    """
    n = 1 << d
    sentinel = np.int64(n)
    label = np.where(member_mask, np.arange(n, dtype=np.int64), sentinel)
    members_idx = np.flatnonzero(member_mask)
    while True:
        before = label[members_idx]
        for i in range(d):
            half = 1 << i
            lv = label.reshape(-1, 2, half)
            mv = member_mask.reshape(-1, 2, half)
            lo = lv[:, 0, :]
            hi = lv[:, 1, :]
            both = mv[:, 0, :] & mv[:, 1, :]
            joint = np.minimum(lo, hi)
            lo[...] = np.where(both, joint, lo)
            hi[...] = np.where(both, joint, hi)
        pointee = label[members_idx]
        label[members_idx] = label[pointee]
        after = label[members_idx]
        if np.array_equal(before, after):
            break
    raw = label[members_idx]
    return canonical_labeling(members_idx, raw)


def _require_hypercube(oracle) -> None:
    if not isinstance(oracle, Hypercube):
        raise InputDomainError(f"component labeling runs on Q^d only, got {oracle!r}")


def label_members(oracle, members: np.ndarray) -> ComponentLabeling:
    """Components of Q^d induced on an explicit member set (any order,
    repeats allowed)."""
    _require_hypercube(oracle)
    members = np.asarray(members, dtype=np.int64)
    if members.size and (members.min() < 0 or members.max() >= oracle.n):
        raise InputDomainError(f"member out of range [0, {oracle.n})")
    return label_packed(oracle.d, pack(members, oracle.d))


def components(oracle, sample: PercolationSample) -> ComponentLabeling:
    """Exact components of the induced subgraph on retained vertices.

    Deterministic for a given sample; peak memory O(n) words on either
    backend (see module docstring for the sparse/dense switch).
    """
    _require_hypercube(oracle)
    if oracle.n != sample.n:
        raise InputDomainError(
            f"sample covers {sample.n} vertices, oracle has {oracle.n}"
        )
    return label_packed(oracle.d, words(sample.bits, oracle.d))


# === DFS exposure ===


@dataclass(frozen=True)
class Epoch:
    """Query interval of one discovered component."""

    component: int
    first_query: int
    last_query: int
    positives: int
    negatives: int


@dataclass(frozen=True)
class DfsTrace:
    """Bookkeeping of the lazy DFS exposure run."""

    bit_sequence_length: int
    epochs: tuple


# the pure-Python DFS ran 0.20 Mvertex/s at p = 1 (0.56 at p = 0.1) with
# ~96 B/vertex peak at d=18 on a 2-vCPU VM: 2^20 vertices is ~5 s, ~100 MB
_DFS_MAX_N = 1 << 20


def dfs_explore(oracle, p: float, seed: int) -> tuple[ComponentLabeling, DfsTrace]:
    """Discover components while generating the sample lazily.

    Vertices are queried at most once, consuming one Bernoulli(p) coin
    per first query; within a vertex expansion, neighbors are queried in
    the oracle's neighbor order (increasing coordinate index on Q^d).
    Each component of size k yields one epoch of consecutive queries
    holding exactly k positive answers and at most k + |N(component)|
    queries in total. The coins come from the same keyed generator as
    sample_sites, so the resulting labeling is identical bit-for-bit to
    components(sample_sites(d, p, seed)). Refuses graphs above
    _DFS_MAX_N vertices, where components() is the tool.
    """
    if not 0.0 <= p <= 1.0:
        raise InputDomainError(f"probability must be in [0, 1], got {p}")
    n = oracle.n
    if n > _DFS_MAX_N:
        raise RefusalError(
            f"dfs_explore over {n} vertices is above its cap of {_DFS_MAX_N}: "
            "the exploration is pure Python, O(nd); use components(sample_sites(...))"
        )
    threshold = rng.coin_threshold(p)
    queried = bytearray(n)
    comp_of: dict[int, int] = {}
    comp_sizes: list[int] = []
    epochs: list[Epoch] = []
    query_index = 0
    for start in range(n):
        if queried[start]:
            continue
        queried[start] = 1
        first_q = query_index
        positive = rng.coin(seed, start, threshold)
        query_index += 1
        if not positive:
            continue
        cid = len(comp_sizes)
        comp_of[start] = cid
        size = 1
        positives = 1
        negatives = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in oracle.neighbors(v):
                if queried[u]:
                    continue
                queried[u] = 1
                if rng.coin(seed, u, threshold):
                    comp_of[u] = cid
                    size += 1
                    positives += 1
                    stack.append(u)
                else:
                    negatives += 1
                query_index += 1
        comp_sizes.append(size)
        epochs.append(Epoch(cid, first_q, query_index - 1, positives, negatives))
    vertices = np.array(sorted(comp_of), dtype=np.int64)
    labels = np.array([comp_of[int(v)] for v in vertices], dtype=np.int64)
    sizes = np.array(comp_sizes, dtype=np.int64)
    labeling = ComponentLabeling(vertices, labels, sizes)
    return labeling, DfsTrace(query_index, tuple(epochs))
