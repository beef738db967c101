"""Two-round exposure pipeline: classify vertices around the first-round
giant, sprinkle the second round, and report which components merge.

The first exposure at p1 yields a giant candidate L1'. T is L1' together
with its external neighborhood; M collects the vertices outside T with
at least eps^2*d/200 neighbors in T; S is everything else. The second
exposure at p2 is revealed on S u M first (forming candidate components
B) and on T only afterwards, so the per-component merge events are
conditionally independent of how the B's formed.

Two structural facts keep the staging honest and are relied on below:
every first-round retained vertex of T lies in L1' (a retained vertex
adjacent to L1' would belong to L1'), and no retained vertex of S u M is
adjacent to L1' (such a vertex would be in N(L1') and hence in T). So
the stage-one state is exactly {B's} + {L1'}, and every second-round T
vertex that is not in L1' touches L1' directly when revealed.

T and M are packed uint64 words, one bit per vertex, like the sample
(see bitset). T is the closed neighbourhood of L1', and M is
bitset.at_least over the outside of T, read from a bit-sliced count of
T-neighbours; no per-vertex byte array is built. The merge scan works
on the same words: the candidates are labeled straight
from (R1 | R2) & ~T, and the members of S u M whose neighbour along
coordinate i is in T are the set bits of that set AND flip(T, i), each
indexed into the stage labels by its rank. The scan takes one
coordinate at a time, so only that coordinate's bits are unpacked. A
candidate merges iff one of its members lies in the closed
neighbourhood of T & R2, read from words too.
"""

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .bitset import at_least, closed_neighbourhood, flip, pack, ranker, set_bits, unpack, vertex_of, words
from .cube import Hypercube
from .errors import InputDomainError, RefusalError
from .percolation import (
    ComponentLabeling,
    PercolationSample,
    components,
    label_members,  # noqa: F401 -- perfbench/spans.py wraps it here
    label_packed,
    largest_two,
    union_samples,
)

# === T/M/S classification ===


@dataclass(frozen=True)
class TmsPartition:
    """Disjoint cover of V(Q^d) by T, M, S, with T and M as packed words
    (see bitset); the bool masks are built on each read.

    l1_members caches the first-round giant (the seed block of T);
    ambiguous_giant flags trials whose second component exceeds half the
    largest, where "the giant" is not clearly unique.
    """

    d: int
    epsilon: float
    threshold: float
    t_words: np.ndarray
    m_words: np.ndarray
    l1_members: np.ndarray
    ambiguous_giant: bool

    @property
    def t_mask(self) -> np.ndarray:
        return unpack(self.t_words, self.d)

    @property
    def m_mask(self) -> np.ndarray:
        return unpack(self.m_words, self.d)

    @property
    def s_mask(self) -> np.ndarray:
        return unpack(~(self.t_words | self.m_words), self.d)

    @property
    def l1_size(self) -> int:
        return len(self.l1_members)

    @property
    def l1_min_vertex(self) -> int:
        return int(self.l1_members[0])

    def sizes(self) -> dict:
        t = int(np.bitwise_count(self.t_words).sum(dtype=np.int64))
        m = int(np.bitwise_count(self.m_words).sum(dtype=np.int64))
        return {"T": t, "M": m, "S": (1 << self.d) - t - m}


def classify_tms(cube: Hypercube, labeling_r1: ComponentLabeling, epsilon: float) -> TmsPartition:
    """Partition V(Q^d) around the largest first-round component.

    T = L1' with its external neighborhood; M = vertices outside T with
    at least eps^2*d/200 neighbors in T; S = the rest. The threshold
    uses the caller's eps verbatim; a neighbour count is an integer, so
    it meets the threshold iff it reaches ceil(threshold).
    """
    if not math.isfinite(epsilon):
        raise InputDomainError(f"epsilon must be finite, got {epsilon}")
    if labeling_r1.retained_count() == 0:
        raise RefusalError("no giant candidate: first-round sample is empty")
    d = cube.d
    giant_id = int(labeling_r1.order_by_size[0])
    l1 = labeling_r1.vertices[labeling_r1.labels == giant_id]
    first, second = largest_two(labeling_r1)

    t = closed_neighbourhood(d, pack(l1, d))
    outside = words((~t).view(np.uint8), d)  # words clears the padding past n
    threshold = epsilon**2 * d / 200.0
    k = math.ceil(threshold)
    if k <= 0:
        m = outside
    elif k > d:
        m = np.zeros_like(t)
    else:
        m = at_least(d, t, k, outside)
    return TmsPartition(
        d=d,
        epsilon=epsilon,
        threshold=threshold,
        t_words=t,
        m_words=m,
        l1_members=l1,
        ambiguous_giant=bool(second * 2 > first),
    )


# === constants ===


def c1_constant(epsilon: float) -> float:
    """The merge-probability constant 18*200^2 / eps^5 = 720000 / eps^5.

    Meaningful as a small-eps constant; eps >= 1 is accepted for
    arithmetic but flagged as outside that regime.
    """
    if epsilon <= 0:
        raise InputDomainError(f"epsilon must be positive, got {epsilon}")
    if epsilon >= 1:
        warnings.warn(
            f"epsilon={epsilon} is outside the small-constant regime",
            stacklevel=2,
        )
    return 720000.0 / epsilon**5


def c_constant(epsilon: float) -> float:
    """Component-size constant C = 2*C1; sizes of interest are C*d."""
    return 2.0 * c1_constant(epsilon)


# === merge analysis ===


@dataclass(frozen=True)
class MergeReport:
    """One candidate component B of (S u M) restricted to R1 u R2."""

    component: int
    min_vertex: int
    size: int
    m_size: int
    nt_size: int
    nt_m_size: int
    merged: bool
    final_size: int
    consistent: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True, eq=False)
class MergeAnalysis:
    """Per-candidate merge results as columns, one numpy array per
    MergeReport field indexed by candidate id, plus the final labeling of
    R1 u R2. `reports` builds the MergeReport rows on each access."""

    min_vertex: np.ndarray
    size: np.ndarray
    m_size: np.ndarray
    nt_size: np.ndarray
    nt_m_size: np.ndarray
    merged: np.ndarray
    final_size: np.ndarray
    consistent: np.ndarray
    final_labeling: ComponentLabeling
    giant_final_label: int
    giant_final_size: int

    @property
    def reports(self) -> tuple:
        columns = (getattr(self, f.name).tolist() for f in fields(MergeReport)[1:])
        return tuple(MergeReport(cid, *row) for cid, row in enumerate(zip(*columns)))

    def merged_count(self) -> int:
        return int(np.count_nonzero(self.merged))

    def all_consistent(self) -> bool:
        return bool(np.all(self.consistent))

    def rate_table(self, c_values, d: int) -> list:
        """Merge rate among components with |B cap M| >= c*d, per c."""
        rows = []
        for c in c_values:
            eligible = self.m_size >= c * d
            count = int(np.count_nonzero(eligible))
            merged = int(np.count_nonzero(self.merged & eligible))
            rate = merged / count if count else None
            rows.append({"c": float(c), "eligible": count, "merged": merged, "rate": rate})
        return rows

    def summary(self) -> dict:
        return {
            "candidates": len(self.min_vertex),
            "merged": self.merged_count(),
            "consistent": self.all_consistent(),
            "giant_final_size": self.giant_final_size,
        }


def merge_analysis(
    cube: Hypercube,
    partition: TmsPartition,
    r1: PercolationSample,
    r2: PercolationSample,
) -> MergeAnalysis:
    """Label R1 u R2 once and report per-component merges.

    The candidates B are the components of (S u M) restricted to
    R1 u R2. By the staging facts in the module docstring, every
    T-neighbor of a B lies outside L1' and outside R1, and a retained
    T vertex is in L1' or adjacent to it. So B joins the giant iff
    round two retains one of its T-neighbors, and otherwise stays a
    component of its own: the outcome of revealing T after S u M does
    not depend on the reveal order, and the final labeling is the
    labeling of R1 u R2. The merge flags come from the members of S u M
    next to a round-two T vertex, and are re-verified against that
    independent labeling.
    """
    d = cube.d
    if partition.d != d:
        raise InputDomainError("partition does not match the cube")
    if r1.d != d or r2.d != d:
        raise InputDomainError("sample dimension does not match the cube")
    t, m = partition.t_words, partition.m_words
    w1, w2 = words(r1.bits, d), words(r2.bits, d)
    # the staging relies on T's first-round content being exactly L1',
    # which holds iff the partition came from this sample's labeling
    if not np.array_equal(t & w1, pack(partition.l1_members, d)):
        raise InputDomainError("partition was not built from this first-round sample")
    sm = (w1 | w2) & ~t
    stage = label_packed(d, sm)
    k = stage.n_components
    rank, _ = ranker(sm)

    def label(w):
        """The stage label of every member of sm in the words w."""
        return stage.labels[rank(*set_bits(w))]

    m_sizes = np.bincount(label(sm & m), minlength=k)
    # sm is disjoint from T, so its members next to a round-two T vertex
    # are exactly those of sm & closed_neighbourhood(T & R2)
    merged = np.zeros(k, dtype=bool)
    merged[label(sm & closed_neighbourhood(d, t & w2))] = True

    # distinct (B, T-neighbor) pairs from one sort of (B, t, "not via M")
    # keys: within a (B, t) run a pair reached from B cap M sorts first.
    # Coordinate i contributes the members of S u M whose neighbour along
    # i is in T, so only one coordinate's bits are unpacked at a time.
    keys = []
    for i in range(d):
        j, bit = set_bits(sm & flip(t, i))
        nb = vertex_of(j, bit) ^ (1 << i)
        keys.append((((stage.labels[rank(j, bit)] << d) | nb) << 1) | ((m[j] & bit) == 0))
    key = np.concatenate(keys)
    del keys
    key.sort()
    pair = key >> 1
    first = np.ones(len(key), dtype=bool)
    np.not_equal(pair[1:], pair[:-1], out=first[1:])
    del pair
    key = key[first]
    del first
    via_m = (key & 1) == 0
    key >>= d + 1  # now the candidate id of each distinct pair
    nt_sizes = np.bincount(key, minlength=k)
    nt_m_sizes = np.bincount(key[via_m], minlength=k)
    del key, via_m
    # canonical ids number components by first occurrence, so the running
    # maximum of the labels steps up exactly at each component's minimum
    starts = np.flatnonzero(np.diff(np.maximum.accumulate(stage.labels), prepend=-1))
    min_vertices, sizes = stage.vertices[starts], stage.sizes
    del stage  # free the stage labeling before the final one is built

    final = components(cube, union_samples(r1, r2))
    f_labels = final.labels[np.searchsorted(final.vertices, min_vertices)]
    f_sizes = final.sizes[f_labels]
    l1 = partition.l1_members
    giant = final.label_of(int(l1[0])) if len(l1) else -1
    consistent = np.where(merged, f_labels == giant, f_sizes == sizes)
    return MergeAnalysis(
        min_vertices, sizes, m_sizes, nt_sizes, nt_m_sizes, merged, f_sizes, consistent,
        final_labeling=final,
        giant_final_label=giant,
        giant_final_size=final.size_of(giant) if giant >= 0 else 0,
    )


# === census ===


@dataclass(frozen=True)
class CensusRecord:
    """Size accounting of everything outside the largest component."""

    giant_size: int
    max_nongiant: int
    ratio: float
    nongiant_count: int
    component_count: int
    nongiant_size_histogram: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "giant_size": self.giant_size,
            "max_nongiant": self.max_nongiant,
            "ratio": self.ratio,
            "nongiant_count": self.nongiant_count,
            "component_count": self.component_count,
            "nongiant_size_histogram": {
                str(k): v for k, v in sorted(self.nongiant_size_histogram.items())
            },
        }


def survival_census(final_labeling: ComponentLabeling, d: int) -> CensusRecord:
    """Sizes of all non-giant components, their maximum, and max/d."""
    if d < 1:
        raise InputDomainError(f"dimension must be >= 1, got {d}")
    sizes = final_labeling.sizes
    if len(sizes) == 0:
        return CensusRecord(0, 0, 0.0, 0, 0)
    order = final_labeling.order_by_size
    giant = int(sizes[order[0]])
    rest = sizes[order[1:]]
    max_nongiant = int(rest[0]) if len(rest) else 0
    values, counts = np.unique(rest, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(values, counts)}
    return CensusRecord(
        giant_size=giant,
        max_nongiant=max_nongiant,
        ratio=max_nongiant / d,
        nongiant_count=int(len(rest)),
        component_count=int(len(sizes)),
        nongiant_size_histogram=hist,
    )
