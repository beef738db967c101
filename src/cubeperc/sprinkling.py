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
"""

import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .cube import Hypercube, closed_neighborhood_mask, xor_shift
from .errors import InputDomainError, RefusalError
from .percolation import (
    ComponentLabeling,
    PercolationSample,
    components,
    label_members,
    largest_two,
    union_samples,
)

# === T/M/S classification ===


@dataclass(frozen=True)
class TmsPartition:
    """Disjoint cover of V(Q^d) by T, M, S as boolean masks.

    l1_members caches the first-round giant (the seed block of T);
    ambiguous_giant flags trials whose second component exceeds half the
    largest, where "the giant" is not clearly unique.
    """

    d: int
    epsilon: float
    threshold: float
    t_mask: np.ndarray
    m_mask: np.ndarray
    l1_members: np.ndarray
    ambiguous_giant: bool

    @property
    def s_mask(self) -> np.ndarray:
        return ~(self.t_mask | self.m_mask)

    @property
    def l1_size(self) -> int:
        return len(self.l1_members)

    @property
    def l1_min_vertex(self) -> int:
        return int(self.l1_members[0])

    def sizes(self) -> dict:
        t = int(self.t_mask.sum())
        m = int(self.m_mask.sum())
        n = len(self.t_mask)
        return {"T": t, "M": m, "S": n - t - m}


def classify_tms(cube: Hypercube, labeling_r1: ComponentLabeling, epsilon: float) -> TmsPartition:
    """Partition V(Q^d) around the largest first-round component.

    T = L1' with its external neighborhood; M = vertices outside T with
    at least eps^2*d/200 neighbors in T; S = the rest. The threshold
    uses the caller's eps verbatim.
    """
    if labeling_r1.retained_count() == 0:
        raise RefusalError("no giant candidate: first-round sample is empty")
    d = cube.d
    n = cube.n
    giant_id = int(labeling_r1.order_by_size[0])
    l1 = labeling_r1.members(giant_id)
    first, second = largest_two(labeling_r1)
    ambiguous = second * 2 > first

    t_mask = closed_neighborhood_mask(d, l1)

    t8 = t_mask.astype(np.uint8)
    counts = np.zeros(n, dtype=np.uint16)
    for i in range(d):
        counts += xor_shift(t8, i)
    threshold = epsilon**2 * d / 200.0
    m_mask = (~t_mask) & (counts >= threshold)
    return TmsPartition(
        d=d,
        epsilon=epsilon,
        threshold=threshold,
        t_mask=t_mask,
        m_mask=m_mask,
        l1_members=l1,
        ambiguous_giant=bool(ambiguous),
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
    labeling of R1 u R2. The merge flags come from the T-neighbor scan
    and are re-verified against that independent labeling.
    """
    if cube.n != len(partition.t_mask):
        raise InputDomainError("partition does not match the cube")
    if r1.d != cube.d or r2.d != cube.d:
        raise InputDomainError("sample dimension does not match the cube")
    n = cube.n
    r1_mask = r1.as_bool()
    t_mask = partition.t_mask
    # the staging relies on T's first-round content being exactly L1',
    # which holds iff the partition came from this sample's labeling
    if not np.array_equal(np.flatnonzero(t_mask & r1_mask), partition.l1_members):
        raise InputDomainError("partition was not built from this first-round sample")
    sm_members = np.flatnonzero((r1_mask | r2.as_bool()) & ~t_mask)
    stage = label_members(cube, sm_members)
    k = stage.n_components
    in_m = partition.m_mask[sm_members]
    m_sizes = np.bincount(stage.labels[in_m], minlength=k)

    # distinct (B, T-neighbor) pairs from one sort of (B, t, "not via M")
    # keys: within a (B, t) run a pair reached from B cap M sorts first
    keys = []
    for i in range(cube.d):
        nb = sm_members ^ (1 << i)
        keep = t_mask[nb]
        keys.append(((stage.labels[keep] * n + nb[keep]) << 1) | ~in_m[keep])
    key = np.sort(np.concatenate(keys))
    pair = key >> 1
    first = np.ones(len(key), dtype=bool)
    np.not_equal(pair[1:], pair[:-1], out=first[1:])
    comp, t = np.divmod(pair[first], n)
    nt_sizes = np.bincount(comp, minlength=k)
    nt_m_sizes = np.bincount(comp[(key[first] & 1) == 0], minlength=k)
    merged = np.zeros(k, dtype=bool)
    merged[comp[r2.contains_many(t)]] = True

    final = components(cube, union_samples(r1, r2))
    grouped, offsets = stage.member_groups()
    min_vertices = grouped[offsets[:-1]]
    f_labels = final.labels[np.searchsorted(final.vertices, min_vertices)]
    f_sizes = final.sizes[f_labels]
    l1 = partition.l1_members
    giant = final.label_of(int(l1[0])) if len(l1) else -1
    consistent = np.where(merged, f_labels == giant, f_sizes == stage.sizes)
    return MergeAnalysis(
        min_vertices, stage.sizes, m_sizes, nt_sizes, nt_m_sizes, merged, f_sizes, consistent,
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
