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
from dataclasses import dataclass, field

import numpy as np

from .cube import Hypercube, closed_neighborhood_mask, xor_shift
from .errors import InputDomainError, RefusalError
from .percolation import (
    ComponentLabeling,
    PercolationSample,
    canonical_labeling,
    label_members,
    largest_two,
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

    def t_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.t_mask).astype(np.int64)

    def m_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.m_mask).astype(np.int64)

    def s_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.s_mask).astype(np.int64)

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


@dataclass(frozen=True)
class MergeAnalysis:
    """Merge reports plus the incrementally built final labeling."""

    reports: tuple
    final_labeling: ComponentLabeling
    giant_final_label: int
    giant_final_size: int

    def merged_count(self) -> int:
        return sum(1 for r in self.reports if r.merged)

    def all_consistent(self) -> bool:
        return all(r.consistent for r in self.reports)

    def rate_table(self, c_values, d: int) -> list:
        """Merge rate among components with |B cap M| >= c*d, per c."""
        rows = []
        for c in c_values:
            eligible = [r for r in self.reports if r.m_size >= c * d]
            merged = sum(1 for r in eligible if r.merged)
            rows.append(
                {
                    "c": float(c),
                    "eligible": len(eligible),
                    "merged": merged,
                    "rate": merged / len(eligible) if eligible else None,
                }
            )
        return rows

    def summary(self) -> dict:
        return {
            "candidates": len(self.reports),
            "merged": self.merged_count(),
            "consistent": self.all_consistent(),
            "giant_final_size": self.giant_final_size,
        }


def _find(parent: np.ndarray, v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = int(parent[v])
    return v


def merge_analysis(
    cube: Hypercube,
    partition: TmsPartition,
    r1: PercolationSample,
    r2: PercolationSample,
) -> MergeAnalysis:
    """Stage the second exposure and report per-component merges.

    Stage one labels the components B of (S u M) restricted to R1 u R2
    and seeds a disjoint-set forest with those components plus L1'.
    Stage two reveals the second-round T vertices in ascending label
    order, uniting each with its already-active retained neighbors. A
    component merges iff it has a T-neighbor retained in round two; the
    flag is re-verified against the final labels.
    """
    if cube.n != len(partition.t_mask):
        raise InputDomainError("partition does not match the cube")
    if r1.d != cube.d or r2.d != cube.d:
        raise InputDomainError("sample dimension does not match the cube")
    n = cube.n
    d = cube.d
    r1_mask = r1.as_bool()
    r_mask = r1_mask | r2.as_bool()
    t_mask = partition.t_mask
    # the staging below relies on T's first-round content being exactly
    # L1', which holds iff the partition came from this sample's labeling
    t_r1 = np.flatnonzero(t_mask & r1_mask)
    if not np.array_equal(t_r1, partition.l1_members):
        raise InputDomainError("partition was not built from this first-round sample")
    sm_members = np.flatnonzero(r_mask & ~t_mask).astype(np.int64)
    stage = label_members(cube, sm_members)
    k = stage.n_components

    # aggregates per B: |B|, |B cap M|, |N_T(B)|, |N_T(B cap M)|, merge flag
    sizes = stage.sizes
    in_m = partition.m_mask[sm_members]
    m_sizes = (
        np.bincount(stage.labels[in_m], minlength=k).astype(np.int64)
        if k
        else np.empty(0, np.int64)
    )
    pair_comp = []
    pair_nb = []
    pair_from_m = []
    for i in range(d):
        nb = sm_members ^ (1 << i)
        keep = t_mask[nb]
        if keep.any():
            pair_comp.append(stage.labels[keep])
            pair_nb.append(nb[keep])
            pair_from_m.append(in_m[keep])
    nt_sizes = np.zeros(k, dtype=np.int64)
    nt_m_sizes = np.zeros(k, dtype=np.int64)
    merged_flags = np.zeros(k, dtype=bool)
    if pair_comp:
        comp = np.concatenate(pair_comp)
        nb = np.concatenate(pair_nb)
        from_m = np.concatenate(pair_from_m)
        key = comp * n + nb
        uniq, first = np.unique(key, return_index=True)
        u_comp = (uniq // n).astype(np.int64)
        u_nb = uniq % n
        nt_sizes = np.bincount(u_comp, minlength=k).astype(np.int64)
        key_m = key[from_m]
        uniq_m = np.unique(key_m)
        nt_m_sizes = np.bincount((uniq_m // n).astype(np.int64), minlength=k).astype(np.int64)
        hit = r2.contains_many(u_nb)
        merged_flags[u_comp[hit]] = True

    # disjoint-set forest: stage-one components and L1' are the initial
    # blocks; second-round T vertices activate one at a time
    parent = np.arange(n, dtype=np.int64)
    active = np.zeros(n, dtype=bool)
    min_vertices = (
        stage.vertices[np.unique(stage.labels, return_index=True)[1]]
        if k
        else np.empty(0, np.int64)
    )
    if k:
        parent[stage.vertices] = min_vertices[stage.labels]
        active[stage.vertices] = True
    l1 = partition.l1_members
    parent[l1] = int(l1[0])
    active[l1] = True

    reveal = np.flatnonzero(t_mask & r2.as_bool() & ~r1_mask).astype(np.int64)
    for v in reveal:
        v = int(v)
        active[v] = True
        rv = _find(parent, v)
        for i in range(d):
            u = v ^ (1 << i)
            if active[u]:
                ru = _find(parent, u)
                if ru != rv:
                    if ru < rv:
                        parent[rv] = ru
                        rv = ru
                    else:
                        parent[ru] = rv

    retained = np.flatnonzero(r_mask).astype(np.int64)
    roots = parent[retained]
    while True:
        nxt = parent[roots]
        if np.array_equal(nxt, roots):
            break
        roots = nxt
    final = canonical_labeling(retained, roots)

    giant_label = final.label_of(int(l1[0])) if len(l1) else None
    giant_size = final.size_of(giant_label) if giant_label is not None else 0

    reports = []
    for cid in range(k):
        b_min = int(min_vertices[cid])
        f_label = final.label_of(b_min)
        f_size = final.size_of(f_label)
        merged = bool(merged_flags[cid])
        if merged:
            ok = f_label == giant_label
        else:
            ok = f_size == int(sizes[cid])
        reports.append(
            MergeReport(
                component=cid,
                min_vertex=b_min,
                size=int(sizes[cid]),
                m_size=int(m_sizes[cid]),
                nt_size=int(nt_sizes[cid]),
                nt_m_size=int(nt_m_sizes[cid]),
                merged=merged,
                final_size=int(f_size),
                consistent=bool(ok),
            )
        )
    return MergeAnalysis(
        reports=tuple(reports),
        final_labeling=final,
        giant_final_label=int(giant_label) if giant_label is not None else -1,
        giant_final_size=int(giant_size),
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
