"""Structure checkers: executable verifiers for the unlikely-structure
statements that drive the component-size analysis.

Each checker measures a quantity on a concrete sample or planted input
and reports violations of the corresponding threshold. Checkers never
decide probability statements; they surface witnesses, and the harness
aggregates counts over trials.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import betainc

from .bitset import closed_neighbourhood, pack
from .cube import Hypercube, sphere2, xor_shift
from .cube import external_neighborhood  # noqa: F401 -- perfbench/spans.py wraps it here
from .errors import InputDomainError, RefusalError

# === reports ===


@dataclass(frozen=True)
class ViolationReport:
    """One threshold crossing, with enough context to reproduce it."""

    checker: str
    witness: dict
    measured: float
    threshold: float

    def to_dict(self) -> dict:
        return {
            "checker": self.checker,
            "witness": dict(self.witness),
            "measured": self.measured,
            "threshold": self.threshold,
        }


# === component expansion ===


def expansion_size_threshold(n: int) -> float:
    """Component size above which the expansion bound is asserted."""
    return 300.0 * math.log(n)


def check_expansion(oracle, labeling, epsilon: float, size_threshold=None) -> list:
    """Report components S with |S| = k above the size threshold whose
    external neighborhood falls below 9kd/10.

    The geometric bound does not involve epsilon; the parameter is
    carried into witnesses so reports are self-describing. The default
    size threshold is 300 ln n; passing one explicitly is a test hook
    and is not part of the modeled statement. |N(S)| is the popcount of
    the packed closed neighbourhood of S minus k; Q^d only.
    """
    if not isinstance(oracle, Hypercube):
        raise InputDomainError(f"check_expansion runs on Q^d only, got {oracle!r}")
    n = oracle.n
    d = oracle.d
    threshold = expansion_size_threshold(n) if size_threshold is None else float(size_threshold)
    reports = []
    for cid in np.flatnonzero(labeling.sizes > threshold).tolist():
        k = labeling.size_of(cid)
        members = labeling.members(cid)
        closed = closed_neighbourhood(d, pack(members, d))
        boundary = int(np.bitwise_count(closed).sum(dtype=np.int64)) - k
        need = 0.9 * k * d
        if boundary < need:
            reports.append(
                ViolationReport(
                    checker="expansion",
                    witness={
                        "component": int(cid),
                        "size": int(k),
                        "min_vertex": int(members.min()),
                        "epsilon": float(epsilon),
                    },
                    measured=float(boundary),
                    threshold=need,
                )
            )
    return reports


def expansion_summary(labeling, size_threshold: float, reports: list) -> dict:
    """Counts of checked vs skipped components for the trial record."""
    sizes = labeling.sizes
    checked = int((sizes > size_threshold).sum()) if len(sizes) else 0
    return {
        "checked": checked,
        "skipped": int(labeling.n_components - checked),
        "size_threshold": float(size_threshold),
        "violations": len(reports),
    }


# === sphere-2 density ===


def sphere2_threshold_unreachable(d: int) -> bool:
    """True when |N^2(v)| = C(d,2) < 2d, so no vertex can violate."""
    return math.comb(d, 2) < 2 * d


def sphere2_counts(cube: Hypercube, sample) -> np.ndarray:
    """|N^2(v) cap R| for every vertex v, as a uint16 array of length n.

    Uses the common-neighbour law: two vertices at distance 2 share
    exactly two neighbours and vertices further apart share none, so
    with r the retained indicator and A the adjacency,
    |N^2(v) cap R| = ((A^2 r)(v) - d r(v)) / 2. That is 2d coordinate
    shifts instead of one per pair of coordinates.
    """
    d = cube.d
    retained = sample.as_bool().astype(np.uint8)
    degree = np.zeros(cube.n, dtype=np.uint8)  # (A r)(v) <= d
    for i in range(d):
        degree += xor_shift(retained, i)
    counts = np.zeros(cube.n, dtype=np.uint16)  # (A^2 r)(v) <= d^2
    for i in range(d):
        counts += xor_shift(degree, i)
    counts -= d * retained
    counts //= 2
    return counts


def check_sphere2_density(cube: Hypercube, sample) -> list:
    """Report every vertex whose distance-2 sphere holds >= 2d retained
    vertices. Scans all n vertices; deterministic."""
    d = cube.d
    counts = sphere2_counts(cube, sample)
    bound = 2 * d
    reports = []
    for v in np.flatnonzero(counts >= bound):
        reports.append(
            ViolationReport(
                checker="sphere2_density",
                witness={"v": int(v)},
                measured=float(counts[v]),
                threshold=float(bound),
            )
        )
    return reports


def sphere2_summary(d: int, reports: list) -> dict:
    summary = {"violations": len(reports), "bound": 2 * d}
    if sphere2_threshold_unreachable(d):
        summary["note"] = "threshold unreachable: C(d,2) < 2d"
    return summary


# === cherries and the neighbourhood diagnostic ===


def cherry_count(cube, S, W) -> int:
    """Number of 3-vertex paths with both endpoints in S and center in W.

    Equals sum over w in W of C(deg_S(w), 2).
    """
    s_set = {int(v) for v in S}
    w_set = {int(v) for v in W}
    if s_set & w_set:
        raise InputDomainError("S and W must be disjoint")
    for v in s_set | w_set:
        cube.check_vertex(v)
    total = 0
    for w in w_set:
        deg = sum(1 for u in cube.neighbors(w) if u in s_set)
        total += deg * (deg - 1) // 2
    return total


@dataclass(frozen=True)
class NeighbourhoodDiagnostic:
    """Evaluation of a planted or measured (S, W) pair against the
    cherry-counting contradiction chain.

    Measures are computed even when the hypotheses fail, so planted
    tests can inspect both sides; `status` states which hypothesis (if
    any) broke.
    """

    applicable: bool
    s_size: int
    w_size: int
    w_bound: float
    w_bound_ok: bool
    degree_threshold: float
    min_degree_into_w: int
    degree_ok: bool
    hypotheses_hold: bool
    cherries: int
    cherry_floor: float
    max_sphere2_multiplicity: int
    contradiction_threshold: int
    reaches_contradiction: bool
    status: str

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def check_neighbourhood_lemma(cube, S, W, epsilon: float) -> NeighbourhoodDiagnostic:
    """Diagnose one (S, W) pair against the hypotheses "W is small"
    (|W| <= eps^4 d |S| / 360000) and "every S-vertex sees W heavily"
    (>= eps^2 d / 200 neighbors in W), then measure the quantities the
    contradiction chain manipulates: the cherry count, its implied floor
    9d|S|/4, and the maximum |N^2(v) cap S| over v in S against the 2d
    ceiling.

    Diagnostic for supplied pairs only; nothing is searched.
    """
    s_set = {int(v) for v in S}
    w_set = {int(v) for v in W}
    if s_set & w_set:
        raise InputDomainError("S and W must be disjoint")
    d = cube.d
    if not s_set:
        return NeighbourhoodDiagnostic(
            applicable=False,
            s_size=0,
            w_size=len(w_set),
            w_bound=0.0,
            w_bound_ok=True,
            degree_threshold=epsilon**2 * d / 200.0,
            min_degree_into_w=0,
            degree_ok=True,
            hypotheses_hold=False,
            cherries=0,
            cherry_floor=0.0,
            max_sphere2_multiplicity=0,
            contradiction_threshold=2 * d,
            reaches_contradiction=False,
            status="not applicable",
        )
    w_bound = epsilon**4 * d * len(s_set) / 360000.0
    w_bound_ok = len(w_set) <= w_bound
    degree_threshold = epsilon**2 * d / 200.0
    min_degree = min(
        sum(1 for u in cube.neighbors(v) if u in w_set) for v in s_set
    )
    degree_ok = min_degree >= degree_threshold
    hypotheses_hold = w_bound_ok and degree_ok
    cherries = cherry_count(cube, s_set, w_set)
    max_mult = max(
        sum(1 for u in sphere2(cube, v) if u in s_set) for v in s_set
    )
    problems = []
    if not w_bound_ok:
        problems.append("hypothesis |W| bound violated")
    if not degree_ok:
        problems.append("hypothesis degree bound violated")
    status = "; ".join(problems) if problems else "hypotheses hold"
    return NeighbourhoodDiagnostic(
        applicable=True,
        s_size=len(s_set),
        w_size=len(w_set),
        w_bound=w_bound,
        w_bound_ok=w_bound_ok,
        degree_threshold=degree_threshold,
        min_degree_into_w=min_degree,
        degree_ok=degree_ok,
        hypotheses_hold=hypotheses_hold,
        cherries=cherries,
        cherry_floor=9.0 * d * len(s_set) / 4.0,
        max_sphere2_multiplicity=max_mult,
        contradiction_threshold=2 * d,
        reaches_contradiction=max_mult >= 2 * d,
        status=status,
    )


# === binomial tails ===


def binomial_tail(m: int, q: float, k: int) -> float:
    """P[Bin(m, q) >= k], exact to ~1e-9 relative error for m <= 1e7.

    Evaluated through the regularized incomplete beta function, which
    sums the tail in stable incremental form rather than via factorials.
    """
    if m < 0 or k < 0 or k > m:
        raise InputDomainError(f"need 0 <= k <= m, got k={k}, m={m}")
    if not 0.0 <= q <= 1.0:
        raise InputDomainError(f"probability must be in [0, 1], got {q}")
    if k == 0:
        return 1.0
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    return float(betainc(k, m - k + 1, q))


@dataclass(frozen=True)
class TailComparison:
    """Exact binomial tail beside the closed-form exponential bound."""

    k: int
    d: int
    epsilon: float
    m: int
    q: float
    exact_tail: float
    chernoff_value: float
    holds: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def chernoff_comparison(k: int, d: int, epsilon: float) -> TailComparison:
    """Compare P[Bin(9kd/10 + k, (1+eps)/d) >= k] with exp(-k/100).

    The trial count 9kd/10 is floored when fractional. `holds` records
    whether the exact tail sits at or below the exponential value; the
    comparison is informational for small k.
    """
    if k < 1:
        raise InputDomainError(f"k must be >= 1, got {k}")
    m = (9 * k * d) // 10 + k
    q = (1.0 + epsilon) / d
    exact = binomial_tail(m, q, k)
    chernoff = math.exp(-k / 100.0)
    return TailComparison(
        k=k,
        d=d,
        epsilon=epsilon,
        m=m,
        q=q,
        exact_tail=exact,
        chernoff_value=chernoff,
        holds=exact <= chernoff,
    )


# === tree counting ===

_TREE_MAX_N = 1 << 12
_TREE_MAX_K = 7


def tree_count_exact(oracle, k: int) -> int:
    """Number of k-vertex tree subgraphs, by exhaustive enumeration.

    Enumerates every connected k-vertex set once, then counts the
    spanning trees of the induced subgraph; the sum counts each tree
    subgraph (vertex set plus edge set) exactly once.
    """
    if k < 1:
        raise InputDomainError(f"k must be >= 1, got {k}")
    if oracle.n > _TREE_MAX_N or k > _TREE_MAX_K:
        raise RefusalError(
            f"exhaustive enumeration limited to n <= {_TREE_MAX_N} and "
            f"k <= {_TREE_MAX_K}; got n={oracle.n}, k={k}"
        )
    n = oracle.n
    if k == 1:
        return n
    adj = [frozenset(oracle.neighbors(v)) for v in range(n)]
    total = 0

    def spanning_trees(vertices: tuple) -> int:
        idx = {v: i for i, v in enumerate(vertices)}
        lap = np.zeros((k, k), dtype=np.float64)
        for v in vertices:
            for u in adj[v]:
                if u in idx and u > v:
                    a, b = idx[v], idx[u]
                    lap[a, a] += 1
                    lap[b, b] += 1
                    lap[a, b] -= 1
                    lap[b, a] -= 1
        return int(round(np.linalg.det(lap[1:, 1:])))

    def extend(sub: list, extension: set, root: int, closed: set):
        nonlocal total
        if len(sub) == k:
            total += spanning_trees(tuple(sub))
            return
        ext = set(extension)
        while ext:
            w = ext.pop()
            exclusive = {u for u in adj[w] if u > root and u not in closed}
            sub.append(w)
            extend(sub, ext | exclusive, root, closed | exclusive)
            sub.pop()

    for root in range(n):
        start = {u for u in adj[root] if u > root}
        extend([root], start, root, {root} | set(adj[root]))
    return total


def tree_count_bound(n: int, d: int, k: int) -> float:
    """Closed-form ceiling n * (e*d)^(k-1) on the k-vertex tree count
    of any d-regular graph on n vertices."""
    if k < 1:
        raise InputDomainError(f"k must be >= 1, got {k}")
    return float(n) * (math.e * d) ** (k - 1)


# === squid candidates ===


def _region_mask(cube, region) -> np.ndarray:
    """A bool mask over V(Q^d), passed through, or built from labels."""
    if isinstance(region, np.ndarray) and region.dtype == bool:
        if region.shape != (cube.n,):
            raise InputDomainError(f"region mask must have length {cube.n}")
        return region
    labels = np.fromiter(region, dtype=np.int64)
    mask = np.zeros(cube.n, dtype=bool)
    mask[labels[(labels >= 0) & (labels < cube.n)]] = True
    return mask


def _component_counts(d: int, flat: np.ndarray, owner: np.ndarray, m: int) -> np.ndarray:
    """Number of connected pieces of each candidate, from one labeling.

    Entry j of `flat` is a vertex of candidate owner[j]; the key
    owner * 2^d + vertex keeps candidates apart, and flipping a bit
    below d moves along an edge of Q^d without leaving the candidate.
    Labels outside Q^d get no edges, so each is a piece of its own.
    """
    inside = np.flatnonzero((flat >= 0) & (flat < 1 << d))
    keys = owner[inside] * (1 << d) + flat[inside]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    entry = inside[order]
    rows = []
    cols = []
    for i in range(d):
        partner = keys ^ (1 << i)
        pos = np.minimum(np.searchsorted(keys, partner), len(keys) - 1)
        hit = (partner > keys) & (keys[pos] == partner)
        rows.append(entry[hit])
        cols.append(entry[pos[hit]])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    graph = coo_matrix((np.ones(len(rows), np.int8), (rows, cols)), shape=(len(flat),) * 2)
    _, piece = connected_components(graph, directed=False)
    first = np.unique(piece, return_index=True)[1]
    return np.bincount(owner[first], minlength=m)


def check_squid(cube, giant_region, candidates, epsilon: float, C: float) -> list:
    """Report candidate sets with many vertices starved of neighbors in
    the giant's closed neighborhood.

    `giant_region` is the caller-precomputed union of the largest
    component and its external neighborhood, as a bool mask over V(Q^d)
    or as a collection of labels. `candidates` is a sequence of vertex
    sequences. Each candidate must be nonempty, without repeats,
    connected and of at most C*d vertices; the first candidate that is
    not raises InputDomainError naming the first of those conditions it
    breaks. A vertex is deprived when it has fewer than eps^2*d/40
    neighbors inside giant_region; a candidate is reported when its
    deprived count reaches eps*d/10. Candidates are supplied, never
    enumerated: the all-connected-sets quantifier is a union-bound
    device, not an algorithm.

    All candidates are checked together: their vertices are
    concatenated, neighbors inside the region are counted by d mask
    lookups, and connectivity comes from one labeling of the edges
    inside candidates.
    """
    d = cube.d
    region = _region_mask(cube, giant_region)
    deprived_bound = epsilon**2 * d / 40.0
    report_bound = epsilon * d / 10.0
    size_cap = C * d
    sizes = np.array([len(c) for c in candidates], dtype=np.int64)
    m = len(sizes)
    if m == 0:
        return []
    flat = np.concatenate([np.asarray(c, dtype=np.int64) for c in candidates])
    owner = np.repeat(np.arange(m), sizes)
    starts = np.cumsum(sizes) - sizes

    empty = sizes == 0
    by_owner = np.lexsort((flat, owner))
    o, v = owner[by_owner], flat[by_owner]
    repeated = np.zeros(m, dtype=bool)
    repeated[o[1:][(o[1:] == o[:-1]) & (v[1:] == v[:-1])]] = True
    oversized = sizes > size_cap
    # connectivity is searched from a candidate's first vertex, so a label
    # outside Q^d is named when it leads and disconnects the candidate
    # otherwise
    lead_outside = np.zeros(m, dtype=bool)
    lead = flat[starts[~empty]]
    lead_outside[~empty] = (lead < 0) | (lead >= cube.n)
    disconnected = _component_counts(d, flat, owner, m) != 1
    bad = np.flatnonzero(empty | repeated | oversized | lead_outside | disconnected)
    if len(bad):
        i = int(bad[0])
        if empty[i]:
            raise InputDomainError(f"candidate {i} is empty")
        if repeated[i]:
            raise InputDomainError(f"candidate {i} has repeated vertices")
        if oversized[i]:
            raise InputDomainError(
                f"candidate {i} has {int(sizes[i])} vertices, above C*d = {size_cap}"
            )
        cube.check_vertex(int(flat[starts[i]]))
        raise InputDomainError(f"candidate {i} is not connected")

    inside = np.zeros(len(flat), dtype=np.uint8)
    for i in range(d):
        inside += region[flat ^ (1 << i)]
    deprived = np.bincount(owner[inside < deprived_bound], minlength=m)
    smallest = np.minimum.reduceat(flat, starts)
    return [
        ViolationReport(
            checker="squid",
            witness={
                "candidate_index": i,
                "size": int(sizes[i]),
                "min_vertex": int(smallest[i]),
            },
            measured=float(deprived[i]),
            threshold=report_bound,
        )
        for i in np.flatnonzero(deprived >= report_bound).tolist()
    ]
