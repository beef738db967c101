"""Implicit hypercube Q^d, subcube algebra, and tiny explicit oracles.

Vertices are integer labels; coordinate i is bit i of the label. Q^d is
never materialized: adjacency is "XOR with a power of two", so every
operation works from the label alone and the same code drives d=3 unit
tests and d=26 production runs.

Two deterministic constructions are provided on top of the raw graph:
separating k <= d vertices into pairwise disjoint subcubes of dimension
at least d-k+1, and building m disjoint pivot subcubes at distance 1
from a vertex inside a host subcube.
"""

import numpy as np

from .errors import InputDomainError

# === graph oracles ===


class Hypercube:
    """Q^d on labels 0 .. 2^d - 1; d-regular with n = 2^d vertices."""

    def __init__(self, d: int):
        if d < 1:
            raise InputDomainError(f"dimension must be >= 1, got {d}")
        self.d = int(d)
        self.n = 1 << self.d

    @property
    def degree(self) -> int:
        return self.d

    def check_vertex(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise InputDomainError(f"label {v} out of range for d={self.d}")
        return v

    def neighbors(self, v: int) -> list[int]:
        """All d vertices at Hamming distance 1, in increasing coordinate order."""
        self.check_vertex(v)
        return [v ^ (1 << i) for i in range(self.d)]

    def __repr__(self):
        return f"Hypercube(d={self.d})"


class Cycle:
    """Explicit cycle on m vertices; the 2-regular cross-check oracle."""

    def __init__(self, m: int):
        if m < 3:
            raise InputDomainError(f"cycle needs >= 3 vertices, got {m}")
        self.n = int(m)
        self.d = 2

    @property
    def degree(self) -> int:
        return 2

    def check_vertex(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise InputDomainError(f"label {v} out of range for cycle of {self.n}")
        return v

    def neighbors(self, v: int) -> list[int]:
        self.check_vertex(v)
        return sorted(((v - 1) % self.n, (v + 1) % self.n))

    def __repr__(self):
        return f"Cycle(n={self.n})"


# === elementary geometry ===


def hamming_distance(u: int, v: int) -> int:
    """Number of coordinates where the two labels differ."""
    if u < 0 or v < 0:
        raise InputDomainError("labels must be nonnegative")
    return (u ^ v).bit_count()


def sphere2(cube: Hypercube, v: int) -> set[int]:
    """The C(d,2) vertices at Hamming distance exactly 2 from v.

    Empty for d < 2 (no two distinct coordinates to flip).
    """
    cube.check_vertex(v)
    d = cube.d
    return {v ^ (1 << i) ^ (1 << j) for i in range(d) for j in range(i + 1, d)}


def common_neighbors(cube: Hypercube, u: int, v: int) -> int:
    """Count vertices adjacent to both u and v.

    Equals 2 when the labels are at distance 2 and 0 otherwise; u = v is
    rejected because the answer there is d and no caller needs it.
    """
    cube.check_vertex(u)
    cube.check_vertex(v)
    if u == v:
        raise InputDomainError("common_neighbors requires u != v")
    return sum(1 for w in cube.neighbors(u) if hamming_distance(w, v) == 1)


def closed_neighborhood_mask(d: int, members: np.ndarray) -> np.ndarray:
    """Length-2^d bool mask of `members` together with every neighbor.

    O(|members| * d) scatters into one O(n)-byte array; the external
    neighborhood is this mask with `members` cleared, and its size is
    mask.sum() - len(members) for distinct members.
    """
    members = np.asarray(members, dtype=np.int64)
    mask = np.zeros(1 << d, dtype=bool)
    mask[members] = True
    for i in range(d):
        mask[members ^ (1 << i)] = True
    return mask


def external_neighborhood(oracle, S, within=None) -> set[int]:
    """Vertices outside S adjacent to S; intersected with `within` if given.

    On Q^d the boundary is read off closed_neighborhood_mask; callers
    that only need a count or a lookup should use that mask directly.
    Explicit oracles take the neighbor loop.
    """
    if isinstance(oracle, Hypercube):
        members = np.fromiter(S, dtype=np.int64)
        outside = members[(members < 0) | (members >= oracle.n)]
        if outside.size:
            raise InputDomainError(f"label {outside[0]} out of range for d={oracle.d}")
        mask = closed_neighborhood_mask(oracle.d, members)
        mask[members] = False
        result = set(np.flatnonzero(mask).tolist())
    else:
        S = set(S)
        result = set()
        for s in S:
            for u in oracle.neighbors(s):
                if u not in S:
                    result.add(u)
    if within is not None:
        result &= set(within)
    return result


def xor_shift(arr: np.ndarray, bit: int) -> np.ndarray:
    """A length-2^d array reindexed by v -> v XOR 2^bit.

    Fresh contiguous array; arr itself is untouched. This is the
    vectorized form of "look up every vertex's neighbor along one
    coordinate" used by the density and classification scans.
    """
    half = 1 << bit
    return np.ascontiguousarray(arr.reshape(-1, 2, half)[:, ::-1, :]).reshape(arr.shape)


# === subcubes ===


class Subcube:
    """Axis-aligned subcube: coordinates in fixed_mask pinned to fixed_values."""

    __slots__ = ("fixed_mask", "fixed_values", "ambient_d")

    def __init__(self, fixed_mask: int, fixed_values: int, ambient_d: int):
        if ambient_d < 1:
            raise InputDomainError("ambient dimension must be >= 1")
        full = (1 << ambient_d) - 1
        if not 0 <= fixed_mask <= full:
            raise InputDomainError("fixed_mask outside the ambient cube")
        if fixed_values & ~fixed_mask:
            raise InputDomainError("fixed_values set outside fixed_mask")
        self.fixed_mask = fixed_mask
        self.fixed_values = fixed_values
        self.ambient_d = ambient_d

    @classmethod
    def whole(cls, d: int) -> "Subcube":
        return cls(0, 0, d)

    def dimension(self) -> int:
        return self.ambient_d - self.fixed_mask.bit_count()

    def order(self) -> int:
        return 1 << self.dimension()

    def contains(self, v: int) -> bool:
        return (v & self.fixed_mask) == self.fixed_values

    def free_coordinates(self) -> list[int]:
        return [i for i in range(self.ambient_d) if not (self.fixed_mask >> i) & 1]

    def vertices(self):
        """Iterate all member labels (free bits distributed over 0..order-1)."""
        free = self.free_coordinates()
        for pattern in range(self.order()):
            v = self.fixed_values
            for pos, coord in enumerate(free):
                if (pattern >> pos) & 1:
                    v |= 1 << coord
            yield v

    def disjoint_from(self, other: "Subcube") -> bool:
        """True iff some coordinate is fixed in both with different values."""
        shared = self.fixed_mask & other.fixed_mask
        return bool((self.fixed_values ^ other.fixed_values) & shared)

    def __eq__(self, other):
        return (
            isinstance(other, Subcube)
            and self.fixed_mask == other.fixed_mask
            and self.fixed_values == other.fixed_values
            and self.ambient_d == other.ambient_d
        )

    def __hash__(self):
        return hash((self.fixed_mask, self.fixed_values, self.ambient_d))

    def __repr__(self):
        bits = "".join(
            (str((self.fixed_values >> i) & 1) if (self.fixed_mask >> i) & 1 else "*")
            for i in range(self.ambient_d)
        )
        return f"Subcube({bits})"


def separate_into_subcubes(cube: Hypercube, S) -> list[tuple[Subcube, int]]:
    """Place each of k <= d distinct vertices in its own subcube.

    The returned subcubes are pairwise disjoint, each of dimension at
    least d-k+1, and each contains exactly its paired vertex from S.
    Construction is a deterministic recursion: split the two smallest
    not-yet-separated vertices on their lowest-index differing
    coordinate, then recurse into the two half-cubes.
    """
    order_in = list(S)
    k = len(order_in)
    if k == 0:
        raise InputDomainError("S must be nonempty")
    if k > cube.d:
        raise InputDomainError(f"|S|={k} exceeds d={cube.d}")
    if len(set(order_in)) != k:
        raise InputDomainError("vertices must be distinct")
    for v in order_in:
        cube.check_vertex(v)

    placed: dict[int, Subcube] = {}

    def split(sub: Subcube, verts: list[int]):
        if len(verts) == 1:
            placed[verts[0]] = sub
            return
        a, b = verts[0], verts[1]
        diff = a ^ b
        coord = (diff & -diff).bit_length() - 1
        bit = 1 << coord
        lo = Subcube(sub.fixed_mask | bit, sub.fixed_values, cube.d)
        hi = Subcube(sub.fixed_mask | bit, sub.fixed_values | bit, cube.d)
        split_lo = [v for v in verts if not v & bit]
        split_hi = [v for v in verts if v & bit]
        split(lo, split_lo)
        split(hi, split_hi)

    split(Subcube.whole(cube.d), sorted(order_in))
    return [(placed[v], v) for v in order_in]


def build_pivot_subcubes(
    cube: Hypercube, host: Subcube, v: int, m: int
) -> list[tuple[Subcube, int]]:
    """m pairwise disjoint subcubes of `host`, each at distance 1 from v.

    After translating so v is the origin of the host, subcube j fixes
    the first m free coordinates of the host to the j-th standard
    pattern (coordinate j set to 1, the rest to 0). The paired vertex is
    v with free coordinate j flipped; each subcube has dimension
    dimension(host) - m.
    """
    cube.check_vertex(v)
    if not host.contains(v):
        raise InputDomainError("v must lie inside the host subcube")
    free = host.free_coordinates()
    if m > len(free):
        raise InputDomainError(f"m={m} exceeds host dimension {len(free)}")
    if m < 0:
        raise InputDomainError("m must be nonnegative")
    first = free[:m]
    base_mask = host.fixed_mask
    for c in first:
        base_mask |= 1 << c
    out = []
    for j, cj in enumerate(first):
        values = host.fixed_values
        for i, ci in enumerate(first):
            want = ((v >> ci) & 1) ^ (1 if i == j else 0)
            values |= want << ci
        out.append((Subcube(base_mask, values, cube.d), v ^ (1 << cj)))
    return out
