"""Reference computations for the benchmark's correctness checks.

Nothing here imports cubeperc. Samples are regenerated from the keyed
SplitMix64 coin definition, components come from a vectorized
hook-and-compress union-find over the induced edge list (not scipy's
csgraph, which the program uses), and neighbourhoods and sphere-2
counts come from boolean masks over the whole cube.
"""

from fractions import Fraction

import numpy as np

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SALT = 0xD1B54A32D192ED03


def _mix(z: int) -> int:
    z ^= z >> 30
    z = (z * _MIX1) & _M64
    z ^= z >> 27
    z = (z * _MIX2) & _M64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Child seed of an indexed substream, from the documented salt."""
    return _mix(((seed ^ _SALT) + (index + 1) * _GOLDEN) & _M64)


def sample_mask(d: int, p: float, seed: int) -> np.ndarray:
    """Bool mask of retained vertices: hash(seed, v) >> 11 < floor(p 2^53)."""
    threshold = np.uint64(int(p * (1 << 53)))
    z = np.arange(1, (1 << d) + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _M64)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) < threshold


def two_round_split(epsilon: float, d: int) -> tuple:
    """(p, p1, p2) as exact rationals from the paper's split."""
    eps = Fraction(epsilon)
    return (1 + eps) / d, (1 + eps / 2) / d, eps / (2 * d - 2 - eps)


class Labeling:
    """Components of the subgraph of Q^d induced on a vertex mask.

    vertices is sorted; labels number components 0..k-1 by increasing
    minimum member (the program's canonical order); edges counts the
    induced edges.
    """

    def __init__(self, d: int, mask: np.ndarray):
        self.d = d
        self.mask = mask
        v = np.flatnonzero(mask)
        us, vs = [], []
        for i in range(d):
            nb = v ^ (1 << i)
            keep = (nb > v) & mask[nb]
            us.append(np.flatnonzero(keep))
            vs.append(np.searchsorted(v, nb[keep]))
        u = np.concatenate(us)
        w = np.concatenate(vs)
        parent = np.arange(len(v))
        while True:
            pu, pw = parent[u], parent[w]
            cross = pu != pw
            if not cross.any():
                break
            # every entry of parent is a root here, so this hooks roots only
            np.minimum.at(parent, np.maximum(pu[cross], pw[cross]), np.minimum(pu[cross], pw[cross]))
            while True:
                jumped = parent[parent]
                if np.array_equal(jumped, parent):
                    break
                parent = jumped
        # a root is its component's smallest index, hence its minimum vertex
        _, self.labels = np.unique(parent, return_inverse=True)
        self.vertices = v
        self.sizes = np.bincount(self.labels).astype(np.int64) if len(v) else np.zeros(0, np.int64)
        self.edges = len(u)

    @property
    def order_by_size(self) -> np.ndarray:
        """Ids by decreasing size, ties to the smaller minimum member."""
        return np.argsort(-self.sizes, kind="stable")

    def members(self, cid: int) -> np.ndarray:
        return self.vertices[self.labels == cid]

    def min_vertices(self) -> np.ndarray:
        return self.vertices[np.unique(self.labels, return_index=True)[1]]


def external_mask(d: int, members: np.ndarray) -> np.ndarray:
    """Mask of vertices outside `members` with a neighbour inside."""
    out = np.zeros(1 << d, dtype=bool)
    for i in range(d):
        out[members ^ (1 << i)] = True
    out[members] = False
    return out


def neighbour_sum(d: int, values: np.ndarray) -> np.ndarray:
    """(A x)(v) = sum over i of x[v ^ 2^i], as int32."""
    out = np.zeros(1 << d, dtype=np.int32)
    for i in range(d):
        half = 1 << i
        out += values.reshape(-1, 2, half)[:, ::-1, :].reshape(-1)
    return out


def sphere2_counts(d: int, mask: np.ndarray) -> np.ndarray:
    """|N^2(v) cap R| for every v, by the common-neighbour law
    (A^2 r)(v) = d r(v) + 2 |N^2(v) cap R|."""
    r = mask.astype(np.int32)
    return (neighbour_sum(d, neighbour_sum(d, r)) - d * r) // 2


def sphere2_direct(d: int, mask: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """|N^2(v) cap R| by enumerating all C(d,2) flips of each vertex."""
    flips = np.array([(1 << i) | (1 << j) for i in range(d) for j in range(i + 1, d)], dtype=np.int64)
    return mask[vertices[:, None] ^ flips[None, :]].sum(axis=1)
