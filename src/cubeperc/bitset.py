"""Packed vertex sets of Q^d: vertex v is bit v & 63 of uint64 word v >> 6.

This is PercolationSample.bits read as little-endian words; below d = 6
a set is one word whose bits past n are 0. Moving a set along
coordinate i is a masked shift inside each word (i < 6) or a swap of
word blocks 2^(i-6) apart (i >= 6). Per-vertex neighbour counts are
kept bit-sliced: plane b holds bit b of every vertex's count, so
d.bit_length() planes hold any count up to d, and each flip of the set
is added into them with a ripple carry. No per-vertex byte array is built.
"""

import numpy as np

_ONE = np.uint64(1)
# _LOW[i]: the bits b of a word whose coordinate i is 0 (0x5555..., 0x3333..., ...)
_LOW = tuple(np.uint64(sum(1 << b for b in range(64) if not b >> i & 1)) for i in range(6))


def words(bits: np.ndarray, d: int) -> np.ndarray:
    """The uint64 words of a packed set (ceil(n/8) bytes, little bit
    order, as PercolationSample.bits): a view for d >= 6, else one fresh
    word with the padding bits past n cleared."""
    if d < 6:
        word = int.from_bytes(bits.tobytes(), "little") & ((1 << (1 << d)) - 1)
        return np.array([word], dtype=np.uint64)
    return bits.view("<u8")


def pack(vertices: np.ndarray, d: int) -> np.ndarray:
    """The words of the set of `vertices` (any order, repeats allowed;
    each in [0, 2^d))."""
    vertices = np.asarray(vertices, dtype=np.int64)
    out = np.zeros(max(1, (1 << d) >> 6), dtype=np.uint64)
    np.bitwise_or.at(out, vertices >> 6, _ONE << (vertices & 63).astype(np.uint64))
    return out


def unpack(w: np.ndarray, d: int) -> np.ndarray:
    """The set as a length-2^d bool mask."""
    return np.unpackbits(w.view(np.uint8), count=1 << d, bitorder="little").view(bool)


def flip(w: np.ndarray, i: int) -> np.ndarray:
    """The set moved along coordinate i, {v ^ 2^i : v in w}, as fresh words."""
    if i < 6:
        shift = np.uint64(1 << i)
        return ((w >> shift) & _LOW[i]) | ((w & _LOW[i]) << shift)
    half = 1 << (i - 6)
    return np.ascontiguousarray(w.reshape(-1, 2, half)[:, ::-1]).reshape(-1)


def closed_neighbourhood(d: int, w: np.ndarray) -> np.ndarray:
    """The set w together with every neighbour of a member, as fresh words."""
    out = w.copy()
    for i in range(d):
        out |= flip(w, i)
    return out


def at_least(d: int, t: np.ndarray, k: int, among: np.ndarray) -> np.ndarray:
    """The vertices of `among` with at least k neighbours in the set t,
    for 0 < k <= d, as words, from the bit-sliced count of the module
    docstring. After i + 1 flips a count is at most i + 1, so each
    addition carries only through the planes that can hold it."""
    planes = [np.zeros_like(t) for _ in range(d.bit_length())]
    carry = np.empty_like(t)
    for i in range(d):
        add = flip(t, i)
        for plane in planes[: (i + 1).bit_length()]:
            np.bitwise_and(plane, add, out=carry)
            plane ^= add
            add, carry = carry, add
    above = np.zeros_like(t)
    equal = among.copy()
    for b in reversed(range(len(planes))):
        if k >> b & 1:
            equal &= planes[b]
        else:
            above |= equal & planes[b]
            equal &= ~planes[b]
    return above | equal


def ranker(w: np.ndarray):
    """(rank, size) of the set w. rank(j, bit) is the index, among the
    members in increasing order, of the vertex at word j and one-bit word
    `bit`: the popcount of the words before j plus that of w[j] below bit."""
    counts = np.bitwise_count(w)
    ends = np.cumsum(counts, dtype=np.int64)
    # int32 ranks: a set has fewer than 2^31 members up to d = 30, past the harness's d <= 26
    start = (ends - counts).astype(np.int32)

    def rank(j, bit):
        return start[j] + np.bitwise_count(w[j] & (bit - _ONE))

    return rank, int(ends[-1])


def vertex_of(j: np.ndarray, bit: np.ndarray) -> np.ndarray:
    """The vertex at word j and one-bit word `bit`, as int64."""
    return (j << 6) | np.bitwise_count(bit - _ONE)


def set_bits(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(j, bit) for every set bit of every w[j], bit as a one-bit word.

    Each round peels the lowest set bit off the words still nonzero, so
    there are as many rounds as the largest popcount.
    """
    j = np.flatnonzero(w)
    rest = w[j]
    js, lows = [], []
    while len(j):
        cleared = rest & (rest - _ONE)
        js.append(j)
        lows.append(rest ^ cleared)
        keep = cleared != 0
        j = j[keep]
        rest = cleared[keep]
    # j and rest are empty here; they stand in when no word was nonzero
    return np.concatenate(js + [j]), np.concatenate(lows + [rest])
