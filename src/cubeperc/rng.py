"""Keyed counter-based random bits.

Every coin is a pure function of (seed, key). The same 64-bit mix is
available one key at a time in plain Python and over whole key ranges
in numpy, with bit-identical results, so a lazy consumer (DFS queries)
and an eager one (bulk sampling) see the same coin for the same vertex.

The mix is the SplitMix64 output function applied to seed + (key+1)*phi,
where phi is the 64-bit golden-ratio constant. Coins compare the top 53
bits of the hash against an integer threshold, so retention decisions
never depend on float rounding at query time.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STREAM_SALT = 0xD1B54A32D192ED03  # domain separation for derive_seed

COIN_BITS = 53


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit word."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def keyed_hash(seed: int, key: int) -> int:
    """64-bit hash of (seed, key); scalar twin of keyed_hash_array."""
    return mix64((seed + (key + 1) * _GOLDEN) & _MASK64)


def _mix64_array(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array in place; tmp is scratch of z's shape."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def keyed_hash_array(seed: int, keys: np.ndarray) -> np.ndarray:
    """Vectorized keyed_hash over an integer key array (returns uint64)."""
    z = keys.astype(np.uint64, copy=True)
    z += np.uint64(1)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    return _mix64_array(z, np.empty_like(z))


def coin_threshold(p: float) -> int:
    """Integer t in [0, 2^53]; a key is retained iff hash(key) >> 11 < t.

    The effective retention probability is t / 2^53, within 2^-53 of p.
    """
    return int(p * (1 << COIN_BITS))


def coin(seed: int, key: int, threshold: int) -> bool:
    """One Bernoulli bit for (seed, key) against a coin_threshold value."""
    return (keyed_hash(seed, key) >> 11) < threshold


def coins_array(seed: int, keys: np.ndarray, threshold: int) -> np.ndarray:
    """Vectorized coin over a key array; returns a bool array."""
    return (keyed_hash_array(seed, keys) >> np.uint64(11)) < np.uint64(threshold)


def coin_blocks(seed: int, n: int, threshold: int, size: int):
    """Yield (lo, coins) for consecutive key blocks covering range(n).

    coins equals coins_array(seed, arange(lo, lo + len(coins)), threshold)
    and is overwritten by the next block. The pre-mix words
    seed + (key+1)*phi of consecutive keys step by phi, so each block
    starts as one add of its base to a fixed progression, and every pass
    reuses the same buffers.
    """
    size = min(size, n)
    steps = np.arange(size, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = np.empty(size, dtype=np.uint64)
    tmp = np.empty(size, dtype=np.uint64)
    coins = np.empty(size, dtype=bool)
    for lo in range(0, n, size):
        k = min(size, n - lo)
        np.add(steps[:k], np.uint64((seed + (lo + 1) * _GOLDEN) & _MASK64), out=z[:k])
        _mix64_array(z[:k], tmp[:k])
        np.right_shift(z[:k], np.uint64(11), out=tmp[:k])
        np.less(tmp[:k], np.uint64(threshold), out=coins[:k])
        yield lo, coins[:k]


def derive_seed(seed: int, index: int) -> int:
    """Child seed for an indexed substream (trial rounds, sweep cells).

    Salted so child seeds never collide with per-vertex coin hashes of
    the parent seed.
    """
    return keyed_hash(seed ^ _STREAM_SALT, index)
