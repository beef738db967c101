"""The packed vertex-set kernels of cubeperc.bitset against brute force
over every vertex of Q^d."""

import numpy as np
import pytest

import oracles
from cubeperc.bitset import at_least, closed_neighbourhood, flip, pack, unpack, words


def _as_set(w, d):
    return set(np.flatnonzero(unpack(w, d)).tolist())


@pytest.mark.parametrize("d", range(1, 10))
def test_kernels_match_bruteforce(d):
    n = 1 << d
    gen = np.random.default_rng(d)
    members = gen.integers(0, n, size=max(1, n // 5))  # repeats included
    s = set(members.tolist())
    w = pack(members, d)
    assert len(w) == max(1, n >> 6)
    if d < 6:
        assert int(w[0]) >> n == 0  # no padding bits past n
    assert _as_set(w, d) == s
    # the sample's byte layout reads back as the same words
    assert np.array_equal(words(w.view(np.uint8)[: (n + 7) // 8], d), w)

    for i in range(d):
        assert _as_set(flip(w, i), d) == {v ^ (1 << i) for v in s}

    closed = closed_neighbourhood(d, w)
    if d < 6:
        assert int(closed[0]) >> n == 0
    assert _as_set(closed, d) == s | oracles.external_neighborhood_bruteforce(d, s)

    among = gen.random(n) < 0.5
    count = [sum(v ^ (1 << i) in s for i in range(d)) for v in range(n)]
    for k in range(1, d + 1):
        got = at_least(d, w, k, pack(np.flatnonzero(among), d))
        assert _as_set(got, d) == {v for v in range(n) if among[v] and count[v] >= k}
