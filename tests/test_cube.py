import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cubeperc.cube import (
    Hypercube,
    Subcube,
    build_pivot_subcubes,
    common_neighbors,
    external_neighborhood,
    hamming_distance,
    separate_into_subcubes,
    sphere2,
    xor_shift,
)
from cubeperc.errors import InputDomainError


# --- graph oracles ---


def test_hypercube_basic_counts():
    q = Hypercube(5)
    assert q.n == 32
    assert q.degree == 5
    assert len(q.neighbors(0)) == 5


def test_hypercube_neighbors_are_distance_one():
    q = Hypercube(6)
    for v in [0, 17, 63]:
        for u in q.neighbors(v):
            assert hamming_distance(u, v) == 1


def test_hypercube_neighbor_order_is_by_coordinate():
    q = Hypercube(4)
    assert q.neighbors(0) == [1, 2, 4, 8]
    assert q.neighbors(5) == [4, 7, 1, 13]


def test_hypercube_rejects_bad_labels():
    q = Hypercube(3)
    with pytest.raises(InputDomainError):
        q.check_vertex(8)
    with pytest.raises(InputDomainError):
        q.check_vertex(-1)
    with pytest.raises(InputDomainError):
        Hypercube(0)


def test_cycle_adjacency_wraps():
    c = oracles.Cycle(5)
    assert c.neighbors(0) == [1, 4]
    assert c.neighbors(4) == [0, 3]
    assert c.degree == 2
    with pytest.raises(InputDomainError):
        oracles.Cycle(2)


def test_q2_is_a_4_cycle():
    q = Hypercube(2)
    # 0-1-3-2-0
    assert set(q.neighbors(0)) == {1, 2}
    assert set(q.neighbors(3)) == {1, 2}


# --- elementary geometry ---


@given(st.integers(min_value=0, max_value=2**20), st.integers(min_value=0, max_value=2**20))
def test_hamming_distance_matches_bit_count(u, v):
    assert hamming_distance(u, v) == oracles.bit_count(u ^ v)


def test_hamming_distance_rejects_negative():
    with pytest.raises(InputDomainError):
        hamming_distance(-1, 0)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_sphere2_matches_bruteforce(d):
    q = Hypercube(d)
    for v in [0, (1 << d) - 1, 1 << (d - 1)]:
        got = sphere2(q, v)
        assert got == oracles.sphere2_bruteforce(d, v)
        assert len(got) == comb(d, 2)


def test_sphere2_d1_empty():
    assert sphere2(Hypercube(1), 0) == set()


@pytest.mark.parametrize("d", [3, 4, 5])
def test_common_neighbors_law(d):
    q = Hypercube(d)
    for u, v in itertools.combinations(range(1 << d), 2):
        got = common_neighbors(q, u, v)
        assert got == oracles.two_paths(d, u, v)
        if hamming_distance(u, v) == 2:
            assert got == 2
        else:
            assert got == 0


def test_common_neighbors_rejects_equal():
    with pytest.raises(InputDomainError):
        common_neighbors(Hypercube(3), 5, 5)


@pytest.mark.parametrize("d", [3, 5])
def test_external_neighborhood_small_sets(d):
    q = Hypercube(d)
    for S in [{0}, {0, 1}, {0, (1 << d) - 1}, set(range(4))]:
        assert external_neighborhood(q, S) == oracles.external_neighborhood_bruteforce(d, S)


def test_external_neighborhood_vector_path_matches_scalar():
    # a set of more than 1024 members, against the brute-force oracle
    q = Hypercube(11)
    S = set(range(1500))
    assert external_neighborhood(q, S) == oracles.external_neighborhood_bruteforce(11, S)


def test_external_neighborhood_within_filter():
    q = Hypercube(3)
    full = external_neighborhood(q, {0})
    assert full == {1, 2, 4}
    assert external_neighborhood(q, {0}, within={1, 4, 7}) == {1, 4}


def test_external_neighborhood_whole_cube_is_empty():
    q = Hypercube(3)
    assert external_neighborhood(q, set(range(8))) == set()


@pytest.mark.parametrize("d,bit", [(3, 0), (3, 2), (6, 4)])
def test_xor_shift_reindexes(d, bit):
    arr = np.arange(1 << d, dtype=np.int64)
    shifted = xor_shift(arr, bit)
    for v in range(1 << d):
        assert shifted[v] == arr[v ^ (1 << bit)]


def test_xor_shift_leaves_input_untouched():
    arr = np.arange(16, dtype=np.int64)
    before = arr.copy()
    xor_shift(arr, 1)
    assert np.array_equal(arr, before)


def test_xor_shift_is_an_involution():
    arr = np.arange(64, dtype=np.uint8)
    assert np.array_equal(xor_shift(xor_shift(arr, 3), 3), arr)


# --- subcube algebra ---


def test_subcube_whole():
    s = Subcube.whole(4)
    assert s.dimension() == 4
    assert s.order() == 16
    assert s.free_coordinates() == [0, 1, 2, 3]
    assert all(s.contains(v) for v in range(16))


def test_subcube_membership_and_enumeration():
    # fix bit 1 to 1 inside Q^3: vertices with bit 1 set
    s = Subcube(0b010, 0b010, 3)
    assert s.dimension() == 2
    assert sorted(s.vertices()) == [2, 3, 6, 7]
    assert s.contains(6)
    assert not s.contains(4)


def test_subcube_validation():
    with pytest.raises(InputDomainError):
        Subcube(0b100, 0b001, 3)  # value outside mask
    with pytest.raises(InputDomainError):
        Subcube(0b1000, 0, 3)  # mask outside ambient cube
    with pytest.raises(InputDomainError):
        Subcube(0, 0, 0)


def test_subcube_disjointness():
    a = Subcube(0b01, 0b00, 2)
    b = Subcube(0b01, 0b01, 2)
    c = Subcube(0b10, 0b10, 2)
    assert a.disjoint_from(b)
    assert not a.disjoint_from(c)  # they share vertex 2
    assert set(a.vertices()) & set(c.vertices()) == {2}


def test_subcube_equality_and_hash():
    a = Subcube(0b01, 0b01, 3)
    b = Subcube(0b01, 0b01, 3)
    c = Subcube(0b01, 0b00, 3)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_subcube_repr_uses_stars():
    assert repr(Subcube(0b010, 0b010, 3)) == "Subcube(*1*)"


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.sets(st.integers(min_value=0, max_value=(1 << d) - 1), min_size=1, max_size=d),
        )
    )
)
@settings(max_examples=200)
def test_separation_invariants(args):
    d, S = args
    q = Hypercube(d)
    pairs = separate_into_subcubes(q, sorted(S))
    k = len(S)
    assert [v for _, v in pairs] == sorted(S)
    for sub, v in pairs:
        assert sub.contains(v)
        assert sub.dimension() >= d - k + 1
        # no other chosen vertex lands in this subcube
        assert all(not sub.contains(u) for u in S if u != v)
    for (s1, _), (s2, _) in itertools.combinations(pairs, 2):
        assert s1.disjoint_from(s2)


def test_separation_exhaustive_d3():
    q = Hypercube(3)
    for k in (1, 2, 3):
        for S in itertools.combinations(range(8), k):
            pairs = separate_into_subcubes(q, S)
            covered = [set(sub.vertices()) for sub, _ in pairs]
            for i, j in itertools.combinations(range(k), 2):
                assert not (covered[i] & covered[j])


def test_separation_errors():
    q = Hypercube(3)
    with pytest.raises(InputDomainError):
        separate_into_subcubes(q, [])
    with pytest.raises(InputDomainError):
        separate_into_subcubes(q, [0, 1, 2, 3])  # k > d
    with pytest.raises(InputDomainError):
        separate_into_subcubes(q, [1, 1])


def test_pivot_subcubes_structure():
    q = Hypercube(6)
    host = Subcube.whole(6)
    v = 0b101010
    m = 3
    pairs = build_pivot_subcubes(q, host, v, m)
    assert len(pairs) == m
    for sub, w in pairs:
        assert hamming_distance(v, w) == 1
        assert sub.contains(w)
        assert not sub.contains(v)
        assert sub.dimension() == host.dimension() - m
    for (s1, _), (s2, _) in itertools.combinations(pairs, 2):
        assert s1.disjoint_from(s2)


def test_pivot_subcubes_inside_proper_host():
    q = Hypercube(5)
    host = Subcube(0b00011, 0b00001, 5)  # bits 0,1 pinned to 01
    v = 0b00001
    pairs = build_pivot_subcubes(q, host, v, 2)
    for sub, w in pairs:
        assert host.contains(w)
        for u in sub.vertices():
            assert host.contains(u)


def test_pivot_subcubes_errors():
    q = Hypercube(4)
    host = Subcube.whole(4)
    with pytest.raises(InputDomainError):
        build_pivot_subcubes(q, host, 0, 5)  # m exceeds host dimension
    with pytest.raises(InputDomainError):
        build_pivot_subcubes(q, Subcube(0b1, 0b1, 4), 0, 1)  # v outside host
    with pytest.raises(InputDomainError):
        build_pivot_subcubes(q, host, 0, -1)


def test_pivot_subcubes_m_zero():
    q = Hypercube(4)
    assert build_pivot_subcubes(q, Subcube.whole(4), 3, 0) == []
