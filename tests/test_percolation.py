from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cubeperc import percolation, rng
from cubeperc.cube import Cycle, Hypercube, external_neighborhood
from cubeperc.errors import InputDomainError, RefusalError
from cubeperc.percolation import (
    ComponentLabeling,
    PercolationSample,
    canonical_labeling,
    components,
    dfs_explore,
    label_members,
    largest_two,
    sample_sites,
    two_round_plan,
    union_samples,
)


# --- sampling ---


def test_sample_is_reproducible():
    a = sample_sites(8, 0.3, 99)
    b = sample_sites(8, 0.3, 99)
    assert np.array_equal(a.bits, b.bits)


def test_sample_extreme_probabilities():
    empty = sample_sites(6, 0.0, 1)
    full = sample_sites(6, 1.0, 1)
    assert empty.retained_count() == 0
    assert full.retained_count() == 64


def test_sample_rate_near_p():
    s = sample_sites(16, 0.25, 5)
    rate = s.retained_count() / s.n
    assert abs(rate - 0.25) < 0.01


@pytest.mark.parametrize("d", [3, 5, 15, 16, 17])
@pytest.mark.parametrize("p", [0.0, 0.07, 1.0])
def test_sample_matches_coins_array_across_blocks(d, p):
    # d = 16 is exactly one sampling block; 17 spans two
    seed = 2024
    keys = np.arange(1 << d, dtype=np.uint64)
    expected = np.packbits(rng.coins_array(seed, keys, rng.coin_threshold(p)), bitorder="little")
    assert np.array_equal(sample_sites(d, p, seed).bits, expected)


def test_sample_rejects_bad_args():
    with pytest.raises(InputDomainError):
        sample_sites(0, 0.5, 1)
    with pytest.raises(InputDomainError):
        sample_sites(4, 1.5, 1)
    with pytest.raises(InputDomainError):
        sample_sites(4, -0.1, 1)


def test_membership_views_agree():
    s = sample_sites(7, 0.4, 3)
    mask = s.as_bool()
    labels = s.retained_labels()
    assert s.retained_count() == int(mask.sum()) == len(labels)
    for v in range(s.n):
        assert s.contains(v) == bool(mask[v])
    many = s.contains_many(np.arange(s.n))
    assert np.array_equal(many, mask)
    assert np.array_equal(np.flatnonzero(mask), labels)


def test_from_labels_roundtrip():
    s = PercolationSample.from_labels(4, [0, 3, 9, 15])
    assert s.retained_labels().tolist() == [0, 3, 9, 15]
    assert s.retained_count() == 4
    with pytest.raises(InputDomainError):
        PercolationSample.from_labels(3, [8])


def test_union_is_bitwise_or():
    a = sample_sites(6, 0.3, 1)
    b = sample_sites(6, 0.3, 2)
    u = union_samples(a, b)
    for v in range(64):
        assert u.contains(v) == (a.contains(v) or b.contains(v))
    assert u.p == pytest.approx(1.0 - 0.7 * 0.7)


def test_union_rejects_dimension_mismatch():
    with pytest.raises(InputDomainError):
        union_samples(sample_sites(4, 0.5, 1), sample_sites(5, 0.5, 1))


# --- two-round plan ---


def test_plan_identity_is_exact_in_rationals():
    for eps, d in [(0.1, 10), (0.15, 20), (0.5, 7), (0.9, 26)]:
        plan = two_round_plan(eps, d)
        assert plan.identity_exact()
        assert plan.identity_error() <= 1e-12


def test_plan_formulas():
    plan = two_round_plan(0.5, 10)
    assert plan.p == pytest.approx(1.5 / 10)
    assert plan.p1 == pytest.approx(1.25 / 10)
    assert plan.p2 == pytest.approx(0.5 / 17.5)


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=2, max_value=26),
)
@settings(max_examples=100)
def test_plan_identity_property(eps, d):
    plan = two_round_plan(eps, d)
    # exact identity in rationals lifted from the float fields
    e = Fraction(plan.epsilon)
    lhs = (1 - (1 + e / 2) / d) * (1 - e / (2 * d - 2 - e))
    assert lhs == 1 - (1 + e) / d
    # p2 can exceed p1 at d=2 with large eps; only p1 < p is universal
    assert 0 < plan.p2 < 1
    assert 0 < plan.p1 < plan.p < 1


def test_plan_rejects_bad_domain():
    with pytest.raises(InputDomainError):
        two_round_plan(0.0, 10)
    with pytest.raises(InputDomainError):
        two_round_plan(1.0, 10)
    with pytest.raises(InputDomainError):
        two_round_plan(0.5, 1)


# --- component labeling ---


@pytest.mark.parametrize("d,p,seed", [(5, 0.3, 1), (5, 0.5, 2), (6, 0.25, 3), (6, 0.6, 4)])
def test_components_match_flood_fill(d, p, seed):
    q = Hypercube(d)
    s = sample_sites(d, p, seed)
    lab = components(q, s)
    adj = oracles.dense_adjacency(d)
    expected = oracles.flood_fill_components(adj, s.retained_labels().tolist())
    assert list(lab.size_multiset()) == expected


def _assert_same_labeling(lab, reference):
    vertices, labels, sizes = reference
    for got, want in ((lab.vertices, vertices), (lab.labels, labels), (lab.sizes, sizes)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d", range(1, 15))
def test_components_match_searchsorted_reference(d):
    # sparse p; d < 6 is one padded word, d > 6 reaches the word-pair edges
    for p in (0.03, 0.1, 0.2):
        for seed in (1, 2):
            s = sample_sites(d, p, seed)
            lab = components(Hypercube(d), s)
            _assert_same_labeling(lab, oracles.label_by_searchsorted(d, s.retained_labels()))


@pytest.mark.parametrize("d", range(4, 15))
def test_label_members_matches_searchsorted_reference(d):
    n = 1 << d
    gen = np.random.default_rng(d)
    for _ in range(4):
        # an edge along the lowest and one along the highest coordinate,
        # plus random members, at most n/4 in all (the sparse path)
        a, b = (int(x) for x in gen.integers(0, n, size=2))
        planted = [a, a ^ 1, b, b ^ (1 << (d - 1))]
        extra = gen.integers(0, n, size=int(gen.integers(0, n // 4 - 3)))
        members = np.unique(np.concatenate([planted, extra]))
        lab = label_members(Hypercube(d), gen.permutation(members))
        _assert_same_labeling(lab, oracles.label_by_searchsorted(d, members))


@pytest.mark.parametrize("bad", [-1, 64])
@pytest.mark.parametrize("oracle", [Hypercube(6), Cycle(64)], ids=["cube", "cycle"])
def test_label_members_rejects_members_out_of_range(oracle, bad):
    # a negative member must not wrap around to vertex n - 1
    with pytest.raises(InputDomainError):
        label_members(oracle, [0, bad])


def test_label_members_ignores_order_and_repeats():
    lab = label_members(Hypercube(4), [3, 1, 3, 8, 1])
    _assert_same_labeling(lab, oracles.label_by_searchsorted(4, np.array([1, 3, 8])))


@pytest.mark.parametrize("p", [0.2, 0.35, 0.6, 0.9])
def test_dense_and_sparse_backends_agree(p):
    # p >= 0.35 at d=8 pushes past the m > n/4 switch to the dense path
    d = 8
    q = Hypercube(d)
    s = sample_sites(d, p, 7)
    lab = components(q, s)
    adj = oracles.dense_adjacency(d)
    ref = oracles.flood_fill_labels(adj, s.retained_labels().tolist())
    for v in s.retained_labels().tolist():
        assert lab.label_of(v) == ref[v]


def test_components_canonical_label_order():
    q = Hypercube(6)
    s = sample_sites(6, 0.4, 11)
    lab = components(q, s)
    assert np.array_equal(lab.vertices, np.sort(lab.vertices))
    # id k's minimum member increases with k
    mins = [int(lab.members(c).min()) for c in range(lab.n_components)]
    assert mins == sorted(mins)
    assert np.array_equal(np.bincount(lab.labels, minlength=lab.n_components), lab.sizes)


def test_full_cube_is_one_component():
    q = Hypercube(10)
    lab = components(q, sample_sites(10, 1.0, 0))
    assert lab.n_components == 1
    assert lab.size_of(0) == 1024


def test_empty_sample_has_no_components():
    q = Hypercube(5)
    lab = components(q, sample_sites(5, 0.0, 0))
    assert lab.n_components == 0
    assert largest_two(lab) == (0, 0)


def test_components_rejects_size_mismatch():
    with pytest.raises(InputDomainError):
        components(Hypercube(4), sample_sites(5, 0.5, 1))


def test_generic_oracle_path_on_cycle():
    c = Cycle(10)
    # retain 0,1,2 and 5,6: two arcs
    members = np.array([0, 1, 2, 5, 6], dtype=np.int64)
    lab = label_members(c, members)
    assert lab.n_components == 2
    assert lab.size_multiset() == (2, 3)
    assert lab.label_of(0) == lab.label_of(2)
    assert lab.label_of(5) == lab.label_of(6)
    assert lab.label_of(0) != lab.label_of(5)


def test_cycle_wraparound_component():
    c = Cycle(8)
    members = np.array([0, 6, 7], dtype=np.int64)
    lab = label_members(c, members)
    assert lab.n_components == 1


def test_label_of_missing_vertex_is_none():
    q = Hypercube(4)
    s = PercolationSample.from_labels(4, [1, 3])
    lab = components(q, s)
    assert lab.label_of(0) is None
    assert lab.label_of(15) is None


def test_largest_two_ordering():
    q = Hypercube(4)
    # {0,1,3} is a path (size 3); {12,13} an edge; {6} isolated
    s = PercolationSample.from_labels(4, [0, 1, 3, 6, 12, 13])
    lab = components(q, s)
    assert largest_two(lab) == (3, 2)
    order = lab.order_by_size
    assert lab.size_of(int(order[0])) == 3


def test_order_by_size_breaks_ties_by_min_member():
    q = Hypercube(4)
    # two disjoint edges, sizes tie at 2
    s = PercolationSample.from_labels(4, [4, 5, 8, 9])
    lab = components(q, s)
    order = lab.order_by_size
    assert int(lab.members(int(order[0])).min()) == 4


def test_canonical_labeling_renumbers_arbitrary_ids():
    vertices = np.array([2, 3, 7, 9], dtype=np.int64)
    raw = np.array([40, 40, 17, 40], dtype=np.int64)
    lab = canonical_labeling(vertices, raw)
    assert lab.labels.tolist() == [0, 0, 1, 0]
    assert lab.sizes.tolist() == [3, 1]
    with pytest.raises(InputDomainError):
        canonical_labeling(vertices, raw[:2])
    # ids already in first-occurrence order pass through; the others,
    # including a negative id below the running maximum, are renumbered
    for raw, want in (
        ([0, 0, 1, 0], [0, 0, 1, 0]),
        ([0, 1, 2, 3], [0, 1, 2, 3]),
        ([0, -1, 0, 1], [0, 1, 0, 2]),
        ([0, 2, 1, 2], [0, 1, 2, 1]),
        ([1, 1, 0, 1], [0, 0, 1, 0]),
    ):
        assert canonical_labeling(vertices, np.array(raw)).labels.tolist() == want


def test_members_equal_label_scan_on_random_labelings():
    rng = np.random.default_rng(5)
    for _ in range(20):
        vertices = np.unique(rng.integers(0, 1 << 12, size=int(rng.integers(1, 600))))
        raw = rng.integers(0, int(rng.integers(1, 50)), size=len(vertices))
        lab = canonical_labeling(vertices, raw)
        for cid in range(lab.n_components):
            assert np.array_equal(lab.members(cid), lab.vertices[lab.labels == cid])
        assert len(lab.members(lab.n_components)) == 0
        assert len(lab.members(-1)) == 0


def test_canonical_labeling_empty():
    lab = canonical_labeling(np.empty(0, np.int64), np.empty(0, np.int64))
    assert lab.n_components == 0


# --- DFS exposure coupling ---


@pytest.mark.parametrize("d,p,seed", [(6, 0.3, 7), (6, 0.5, 8), (7, 0.2, 9), (5, 0.9, 10)])
def test_dfs_labeling_equals_bulk_sampling(d, p, seed):
    q = Hypercube(d)
    lazy, _ = dfs_explore(q, p, seed)
    eager = components(q, sample_sites(d, p, seed))
    assert np.array_equal(lazy.vertices, eager.vertices)
    assert np.array_equal(lazy.labels, eager.labels)
    assert np.array_equal(lazy.sizes, eager.sizes)


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_dfs_coupling_property(d, seed):
    q = Hypercube(d)
    lazy, _ = dfs_explore(q, 0.4, seed)
    eager = components(q, sample_sites(d, 0.4, seed))
    assert lazy.size_multiset() == eager.size_multiset()
    assert np.array_equal(lazy.vertices, eager.vertices)


def test_dfs_trace_epoch_invariants():
    d, p, seed = 7, 0.35, 21
    q = Hypercube(d)
    lab, trace = dfs_explore(q, p, seed)
    # every vertex is queried exactly once
    assert trace.bit_sequence_length == q.n
    assert len(trace.epochs) == lab.n_components
    prev_end = -1
    for ep in trace.epochs:
        assert ep.first_query > prev_end
        prev_end = ep.last_query
        span = ep.last_query - ep.first_query + 1
        assert span == ep.positives + ep.negatives
        assert ep.positives == lab.size_of(ep.component)
        # negatives live in the component's external neighborhood
        boundary = external_neighborhood(q, set(int(x) for x in lab.members(ep.component)))
        assert ep.negatives <= len(boundary)
    assert sum(ep.positives for ep in trace.epochs) == lab.retained_count()


def test_dfs_on_cycle():
    c = Cycle(12)
    lazy, trace = dfs_explore(c, 0.5, 3)
    # verify against per-vertex recomputation of the same coins
    from cubeperc import rng

    t = rng.coin_threshold(0.5)
    retained = [v for v in range(12) if rng.coin(3, v, t)]
    assert lazy.vertices.tolist() == retained
    assert trace.bit_sequence_length == 12


def test_dfs_refuses_above_its_cap(monkeypatch):
    monkeypatch.setattr(percolation, "_DFS_MAX_N", 1 << 5)
    lab, _ = dfs_explore(Hypercube(5), 0.5, 1)
    assert np.array_equal(lab.vertices, components(Hypercube(5), sample_sites(5, 0.5, 1)).vertices)
    with pytest.raises(RefusalError, match="above its cap"):
        dfs_explore(Hypercube(6), 0.5, 1)


def test_dfs_rejects_bad_probability():
    with pytest.raises(InputDomainError):
        dfs_explore(Hypercube(3), 1.5, 0)
