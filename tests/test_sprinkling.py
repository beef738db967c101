import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from cubeperc.cube import Hypercube
from cubeperc.errors import InputDomainError, RefusalError
from cubeperc.percolation import (
    PercolationSample,
    canonical_labeling,
    components,
    sample_sites,
    two_round_plan,
    union_samples,
)
from cubeperc.rng import derive_seed
from cubeperc.sprinkling import (
    MergeAnalysis,
    MergeReport,
    c1_constant,
    c_constant,
    classify_tms,
    merge_analysis,
    survival_census,
)


def _partition_for(q, r1, epsilon):
    return classify_tms(q, components(q, r1), epsilon)


# --- classification ---


def test_classify_full_cube_is_all_t():
    q = Hypercube(6)
    r1 = sample_sites(6, 1.0, 1)
    part = _partition_for(q, r1, 0.3)
    assert part.sizes() == {"T": 64, "M": 0, "S": 0}
    assert part.l1_size == 64
    assert not part.ambiguous_giant


def test_classify_refuses_empty_round():
    q = Hypercube(6)
    with pytest.raises(RefusalError):
        _partition_for(q, sample_sites(6, 0.0, 1), 0.3)


def _eps_with_threshold_ceiling(d, k):
    """An eps whose threshold eps^2*d/200 has ceiling k ("above-d": d + 1).

    eps = 0 gives threshold 0 and eps = 0.4 a ceiling of 1 for every
    d < 1250; the others solve eps^2*d/200 = k - 1/2.
    """
    if k == 0:
        return 0.0
    if k == 1:
        return 0.4
    target = d + 0.5 if k == "above-d" else k - 0.5
    return (200 * target / d) ** 0.5


# d = 2..5 keep the cube in one packed word with padding bits past n
@pytest.mark.parametrize("k", [0, 1, 2, 3, "above-d"])
@pytest.mark.parametrize("d", range(2, 10))
def test_classify_matches_per_vertex_recount(d, k):
    q = Hypercube(d)
    r1 = sample_sites(d, 0.25, 17)
    eps = _eps_with_threshold_ceiling(d, k)
    part = _partition_for(q, r1, eps)
    lab = components(q, r1)
    giant = int(lab.order_by_size[0])
    l1 = set(int(v) for v in lab.members(giant))
    t_expected = set(l1)
    for v in l1:
        t_expected.update(q.neighbors(v))
    threshold = eps**2 * d / 200.0
    assert math.ceil(threshold) == (d + 1 if k == "above-d" else k)
    for v in range(q.n):
        in_t = v in t_expected
        assert bool(part.t_mask[v]) == in_t
        if not in_t:
            t_neighbors = sum(1 for u in q.neighbors(v) if u in t_expected)
            assert bool(part.m_mask[v]) == (t_neighbors >= threshold)
        else:
            assert not part.m_mask[v]
    assert part.threshold == pytest.approx(threshold)
    sizes = part.sizes()
    assert sizes == {
        "T": len(t_expected),
        "M": int(part.m_mask.sum()),
        "S": q.n - len(t_expected) - int(part.m_mask.sum()),
    }
    if k == 0:  # eps = 0: threshold 0, so M is everything outside T
        assert sizes["S"] == 0
    if k == "above-d":  # no vertex has more than d neighbours
        assert sizes["M"] == 0


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_classify_rejects_non_finite_epsilon(eps):
    q = Hypercube(6)
    with pytest.raises(InputDomainError):
        _partition_for(q, sample_sites(6, 0.3, 1), eps)


def test_classify_masks_partition_the_cube():
    q = Hypercube(8)
    part = _partition_for(q, sample_sites(8, 0.2, 5), 0.25)
    total = part.t_mask.astype(int) + part.m_mask.astype(int) + part.s_mask.astype(int)
    assert (total == 1).all()
    sizes = part.sizes()
    assert sizes["T"] + sizes["M"] + sizes["S"] == q.n


def test_classify_l1_fields():
    q = Hypercube(5)
    s = PercolationSample.from_labels(5, [4, 5, 7, 25])
    part = classify_tms(q, components(q, s), 0.5)
    # giant is the path {4,5,7}; vertex 25 is a singleton
    assert part.l1_members.tolist() == [4, 5, 7]
    assert part.l1_size == 3
    assert part.l1_min_vertex == 4


def test_classify_ambiguity_flag():
    q = Hypercube(6)
    tied = PercolationSample.from_labels(6, [0, 1, 62, 63])
    part = classify_tms(q, components(q, tied), 0.3)
    assert part.ambiguous_giant
    clear = PercolationSample.from_labels(6, [0, 1, 3, 60])
    part2 = classify_tms(q, components(q, clear), 0.3)
    assert not part2.ambiguous_giant


# --- constants ---


def test_c1_constant_values():
    with pytest.warns(UserWarning):
        assert c1_constant(1.0) == pytest.approx(720000.0)
    assert c1_constant(0.5) == pytest.approx(23040000.0)
    assert c_constant(0.5) == pytest.approx(46080000.0)


def test_c1_constant_domain():
    with pytest.raises(InputDomainError):
        c1_constant(0.0)
    with pytest.raises(InputDomainError):
        c1_constant(-0.2)
    with pytest.warns(UserWarning):
        c1_constant(1.5)


# --- merge analysis ---


def test_merge_with_empty_second_round_changes_nothing():
    d = 6
    q = Hypercube(d)
    r1 = sample_sites(d, 0.35, 3)
    r2 = PercolationSample.from_labels(d, [])
    part = _partition_for(q, r1, 0.4)
    ma = merge_analysis(q, part, r1, r2)
    direct = components(q, r1)
    assert np.array_equal(ma.final_labeling.vertices, direct.vertices)
    assert np.array_equal(ma.final_labeling.labels, direct.labels)
    assert ma.merged_count() == 0
    assert ma.all_consistent()
    for r in ma.reports:
        assert not r.merged
        assert r.final_size == r.size


def test_merge_with_full_t_has_no_candidates():
    d = 5
    q = Hypercube(d)
    r1 = sample_sites(d, 1.0, 2)
    r2 = sample_sites(d, 0.5, 9)
    part = _partition_for(q, r1, 0.3)
    ma = merge_analysis(q, part, r1, r2)
    assert ma.reports == ()
    assert ma.giant_final_size == q.n


@pytest.mark.parametrize("d,eps,seed", [(10, 0.2, 5), (8, 0.3, 2), (12, 0.15, 9)])
def test_final_labeling_equals_direct_union(d, eps, seed):
    q = Hypercube(d)
    plan = two_round_plan(eps, d)
    r1 = sample_sites(d, plan.p1, derive_seed(seed, 1))
    r2 = sample_sites(d, plan.p2, derive_seed(seed, 2))
    part = _partition_for(q, r1, eps)
    ma = merge_analysis(q, part, r1, r2)
    direct = components(q, union_samples(r1, r2))
    assert np.array_equal(ma.final_labeling.vertices, direct.vertices)
    assert np.array_equal(ma.final_labeling.labels, direct.labels)
    assert np.array_equal(ma.final_labeling.sizes, direct.sizes)
    assert ma.all_consistent()
    assert ma.giant_final_size == ma.final_labeling.size_of(ma.giant_final_label)


def test_merge_flag_agrees_with_final_membership():
    d = 10
    q = Hypercube(d)
    plan = two_round_plan(0.3, d)
    r1 = sample_sites(d, plan.p1, derive_seed(77, 1))
    r2 = sample_sites(d, plan.p2, derive_seed(77, 2))
    part = _partition_for(q, r1, 0.3)
    ma = merge_analysis(q, part, r1, r2)
    for r in ma.reports:
        label = ma.final_labeling.label_of(r.min_vertex)
        if r.merged:
            assert label == ma.giant_final_label
        else:
            assert r.final_size == r.size
        assert r.nt_m_size <= r.nt_size
        assert r.m_size <= r.size


def test_merge_reports_match_bruteforce():
    # a vertex at distance 2 from L1' has two common neighbors with it,
    # both in T, so while the M threshold eps^2*d/200 is at most 2, M is
    # all of N(T) and |N_T(B cap M)| = |N_T(B)|; classifying with
    # eps = sqrt(500/d) (threshold 2.5) makes M a proper part of N(T)
    seen = {"merged": 0, "unmerged": 0, "m_size": 0, "nt_m_below_nt": 0}
    # d = 2..4 run on one packed word with padding bits past n
    for d in range(2, 11):
        for eps in (0.1, 0.5, 0.9):
            for seed in (1, 2):
                q = Hypercube(d)
                plan = two_round_plan(eps, d)
                r1 = sample_sites(d, plan.p1, derive_seed(seed, 1))
                r2 = sample_sites(d, plan.p2, derive_seed(seed, 2))
                for tms_eps in (eps, (500 / d) ** 0.5):
                    ma = merge_analysis(q, _partition_for(q, r1, tms_eps), r1, r2)
                    expected = oracles.merge_reports_bruteforce(
                        d, tms_eps, r1.retained_labels().tolist(), r2.retained_labels().tolist()
                    )
                    assert [r.to_dict() for r in ma.reports] == expected, (d, eps, seed, tms_eps)
                    for r in ma.reports:
                        seen["merged" if r.merged else "unmerged"] += 1
                        seen["m_size"] += r.m_size > 0
                        seen["nt_m_below_nt"] += r.nt_m_size < r.nt_size
    # the grid exercises every field with more than one value
    assert all(seen.values()), seen


def test_merge_analysis_peak_memory():
    # the T-neighbour scan unpacks one coordinate's bits at a time and the
    # pair arrays are freed before the final labeling; a scan holding all
    # d coordinates' bits at once peaks at about 21 B/vertex on this trial
    d, eps = 18, 0.9
    q = Hypercube(d)
    plan = two_round_plan(eps, d)
    r1 = sample_sites(d, plan.p1, derive_seed(7, 1))
    r2 = sample_sites(d, plan.p2, derive_seed(7, 2))
    part = _partition_for(q, r1, eps)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        merge_analysis(q, part, r1, r2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / q.n <= 12


def test_merge_rejects_foreign_partition():
    d = 8
    q = Hypercube(d)
    part = _partition_for(q, sample_sites(d, 0.3, 1), 0.3)
    other = sample_sites(d, 0.3, 2)
    with pytest.raises(InputDomainError):
        merge_analysis(q, part, other, sample_sites(d, 0.1, 3))


def test_merge_rejects_dimension_mismatch():
    q = Hypercube(6)
    r1 = sample_sites(6, 0.4, 1)
    part = _partition_for(q, r1, 0.3)
    with pytest.raises(InputDomainError):
        merge_analysis(q, part, r1, sample_sites(7, 0.1, 2))
    with pytest.raises(InputDomainError):
        merge_analysis(Hypercube(7), part, r1, sample_sites(7, 0.1, 2))


def _columns_of(reports):
    """The MergeAnalysis columns holding the given MergeReport rows."""
    return [np.array(column) for column in zip(*map(dataclasses.astuple, reports))][1:]


def test_rate_table_buckets_by_m_size():
    d = 2
    dummy = canonical_labeling(np.arange(3, dtype=np.int64), np.zeros(3, np.int64))
    reports = (
        MergeReport(0, 0, 9, 0, 3, 0, False, 9, True),
        MergeReport(1, 1, 9, 5, 3, 2, True, 30, True),
        MergeReport(2, 2, 9, 12, 3, 3, True, 30, True),
    )
    ma = MergeAnalysis(*_columns_of(reports), dummy, 0, 30)
    assert ma.reports == reports
    rows = ma.rate_table([1, 2, 5, 10], d)
    by_c = {row["c"]: row for row in rows}
    assert by_c[1.0] == {"c": 1.0, "eligible": 2, "merged": 2, "rate": 1.0}
    assert by_c[2.0] == {"c": 2.0, "eligible": 2, "merged": 2, "rate": 1.0}
    assert by_c[5.0] == {"c": 5.0, "eligible": 1, "merged": 1, "rate": 1.0}
    assert by_c[10.0] == {"c": 10.0, "eligible": 0, "merged": 0, "rate": None}
    assert ma.summary() == {
        "candidates": 3,
        "merged": 2,
        "consistent": True,
        "giant_final_size": 30,
    }


def _assert_plain(value):
    # json writes numpy scalars differently or not at all, so every
    # value reaching a record must be a built-in
    if isinstance(value, dict):
        for v in value.values():
            _assert_plain(v)
    elif isinstance(value, list):
        for v in value:
            _assert_plain(v)
    else:
        assert type(value) in (int, bool, float, type(None)), (value, type(value))


@pytest.mark.parametrize("k", [0, 1, 7, 500])
def test_columnar_reductions_match_per_report_loop(k):
    rng = np.random.default_rng(k)
    d = 4
    sizes = rng.integers(1, 4 * d, size=k)
    columns = {
        "min_vertex": np.sort(rng.choice(1 << 12, size=k, replace=False)),
        "size": sizes,
        "m_size": rng.integers(0, sizes + 1),
        "nt_size": rng.integers(1, 10, size=k),
        "nt_m_size": rng.integers(0, 3, size=k),
        "merged": rng.random(k) < 0.4,
        "final_size": rng.integers(1, 100, size=k),
        "consistent": rng.random(k) < (0.5 if k == 7 else 1.0),
    }
    if k:
        columns["size"][0] = columns["m_size"][0] = 4  # exactly 1*d
    dummy = canonical_labeling(np.arange(3, dtype=np.int64), np.zeros(3, np.int64))
    ma = MergeAnalysis(**columns, final_labeling=dummy, giant_final_label=0,
                       giant_final_size=1000)
    # c*d hits integers exactly (1, 2, 0.25*4), falls between them (0.3*4,
    # 2.5/3*4), repeats, is unsorted, is zero and exceeds every m_size
    c_values = [2, 0.25, 0.3, 2.5 / 3, 0, 2, 1, 0.5, 100]
    rows = ma.rate_table(c_values, d)
    reports = ma.reports
    assert len(reports) == k
    # equal as json text, so 1 and 1.0 or True differ, as they do in a record
    assert json.dumps(rows) == json.dumps(oracles.rate_table_loop(reports, c_values, d))
    assert json.dumps(ma.summary()) == json.dumps(oracles.merge_summary_loop(reports, 1000))
    _assert_plain(rows)
    _assert_plain(ma.summary())
    assert ma.merged_count() == sum(r.merged for r in reports)
    assert ma.all_consistent() == all(r.consistent for r in reports)


# --- census ---


def test_census_sizes_and_histogram():
    raw = np.repeat(np.arange(4), [1000, 40, 3, 3])
    lab = canonical_labeling(np.arange(1046, dtype=np.int64), raw)
    rec = survival_census(lab, d=20)
    assert rec.giant_size == 1000
    assert rec.max_nongiant == 40
    assert rec.ratio == pytest.approx(2.0)
    assert rec.nongiant_count == 3
    assert rec.component_count == 4
    assert rec.nongiant_size_histogram == {40: 1, 3: 2}
    assert rec.to_dict()["nongiant_size_histogram"] == {"3": 2, "40": 1}


def test_census_single_component():
    lab = canonical_labeling(np.arange(5, dtype=np.int64), np.zeros(5, np.int64))
    rec = survival_census(lab, d=4)
    assert rec.giant_size == 5
    assert rec.max_nongiant == 0
    assert rec.ratio == 0.0
    assert rec.nongiant_size_histogram == {}


def test_census_empty():
    lab = canonical_labeling(np.empty(0, np.int64), np.empty(0, np.int64))
    rec = survival_census(lab, d=8)
    assert rec.component_count == 0
    assert rec.giant_size == 0
    with pytest.raises(InputDomainError):
        survival_census(lab, d=0)
