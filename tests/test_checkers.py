import math
from fractions import Fraction

import pytest

import oracles
from cubeperc.checkers import (
    binomial_tail,
    check_expansion,
    check_neighbourhood_lemma,
    check_sphere2_density,
    check_squid,
    cherry_count,
    chernoff_comparison,
    expansion_size_threshold,
    expansion_summary,
    sphere2_counts,
    sphere2_summary,
    sphere2_threshold_unreachable,
    tree_count_bound,
    tree_count_exact,
)
from cubeperc.cube import Cycle, Hypercube, sphere2
from cubeperc.errors import InputDomainError, RefusalError
from cubeperc.percolation import PercolationSample, components, label_members, sample_sites
import numpy as np


# --- expansion ---


def test_expansion_flags_whole_cycle():
    c = Cycle(8)
    lab = label_members(c, np.arange(8, dtype=np.int64))
    # the full cycle has no external neighborhood at all
    reports = check_expansion(c, lab, epsilon=0.2, size_threshold=4)
    assert len(reports) == 1
    r = reports[0]
    assert r.checker == "expansion"
    assert r.measured == 0.0
    assert r.threshold == pytest.approx(0.9 * 8 * 2)
    assert r.witness["size"] == 8
    assert r.witness["epsilon"] == 0.2


def test_expansion_default_threshold_skips_small_components():
    c = Cycle(8)
    lab = label_members(c, np.arange(8, dtype=np.int64))
    # 300 ln 8 is far above 8, so nothing is checked
    assert check_expansion(c, lab, epsilon=0.2) == []
    summary = expansion_summary(lab, expansion_size_threshold(8), [])
    assert summary == {
        "checked": 0,
        "skipped": 1,
        "size_threshold": pytest.approx(300 * math.log(8)),
        "violations": 0,
    }


def test_expansion_measures_boundary_exactly():
    q = Hypercube(4)
    s = PercolationSample.from_labels(4, [0, 1, 3])
    lab = components(q, s)
    reports = check_expansion(q, lab, epsilon=0.1, size_threshold=2)
    assert len(reports) == 1
    expected = len(oracles.external_neighborhood_bruteforce(4, {0, 1, 3}))
    assert reports[0].measured == float(expected)
    assert reports[0].threshold == pytest.approx(0.9 * 3 * 4)


def test_expansion_passes_well_spread_component():
    # a single edge in Q^8 expands heavily: |N| = 14 >= 0.9*2*8 = 14.4 fails;
    # use a single vertex instead: |N| = 8 >= 0.9*1*8 = 7.2 passes
    q = Hypercube(8)
    s = PercolationSample.from_labels(8, [0])
    lab = components(q, s)
    assert check_expansion(q, lab, epsilon=0.1, size_threshold=0.5) == []


def test_expansion_summary_counts_checked():
    q = Hypercube(4)
    s = PercolationSample.from_labels(4, [0, 1, 3, 12])
    lab = components(q, s)  # sizes 3 and 1
    summary = expansion_summary(lab, 2.0, [])
    assert summary["checked"] == 1
    assert summary["skipped"] == 1


# --- sphere-2 density ---


def test_sphere2_threshold_reachability():
    assert sphere2_threshold_unreachable(2)
    assert sphere2_threshold_unreachable(4)  # C(4,2)=6 < 8
    assert not sphere2_threshold_unreachable(5)  # C(5,2)=10 >= 10
    assert not sphere2_threshold_unreachable(20)


def test_sphere2_planted_violation_found():
    d = 6
    q = Hypercube(d)
    planted = sorted(sphere2(q, 0))[: 2 * d]
    s = PercolationSample.from_labels(d, planted)
    reports = check_sphere2_density(q, s)
    hits = {r.witness["v"]: r for r in reports}
    assert 0 in hits
    assert hits[0].measured == float(2 * d)
    assert hits[0].threshold == float(2 * d)
    # cross-check the full report set against brute-force counting
    expected = set()
    for v in range(q.n):
        count = sum(1 for u in oracles.sphere2_bruteforce(d, v) if u in set(planted))
        if count >= 2 * d:
            expected.add(v)
    assert set(hits) == expected


def test_sphere2_full_q5_sits_exactly_at_bound():
    # C(5,2) = 10 = 2d, so the full cube puts every vertex at the bound
    q = Hypercube(5)
    reports = check_sphere2_density(q, sample_sites(5, 1.0, 0))
    assert len(reports) == 32
    assert all(r.measured == 10.0 for r in reports)


def test_sphere2_unreachable_dimension_never_reports():
    q = Hypercube(4)
    reports = check_sphere2_density(q, sample_sites(4, 1.0, 0))
    assert reports == []
    summary = sphere2_summary(4, reports)
    assert summary["note"] == "threshold unreachable: C(d,2) < 2d"
    assert "note" not in sphere2_summary(6, [])


def test_sphere2_sparse_sample_clean():
    # frozen seed; a (1+eps)/d sample at d=10 stays far below 2d per sphere
    q = Hypercube(10)
    s = sample_sites(10, 0.11, 42)
    assert check_sphere2_density(q, s) == []


# --- cherries ---


def test_cherry_count_small_cases():
    q = Hypercube(3)
    assert cherry_count(q, {0, 3}, {1}) == 1
    assert cherry_count(q, {0, 3, 5}, {1}) == 3
    assert cherry_count(q, {0}, {1}) == 0
    assert cherry_count(q, {0, 3}, set()) == 0


def test_cherry_count_matches_path_enumeration():
    d = 4
    q = Hypercube(d)
    S = {0, 3, 5, 6, 12}
    W = {1, 2, 4, 8, 7}
    assert cherry_count(q, S, W) == oracles.cherries_by_path_enumeration(d, S, W)


def test_cherry_count_rejects_overlap():
    with pytest.raises(InputDomainError):
        cherry_count(Hypercube(3), {0, 1}, {1, 2})


# --- neighbourhood diagnostic ---


def test_diagnostic_empty_s_not_applicable():
    diag = check_neighbourhood_lemma(Hypercube(5), set(), {1, 2}, epsilon=0.5)
    assert not diag.applicable
    assert diag.status == "not applicable"
    assert not diag.reaches_contradiction


def test_diagnostic_star_configuration():
    # S = the 20 neighbors of 0, W = {0}: every S-pair meets at 0
    d = 20
    q = Hypercube(d)
    S = set(q.neighbors(0))
    diag = check_neighbourhood_lemma(q, S, {0}, epsilon=1.0)
    assert diag.applicable
    assert diag.cherries == math.comb(20, 2)
    # same construction at d=6, small enough for the path enumerator
    q6 = Hypercube(6)
    S6 = set(q6.neighbors(0))
    assert check_neighbourhood_lemma(q6, S6, {0}, epsilon=1.0).cherries == (
        oracles.cherries_by_path_enumeration(6, S6, {0})
    )
    assert diag.min_degree_into_w == 1
    assert diag.degree_ok  # 1 >= 20/200
    # |W| = 1 exceeds d*|S|/360000 = 0.0011..
    assert not diag.w_bound_ok
    assert diag.status == "hypothesis |W| bound violated"
    # pairwise distance-2 inside S: each e_i sees the other 19
    assert diag.max_sphere2_multiplicity == 19
    assert not diag.reaches_contradiction
    assert diag.cherry_floor == pytest.approx(9 * 20 * 20 / 4)


def test_diagnostic_degree_violation():
    # W far from S: no S-vertex has any W-neighbor
    q = Hypercube(6)
    diag = check_neighbourhood_lemma(q, {0}, {63}, epsilon=0.5)
    assert diag.min_degree_into_w == 0
    assert not diag.degree_ok
    assert "degree bound violated" in diag.status


def test_diagnostic_both_hypotheses_violated():
    q = Hypercube(6)
    diag = check_neighbourhood_lemma(q, {0}, {7, 63}, epsilon=0.9)
    assert diag.status == (
        "hypothesis |W| bound violated; hypothesis degree bound violated"
    )
    assert not diag.hypotheses_hold


def test_diagnostic_contradiction_fires_on_packed_sphere():
    # S stuffed into one vertex's 2-sphere reaches the 2d ceiling
    d = 5
    q = Hypercube(d)
    S = {0} | set(sorted(sphere2(q, 0))[: 2 * d])
    diag = check_neighbourhood_lemma(q, S, {31}, epsilon=0.5)
    assert diag.max_sphere2_multiplicity >= 2 * d
    assert diag.reaches_contradiction


def test_diagnostic_rejects_overlap():
    with pytest.raises(InputDomainError):
        check_neighbourhood_lemma(Hypercube(4), {1}, {1}, epsilon=0.5)


# --- binomial tails ---


def test_binomial_tail_trivia():
    assert binomial_tail(10, 0.3, 0) == 1.0
    assert binomial_tail(10, 0.0, 3) == 0.0
    assert binomial_tail(10, 1.0, 3) == 1.0
    assert binomial_tail(5, 0.5, 5) == pytest.approx(0.5**5)
    assert binomial_tail(0, 0.5, 0) == 1.0


def test_binomial_tail_matches_rational_sum():
    for m, q, k in [(20, Fraction(3, 10), 7), (30, Fraction(1, 7), 4), (12, Fraction(1, 2), 6)]:
        exact = oracles.rational_binomial_tail(m, q, k)
        got = binomial_tail(m, float(q), k)
        assert got == pytest.approx(float(exact), rel=1e-9)


def test_binomial_tail_monotonicity():
    tails_k = [binomial_tail(40, 0.3, k) for k in range(41)]
    assert all(a >= b for a, b in zip(tails_k, tails_k[1:]))
    tails_q = [binomial_tail(40, q, 10) for q in (0.1, 0.2, 0.3, 0.5, 0.8)]
    assert all(a <= b for a, b in zip(tails_q, tails_q[1:]))


def test_binomial_tail_rejects_bad_domain():
    with pytest.raises(InputDomainError):
        binomial_tail(5, 0.5, 6)
    with pytest.raises(InputDomainError):
        binomial_tail(-1, 0.5, 0)
    with pytest.raises(InputDomainError):
        binomial_tail(5, 1.5, 2)


def test_chernoff_comparison_fields():
    cmp = chernoff_comparison(k=10, d=10, epsilon=0.1)
    assert cmp.m == 9 * 10 * 10 // 10 + 10 == 100
    assert cmp.q == pytest.approx(0.11)
    assert cmp.chernoff_value == pytest.approx(math.exp(-0.1))
    exact = oracles.rational_binomial_tail(100, Fraction(11, 100), 10)
    assert cmp.exact_tail == pytest.approx(float(exact), rel=1e-9)
    # `holds` is defined as the comparison outcome, not asserted true
    assert cmp.holds == (cmp.exact_tail <= cmp.chernoff_value)


def test_chernoff_comparison_floors_fractional_m():
    cmp = chernoff_comparison(k=7, d=9, epsilon=0.2)
    assert cmp.m == (9 * 7 * 9) // 10 + 7


def test_chernoff_comparison_rejects_k0():
    with pytest.raises(InputDomainError):
        chernoff_comparison(0, 10, 0.1)


# --- tree counting ---


def test_tree_counts_q3_against_enumeration():
    q = Hypercube(3)
    expected = [oracles.tree_subgraph_count(lambda v: q.neighbors(v), 8, k) for k in range(1, 7)]
    got = [tree_count_exact(q, k) for k in range(1, 7)]
    assert got == expected
    assert got == [8, 12, 24, 56, 120, 252]


def test_tree_counts_cycle():
    c = Cycle(6)
    # every connected k-set of a cycle is an arc; arcs induce paths
    for k in range(1, 6):
        assert tree_count_exact(c, k) == 6
    # the full cycle is one vertex set with 6 spanning trees
    assert tree_count_exact(c, 6) == 6


def test_tree_count_q4_spot_checks():
    q = Hypercube(4)
    assert tree_count_exact(q, 1) == 16
    assert tree_count_exact(q, 2) == 32  # edges: 16*4/2
    # 2-paths: 16 * C(4,2), no triangles
    assert tree_count_exact(q, 3) == 16 * 6


def test_tree_bound_dominates_exact():
    q = Hypercube(3)
    for k in range(1, 7):
        assert tree_count_exact(q, k) <= tree_count_bound(8, 3, k)
    c = Cycle(8)
    for k in range(1, 7):
        assert tree_count_exact(c, k) <= tree_count_bound(8, 2, k)


def test_tree_count_refusals():
    with pytest.raises(RefusalError):
        tree_count_exact(Hypercube(13), 3)
    with pytest.raises(RefusalError):
        tree_count_exact(Hypercube(3), 8)
    with pytest.raises(InputDomainError):
        tree_count_exact(Hypercube(3), 0)
    with pytest.raises(InputDomainError):
        tree_count_bound(8, 3, 0)


# --- squid candidates ---


def test_squid_reports_isolated_candidate():
    # eps=1, d=4: deprived when < 0.4 region-neighbors, report at >= 0.4
    q = Hypercube(4)
    region = {0}
    reports = check_squid(q, region, [[3]], epsilon=1.0, C=4.0)
    assert len(reports) == 1
    assert reports[0].measured == 1.0
    assert reports[0].witness == {"candidate_index": 0, "size": 1, "min_vertex": 3}


def test_squid_passes_attached_candidate():
    q = Hypercube(4)
    region = {0}
    # vertex 1 touches the region, so it is not deprived
    assert check_squid(q, region, [[1]], epsilon=1.0, C=4.0) == []


def test_squid_mixed_candidates():
    q = Hypercube(4)
    region = {0, 1, 2, 4, 8}
    good = [1, 3]  # both see region members (0 and 1,2 respectively)
    bad = [15]  # all neighbors of 15 are outside the region
    reports = check_squid(q, region, [good, bad], epsilon=1.0, C=4.0)
    assert [r.witness["candidate_index"] for r in reports] == [1]


def test_squid_validation_errors():
    q = Hypercube(4)
    with pytest.raises(InputDomainError):
        check_squid(q, {0}, [[]], epsilon=0.5, C=4.0)
    with pytest.raises(InputDomainError):
        check_squid(q, {0}, [[1, 1]], epsilon=0.5, C=4.0)
    with pytest.raises(InputDomainError):
        check_squid(q, {0}, [[1, 2]], epsilon=0.5, C=4.0)  # disconnected
    with pytest.raises(InputDomainError):
        # size cap C*d = 2: a 3-vertex candidate is too big
        check_squid(q, {0}, [[0, 1, 3]], epsilon=0.5, C=0.5)


def _random_candidates(rng, q, count, cap):
    """Connected sets grown by random walks, plus each kind of bad input."""
    out = []
    for _ in range(count):
        v = int(rng.integers(q.n))
        cand = [v]
        for _ in range(int(rng.integers(0, cap))):
            v = v ^ (1 << int(rng.integers(q.d)))
            if v not in cand:
                cand.append(v)
        rng.shuffle(cand)
        out.append(cand)
    return out


def _squid_outcome(fn, *args):
    try:
        return [r if isinstance(r, dict) else r.to_dict() for r in fn(*args)], None
    except ValueError as exc:
        return None, str(exc)


@pytest.mark.parametrize("d", [8, 9, 10])
def test_squid_matches_per_candidate_loop(d):
    q = Hypercube(d)
    rng = np.random.default_rng(d)
    C = 1.0
    cap = int(C * d)
    for trial in range(30):
        region = {int(v) for v in rng.choice(q.n, size=int(rng.integers(0, q.n)), replace=False)}
        candidates = _random_candidates(rng, q, int(rng.integers(0, 40)), cap)
        if trial % 2 and candidates:
            bad = [
                [],  # empty
                candidates[0] + candidates[0][:1],  # repeated
                list(range(cap + 1)),  # oversized
                [0, 3],  # disconnected
                [q.n],  # a lone label outside Q^d
                [0, 1, q.n + 1],  # trailing label outside Q^d
            ][(trial // 2) % 6]
            candidates.insert(int(rng.integers(len(candidates) + 1)), bad)
        eps = float(rng.choice([0.3, 0.5, 1.0]))
        arrays = [np.array(c, dtype=np.int64) for c in candidates]
        mask = np.zeros(q.n, dtype=bool)
        mask[list(region)] = True
        want = _squid_outcome(oracles.check_squid_loop, q, region, candidates, eps, C)
        assert _squid_outcome(check_squid, q, region, candidates, eps, C) == want
        assert _squid_outcome(check_squid, q, mask, arrays, eps, C) == want


def test_squid_error_names_first_bad_candidate():
    q = Hypercube(4)
    with pytest.raises(InputDomainError, match="candidate 1 is not connected"):
        check_squid(q, {0}, [[1, 3], [1, 2], []], epsilon=0.5, C=4.0)
    with pytest.raises(InputDomainError, match="candidate 0 has repeated vertices"):
        check_squid(q, {0}, [[1, 2, 1]], epsilon=0.5, C=4.0)


@pytest.mark.parametrize("d", [8, 10, 12])
def test_sphere2_counts_match_enumeration(d):
    q = Hypercube(d)
    rng = np.random.default_rng(100 + d)
    for density in (0.05, 0.3, 0.7):
        labels = np.flatnonzero(rng.random(q.n) < density)
        retained = set(labels.tolist())
        counts = sphere2_counts(q, PercolationSample.from_labels(d, labels))
        assert counts.tolist() == [len(sphere2(q, v) & retained) for v in range(q.n)]
