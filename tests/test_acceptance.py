"""Acceptance suite: twelve go/no-go checks over the whole package.

Each test prints exactly one CRITERION line (PASS or FAIL) with the
measured quantities, then asserts. Criteria 6, 9, and 10 encode target
bands that the implemented procedures do not reach at desk scale; they
are asserted as stated and left to fail honestly rather than weakened.
The measured values in their FAIL lines document the actual behavior.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

import oracles
from cubeperc.checkers import (
    check_sphere2_density,
    chernoff_comparison,
    tree_count_bound,
    tree_count_exact,
)
from cubeperc.cube import Hypercube, common_neighbors, hamming_distance, separate_into_subcubes, sphere2, xor_shift
from cubeperc.harness import (
    TrialConfig,
    giant_statistics,
    make_grid,
    records_equal_modulo_volatile,
    run_trial,
    second_component_scaling,
    sweep,
)
from cubeperc.percolation import (
    PercolationSample,
    components,
    dfs_explore,
    sample_sites,
    two_round_plan,
    union_samples,
)
from cubeperc.rng import derive_seed
from cubeperc.sprinkling import classify_tms, merge_analysis, survival_census

MASTER_SEED = 2026  # frozen; criterion 11's cross-validation was verified
                    # against independent seeds before pinning this one


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num:2d} [{status}] {description}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def test_criterion_01_two_round_identity():
    worst = 0.0
    for eps in (0.05, 0.1, 0.15, 0.2, 0.3):
        for d in range(8, 27):
            plan = two_round_plan(eps, d)
            worst = max(worst, plan.identity_error())
            assert plan.identity_exact()
    _criterion(
        1,
        "two-round identity within 1e-12 over eps x d grid",
        worst <= 1e-12,
        f"worst float error {worst:.2e} across 95 cells",
    )


def test_criterion_02_component_oracle_equivalence():
    d = 6
    q = Hypercube(d)
    adj = oracles.dense_adjacency(d)
    rnd = random.Random(20260819)
    mismatches = 0
    for _ in range(500):
        p = rnd.random()
        seed = rnd.getrandbits(63)
        s = sample_sites(d, p, seed)
        got = list(components(q, s).size_multiset())
        want = oracles.flood_fill_components(adj, s.retained_labels().tolist())
        if got != want:
            mismatches += 1
    _criterion(
        2,
        "component multisets match dense flood-fill oracle (500 samples, d=6)",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_03_dfs_coupling():
    rnd = random.Random(31415926)
    bad_labelings = 0
    bad_epochs = 0
    for _ in range(200):
        d = rnd.randint(2, 10)
        p = rnd.random()
        seed = rnd.getrandbits(63)
        q = Hypercube(d)
        lazy, trace = dfs_explore(q, p, seed)
        eager = components(q, sample_sites(d, p, seed))
        if not (
            np.array_equal(lazy.vertices, eager.vertices)
            and np.array_equal(lazy.labels, eager.labels)
            and np.array_equal(lazy.sizes, eager.sizes)
        ):
            bad_labelings += 1
        if any(ep.positives != lazy.size_of(ep.component) for ep in trace.epochs):
            bad_epochs += 1
    _criterion(
        3,
        "lazy DFS labeling equals bulk labeling bit-for-bit (200 samples, d<=10)",
        bad_labelings == 0 and bad_epochs == 0,
        f"{bad_labelings} labeling mismatches, {bad_epochs} bad epochs",
    )


def test_criterion_04_subcube_separation():
    rnd = random.Random(27182818)
    violations = 0
    for d in (8, 16, 32):
        q = Hypercube(d)
        n = 1 << d
        for _ in range(10_000):
            k = rnd.randint(1, d)
            S = set()
            while len(S) < k:
                S.add(rnd.getrandbits(d))
            S = sorted(S)
            k = len(S)
            pairs = separate_into_subcubes(q, S)
            ok = True
            for sub, v in pairs:
                if not sub.contains(v) or sub.dimension() < d - k + 1:
                    ok = False
                if any(sub.contains(u) for u in S if u != v):
                    ok = False
            for (s1, _), (s2, _) in itertools.combinations(pairs, 2):
                if not s1.disjoint_from(s2):
                    ok = False
            if not ok:
                violations += 1
    _criterion(
        4,
        "subcube separation invariants (10^4 draws per d in {8,16,32})",
        violations == 0,
        f"{violations} violating draws",
    )


def test_criterion_05_tree_count_bound():
    failures = []
    q3 = Hypercube(3)
    anchor = tree_count_exact(q3, 3)
    anchor_oracle = oracles.tree_subgraph_count(lambda v: q3.neighbors(v), 8, 3)
    if anchor != 24 or anchor_oracle != 24:
        failures.append(f"anchor t3={anchor} oracle={anchor_oracle}")
    for oracle in (q3, Hypercube(4), oracles.Cycle(8)):
        for k in range(1, 7):
            exact = tree_count_exact(oracle, k)
            bound = tree_count_bound(oracle.n, oracle.degree, k)
            if exact > bound:
                failures.append(f"{oracle!r} k={k}: {exact} > {bound:.1f}")
    _criterion(
        5,
        "exact tree counts below n(ed)^(k-1) for Q^3, Q^4, C8, k<=6; t3(Q^3)=24",
        not failures,
        "; ".join(failures) or "all 18 cells below bound",
    )


def test_criterion_06_chernoff_comparison():
    cells = []
    for k in (100, 200, 500, 1000):
        for d in (10, 20, 50):
            for eps in (0.05, 0.1, 0.2):
                cells.append(chernoff_comparison(k, d, eps))
    failing = [c for c in cells if not c.holds]
    worst = max(cells, key=lambda c: c.exact_tail / c.chernoff_value)
    _criterion(
        6,
        "exact binomial tail <= exp(-k/100) on the k x d x eps grid",
        not failing,
        f"{len(failing)}/{len(cells)} cells exceed the bound; worst "
        f"k={worst.k} d={worst.d} eps={worst.epsilon}: tail={worst.exact_tail:.3e} "
        f"vs exp(-k/100)={worst.chernoff_value:.3e}",
    )


def test_criterion_07_sphere2_checker():
    problems = []
    # planted violation at d=6: 2d = 12 retained vertices in one 2-sphere
    d = 6
    q = Hypercube(d)
    planted = PercolationSample.from_labels(d, sorted(sphere2(q, 0))[: 2 * d])
    reports = check_sphere2_density(q, planted)
    if not any(r.witness["v"] == 0 and r.measured >= 12 for r in reports):
        problems.append("planted violation at v=0 not detected")
    # empty sample: nothing to report
    if check_sphere2_density(q, PercolationSample.from_labels(d, [])):
        problems.append("empty sample produced reports")
    # Monte Carlo at d=20, eps=0.1: supercritical density stays far below 2d
    q20 = Hypercube(20)
    p = 1.1 / 20
    mc_violations = []
    for i in range(50):
        s = sample_sites(20, p, derive_seed(MASTER_SEED, 700 + i))
        mc_violations.extend(check_sphere2_density(q20, s))
    for r in mc_violations:
        print(f"criterion 7 witness: {r.to_dict()}")
    if mc_violations:
        problems.append(f"{len(mc_violations)} Monte Carlo violations")
    _criterion(
        7,
        "sphere-2 checker: planted caught, empty clean, 50 MC trials clean",
        not problems,
        "; ".join(problems) or "witness v=0 measured 12/12",
    )


def test_criterion_08_common_neighbor_law():
    bad = 0
    checked = 0
    for d in range(2, 9):
        q = Hypercube(d)
        for u in range(q.n):
            for v in range(u + 1, q.n):
                expected = 2 if hamming_distance(u, v) == 2 else 0
                if common_neighbors(q, u, v) != expected:
                    bad += 1
                checked += 1
    _criterion(
        8,
        "common-neighbor law 2*[dist=2] exhaustive for d<=8",
        bad == 0,
        f"{checked} pairs checked, {bad} off-law",
    )


def test_criterion_09_giant_size_band():
    configs, _ = make_grid([20], [0.15], trials=30, master_seed=MASTER_SEED)
    records = list(sweep(configs, jobs=1))
    stats = giant_statistics(records)
    ok = stats["uniqueness_rate"] >= 0.9 and 0.3 <= stats["ratio_to_predicted"] <= 3.0
    _criterion(
        9,
        "d=20 eps=0.15: unique giant in >=90% of 30 trials, mean in [0.3,3]x(2 eps n/d)",
        ok,
        f"mean_giant={stats['mean_giant']:.0f} predicted={stats['giant_predicted']:.0f} "
        f"ratio={stats['ratio_to_predicted']:.3f} uniqueness={stats['uniqueness_rate']:.2f}",
    )


def test_criterion_10_second_component_scaling():
    d_values = [16, 18, 20, 22, 24]
    configs, _ = make_grid(d_values, [0.15], trials=20, master_seed=MASTER_SEED)
    records = list(sweep(configs, jobs=1))
    fit = second_component_scaling(records)
    worst_by_d = {}
    oversized = 0
    for r in records:
        d = r.d
        worst_by_d[d] = max(worst_by_d.get(d, 0), r.second)
        if d >= 18 and r.second > d * d:
            oversized += 1
    ok = fit["slope"] <= 1.5 and oversized == 0
    detail = (
        f"slope={fit['slope']:.2f} (bound 1.5); {oversized} trials with "
        f"max-non-giant > d^2; worst per d: "
        + ", ".join(f"d={d}:{worst_by_d[d]}" for d in d_values)
    )
    _criterion(
        10,
        "d in 16..24, eps=0.15: max-non-giant slope <= 1.5 and <= d^2 per trial (d>=18)",
        ok,
        detail,
    )


def _census_stat_row(labeling, d):
    census = survival_census(labeling, d)
    hist = census.nongiant_size_histogram
    bins = ((1, 1), (2, 2), (3, 3), (4, 4), (5, 8), (9, None))
    row = [labeling.retained_count(), census.giant_size]
    for lo, hi in bins:
        row.append(
            sum(v for k, v in hist.items() if k >= lo and (hi is None or k <= hi))
        )
    return row


def test_criterion_11_sprinkling_soundness():
    problems = []
    # part one: partition invariants and merge consistency at d=18, eps=0.2
    d, eps = 18, 0.2
    q = Hypercube(d)
    n = q.n
    plan = two_round_plan(eps, d)
    for i in range(20):
        seed = derive_seed(MASTER_SEED, 500 + i)
        r1 = sample_sites(d, plan.p1, derive_seed(seed, 1))
        r2 = sample_sites(d, plan.p2, derive_seed(seed, 2))
        lab1 = components(q, r1)
        part = classify_tms(q, lab1, eps)
        # T must be exactly the giant plus its dilation by one step
        l1_mask = np.zeros(n, dtype=bool)
        l1_mask[part.l1_members] = True
        expected_t = l1_mask.copy()
        for b in range(d):
            expected_t |= xor_shift(l1_mask, b)
        if not np.array_equal(part.t_mask, expected_t):
            problems.append(f"seed {i}: T differs from giant dilation")
        # M recount through gather indexing rather than array reshaping
        idx = np.arange(n, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
        for b in range(d):
            counts += part.t_mask[idx ^ (1 << b)]
        expected_m = (~part.t_mask) & (counts >= part.threshold)
        if not np.array_equal(part.m_mask, expected_m):
            problems.append(f"seed {i}: M differs from recount")
        cover = part.t_mask.astype(int) + part.m_mask.astype(int) + part.s_mask.astype(int)
        if not (cover == 1).all():
            problems.append(f"seed {i}: T/M/S is not a partition")
        ma = merge_analysis(q, part, r1, r2)
        if not ma.all_consistent():
            problems.append(f"seed {i}: inconsistent merge flags")
        direct = components(q, union_samples(r1, r2))
        if not (
            np.array_equal(ma.final_labeling.vertices, direct.vertices)
            and np.array_equal(ma.final_labeling.labels, direct.labels)
        ):
            problems.append(f"seed {i}: staged labeling differs from direct union")
    # part two: two-round census matches single-round within 3 sigma at d=10
    d10, eps10, trials = 10, 0.2, 500
    q10 = Hypercube(d10)
    p = (1 + eps10) / d10
    plan10 = two_round_plan(eps10, d10)
    single = []
    double = []
    for i in range(trials):
        s_seed = derive_seed(MASTER_SEED, 10_000 + i)
        single.append(_census_stat_row(components(q10, sample_sites(d10, p, s_seed)), d10))
        t_seed = derive_seed(MASTER_SEED, 20_000 + i)
        r1 = sample_sites(d10, plan10.p1, derive_seed(t_seed, 1))
        r2 = sample_sites(d10, plan10.p2, derive_seed(t_seed, 2))
        part10 = classify_tms(q10, components(q10, r1), eps10)
        ma10 = merge_analysis(q10, part10, r1, r2)
        double.append(_census_stat_row(ma10.final_labeling, d10))
    a = np.asarray(single, dtype=np.float64)
    b = np.asarray(double, dtype=np.float64)
    names = ("retained", "giant", "n1", "n2", "n3", "n4", "n5-8", "n9+")
    worst_z = 0.0
    for j, name in enumerate(names):
        se = math.sqrt(a[:, j].var(ddof=1) / trials + b[:, j].var(ddof=1) / trials)
        diff = abs(float(a[:, j].mean() - b[:, j].mean()))
        if se == 0.0:
            z = 0.0 if diff == 0.0 else math.inf
        else:
            z = diff / se
        worst_z = max(worst_z, z)
        if z > 3.0:
            problems.append(f"census stat {name}: z={z:.2f}")
    _criterion(
        11,
        "partition/merge invariants at d=18; two-round census matches "
        "single-round within 3 sigma (500 trials, d=10)",
        not problems,
        "; ".join(problems) or f"20/20 trials sound, worst census z={worst_z:.2f}",
    )


def test_criterion_12_determinism():
    ok = True
    details = []
    for cfg in (
        TrialConfig(d=12, epsilon=0.25, seed=31, checks=("expansion", "sphere2")),
        TrialConfig(d=10, epsilon=0.2, seed=31, mode="two-round", c_grid=(1.0, 5.0)),
    ):
        a = run_trial(cfg)
        b = run_trial(cfg)
        if not records_equal_modulo_volatile(a, b):
            ok = False
            details.append(f"{cfg.mode} differs")
    _criterion(
        12,
        "rerun with identical config reproduces the record modulo wall_ms/version",
        ok,
        "; ".join(details) or "single-round and two-round records stable",
    )
