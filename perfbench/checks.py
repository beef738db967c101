"""Correctness checks: program outputs against the reference computations.

Each `*_reference` function derives, from the trial's inputs alone,
everything a record should say; each `check_*` function compares a
record (as a dict) with that reference and returns a list of
mismatches, empty when the record is right. `self_test` feeds the
checks deliberately corrupted outputs and confirms each is rejected.
"""

import math

import numpy as np

import oracle

ALL_CHECKS = ("expansion", "sphere2", "squid")
SPHERE2_PROBES = 4096


def _compare(errors, what, got, want):
    if got != want:
        errors.append(f"{what}: program {got!r}, reference {want!r}")


def _sizes_summary(lab: oracle.Labeling) -> dict:
    ordered = lab.sizes[lab.order_by_size]
    return {
        "retained": len(lab.vertices),
        "components_total": len(lab.sizes),
        "top_sizes": [int(s) for s in ordered[:10]],
        "giant": int(ordered[0]) if len(ordered) else 0,
        "second": int(ordered[1]) if len(ordered) > 1 else 0,
    }


def check_sizes(rec: dict, lab: oracle.Labeling) -> list:
    """Record-level component statistics against a reference labeling."""
    errors = []
    _compare(errors, "component sizes sum to the sample popcount", int(lab.sizes.sum()), int(lab.mask.sum()))
    want = _sizes_summary(lab)
    for key in want:
        got = list(rec[key]) if key == "top_sizes" else rec[key]
        _compare(errors, key, got, want[key])
    return errors


def check_labeling(prog_lab, lab: oracle.Labeling) -> list:
    """A program ComponentLabeling against the reference, entry by entry."""
    for field in ("vertices", "labels", "sizes"):
        if not np.array_equal(getattr(prog_lab, field), getattr(lab, field)):
            return [f"labeling differs from the reference in `{field}`"]
    return []


# === single round with all checks ===


def single_reference(d: int, epsilon: float, seed: int, c_cap: float) -> dict:
    p = (1.0 + epsilon) / d
    mask = oracle.sample_mask(d, p, seed)
    lab = oracle.Labeling(d, mask)
    order = lab.order_by_size
    mins = lab.min_vertices()

    s2 = oracle.sphere2_counts(d, mask)
    s2_witnesses = [(int(v), float(s2[v])) for v in np.flatnonzero(s2 >= 2 * d)]
    probes = np.random.default_rng(seed).integers(0, 1 << d, SPHERE2_PROBES)
    probes = np.concatenate([probes, np.array([v for v, _ in s2_witnesses], dtype=np.int64)])
    s2_direct_ok = bool(np.array_equal(oracle.sphere2_direct(d, mask, probes), s2[probes]))

    threshold = 300.0 * math.log(1 << d)
    checked = np.flatnonzero(lab.sizes > threshold)
    exp_witnesses = []
    for cid in checked:
        k = int(lab.sizes[cid])
        boundary = int(oracle.external_mask(d, lab.members(cid)).sum())
        if boundary < 0.9 * k * d:
            exp_witnesses.append((int(cid), k, int(mins[cid]), float(boundary)))

    giant = lab.members(int(order[0]))
    region = oracle.external_mask(d, giant)
    region[giant] = True
    candidates = np.array([c for c in order[1:] if lab.sizes[c] <= c_cap * d], dtype=np.int64)
    position = np.full(len(lab.sizes), -1, dtype=np.int64)
    position[candidates] = np.arange(len(candidates))
    in_cand = position[lab.labels] >= 0
    verts = lab.vertices[in_cand]
    inside = np.zeros(len(verts), dtype=np.int64)
    for i in range(d):
        inside += region[verts ^ (1 << i)]
    deprived = np.bincount(
        position[lab.labels[in_cand]],
        weights=inside < epsilon**2 * d / 40.0,
        minlength=len(candidates),
    )
    squid_witnesses = [
        (int(i), int(lab.sizes[c]), int(mins[c]), float(deprived[i]))
        for i, c in enumerate(candidates)
        if deprived[i] >= epsilon * d / 10.0
    ]
    return {
        "p": p,
        "labeling": lab,
        "sphere2": s2_witnesses,
        "sphere2_direct_ok": s2_direct_ok,
        "expansion_checked": len(checked),
        "expansion": exp_witnesses,
        "squid_candidates": len(candidates),
        "squid": squid_witnesses,
        "c_cap": c_cap,
    }


def check_single(rec: dict, ref: dict, prog_lab=None) -> list:
    """A single-round all-checks record (and optionally the program's
    labeling of the same sample) against single_reference."""
    lab = ref["labeling"]
    errors = check_sizes(rec, lab)
    _compare(errors, "p", rec["p"], ref["p"])
    if prog_lab is not None:
        errors += check_labeling(prog_lab, lab)
    s = rec["checker_summaries"]
    if not ref["sphere2_direct_ok"]:
        errors.append("sphere-2 law disagrees with direct enumeration")
    got = [(w["witness"]["v"], w["measured"]) for w in s["sphere2"]["witnesses"]]
    _compare(errors, "sphere2 witnesses", got, ref["sphere2"])
    _compare(errors, "expansion checked", s["expansion"]["checked"], ref["expansion_checked"])
    got = [
        (w["witness"]["component"], w["witness"]["size"], w["witness"]["min_vertex"], w["measured"])
        for w in s["expansion"]["witnesses"]
    ]
    _compare(errors, "expansion witnesses", got, ref["expansion"])
    _compare(errors, "squid c_cap", s["squid"]["c_cap"], ref["c_cap"])
    _compare(errors, "squid candidates", s["squid"]["candidates"], ref["squid_candidates"])
    got = [
        (w["witness"]["candidate_index"], w["witness"]["size"], w["witness"]["min_vertex"], w["measured"])
        for w in s["squid"]["witnesses"]
    ]
    _compare(errors, "squid witnesses", got, ref["squid"])
    return errors


# === two rounds ===


def two_round_reference(d: int, epsilon: float, rec: dict, seed: int, c_grid) -> dict:
    """Everything a two-round record should hold, from (d, eps, seed).

    The record's p1 and p2 are used for sampling only after they are
    checked against the exact rational split.
    """
    p, p1, p2 = oracle.two_round_split(epsilon, d)
    errors = []
    if (1 - p1) * (1 - p2) != 1 - p:
        errors.append("(1-p1)(1-p2) != 1-p in rationals")
    for name, exact in (("p1", p1), ("p2", p2)):
        if abs(rec[name] - float(exact)) > 1e-15:
            errors.append(f"{name}={rec[name]!r} is not the exact split {float(exact)!r}")
    r1 = oracle.sample_mask(d, rec["p1"], oracle.derive_seed(seed, 1))
    r2 = oracle.sample_mask(d, rec["p2"], oracle.derive_seed(seed, 2))
    lab1 = oracle.Labeling(d, r1)
    order1 = lab1.order_by_size
    l1 = lab1.members(int(order1[0]))
    t = oracle.external_mask(d, l1)
    t[l1] = True
    m = ~t & (oracle.neighbour_sum(d, t.view(np.uint8)) >= epsilon**2 * d / 200.0)

    union = r1 | r2
    final = oracle.Labeling(d, union)
    b = oracle.Labeling(d, union & ~t)
    # a B merges iff it has a T-neighbour retained in round two
    touches = oracle.external_mask(d, np.flatnonzero(t & r2)) & ~t
    k = len(b.sizes)
    flags = np.bincount(b.labels, weights=touches[b.vertices], minlength=k) > 0
    m_sizes = np.bincount(b.labels, weights=m[b.vertices], minlength=k).astype(np.int64)
    rate_table = []
    for c in c_grid:
        eligible = m_sizes >= c * d
        merged = int((eligible & flags).sum())
        rate_table.append(
            {
                "c": float(c),
                "eligible": int(eligible.sum()),
                "merged": merged,
                "rate": merged / int(eligible.sum()) if eligible.any() else None,
            }
        )
    ordered = final.sizes[final.order_by_size]
    values, counts = np.unique(ordered[1:], return_counts=True)
    giant_final = int(final.sizes[final.labels[np.searchsorted(final.vertices, l1[0])]])
    return {
        "errors": errors,
        "labeling": final,
        "tms_sizes": {"T": int(t.sum()), "M": int(m.sum()), "S": int((~t & ~m).sum())},
        "ambiguous_giant": bool(len(order1) > 1 and 2 * lab1.sizes[order1[1]] > lab1.sizes[order1[0]]),
        "flags": flags,
        "m_sizes": m_sizes,
        "candidates": k,
        "merged": int(flags.sum()),
        "rate_table": rate_table,
        "giant_final_size": giant_final,
        "census": {
            "giant_size": int(ordered[0]),
            "max_nongiant": int(ordered[1]) if len(ordered) > 1 else 0,
            "nongiant_count": len(ordered) - 1,
            "component_count": len(ordered),
            "nongiant_size_histogram": {str(int(v)): int(c) for v, c in zip(values, counts)},
        },
        "t_reveals": int((t & r2 & ~r1).sum()),
    }


def check_two_round(rec: dict, ref: dict) -> list:
    errors = list(ref["errors"]) + check_sizes(rec, ref["labeling"])
    ms = rec["merge_summary"]
    _compare(errors, "tms_sizes", ms["tms_sizes"], ref["tms_sizes"])
    _compare(errors, "ambiguous_giant", ms["ambiguous_giant"], ref["ambiguous_giant"])
    _compare(errors, "merge candidates", ms["candidates"], ref["candidates"])
    _compare(errors, "merged", ms["merged"], ref["merged"])
    _compare(errors, "rate_table", ms["rate_table"], ref["rate_table"])
    _compare(errors, "giant_final_size", ms["giant_final_size"], ref["giant_final_size"])
    _compare(errors, "consistent", ms["consistent"], True)
    census = {k: v for k, v in ms["census"].items() if k != "ratio"}
    _compare(errors, "census", census, ref["census"])
    hist = ms["census"]["nongiant_size_histogram"]
    total = ms["census"]["giant_size"] + sum(int(k) * c for k, c in hist.items())
    _compare(errors, "giant + sum k count(k)", total, rec["retained"])
    return errors


# === sweep records ===


def check_sweep_record(rec: dict, entry: dict, seed: int, lab=None) -> list:
    """A record read back from a sweep file: its manifest entry, its
    derived seed, internal consistency, and optionally a reference
    labeling of the same sample."""
    errors = []
    for key in ("d", "epsilon", "seed"):
        _compare(errors, f"record {key} vs manifest", rec.get(key), entry.get(key))
    _compare(errors, "manifest seed", entry.get("seed"), seed)
    top = rec["top_sizes"]
    if any(a < b for a, b in zip(top, top[1:])):
        errors.append(f"top_sizes not non-increasing: {top}")
    if sum(top) > rec["retained"]:
        errors.append(f"top_sizes sum {sum(top)} above retained {rec['retained']}")
    n = 1 << rec["d"]
    p = (1.0 + rec["epsilon"]) / rec["d"]
    _compare(errors, "p", rec["p"], p)
    if abs(rec["retained"] - n * p) > 6.0 * math.sqrt(n * p * (1.0 - p)):
        errors.append(f"retained {rec['retained']} beyond 6 sigma of n p = {n * p:.0f}")
    if lab is not None:
        errors += check_sizes(rec, lab)
    return errors


# === self-test ===


def self_test(prog) -> list:
    """Feed the checks genuine and corrupted outputs.

    Returns (case, should_reject, rejected) triples: each genuine output
    must be accepted and each corruption rejected.
    """
    h = prog.harness
    results = []
    d, eps, seed = 16, 0.5, 11
    rec = h.run_trial(h.TrialConfig(d=d, epsilon=eps, seed=seed, checks=ALL_CHECKS)).to_dict()
    ref = single_reference(d, eps, seed, 4.0)
    prog_lab = prog.percolation.components(
        prog.cube.Hypercube(d), prog.percolation.sample_sites(d, ref["p"], seed)
    )
    results.append(("single-round genuine", False, bool(check_single(rec, ref, prog_lab))))

    order = prog_lab.order_by_size
    merged_lab = prog.percolation.ComponentLabeling(
        prog_lab.vertices, prog_lab.labels.copy(), prog_lab.sizes
    )
    merged_lab.labels[merged_lab.labels == order[1]] = order[0]
    results.append(("two components merged in a labeling", True, bool(check_single(rec, ref, merged_lab))))

    witnesses = rec["checker_summaries"]["squid"]["witnesses"]
    dropped = _with(rec, ("checker_summaries", "squid", "witnesses"), witnesses[1:])
    results.append(("dropped squid witness", True, bool(witnesses) and bool(check_single(dropped, ref))))
    off = _with(rec, ("retained",), rec["retained"] + 1)
    results.append(("off-by-one retained (single-round)", True, bool(check_single(off, ref))))

    c_grid = (1.0, 2.0, 5.0, 10.0)
    rec = h.run_trial(h.TrialConfig(d=d, epsilon=eps, seed=seed, mode="two-round", c_grid=c_grid)).to_dict()
    ref = two_round_reference(d, eps, rec, seed, c_grid)
    results.append(("two-round genuine", False, bool(check_two_round(rec, ref))))
    # flip the first unmerged candidate's flag and carry it into the aggregates
    flip = int(np.flatnonzero(~ref["flags"])[0])
    ms = dict(rec["merge_summary"], merged=rec["merge_summary"]["merged"] + 1)
    ms["rate_table"] = [
        dict(row, merged=row["merged"] + int(ref["m_sizes"][flip] >= row["c"] * d))
        for row in ms["rate_table"]
    ]
    results.append(("flipped merge flag", True, bool(check_two_round(dict(rec, merge_summary=ms), ref))))
    off = _with(rec, ("retained",), rec["retained"] + 1)
    results.append(("off-by-one retained (two-round)", True, bool(check_two_round(off, ref))))
    return results


def _with(rec: dict, path: tuple, value) -> dict:
    """Copy of a nested record dict with one entry replaced."""
    if len(path) == 1:
        return dict(rec, **{path[0]: value})
    return dict(rec, **{path[0]: _with(rec[path[0]], path[1:], value)})
