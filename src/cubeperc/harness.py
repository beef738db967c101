"""Trial orchestration: configuration, execution, statistics, records.

A trial is fully determined by (d, epsilon, seed, mode, toggles); the
record it produces is reproducible bit-for-bit except for wall-clock
time and the code version tag. Records serialize one per line with a
fixed field order and probabilities at 17 significant digits, so a
record file diff is meaningful.
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields

import numpy as np

from . import checkers, rng, sprinkling
from .cube import Hypercube, closed_neighborhood_mask, sphere2
from .cube import external_neighborhood  # noqa: F401 -- perfbench/spans.py wraps it here
from .errors import InputDomainError, RefusalError
from .percolation import (
    PercolationSample,
    components,
    largest_two,
    sample_sites,
    two_round_plan,
    union_samples,
)

VERSION = "0.1.0"
SCHEMA_VERSION = 1

_HARD_CAP_D = 26
# Working-set model per mode, in bytes per vertex of Q^d: the growth of
# ru_maxrss over one trial with every checker on measured 24-25 B/vertex
# single-round and 40-52 two-round at d = 18-22, plus headroom.
_BYTES_PER_VERTEX = {"single-round": 32, "two-round": 64}
_EPSILON_INTENT_CAP = 0.3  # larger eps accepted but flagged
_UNIQUENESS_FACTOR = 10  # "unique giant" convention: giant > 10 * second
_DEFAULT_SQUID_C = 4.0

KNOWN_CHECKS = ("expansion", "sphere2", "squid")
MODES = ("single-round", "two-round")


def memory_budget_gb() -> float:
    raw = os.environ.get("CUBEPERC_MEM_GB")
    if raw is None:
        return 8.0
    try:
        value = float(raw)
    except ValueError:
        raise InputDomainError(f"CUBEPERC_MEM_GB={raw!r} is not a number")
    if value <= 0:
        raise InputDomainError(f"CUBEPERC_MEM_GB must be positive, got {value}")
    return value


def _working_set(d: int, mode: str) -> int:
    return (1 << d) * _BYTES_PER_VERTEX[mode]


def check_memory_budget(d: int, mode: str = "single-round") -> None:
    """Refuse, never truncate, when a `mode` trial on Q^d would not fit
    the working-set budget."""
    if d > _HARD_CAP_D:
        raise RefusalError(f"d={d} above the hard cap d <= {_HARD_CAP_D}")
    need = _working_set(d, mode)
    budget = memory_budget_gb() * 2**30
    if need > budget:
        raise RefusalError(
            f"d={d} {mode} needs ~{need / 2**30:.1f} GiB working set, "
            f"budget is {memory_budget_gb():.1f} GiB (CUBEPERC_MEM_GB)"
        )


@dataclass(frozen=True)
class TrialConfig:
    """Everything that determines a trial's stochastic output.

    expansion_size_threshold and plant_sphere2 are verification hooks,
    not modeled statements; they exist so the error paths of the
    checkers can be exercised deliberately.
    """

    d: int
    epsilon: float
    seed: int
    mode: str = "single-round"
    checks: tuple = ()
    c_grid: tuple = ()
    expansion_size_threshold: float | None = None
    plant_sphere2: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputDomainError(f"unknown mode {self.mode!r}")
        if self.d < 1:
            raise InputDomainError(f"dimension must be >= 1, got {self.d}")
        if self.epsilon <= 0:
            raise InputDomainError(f"epsilon must be positive, got {self.epsilon}")
        for c in self.checks:
            if c not in KNOWN_CHECKS:
                raise InputDomainError(f"unknown check {c!r}; known: {KNOWN_CHECKS}")
        if self.mode == "two-round":
            two_round_plan(self.epsilon, self.d)  # validates the split
        else:
            p = (1.0 + self.epsilon) / self.d
            if not 0.0 < p <= 1.0:
                raise InputDomainError(
                    f"p=(1+eps)/d={p} outside (0, 1] for eps={self.epsilon}, d={self.d}"
                )

    def p(self) -> float:
        return (1.0 + self.epsilon) / self.d


@dataclass(frozen=True)
class ExperimentRecord:
    """One trial's outcome; see record_to_json for the wire format."""

    schema_version: int
    d: int
    epsilon: float
    seed: int
    mode: str
    p: float
    p1: float | None
    p2: float | None
    retained: int
    giant: int
    second: int
    components_total: int
    top_sizes: tuple
    giant_predicted: float
    checker_summaries: dict
    merge_summary: dict | None
    wall_ms: float
    version: str

    def to_dict(self) -> dict:
        data = {name: getattr(self, name) for name in RECORD_FIELDS}
        data["top_sizes"] = list(self.top_sizes)
        return data


VOLATILE_FIELDS = ("wall_ms", "version")

# the wire order of a record is the field order of ExperimentRecord
RECORD_FIELDS = tuple(f.name for f in fields(ExperimentRecord))

_PROBABILITY_FIELDS = ("p", "p1", "p2")


def _prob_literal(x) -> str:
    # 17 significant digits: enough for exact float64 round-trip
    return "null" if x is None else format(x, ".16e")


def record_to_json(record) -> str:
    """Serialize with fixed field order and 17-digit probabilities."""
    data = record.to_dict() if hasattr(record, "to_dict") else dict(record)
    parts = []
    for name in RECORD_FIELDS:
        value = data[name]
        if name in _PROBABILITY_FIELDS:
            literal = _prob_literal(value)
        else:
            literal = json.dumps(value, sort_keys=True, separators=(",", ":"))
        parts.append(f'"{name}":{literal}')
    return "{" + ",".join(parts) + "}"


def parse_record(line: str) -> dict:
    data = json.loads(line)
    if not isinstance(data, dict):
        raise ValueError("record line is not an object")
    return data


def records_equal_modulo_volatile(a, b) -> bool:
    da = a.to_dict() if hasattr(a, "to_dict") else dict(a)
    db = b.to_dict() if hasattr(b, "to_dict") else dict(b)
    for k in VOLATILE_FIELDS:
        da.pop(k, None)
        db.pop(k, None)
    return json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


@dataclass(frozen=True)
class TrialFailure:
    """A trial that raised; sweeps record these and keep going."""

    d: int
    epsilon: float
    seed: int
    mode: str
    error: str

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "d": self.d,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "mode": self.mode,
            "error": self.error,
        }


def failure_to_json(failure: TrialFailure) -> str:
    return json.dumps(failure.to_dict(), sort_keys=True, separators=(",", ":"))


# === trial execution ===


def _plant_sphere2_violation(cube: Hypercube, sample):
    """Force >= 2d retained vertices into sphere2(0); test hook."""
    ring = sorted(sphere2(cube, 0))
    need = 2 * cube.d
    if len(ring) < need:
        raise InputDomainError(
            f"cannot plant a sphere-2 violation at d={cube.d}: C(d,2) < 2d"
        )
    planted = PercolationSample.from_labels(cube.d, ring[:need])
    merged = union_samples(sample, planted)
    return PercolationSample(cube.d, sample.p, sample.seed, merged.bits)


def _squid_inputs(cube, labeling, c_cap: float):
    """The giant's closed-neighborhood mask, and the non-giant components
    of at most c_cap*d vertices, largest first, as member arrays."""
    order = labeling.order_by_size
    if len(order) == 0:
        return np.zeros(cube.n, dtype=bool), []
    region = closed_neighborhood_mask(cube.d, labeling.members(int(order[0])))
    chosen = order[1:][labeling.sizes[order[1:]] <= c_cap * cube.d]
    grouped, offsets = labeling.member_groups()
    bounds = zip(offsets[chosen].tolist(), offsets[chosen + 1].tolist())
    return region, [grouped[lo:hi] for lo, hi in bounds]


def run_trial(config: TrialConfig) -> ExperimentRecord:
    """Execute one trial: sample, label, run enabled checkers, record."""
    check_memory_budget(config.d, config.mode)
    t0 = time.perf_counter()
    cube = Hypercube(config.d)
    n = cube.n
    p = config.p()
    summaries: dict = {}
    merge_summary = None
    p1 = p2 = None

    if config.mode == "single-round":
        sample = sample_sites(config.d, p, config.seed)
        if config.plant_sphere2:
            sample = _plant_sphere2_violation(cube, sample)
        labeling = components(cube, sample)
    else:
        plan = two_round_plan(config.epsilon, config.d)
        p1, p2 = plan.p1, plan.p2
        r1 = sample_sites(config.d, p1, rng.derive_seed(config.seed, 1))
        r2 = sample_sites(config.d, p2, rng.derive_seed(config.seed, 2))
        labeling_r1 = components(cube, r1)
        partition = sprinkling.classify_tms(cube, labeling_r1, config.epsilon)
        analysis = sprinkling.merge_analysis(cube, partition, r1, r2)
        labeling = analysis.final_labeling
        sample = union_samples(r1, r2)
        census = sprinkling.survival_census(labeling, config.d)
        merge_summary = analysis.summary()
        merge_summary["tms_sizes"] = partition.sizes()
        merge_summary["ambiguous_giant"] = partition.ambiguous_giant
        merge_summary["census"] = census.to_dict()
        if config.c_grid:
            merge_summary["rate_table"] = analysis.rate_table(config.c_grid, config.d)

    if "expansion" in config.checks:
        threshold = (
            checkers.expansion_size_threshold(n)
            if config.expansion_size_threshold is None
            else float(config.expansion_size_threshold)
        )
        reports = checkers.check_expansion(
            cube, labeling, config.epsilon, size_threshold=threshold
        )
        summary = checkers.expansion_summary(labeling, threshold, reports)
        summary["witnesses"] = [r.to_dict() for r in reports]
        if config.expansion_size_threshold is not None:
            summary["size_threshold_overridden"] = True
        summaries["expansion"] = summary
    if "sphere2" in config.checks:
        reports = checkers.check_sphere2_density(cube, sample)
        summary = checkers.sphere2_summary(config.d, reports)
        summary["witnesses"] = [r.to_dict() for r in reports]
        summaries["sphere2"] = summary
    if "squid" in config.checks:
        c_cap = max(config.c_grid) if config.c_grid else _DEFAULT_SQUID_C
        region, candidates = _squid_inputs(cube, labeling, c_cap)
        reports = checkers.check_squid(
            cube, region, candidates, config.epsilon, c_cap
        )
        summaries["squid"] = {
            "candidates": len(candidates),
            "violations": len(reports),
            "c_cap": c_cap,
            "witnesses": [r.to_dict() for r in reports],
        }
    summaries["flags"] = {
        "epsilon_above_intent": config.epsilon > _EPSILON_INTENT_CAP,
    }
    if merge_summary is not None:
        summaries["flags"]["ambiguous_giant"] = merge_summary["ambiguous_giant"]

    giant, second = largest_two(labeling)
    order = labeling.order_by_size
    top = [int(labeling.sizes[cid]) for cid in order[:10]]
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return ExperimentRecord(
        schema_version=SCHEMA_VERSION,
        d=config.d,
        epsilon=config.epsilon,
        seed=config.seed,
        mode=config.mode,
        p=p,
        p1=p1,
        p2=p2,
        retained=labeling.retained_count(),
        giant=giant,
        second=second,
        components_total=labeling.n_components,
        top_sizes=tuple(top),
        giant_predicted=2.0 * config.epsilon * n / config.d,
        checker_summaries=summaries,
        merge_summary=merge_summary,
        wall_ms=wall_ms,
        version=VERSION,
    )


# === sweeps ===


def make_grid(
    d_values,
    epsilon_values,
    trials: int,
    master_seed: int,
    mode: str = "single-round",
    checks: tuple = (),
    c_grid: tuple = (),
):
    """Cross d x epsilon x trial index into configs with derived seeds.

    Returns (configs, manifest); the manifest pairs each grid position
    with its derived seed so any single trial can be reproduced alone.
    """
    if trials < 1:
        raise InputDomainError(f"trials must be >= 1, got {trials}")
    configs = []
    manifest = []
    index = 0
    for d in d_values:
        for eps in epsilon_values:
            for t in range(trials):
                seed = rng.derive_seed(master_seed, index)
                configs.append(
                    TrialConfig(
                        d=d,
                        epsilon=eps,
                        seed=seed,
                        mode=mode,
                        checks=tuple(checks),
                        c_grid=tuple(c_grid),
                    )
                )
                manifest.append(
                    {"index": index, "d": d, "epsilon": eps, "trial": t, "seed": seed}
                )
                index += 1
    return configs, manifest


def _jobs_within_budget(configs) -> int:
    """How many of the largest trial the budget admits side by side;
    trials the budget refuses outright allocate nothing."""
    budget = memory_budget_gb() * 2**30
    admitted = [need for need in (_working_set(c.d, c.mode) for c in configs) if need <= budget]
    return max(1, int(budget // max(admitted))) if admitted else 1


def sweep(configs, jobs: int = 1):
    """Yield one result per config in completion order.

    Failures come back as TrialFailure entries; the sweep never aborts
    on a single bad trial. jobs=1 runs inline (deterministic order);
    more jobs use a process pool, falling back to threads where
    processes are unavailable. Every worker holds a trial's working
    set at once, so jobs is clamped to what the memory budget admits
    for the largest trial in the grid.
    """
    configs = list(configs)
    if jobs < 1:
        raise InputDomainError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and len(configs) > 1:
        jobs = min(jobs, _jobs_within_budget(configs))
    if jobs == 1 or len(configs) <= 1:
        for cfg in configs:
            try:
                yield run_trial(cfg)
            except Exception as exc:
                yield TrialFailure(cfg.d, cfg.epsilon, cfg.seed, cfg.mode, str(exc))
        return
    try:
        executor = ProcessPoolExecutor(max_workers=jobs)
    except (OSError, ValueError):
        executor = ThreadPoolExecutor(max_workers=jobs)
    with executor:
        futures = {executor.submit(run_trial, cfg): cfg for cfg in configs}
        for fut in as_completed(futures):
            cfg = futures[fut]
            try:
                yield fut.result()
            except BrokenProcessPool:  # a dead worker fails every pending trial
                need = _working_set(cfg.d, cfg.mode) / 2**30
                yield TrialFailure(cfg.d, cfg.epsilon, cfg.seed, cfg.mode, (
                    f"a worker process died (BrokenProcessPool); the trial's modelled working"
                    f" set is {need:.3g} GiB of a {memory_budget_gb():.3g} GiB budget"))
            except Exception as exc:
                yield TrialFailure(cfg.d, cfg.epsilon, cfg.seed, cfg.mode, str(exc))


# === statistics over records ===


def _as_dicts(records) -> list:
    out = []
    for r in records:
        out.append(r.to_dict() if hasattr(r, "to_dict") else dict(r))
    return out


def giant_statistics(records) -> dict:
    """Mean/spread of giant size against the 2*eps*n/d yardstick."""
    rows = _as_dicts(records)
    if not rows:
        raise InputDomainError("no records")
    d_set = {r["d"] for r in rows}
    eps_set = {r["epsilon"] for r in rows}
    if len(d_set) != 1 or len(eps_set) != 1:
        raise InputDomainError(
            f"records must share (d, epsilon); got d={sorted(d_set)}, "
            f"epsilon={sorted(eps_set)}"
        )
    d = d_set.pop()
    eps = eps_set.pop()
    n = 1 << d
    giants = np.array([r["giant"] for r in rows], dtype=np.float64)
    seconds = np.array([r["second"] for r in rows], dtype=np.float64)
    predicted = 2.0 * eps * n / d
    degenerate = sum(1 for r in rows if r["retained"] == n)
    unique = (giants > _UNIQUENESS_FACTOR * seconds).mean()
    return {
        "d": d,
        "epsilon": eps,
        "trials": len(rows),
        "mean_giant": float(giants.mean()),
        "std_giant": float(giants.std()),
        "giant_predicted": predicted,
        "ratio_to_predicted": float(giants.mean() / predicted),
        "uniqueness_rate": float(unique),
        "uniqueness_factor": _UNIQUENESS_FACTOR,
        "degenerate_trials": degenerate,
        "degenerate": degenerate > 0,
    }


def second_component_scaling(records) -> dict:
    """Fit log(mean max-non-giant) against log(d) across a sweep."""
    rows = _as_dicts(records)
    if not rows:
        raise RefusalError("no records to fit")
    eps_set = {r["epsilon"] for r in rows}
    if len(eps_set) != 1:
        raise InputDomainError(f"records must share epsilon; got {sorted(eps_set)}")
    by_d: dict = {}
    for r in rows:
        by_d.setdefault(r["d"], []).append(r["second"])
    if len(by_d) < 3:
        raise RefusalError(
            f"need at least 3 distinct d values for a scaling fit, got {len(by_d)}"
        )
    per_d = {
        d: {"mean_max": float(np.mean(v)), "trials": len(v)}
        for d, v in sorted(by_d.items())
    }
    ds = np.array(sorted(by_d), dtype=np.float64)
    means = np.array([per_d[int(dv)]["mean_max"] for dv in ds])
    positive = means > 0
    if positive.sum() >= 2:
        slope = float(np.polyfit(np.log(ds[positive]), np.log(means[positive]), 1)[0])
    else:
        slope = 0.0
    return {
        "epsilon": eps_set.pop(),
        "per_d": per_d,
        "slope": slope,
        "flagged_superlinear": slope > 1.5,
    }


# === files ===


def read_records(path):
    """Parse a record file; returns (records, failures, skipped_count)."""
    records = []
    failures = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                data = parse_record(line)
            except (ValueError, json.JSONDecodeError):
                skipped += 1
                continue
            if "error" in data:
                failures.append(data)
            elif "giant" in data and "d" in data:
                records.append(data)
            else:
                skipped += 1
    return records, failures, skipped


CENSUS_COLUMNS = ("d", "epsilon", "seed", "giant", "second", "max_nongiant_over_d")


def census_csv_row(r: dict) -> str:
    """One line of the census table for a record dict, newline included."""
    ratio = r["second"] / r["d"]
    return f'{r["d"]},{r["epsilon"]!r},{r["seed"]},{r["giant"]},{r["second"]},{ratio!r}\n'


def write_census_csv(records, fh) -> int:
    """Write the census table; returns the number of rows written."""
    fh.write(",".join(CENSUS_COLUMNS) + "\n")
    rows = _as_dicts(records)
    for r in rows:
        fh.write(census_csv_row(r))
    return len(rows)
