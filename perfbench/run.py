"""cubeperc benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload checks-d20 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
its `src/` directory. The run sets up (imports, configs, one untimed
low-d warm-up trial), runs whole rounds of timed trials until
--seconds have passed, then checks every output against the reference
computations in oracle.py and runs the checks' self-test. The last line
of standard output is one JSON object: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run
(spans written to perfbench/out/). Diagnostics go to standard error.
See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402
from spans import COUNTERS, SELF_MS, Tracer  # noqa: E402

OUT = HERE / "out"
SETUP_SAMPLES = 5  # this process plus four set-up-only processes
PROBE_REPEATS = 5
MASK64 = (1 << 64) - 1


def import_program():
    """The cubeperc modules from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "cubeperc" / "__init__.py").is_file():
        sys.exit(f"error: no cubeperc sources under {src}")
    sys.path.insert(0, str(src))
    names = ("harness", "cli", "percolation", "sprinkling", "checkers", "cube")
    mods = {n: importlib.import_module("cubeperc." + n) for n in names}
    if Path(mods["harness"].__file__).resolve().parent != (src / "cubeperc").resolve():
        sys.exit("error: cubeperc was not imported from this checkout")
    return types.SimpleNamespace(**mods)


# === workloads ===
#
# Each workload builds its trial configs from --seed; a round is the
# unit a run repeats whole, so every run attempts the same operations.


class _TrialWorkload:
    """`harness.run_trial` on a fresh seed per trial; a round is one trial."""

    round_size = 1

    def __init__(self, prog, seed):
        self.prog, self.seed = prog, seed
        self.warm = self.config(12, 1)

    def seed_of(self, r, j):
        return oracle.derive_seed(self.seed, r)

    def warm_up(self):
        self.prog.harness.run_trial(self.warm)

    def operations(self, r):
        cfg = self.config(self.d, self.seed_of(r, 0))
        return [lambda: self.prog.harness.run_trial(cfg)]

    def close(self):
        pass


class ChecksD20(_TrialWorkload):
    """Single round, all three checkers; checkers and members dominate."""

    name = "checks-d20"
    d, epsilon, c_cap = 20, 0.5, 4.0

    def config(self, d, seed):
        return self.prog.harness.TrialConfig(d=d, epsilon=self.epsilon, seed=seed, checks=checks.ALL_CHECKS)

    def check(self, r, j, record):
        seed = self.seed_of(r, j)
        rec = record.to_dict()
        ref = checks.single_reference(self.d, self.epsilon, seed, self.c_cap)
        p = self.prog.percolation
        prog_lab = p.components(self.prog.cube.Hypercube(self.d), p.sample_sites(self.d, ref["p"], seed))
        return checks.check_single(rec, ref, prog_lab), {
            "checkers.expansion_checked": ref["expansion_checked"],
            **_denominators(ref["labeling"]),
        }


class TwoRoundD22(_TrialWorkload):
    """Two-round sprinkling, no checks; merge_analysis dominates."""

    name = "two-round-d22"
    d, epsilon, c_grid = 22, 0.5, (1.0, 2.0, 5.0, 10.0)

    def config(self, d, seed):
        return self.prog.harness.TrialConfig(
            d=d, epsilon=self.epsilon, seed=seed, mode="two-round", c_grid=self.c_grid
        )

    def check(self, r, j, record):
        rec = record.to_dict()
        ref = checks.two_round_reference(self.d, self.epsilon, rec, self.seed_of(r, j), self.c_grid)
        return checks.check_two_round(rec, ref), {
            "sprinkling.t_reveals": ref["t_reveals"],
            "sprinkling.candidates": ref["candidates"],
            "sprinkling.merged": ref["merged"],
            **_denominators(ref["labeling"]),
        }


class SweepGrid:
    """`cubeperc sweep` in process, one eps cell per call; sampling,
    labeling and record I/O only. Round r sweeps every cell with master
    seed derive(--seed, r)."""

    name = "sweep-grid"
    d = 22
    eps_grid = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    round_size = len(eps_grid)

    def __init__(self, prog, seed):
        self.prog, self.seed = prog, seed
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT))

    def _argv(self, d, eps, master, out):
        return ["sweep", "--d", str(d), "--epsilon", repr(eps), "--trials", "1",
                "--seed", str(master), "--jobs", "1", "--out", str(out)]

    def _out(self, r, j):
        return self.tmp / f"r{r}-c{j}.jsonl"

    def seed_of(self, r, j):
        return oracle.derive_seed(oracle.derive_seed(self.seed, r), 0)

    def warm_up(self):
        out = self.tmp / "warm.jsonl"
        if self.prog.cli.main(self._argv(12, 0.5, 1, out)) != 0:
            raise RuntimeError("warm-up sweep failed")
        self.prog.harness.read_records(out)

    def operations(self, r):
        master = oracle.derive_seed(self.seed, r)
        ops = []
        for j, eps in enumerate(self.eps_grid):
            argv = self._argv(self.d, eps, master, self._out(r, j))
            ops.append(lambda argv=argv, r=r, j=j: self._call(argv, r, j))
        return ops

    def _call(self, argv, r, j):
        code = self.prog.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cubeperc sweep exited {code}")
        return (r, j)

    def check(self, r, j, _):
        out = self._out(r, j)
        records, failures, skipped = self.prog.harness.read_records(out)
        with open(str(out) + ".manifest.jsonl", encoding="utf-8") as fh:
            manifest = [json.loads(line) for line in fh]
        if failures or skipped or len(records) != 1 or len(manifest) != 1:
            return [f"{out.name}: {len(records)} records, {len(failures)} failures, "
                    f"{skipped} skipped, {len(manifest)} manifest entries"], {}
        rec = records[0]
        lab = None
        counts = {}
        if r == 0:  # one trial per eps cell against the reference labeling
            lab = oracle.Labeling(self.d, oracle.sample_mask(self.d, rec["p"], self.seed_of(r, j)))
            counts = _denominators(lab)
        return checks.check_sweep_record(rec, manifest[0], self.seed_of(r, j), lab), counts

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ChecksD20, TwoRoundD22, SweepGrid)}


def _denominators(lab):
    return {
        "percolation.retained": len(lab.vertices),
        "percolation.components": len(lab.sizes),
        "percolation.induced_edges": lab.edges,
    }


COUNT_METRICS = (
    "percolation.members_calls",
    "percolation.retained",
    "percolation.components",
    "percolation.induced_edges",
    "cube.external_neighborhood_vertices",
    "checkers.expansion_checked",
    "checkers.squid_candidates",
    "checkers.squid_candidate_vertices",
    "sprinkling.t_reveals",
    "sprinkling.candidates",
    "sprinkling.merged",
)


# === measurement ===


def maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def probe_ms() -> float:
    """Median time of a fixed numpy sort: the host's speed, not a metric."""
    data = np.random.default_rng(0).integers(0, 1 << 40, 1 << 20)
    times = []
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        np.sort(data)
        times.append((time.perf_counter() - t) * 1000.0)
    return statistics.median(times)


def setup_samples(args) -> list:
    """Set-up time of fresh processes that stop after their warm-up."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    values = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up-only process failed: {done.stderr.strip()}")
        values.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def timed_rounds(workload, seconds, after_first_round):
    """Whole rounds until `seconds` have passed; (results, times, failed).

    after_first_round() is called once, between rounds 0 and 1.
    """
    results, times = [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        for j, op in enumerate(workload.operations(r)):
            start = time.perf_counter()
            try:
                result = op()
            except Exception as exc:  # a failed trial is counted, not fatal
                result = None
                failed += 1
                print(f"trial r{r} c{j} failed: {exc!r}", file=sys.stderr)
            times.append(time.perf_counter() - start)
            results.append((r, j, result))
        if r == 0:
            after_first_round()
        r += 1
    return results, times, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    prog = import_program()
    workload = WORKLOADS[args.workload](prog, args.seed & MASK64)
    try:
        workload.warm_up()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, prog, workload, setup_s)
    finally:
        workload.close()


def measure(args, prog, workload, setup_s) -> int:
    rss_base = maxrss_bytes()
    probe_before = probe_ms()
    tracer = Tracer() if args.trace else None
    first_round = {}

    def after_first_round():
        # a fixed amount of work, so the figure does not depend on how
        # many trials the host's speed let the run make
        first_round["rss"] = maxrss_bytes()
        if tracer:
            first_round.update(tracer.counts)

    if tracer:
        tracer.install(prog)
    try:
        results, times, failed = timed_rounds(workload, args.seconds, after_first_round)
    finally:
        if tracer:
            tracer.restore()
    probe_after = probe_ms()

    errors = []
    counts = {}
    for r, j, result in results:
        if result is None:
            continue
        errs, c = workload.check(r, j, result)
        errors += [f"trial r{r} c{j}: {e}" for e in errs]
        if r == 0:
            for k, v in c.items():
                counts[k] = counts.get(k, 0) + v
    for case, should_reject, rejected in checks.self_test(prog):
        ok = rejected == should_reject
        print(f"self-test {case}: {'rejected' if rejected else 'accepted'} ({'ok' if ok else 'WRONG'})",
              file=sys.stderr)
        if not ok:
            errors.append(f"self-test {case}")
    for e in errors[:20]:
        print("check failed: " + e, file=sys.stderr)

    n_ok = len(times) - failed
    ok_times = [t for (_, _, res), t in zip(results, times) if res is not None]
    vertices = (1 << workload.d) * n_ok
    print(f"workload {workload.name} seed {args.seed}: {len(times)} trials, {failed} failed, "
          f"probe {probe_before:.2f} ms before, {probe_after:.2f} ms after", file=sys.stderr)
    print("trial_ms " + " ".join(f"{t * 1000:.1f}" for t in times), file=sys.stderr)

    if tracer:
        metrics = traced_metrics(tracer, workload, n_ok, first_round, counts, ok_times)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.json")
    else:
        setups = [setup_s] + setup_samples(args)
        print("setup_s " + " ".join(f"{s:.4f}" for s in setups), file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "trial_ms.p50": {"value": statistics.median(ok_times) * 1000.0, "unit": "ms"},
            "mvertices_per_s": {"value": vertices / sum(ok_times) / 1e6, "unit": "Mvertex/s"},
            "peak_rss_bytes_per_vertex": {
                "value": (first_round["rss"] - rss_base) / (1 << workload.d),
                "unit": "B/vertex",
            },
        }
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": len(times), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def traced_metrics(tracer, workload, trials, first_round_counts, check_counts, ok_times):
    """Per-layer metrics per trial: span self times averaged over every
    traced trial, counts over the first round (so they repeat exactly).
    A layer that never ran on this workload reads 0."""
    by_name, trial_total, residual = tracer.self_times()
    print(f"traced: run_trial {trial_total / trials:.1f} ms per trial (mean), median trial "
          f"{statistics.median(ok_times) * 1000:.1f} ms, run_trial minus the self times "
          f"inside it {residual:.2e} ms", file=sys.stderr)
    if abs(residual) > 1e-6 * max(trial_total, 1.0):
        raise RuntimeError(f"span self times do not add up to run_trial: residual {residual} ms")
    metrics = {}
    ran = set()
    for metric, span in SELF_MS.items():
        metrics[metric] = {"value": by_name.get(span, 0.0) / trials, "unit": "ms"}
        if span in by_name:
            ran.add(metric)
    metrics["harness.run_trial_ms"] = {"value": trial_total / trials, "unit": "ms"}
    ran.add("harness.run_trial_ms")
    for metric in COUNT_METRICS:
        value = (first_round_counts if metric in COUNTERS else check_counts).get(metric, 0)
        metrics[metric] = {"value": value / workload.round_size, "unit": "count"}
        if value:
            ran.add(metric)
    for metric, m in metrics.items():
        note = "" if metric in ran else "  (not run)"
        print(f"  {metric:40s} {m['value']:14.3f} {m['unit']}{note}", file=sys.stderr)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
