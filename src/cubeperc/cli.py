"""Command-line front end.

Exit codes: 0 success; 1 checker violations under --strict; 2 usage or
input-domain errors; 3 resource refusals. The memory budget honors the
CUBEPERC_MEM_GB environment variable. Every record, JSONL or census
CSV, leaves through one writer, and a sweep writes its records in grid
order for any --jobs.
"""

import argparse
import json
import os
import sys

from . import harness, rng
from .errors import InputDomainError, RefusalError
from .harness import TrialConfig

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_REFUSAL = 3


def _comma_ints(text: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _comma_floats(text: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _comma_names(text: str) -> list:
    return [x.strip() for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeperc",
        description="Site-percolation laboratory for the d-dimensional hypercube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, multi_d=False):
        if multi_d:
            p.add_argument("--d", type=_comma_ints, required=True,
                           help="comma-separated dimensions")
            p.add_argument("--epsilon", type=_comma_floats, required=True,
                           help="comma-separated epsilon values")
        else:
            p.add_argument("--d", type=int, required=True, help="hypercube dimension")
            p.add_argument("--epsilon", type=float, required=True,
                           help="supercriticality parameter; p=(1+eps)/d")
        p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
        p.add_argument("--out", type=str, default=None,
                       help="append records to this file (default: stdout)")
        p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                       help="record output format (csv = census table)")

    t = sub.add_parser("trial", help="run one or more single-config trials")
    common(t)
    t.add_argument("--trials", type=int, default=1,
                   help="number of trials; seeds derive from --seed when > 1")
    t.add_argument("--mode", choices=harness.MODES, default="single-round")
    t.add_argument("--checks", type=_comma_names, default=[],
                   help="comma list from: " + ",".join(harness.KNOWN_CHECKS))
    t.add_argument("--c-grid", type=_comma_floats, default=[],
                   help="comma list of C values for merge-rate/squid caps")
    t.add_argument("--strict", action="store_true",
                   help="exit 1 when any checker violation is found")
    t.set_defaults(func=cmd_trial)

    s = sub.add_parser("sweep", help="run a d x epsilon x trials grid concurrently")
    common(s, multi_d=True)
    s.add_argument("--trials", type=int, default=1, help="trials per grid cell")
    s.add_argument("--mode", choices=harness.MODES, default="single-round")
    s.add_argument("--checks", type=_comma_names, default=[])
    s.add_argument("--c-grid", type=_comma_floats, default=[])
    s.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker count (default: logical CPUs)")
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run structure checkers on one sample")
    common(v)
    v.add_argument("--checks", type=_comma_names, default=list(harness.KNOWN_CHECKS),
                   help="comma list (default: all checkers)")
    v.add_argument("--strict", action="store_true",
                   help="exit 1 when any checker violation is found")
    v.set_defaults(func=cmd_verify)

    k = sub.add_parser("sprinkle", help="run the two-round pipeline and report merges")
    common(k)
    k.add_argument("--c-grid", type=_comma_floats, default=[1.0, 2.0, 5.0, 10.0],
                   help="C values for the merge-rate table")
    k.set_defaults(func=cmd_sprinkle)

    r = sub.add_parser("trees", help="exact tree counts against the (ed)^(k-1) bound")
    r.add_argument("--d", type=int, required=True, help="hypercube dimension")
    r.set_defaults(func=cmd_trees)

    p = sub.add_parser("report", help="summarize a record file")
    p.add_argument("records_path", help="JSONL record file")
    p.add_argument("--format", choices=("table", "csv"), default="table",
                   help="csv = census table to stdout")
    p.set_defaults(func=cmd_report)

    return parser


# === output plumbing ===


class _RecordWriter:
    """The one record writer: JSONL or census CSV, to a file or stdout.

    Writes record objects, TrialFailure entries and the record dicts of
    harness.read_records; the CSV header opens stdout or an empty file.
    """

    def __init__(self, out_path, fmt: str):
        self.fmt = fmt
        self.owned = out_path is not None
        self.fh = open(out_path, "a", encoding="utf-8") if self.owned else sys.stdout
        if fmt == "csv" and (not self.owned or os.path.getsize(out_path) == 0):
            self.fh.write(",".join(harness.CENSUS_COLUMNS) + "\n")

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.fh.flush()
        if self.owned:
            self.fh.close()

    def write(self, result) -> None:
        if isinstance(result, harness.TrialFailure):
            self.fh.write(harness.failure_to_json(result) + "\n")
        elif self.fmt == "csv":
            row = result.to_dict() if hasattr(result, "to_dict") else result
            self.fh.write(harness.census_csv_row(row))
        else:
            self.fh.write(harness.record_to_json(result) + "\n")


def _violations_in(record) -> int:
    total = 0
    for name, summary in record.checker_summaries.items():
        if isinstance(summary, dict) and "violations" in summary:
            total += int(summary["violations"])
    return total


def _print_check_summaries(record) -> None:
    for name, summary in sorted(record.checker_summaries.items()):
        if name == "flags" or not isinstance(summary, dict):
            continue
        print(f"[{name}] " + json.dumps({k: v for k, v in summary.items() if k != "witnesses"}))
        for w in summary.get("witnesses", []):
            print(f"[{name}] violation: " + json.dumps(w))


# === subcommands ===


def cmd_trial(args) -> int:
    if args.trials < 1:
        raise InputDomainError(f"--trials must be >= 1, got {args.trials}")
    if args.trials == 1:
        seeds = [args.seed]
    else:
        seeds = [rng.derive_seed(args.seed, i) for i in range(args.trials)]
    violations = 0
    with _RecordWriter(args.out, args.format) as writer:
        for seed in seeds:
            config = TrialConfig(
                d=args.d,
                epsilon=args.epsilon,
                seed=seed,
                mode=args.mode,
                checks=tuple(args.checks),
                c_grid=tuple(args.c_grid),
            )
            record = harness.run_trial(config)
            violations += _violations_in(record)
            writer.write(record)
    if args.strict and violations:
        print(f"{violations} checker violation(s) found", file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.trials < 1:
        raise InputDomainError(f"--trials must be >= 1, got {args.trials}")
    if args.jobs < 1:
        raise InputDomainError(f"--jobs must be >= 1, got {args.jobs}")
    configs, manifest = harness.make_grid(
        args.d,
        args.epsilon,
        trials=args.trials,
        master_seed=args.seed,
        mode=args.mode,
        checks=tuple(args.checks),
        c_grid=tuple(args.c_grid),
    )
    if args.out is not None:
        manifest_path = args.out + ".manifest.jsonl"
        with open(manifest_path, "w", encoding="utf-8") as mh:
            for entry in manifest:
                mh.write(json.dumps(entry, sort_keys=True) + "\n")
        print(f"manifest: {manifest_path}", file=sys.stderr)
    else:
        for entry in manifest:
            print("manifest " + json.dumps(entry, sort_keys=True), file=sys.stderr)
    failures = 0
    with _RecordWriter(args.out, args.format) as writer:
        for result in harness.sweep(configs, jobs=args.jobs):
            if isinstance(result, harness.TrialFailure):
                failures += 1
            writer.write(result)
    if failures:
        print(f"{failures} trial(s) failed; failure records written", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    config = TrialConfig(
        d=args.d,
        epsilon=args.epsilon,
        seed=args.seed,
        mode="single-round",
        checks=tuple(args.checks),
    )
    record = harness.run_trial(config)
    _print_check_summaries(record)
    violations = _violations_in(record)
    print(
        f"verify d={args.d} epsilon={args.epsilon} seed={args.seed}: "
        f"{violations} violation(s)"
    )
    if args.out is not None:
        with _RecordWriter(args.out, args.format) as writer:
            writer.write(record)
    if args.strict and violations:
        return EXIT_VIOLATIONS
    return EXIT_OK


def cmd_sprinkle(args) -> int:
    config = TrialConfig(
        d=args.d,
        epsilon=args.epsilon,
        seed=args.seed,
        mode="two-round",
        c_grid=tuple(args.c_grid),
    )
    record = harness.run_trial(config)
    ms = record.merge_summary
    print(f"p={record.p:.6g}  p1={record.p1:.6g}  p2={record.p2:.6g}")
    sizes = ms["tms_sizes"]
    print(f"T={sizes['T']}  M={sizes['M']}  S={sizes['S']}")
    if ms["ambiguous_giant"]:
        print("warning: ambiguous giant (second component > half the largest)")
    print(
        f"candidates={ms['candidates']}  merged={ms['merged']}  "
        f"giant_final_size={ms['giant_final_size']}  consistent={ms['consistent']}"
    )
    for row in ms.get("rate_table", []):
        rate = "n/a" if row["rate"] is None else f"{row['rate']:.3f}"
        print(
            f"  c={row['c']:g}: eligible={row['eligible']} "
            f"merged={row['merged']} rate={rate}"
        )
    census = ms["census"]
    print(
        f"census: giant={census['giant_size']} max_nongiant={census['max_nongiant']} "
        f"ratio={census['ratio']:.3f} components={census['component_count']}"
    )
    if args.out is not None:
        with _RecordWriter(args.out, args.format) as writer:
            writer.write(record)
    return EXIT_OK


def cmd_trees(args) -> int:
    from .checkers import tree_count_bound, tree_count_exact
    from .cube import Hypercube

    cube = Hypercube(args.d)
    n, d = cube.n, cube.d
    print(f"Q^{d}: n={n}")
    print(f"{'k':>2}  {'exact':>12}  {'bound n(ed)^(k-1)':>20}")
    for k in range(1, 7):
        exact = tree_count_exact(cube, k)
        bound = tree_count_bound(n, d, k)
        print(f"{k:>2}  {exact:>12}  {bound:>20.1f}")
    return EXIT_OK


def cmd_report(args) -> int:
    records, failures, skipped = harness.read_records(args.records_path)
    if skipped:
        print(f"{skipped} malformed line(s) skipped", file=sys.stderr)
    if failures:
        print(f"{len(failures)} failed trial(s) in file", file=sys.stderr)
    if not records and not failures and skipped:
        return EXIT_USAGE
    if args.format == "csv":
        with _RecordWriter(None, "csv") as writer:
            for r in records:
                writer.write(r)
        return EXIT_OK
    groups: dict = {}
    for r in records:
        groups.setdefault((r["d"], r["epsilon"]), []).append(r)
    if groups:
        print(f"{'d':>3} {'eps':>5} {'trials':>6} {'mean_giant':>12} "
              f"{'predicted':>12} {'ratio':>7} {'unique':>6}")
        for (d, eps), rows in sorted(groups.items()):
            stats = harness.giant_statistics(rows)
            print(
                f"{d:>3} {eps:>5g} {stats['trials']:>6} "
                f"{stats['mean_giant']:>12.1f} {stats['giant_predicted']:>12.1f} "
                f"{stats['ratio_to_predicted']:>7.3f} {stats['uniqueness_rate']:>6.2f}"
            )
    by_eps: dict = {}
    for r in records:
        by_eps.setdefault(r["epsilon"], []).append(r)
    for eps, rows in sorted(by_eps.items()):
        if len({r["d"] for r in rows}) < 3:
            continue
        fit = harness.second_component_scaling(rows)
        flag = "  SUPERLINEAR" if fit["flagged_superlinear"] else ""
        print(f"scaling eps={eps:g}: slope={fit['slope']:.3f}{flag}")
        for d, cell in fit["per_d"].items():
            print(f"  d={d}: mean_max_nongiant={cell['mean_max']:.2f} "
                  f"({cell['trials']} trials)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except InputDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL


if __name__ == "__main__":
    sys.exit(main())
