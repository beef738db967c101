"""Spans around the program's layers, recorded from outside the program.

`Tracer.wrap` replaces a function on the module (or class) where its
caller looks it up, so `harness.components` is patched rather than
`percolation.components`, which harness imported by name. Each call
appends one span (name, start, end, parent index) to four parallel
in-memory lists, which hold no container per span and so give the
garbage collector nothing to scan; `restore` puts every original back.
"""

import json
import time
from collections import Counter

# (owner attribute path, attribute, span name, counter)
# where owner paths are resolved against the program namespace
PATCHES = (
    ("cli", "main", "cli.main", None),
    ("harness", "run_trial", "harness.run_trial", None),
    ("harness", "sample_sites", "percolation.sample_sites", None),
    ("harness", "components", "percolation.components", None),
    ("sprinkling", "label_members", "percolation.label_members", None),
    ("percolation.ComponentLabeling", "members", "percolation.members", "calls"),
    ("harness", "external_neighborhood", "cube.external_neighborhood", "vertices"),
    ("checkers", "external_neighborhood", "cube.external_neighborhood", "vertices"),
    ("checkers", "check_expansion", "checkers.check_expansion", None),
    ("checkers", "check_sphere2_density", "checkers.check_sphere2_density", None),
    ("checkers", "check_squid", "checkers.check_squid", "squid"),
    ("sprinkling", "classify_tms", "sprinkling.classify_tms", None),
    ("sprinkling", "merge_analysis", "sprinkling.merge_analysis", None),
    ("sprinkling", "survival_census", "sprinkling.survival_census", None),
    ("harness", "record_to_json", "harness.record_to_json", None),
)

# per-layer metric -> span name; every one is the span's self time
SELF_MS = {
    "percolation.sample_sites_ms": "percolation.sample_sites",
    "percolation.components_ms": "percolation.components",
    "percolation.label_members_ms": "percolation.label_members",
    "percolation.members_ms": "percolation.members",
    "cube.external_neighborhood_ms": "cube.external_neighborhood",
    "checkers.check_expansion_self_ms": "checkers.check_expansion",
    "checkers.check_sphere2_density_ms": "checkers.check_sphere2_density",
    "checkers.check_squid_ms": "checkers.check_squid",
    "sprinkling.classify_tms_ms": "sprinkling.classify_tms",
    "sprinkling.merge_analysis_self_ms": "sprinkling.merge_analysis",
    "sprinkling.survival_census_ms": "sprinkling.survival_census",
    "harness.run_trial_self_ms": "harness.run_trial",
    "harness.record_to_json_ms": "harness.record_to_json",
    "cli.main_self_ms": "cli.main",
}


# the counts the tracer takes itself, at the calls it wraps
COUNTERS = (
    "percolation.members_calls",
    "cube.external_neighborhood_vertices",
    "checkers.squid_candidates",
    "checkers.squid_candidate_vertices",
)


def _count(counts: Counter, name: str, kind: str, args: tuple) -> None:
    if kind == "calls":
        counts[name + "_calls"] += 1
    elif kind == "vertices":
        counts[name + "_vertices"] += len(args[1])
    elif kind == "squid":
        candidates = args[2]
        counts["checkers.squid_candidates"] += len(candidates)
        counts["checkers.squid_candidate_vertices"] += sum(len(c) for c in candidates)


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = Counter()
        self._stack = []
        self._originals = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.starts[index] = start
            self.ends[index] = end

    def wrap(self, owner, attr: str, name: str, kind) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            try:
                return tracer.span(name, original, *args, **kwargs)
            finally:
                if kind:
                    _count(tracer.counts, name, kind, args)

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def install(self, prog) -> None:
        for path, attr, name, kind in PATCHES:
            owner = prog
            for part in path.split("."):
                owner = getattr(owner, part)
            self.wrap(owner, attr, name, kind)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def self_times(self) -> tuple:
        """(self ms per span name, run_trial total ms, residual ms).

        Self time is a span's duration minus its children's. The
        residual is the run_trial total minus the self times of all
        spans inside run_trial; it is zero up to rounding.
        """
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        child = [0.0] * len(spans)
        in_trial = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_trial[i] = in_trial[parent]
            in_trial[i] = in_trial[i] or name == "harness.run_trial"
        by_name = Counter()
        trial_total = 0.0
        inside = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            own = (end - start - child[i]) * 1000.0
            by_name[name] += own
            if in_trial[i]:
                inside += own
            if name == "harness.run_trial":
                trial_total += (end - start) * 1000.0
        return by_name, trial_total, trial_total - inside

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"name": self.names, "start": self.starts, "end": self.ends, "parent": self.parents}, fh
            )
