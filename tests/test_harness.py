import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import cubeperc
from cubeperc import harness
from cubeperc.errors import InputDomainError, RefusalError
from cubeperc.harness import (
    _BYTES_PER_VERTEX,
    CENSUS_COLUMNS,
    RECORD_FIELDS,
    VOLATILE_FIELDS,
    TrialConfig,
    TrialFailure,
    check_memory_budget,
    failure_to_json,
    giant_statistics,
    make_grid,
    memory_budget_gb,
    parse_record,
    read_records,
    record_to_json,
    records_equal_modulo_volatile,
    run_trial,
    second_component_scaling,
    sweep,
    write_census_csv,
)
from cubeperc.percolation import ComponentLabeling
from cubeperc.rng import derive_seed


# --- configuration ---


def test_config_validation():
    with pytest.raises(InputDomainError):
        TrialConfig(d=8, epsilon=0.2, seed=1, mode="three-round")
    with pytest.raises(InputDomainError):
        TrialConfig(d=0, epsilon=0.2, seed=1)
    with pytest.raises(InputDomainError):
        TrialConfig(d=8, epsilon=0.0, seed=1)
    with pytest.raises(InputDomainError):
        TrialConfig(d=8, epsilon=0.2, seed=1, checks=("nonesuch",))
    # single-round needs p = (1+eps)/d in (0, 1]
    with pytest.raises(InputDomainError):
        TrialConfig(d=2, epsilon=3.0, seed=1)
    # two-round needs eps in (0, 1)
    with pytest.raises(InputDomainError):
        TrialConfig(d=8, epsilon=1.0, seed=1, mode="two-round")


def test_config_p_boundary():
    cfg = TrialConfig(d=3, epsilon=2.0, seed=1)  # p = 1 exactly
    assert cfg.p() == 1.0


# --- memory budget ---


def test_memory_hard_cap():
    with pytest.raises(RefusalError):
        check_memory_budget(99)
    with pytest.raises(RefusalError):
        check_memory_budget(27)


def test_memory_env_budget(monkeypatch):
    monkeypatch.delenv("CUBEPERC_MEM_GB", raising=False)
    assert memory_budget_gb() == 8.0
    check_memory_budget(20)
    monkeypatch.setenv("CUBEPERC_MEM_GB", "0.001")
    with pytest.raises(RefusalError):
        check_memory_budget(20)
    monkeypatch.setenv("CUBEPERC_MEM_GB", "potato")
    with pytest.raises(InputDomainError):
        memory_budget_gb()
    monkeypatch.setenv("CUBEPERC_MEM_GB", "-3")
    with pytest.raises(InputDomainError):
        memory_budget_gb()


def test_memory_budget_charges_per_mode(monkeypatch):
    # 2^20 vertices: single-round needs 32 MiB, two-round 64 MiB
    monkeypatch.setenv("CUBEPERC_MEM_GB", str(48 / 1024))
    check_memory_budget(20, "single-round")
    with pytest.raises(RefusalError, match="two-round"):
        check_memory_budget(20, "two-round")
    with pytest.raises(RefusalError):
        run_trial(TrialConfig(d=20, epsilon=0.5, seed=1, mode="two-round"))


_PEAK_SCRIPT = """
import resource, sys
from cubeperc.harness import TrialConfig, run_trial
mode = sys.argv[1]
checks = ("expansion", "sphere2", "squid")
run_trial(TrialConfig(d=12, epsilon=0.5, seed=1, mode=mode, checks=checks))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
run_trial(TrialConfig(d=20, epsilon=0.5, seed=2, mode=mode, checks=checks))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("mode", ["single-round", "two-round"])
def test_memory_model_covers_measured_peak(mode):
    # a fresh process, warmed up at d=12 so imports and caches are not
    # charged to the d=20 trial, which runs every checker in either mode
    src = os.path.dirname(os.path.dirname(cubeperc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT, mode],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    grown = int(out.stdout.split()[-1])
    assert grown <= (1 << 20) * _BYTES_PER_VERTEX[mode]


# --- single trials ---


def test_trial_p1_is_degenerate_full_cube():
    rec = run_trial(TrialConfig(d=3, epsilon=2.0, seed=4))
    assert rec.p == 1.0
    assert rec.retained == 8
    assert rec.giant == 8
    assert rec.second == 0
    assert rec.components_total == 1
    assert rec.top_sizes == (8,)
    assert rec.checker_summaries["flags"]["epsilon_above_intent"]
    assert rec.p1 is None and rec.p2 is None
    assert rec.mode == "single-round"


def test_trial_is_deterministic_modulo_volatile():
    cfg = TrialConfig(d=9, epsilon=0.25, seed=7, checks=("expansion", "sphere2"))
    a = run_trial(cfg)
    b = run_trial(cfg)
    assert records_equal_modulo_volatile(a, b)
    c = run_trial(dataclasses.replace(cfg, seed=8))
    assert not records_equal_modulo_volatile(a, c)


def test_trial_two_round_record_shape():
    rec = run_trial(
        TrialConfig(d=10, epsilon=0.2, seed=5, mode="two-round", c_grid=(1.0, 2.0))
    )
    assert rec.mode == "two-round"
    assert rec.p1 is not None and rec.p2 is not None
    assert (1.0 - rec.p1) * (1.0 - rec.p2) == pytest.approx(1.0 - rec.p)
    ms = rec.merge_summary
    for key in ("candidates", "merged", "consistent", "giant_final_size",
                "tms_sizes", "ambiguous_giant", "census", "rate_table"):
        assert key in ms
    assert ms["consistent"] is True
    assert ms["tms_sizes"]["T"] + ms["tms_sizes"]["M"] + ms["tms_sizes"]["S"] == 1024
    assert rec.giant == ms["census"]["giant_size"]
    assert rec.giant_predicted == pytest.approx(2 * 0.2 * 1024 / 10)


def test_trial_two_round_matches_direct_union():
    # the same (d, eps, seed) sampled in one shot must agree on totals
    import cubeperc.percolation as perc
    from cubeperc.cube import Hypercube

    cfg = TrialConfig(d=10, epsilon=0.2, seed=5, mode="two-round")
    rec = run_trial(cfg)
    plan = perc.two_round_plan(0.2, 10)
    r1 = perc.sample_sites(10, plan.p1, derive_seed(5, 1))
    r2 = perc.sample_sites(10, plan.p2, derive_seed(5, 2))
    direct = perc.components(Hypercube(10), perc.union_samples(r1, r2))
    assert rec.retained == direct.retained_count()
    assert rec.components_total == direct.n_components


def test_trial_checker_summaries_structure():
    rec = run_trial(
        TrialConfig(d=8, epsilon=0.3, seed=11, checks=("expansion", "sphere2", "squid"))
    )
    s = rec.checker_summaries
    assert set(s) == {"expansion", "sphere2", "squid", "flags"}
    assert s["expansion"]["violations"] == len(s["expansion"]["witnesses"])
    assert s["sphere2"]["bound"] == 16
    assert "candidates" in s["squid"]


def test_all_checks_trial_groups_members_once(monkeypatch):
    calls = []
    original = ComponentLabeling.members

    def counted(self, cid):
        calls.append(cid)
        return original(self, cid)

    monkeypatch.setattr(ComponentLabeling, "members", counted)
    rec = run_trial(
        TrialConfig(d=14, epsilon=0.5, seed=3, checks=("expansion", "sphere2", "squid"))
    )
    assert rec.components_total > 100
    assert rec.checker_summaries["squid"]["candidates"] > 100
    assert len(calls) < rec.components_total // 10


def test_trial_planted_sphere2_is_caught():
    rec = run_trial(
        TrialConfig(d=8, epsilon=0.3, seed=11, checks=("sphere2",), plant_sphere2=True)
    )
    assert rec.checker_summaries["sphere2"]["violations"] >= 1
    witnesses = rec.checker_summaries["sphere2"]["witnesses"]
    assert any(w["witness"]["v"] == 0 for w in witnesses)


def test_trial_plant_rejected_below_reachable_dimension():
    with pytest.raises(InputDomainError):
        run_trial(TrialConfig(d=4, epsilon=0.3, seed=1, checks=("sphere2",), plant_sphere2=True))


def test_trial_expansion_override_is_marked():
    rec = run_trial(
        TrialConfig(d=6, epsilon=0.3, seed=2, checks=("expansion",),
                    expansion_size_threshold=2.0)
    )
    assert rec.checker_summaries["expansion"]["size_threshold_overridden"] is True
    assert rec.checker_summaries["expansion"]["size_threshold"] == 2.0


# --- record serialization ---


def test_record_json_field_order_and_probability_format():
    rec = run_trial(TrialConfig(d=6, epsilon=0.25, seed=3))
    line = record_to_json(rec)
    parsed = parse_record(line)
    assert list(parsed.keys()) == list(RECORD_FIELDS)
    assert re.search(r'"p":\d\.\d{16}e[+-]\d{2}', line)
    assert '"p1":null' in line
    assert parsed["p"] == rec.p  # exact round trip through 17 digits


def test_record_json_two_round_probabilities():
    rec = run_trial(TrialConfig(d=8, epsilon=0.2, seed=3, mode="two-round"))
    parsed = parse_record(record_to_json(rec))
    assert parsed["p1"] == rec.p1
    assert parsed["p2"] == rec.p2


# one line per config, serialized before the record fields and the
# two-round merge analysis were last refactored, volatile fields removed
_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_records.jsonl")
_GOLDEN_CONFIGS = (
    TrialConfig(d=12, epsilon=0.9, seed=1, mode="two-round", c_grid=(1.0, 2.0, 5.0, 10.0)),
    TrialConfig(d=12, epsilon=0.5, seed=1, checks=("expansion", "sphere2", "squid")),
)


def _without_volatile(line: str) -> str:
    for name in VOLATILE_FIELDS:
        line = re.sub(rf',"{name}":("[^"]*"|[^,}}]*)', "", line)
    return line


def test_records_reproduce_golden_lines():
    with open(_GOLDEN_PATH, encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    assert len(golden) == len(_GOLDEN_CONFIGS)
    for config, expected in zip(_GOLDEN_CONFIGS, golden):
        assert _without_volatile(record_to_json(run_trial(config))) == expected
    # the golden lines exercise merges and checker witnesses
    merge = json.loads(golden[0])["merge_summary"]
    assert merge["merged"] > 0 and merge["consistent"]
    assert json.loads(golden[1])["checker_summaries"]["squid"]["witnesses"]


def test_parse_record_rejects_non_object():
    with pytest.raises(ValueError):
        parse_record("[1,2,3]")


def test_failure_record_roundtrip():
    f = TrialFailure(d=20, epsilon=0.1, seed=9, mode="single-round", error="boom")
    data = json.loads(failure_to_json(f))
    assert data["error"] == "boom"
    assert data["d"] == 20
    assert data["schema_version"] == 1


# --- grids and sweeps ---


def test_make_grid_shape_and_seeds():
    configs, manifest = make_grid([4, 5], [0.2], trials=2, master_seed=99)
    assert len(configs) == 4
    assert [m["index"] for m in manifest] == [0, 1, 2, 3]
    for cfg, m in zip(configs, manifest):
        assert cfg.seed == derive_seed(99, m["index"])
        assert cfg.d == m["d"]
        assert cfg.epsilon == m["epsilon"]
    assert len({c.seed for c in configs}) == 4
    with pytest.raises(InputDomainError):
        make_grid([4], [0.2], trials=0, master_seed=1)


def test_sweep_inline_preserves_order():
    configs, _ = make_grid([5, 6], [0.3], trials=1, master_seed=7)
    results = list(sweep(configs, jobs=1))
    assert [r.d for r in results] == [5, 6]
    assert all(not isinstance(r, TrialFailure) for r in results)


def test_sweep_parallel_same_set():
    configs, _ = make_grid([5, 6], [0.3], trials=2, master_seed=7)
    inline = {record_to_json(r) for r in sweep(configs, jobs=1)}
    # volatile fields differ across runs; compare stable prefixes
    def stable(r):
        d = r.to_dict()
        d.pop("wall_ms")
        d.pop("version")
        return json.dumps(d, sort_keys=True)

    a = {stable(r) for r in sweep(configs, jobs=1)}
    b = {stable(r) for r in sweep(configs, jobs=2)}
    assert a == b
    assert len(inline) == 4


def test_sweep_captures_failures(monkeypatch):
    monkeypatch.setenv("CUBEPERC_MEM_GB", "0.0001")
    cfg = TrialConfig(d=18, epsilon=0.2, seed=1)
    results = list(sweep([cfg], jobs=1))
    assert len(results) == 1
    assert isinstance(results[0], TrialFailure)
    assert "budget" in results[0].error


def test_sweep_clamps_jobs_to_memory_budget(monkeypatch):
    workers = []

    class RecordingPool:
        # records the worker count, then makes sweep fall back to threads
        def __init__(self, max_workers):
            workers.append(max_workers)
            raise OSError("no processes")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    configs, _ = make_grid([6, 8], [0.3], trials=2, master_seed=5, mode="two-round")
    largest = (1 << 8) * _BYTES_PER_VERTEX["two-round"]

    monkeypatch.setenv("CUBEPERC_MEM_GB", str(2.5 * largest / 2**30))
    results = list(sweep(configs, jobs=4))
    assert workers == [2]
    assert len(results) == 4 and not any(isinstance(r, TrialFailure) for r in results)

    # one trial fits and two do not: the sweep runs inline, in grid order
    monkeypatch.setenv("CUBEPERC_MEM_GB", str(1.5 * largest / 2**30))
    results = list(sweep(configs, jobs=4))
    assert workers == [2]
    assert [(r.d, r.seed) for r in results] == [(c.d, c.seed) for c in configs]

    # a trial the budget refuses allocates nothing, so it does not clamp
    monkeypatch.setenv("CUBEPERC_MEM_GB", str(2.5 * largest / 2**30))
    too_big = TrialConfig(d=12, epsilon=0.3, seed=1, mode="two-round")
    results = list(sweep(configs + [too_big], jobs=4))
    assert workers == [2, 2]
    assert [r.d for r in results if isinstance(r, TrialFailure)] == [12]


def test_sweep_falls_back_to_threads(monkeypatch):
    threads = []

    class RecordingThreads(ThreadPoolExecutor):
        def __init__(self, max_workers):
            threads.append(max_workers)
            super().__init__(max_workers=max_workers)

    def no_processes(max_workers):
        raise OSError("no processes")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_processes)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingThreads)
    configs, _ = make_grid([6, 8], [0.3, 0.6], trials=2, master_seed=3, mode="two-round",
                           checks=("expansion", "squid"), c_grid=(0.5, 1.0))
    inline = list(sweep(configs, jobs=1))
    grid_order = {(c.d, c.epsilon, c.seed): i for i, c in enumerate(configs)}
    threaded = sorted(sweep(configs, jobs=2), key=lambda r: grid_order[r.d, r.epsilon, r.seed])
    assert threads == [2]
    assert not any(isinstance(r, TrialFailure) for r in inline + threaded)
    assert len(threaded) == len(inline) == len(configs)
    for a, b in zip(inline, threaded):
        assert records_equal_modulo_volatile(a, b)


def test_sweep_names_a_dead_worker(monkeypatch):
    class DeadPool:
        # every future fails as a pool does after one worker is killed
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, cfg):
            fut = Future()
            fut.set_exception(BrokenProcessPool("A process in the process pool was "
                                                "terminated abruptly"))
            return fut

    monkeypatch.setattr(harness, "ProcessPoolExecutor", DeadPool)
    monkeypatch.setenv("CUBEPERC_MEM_GB", "0.5")
    configs = [TrialConfig(d=6, epsilon=0.3, seed=1),
               TrialConfig(d=8, epsilon=0.3, seed=2, mode="two-round")]
    results = list(sweep(configs, jobs=2))
    assert sorted((r.d, r.mode) for r in results) == [(6, "single-round"), (8, "two-round")]
    for r in results:
        assert isinstance(r, TrialFailure)
        assert "worker process died (BrokenProcessPool)" in r.error
        need = (1 << r.d) * _BYTES_PER_VERTEX[r.mode] / 2**30
        assert f"working set is {need:.3g} GiB of a 0.5 GiB budget" in r.error


def test_sweep_rejects_bad_jobs():
    with pytest.raises(InputDomainError):
        list(sweep([], jobs=0))


# --- statistics ---


def _fake_records(d, eps, giants, seconds, retained=None):
    n = 1 << d
    out = []
    for i, (g, s) in enumerate(zip(giants, seconds)):
        out.append(
            {
                "d": d,
                "epsilon": eps,
                "seed": i,
                "giant": g,
                "second": s,
                "retained": retained if retained is not None else n // 2,
            }
        )
    return out


def test_giant_statistics_fields():
    recs = _fake_records(10, 0.2, [400, 420, 380], [10, 12, 8])
    stats = giant_statistics(recs)
    assert stats["trials"] == 3
    assert stats["mean_giant"] == pytest.approx(400.0)
    assert stats["giant_predicted"] == pytest.approx(2 * 0.2 * 1024 / 10)
    assert stats["ratio_to_predicted"] == pytest.approx(400.0 / stats["giant_predicted"])
    assert stats["uniqueness_rate"] == 1.0  # giant > 10 * second everywhere
    assert not stats["degenerate"]


def test_giant_statistics_uniqueness_counts_failures():
    recs = _fake_records(10, 0.2, [100, 100], [50, 5])
    stats = giant_statistics(recs)
    assert stats["uniqueness_rate"] == 0.5


def test_giant_statistics_degenerate_full_retention():
    recs = _fake_records(3, 2.0, [8], [0], retained=8)
    stats = giant_statistics(recs)
    assert stats["degenerate"]
    assert stats["degenerate_trials"] == 1


def test_giant_statistics_rejects_mixed_cells():
    recs = _fake_records(10, 0.2, [5], [1]) + _fake_records(11, 0.2, [5], [1])
    with pytest.raises(InputDomainError):
        giant_statistics(recs)
    with pytest.raises(InputDomainError):
        giant_statistics([])


def test_scaling_linear_slope():
    recs = []
    for d in (8, 12, 16, 20):
        recs += _fake_records(d, 0.2, [1000] * 3, [d] * 3)
    fit = second_component_scaling(recs)
    assert fit["slope"] == pytest.approx(1.0, abs=0.01)
    assert not fit["flagged_superlinear"]
    assert fit["per_d"][8]["mean_max"] == 8.0


def test_scaling_quadratic_is_flagged():
    recs = []
    for d in (8, 12, 16, 20):
        recs += _fake_records(d, 0.2, [1000] * 3, [d * d] * 3)
    fit = second_component_scaling(recs)
    assert fit["slope"] == pytest.approx(2.0, abs=0.01)
    assert fit["flagged_superlinear"]


def test_scaling_needs_three_dimensions():
    recs = _fake_records(8, 0.2, [10], [1]) + _fake_records(10, 0.2, [10], [1])
    with pytest.raises(RefusalError):
        second_component_scaling(recs)
    with pytest.raises(RefusalError):
        second_component_scaling([])


def test_scaling_rejects_mixed_epsilon():
    recs = _fake_records(8, 0.2, [10], [1]) + _fake_records(10, 0.3, [10], [1])
    with pytest.raises(InputDomainError):
        second_component_scaling(recs)


def test_scaling_all_zero_seconds():
    recs = []
    for d in (8, 10, 12):
        recs += _fake_records(d, 0.2, [100], [0])
    fit = second_component_scaling(recs)
    assert fit["slope"] == 0.0


# --- files ---


def test_read_records_partitions_lines(tmp_path):
    rec = run_trial(TrialConfig(d=5, epsilon=0.3, seed=1))
    fail = TrialFailure(d=20, epsilon=0.1, seed=2, mode="single-round", error="x")
    path = tmp_path / "records.jsonl"
    path.write_text(
        record_to_json(rec) + "\n"
        + failure_to_json(fail) + "\n"
        + "this is not json\n"
        + "\n"
        + '{"neither": "record nor failure"}\n'
    )
    records, failures, skipped = read_records(path)
    assert len(records) == 1
    assert len(failures) == 1
    assert skipped == 2
    assert records[0]["giant"] == rec.giant


def test_write_census_csv():
    recs = _fake_records(10, 0.2, [400, 300], [20, 10])
    buf = io.StringIO()
    count = write_census_csv(recs, buf)
    assert count == 2
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(CENSUS_COLUMNS)
    first = lines[1].split(",")
    assert first[0] == "10"
    assert first[3] == "400"
    assert float(first[5]) == pytest.approx(2.0)
