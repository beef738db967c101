import json

import pytest

from cubeperc.cli import EXIT_OK, EXIT_REFUSAL, EXIT_USAGE, EXIT_VIOLATIONS, main
from cubeperc.harness import CENSUS_COLUMNS, parse_record
from cubeperc.rng import derive_seed


def run(argv):
    return main(argv)


# --- trial ---


def test_trial_writes_one_record(capsys):
    assert run(["trial", "--d", "6", "--epsilon", "0.3", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 1
    rec = parse_record(out[0])
    assert rec["d"] == 6
    assert rec["seed"] == 1
    assert rec["mode"] == "single-round"


def test_trial_multiple_derives_seeds(capsys):
    assert run(["trial", "--d", "5", "--epsilon", "0.3", "--seed", "9",
                "--trials", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    seeds = [parse_record(l)["seed"] for l in lines]
    assert seeds == [derive_seed(9, 0), derive_seed(9, 1), derive_seed(9, 2)]


def test_trial_appends_to_file(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    run(["trial", "--d", "5", "--epsilon", "0.3", "--out", str(out)])
    run(["trial", "--d", "5", "--epsilon", "0.3", "--seed", "1", "--out", str(out)])
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert capsys.readouterr().out == ""


def test_trial_csv_format(tmp_path):
    out = tmp_path / "census.csv"
    run(["trial", "--d", "5", "--epsilon", "0.3", "--format", "csv", "--out", str(out)])
    run(["trial", "--d", "5", "--epsilon", "0.3", "--seed", "1", "--format", "csv",
         "--out", str(out)])
    lines = out.read_text().strip().split("\n")
    # header written once, then one row per trial
    assert lines[0] == ",".join(CENSUS_COLUMNS)
    assert len(lines) == 3


def test_trial_bad_epsilon_is_usage_error(capsys):
    assert run(["trial", "--d", "6", "--epsilon", "-1"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_trial_above_cap_is_refused(capsys):
    assert run(["trial", "--d", "99", "--epsilon", "0.2"]) == EXIT_REFUSAL
    assert "refused:" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["trial", "--d", "6", "--epsilon", "0.3", "--bogus"]) == EXIT_USAGE


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == EXIT_USAGE


# --- verify ---


def test_verify_clean_sample(capsys):
    # eps=1 keeps the giant region large enough that nothing is starved
    code = run(["verify", "--d", "8", "--epsilon", "1.0", "--seed", "3"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "0 violation(s)" in out
    assert "[expansion]" in out
    assert "[sphere2]" in out
    assert "[squid]" in out


def test_verify_reports_structural_findings(capsys):
    # at small d with small eps the giant region is thin and the
    # deprivation checker legitimately fires on isolated components
    code = run(["verify", "--d", "8", "--epsilon", "0.25", "--seed", "3"])
    assert code == EXIT_OK  # informational without --strict
    out = capsys.readouterr().out
    assert "violation(s)" in out
    total = int(out.strip().split("\n")[-1].split(":")[1].split()[0])
    reported = out.count("violation:")
    assert total == reported


def test_verify_planted_violation_strict(capsys):
    # no planted input: at d=8, eps=0.25 the giant is thin, and seed 3
    # leaves small components starved of neighbours in its neighbourhood
    code = run(["verify", "--d", "8", "--epsilon", "0.25", "--seed", "3",
                "--checks", "squid", "--strict"])
    assert code == EXIT_VIOLATIONS
    out = capsys.readouterr().out
    assert "violation:" in out


def test_verify_hooks_hidden_without_env(monkeypatch, capsys):
    # the removed test hooks are not options, whatever the environment
    for env in (None, "1"):
        if env is None:
            monkeypatch.delenv("CUBEPERC_TEST_FLAGS", raising=False)
        else:
            monkeypatch.setenv("CUBEPERC_TEST_FLAGS", env)
        for hook in (["--plant-sphere2"], ["--expansion-threshold-override", "2"]):
            code = run(["verify", "--d", "8", "--epsilon", "0.25"] + hook)
            assert code == EXIT_USAGE


def test_verify_writes_record(tmp_path, capsys):
    out = tmp_path / "v.jsonl"
    run(["verify", "--d", "7", "--epsilon", "0.3", "--out", str(out)])
    rec = parse_record(out.read_text().strip())
    assert "expansion" in rec["checker_summaries"]


# --- sweep ---


def test_sweep_grid_with_manifest(tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    code = run(["sweep", "--d", "5,6", "--epsilon", "0.2,0.3", "--trials", "1",
                "--jobs", "1", "--seed", "4", "--out", str(out)])
    assert code == EXIT_OK
    records = [parse_record(l) for l in out.read_text().strip().split("\n")]
    assert len(records) == 4
    assert {(r["d"], r["epsilon"]) for r in records} == {
        (5, 0.2), (5, 0.3), (6, 0.2), (6, 0.3)
    }
    manifest_path = tmp_path / "sweep.jsonl.manifest.jsonl"
    assert manifest_path.exists()
    manifest = [json.loads(l) for l in manifest_path.read_text().strip().split("\n")]
    assert [m["index"] for m in manifest] == [0, 1, 2, 3]
    assert str(manifest_path) in capsys.readouterr().err


def test_sweep_stdout_manifest_on_stderr(capsys):
    code = run(["sweep", "--d", "5", "--epsilon", "0.3", "--trials", "2",
                "--jobs", "1", "--seed", "2"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert len(captured.out.strip().split("\n")) == 2
    manifest_lines = [l for l in captured.err.split("\n") if l.startswith("manifest ")]
    assert len(manifest_lines) == 2


def test_sweep_parallel_jobs(tmp_path):
    out = tmp_path / "par.jsonl"
    code = run(["sweep", "--d", "5,6", "--epsilon", "0.3", "--trials", "1",
                "--jobs", "2", "--seed", "4", "--out", str(out)])
    assert code == EXIT_OK
    records = [parse_record(l) for l in out.read_text().strip().split("\n")]
    assert {r["d"] for r in records} == {5, 6}


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_bad_jobs_writes_nothing(tmp_path, jobs):
    out = tmp_path / "f"
    code = run(["sweep", "--d", "8", "--epsilon", "0.5", "--jobs", jobs, "--out", str(out)])
    assert code == EXIT_USAGE
    assert not out.exists()
    assert not (tmp_path / "f.manifest.jsonl").exists()


# --- trees ---


def test_trees_table(capsys):
    assert run(["trees", "--d", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Q^3: n=8" in out
    assert "252" in out  # k=6 tree count of Q^3


def test_trees_refusal_above_enumeration_cap(capsys):
    assert run(["trees", "--d", "13"]) == EXIT_REFUSAL


# --- report ---


def test_report_table_from_trials(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    run(["trial", "--d", "8", "--epsilon", "0.3", "--trials", "5", "--out", str(out)])
    code = run(["report", str(out)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "mean_giant" in captured.out
    assert captured.err == ""  # no skipped lines


def test_report_csv(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    run(["trial", "--d", "7", "--epsilon", "0.3", "--trials", "2", "--out", str(out)])
    assert run(["report", str(out), "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == ",".join(CENSUS_COLUMNS)
    assert len(lines) == 3


def test_report_includes_scaling_fit(tmp_path, capsys):
    out = tmp_path / "scaling.jsonl"
    run(["sweep", "--d", "5,6,7", "--epsilon", "0.3", "--trials", "2",
         "--jobs", "1", "--out", str(out)])
    assert run(["report", str(out)]) == EXIT_OK
    assert "scaling eps=0.3" in capsys.readouterr().out


def test_report_all_garbage_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\nalso not json\n")
    assert run(["report", str(bad)]) == EXIT_USAGE
    assert "malformed" in capsys.readouterr().err


def test_report_counts_failures(tmp_path, capsys):
    f = tmp_path / "fail.jsonl"
    f.write_text('{"schema_version":1,"d":20,"epsilon":0.1,"seed":2,'
                 '"mode":"single-round","error":"x"}\n')
    assert run(["report", str(f)]) == EXIT_OK
    assert "failed trial(s)" in capsys.readouterr().err
