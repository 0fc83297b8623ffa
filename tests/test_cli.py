"""Command-line surface: subcommands, exit codes, byte stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hillwalk
from hillwalk.cli import main

TWO_TERM_13 = '{"a":"1","b":"1","R":1,"S":3}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- beta ------------------------------------------------------------------


def test_beta_csv_table(capsys):
    code, out, _ = run_cli(capsys, "beta", "--potential", TWO_TERM_13, "--range", "5,8,11")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,beta_plus,")
    assert len(lines) == 4
    row5 = lines[1].split(",")
    assert row5[0] == "5"
    assert row5[4] == "21743419393/3206175906594816"
    assert row5[-1] == "-1/576"


def test_beta_empty_range_is_header_only(capsys):
    code, out, _ = run_cli(capsys, "beta", "--potential", TWO_TERM_13, "--range", "")
    assert code == 0
    assert out.strip().split("\n") == [out.strip()]


def test_beta_json_serializes_exact_and_float(capsys):
    code, out, _ = run_cli(capsys, "beta", "--potential", TWO_TERM_13,
                           "--range", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["beta_minus"] == {"re": "21743419393/3206175906594816", "im": "0"}
    assert row["beta_minus_float"]["re"] == pytest.approx(6.7817e-06, rel=1e-3)
    assert row["closed_plus"] == {"re": "-1/576", "im": "0"}


def test_beta_singular_z_exits_2(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text('{"z": "24"}')
    code, _, err = run_cli(capsys, "beta", "--potential", TWO_TERM_13,
                           "--range", "5", "--config", str(conf))
    assert code == 2
    # the first singular position in step order: vertex -7 after one step
    assert "n=5" in err and "t=1" in err and "j=-7" in err


def test_beta_requires_potential_and_range(capsys):
    assert run_cli(capsys, "beta", "--range", "5")[0] == 64
    assert run_cli(capsys, "beta", "--potential", TWO_TERM_13)[0] == 64


def test_beta_rejects_garbage_potential(capsys):
    code, _, err = run_cli(capsys, "beta", "--potential", "not json", "--range", "5")
    assert code == 64
    assert "potential" in err


# -- spectrum --------------------------------------------------------------


def test_spectrum_zero_potential_doubles(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--potential", '{"terms": []}',
                           "--bc", "per+", "--K", "16", "--range", "4:8")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    for row in rows:
        n = int(row[0])
        assert float(row[1]) == n * n
        assert float(row[5]) == 0.0
        assert row[-1] == "double"


def test_spectrum_json_pairs(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--potential", '{"a":"1","b":"2","R":1,"S":1}',
                           "--K", "32", "--range", "4:8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    flags = {p["n"]: p["flag"] for p in doc["pairs"]}
    assert flags[4] == "simple-pair" and flags[6] == "simple-pair"
    assert doc["K"] == 32 and doc["bc"] == "per+"


def test_spectrum_rejects_nonpositive_K(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--potential", '{"terms": []}', "--K", "0")
    assert code == 64
    assert "--K" in err


def test_spectrum_localization_violation_exits_3(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--potential", '{"a":"8","b":"8","R":1,"S":1}',
                           "--K", "16", "--N", "1", "--range", "4:12")
    assert code == 3
    assert "disc" in err


def test_spectrum_rejects_range_without_discs(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--potential", '{"a":"1","b":"1","R":1,"S":1}',
                             "--range", "0")
    assert code == 4 and out == ""
    assert err == "hillwalk: n_max must be >= 1, got 0\n"


def test_spectrum_rejects_dirichlet_pairs(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--potential", '{"a":"1","b":"1","R":1,"S":1}',
                             "--bc", "dirichlet")
    assert code == 4 and out == ""
    assert err == "hillwalk: pair localization applies to per+ / per- only\n"


# -- verdict ---------------------------------------------------------------


def test_verdict_preset_conclusions(capsys):
    for preset, want in (("thm31", "no-basis"), ("thm5", "no-basis"), ("prop20", "contains-basis")):
        code, out, _ = run_cli(capsys, "verdict", "--preset", preset)
        assert code == 0
        assert json.loads(out)["conclusion"] == want


def test_verdict_first_criterion_with_delta(capsys):
    code, out, _ = run_cli(capsys, "verdict", "--potential", '{"a":"1","b":"2","R":5,"S":5}',
                           "--delta", "R-multiples:1:50:even")
    assert code == 0
    doc = json.loads(out)
    assert doc["conclusion"] == "no-basis"
    assert [r["n"] for r in doc["rows"]] == [10, 20, 30, 40, 50]


def test_verdict_requires_delta_without_preset(capsys):
    code, _, err = run_cli(capsys, "verdict", "--potential", TWO_TERM_13)
    assert code == 64
    assert "--delta" in err


def test_verdict_rejects_unknown_family(capsys):
    code, _, _ = run_cli(capsys, "verdict", "--potential", TWO_TERM_13,
                         "--delta", "fibonacci:1:10")
    assert code == 64


def test_verdict_concordance_rejects_odd_indices_exit_4(capsys):
    code, _, err = run_cli(capsys, "verdict", "--preset", "crit-compare", "--range", "5,7")
    assert code == 4
    assert "even" in err


def test_verdict_thresholds_flow_through_config(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text('{"thresholds": {"divergence": 10.0, "cap": 2.0, "monotone_points": 2}}')
    code, out, _ = run_cli(capsys, "verdict", "--potential", '{"a":"1","b":"2","R":5,"S":5}',
                           "--delta", "R-multiples:1:50:even", "--config", str(conf))
    assert code == 0
    assert json.loads(out)["thresholds"]["divergence"] == 10.0


def test_preset_overridden_by_config_then_flags(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text('{"m_range": [2, 4]}')
    code, out, _ = run_cli(capsys, "verdict", "--preset", "thm31", "--config", str(conf))
    assert code == 0
    assert len(json.loads(out)["rows"]) == 3


# -- verify ----------------------------------------------------------------


def test_verify_passes_and_prints_lines(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(ln.startswith("PASS") for ln in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_negative_control_exits_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--inject-error")
    assert code == 1
    assert any(ln.startswith("FAIL shell0-boundary-weights") for ln in out.split("\n"))


# -- plumbing --------------------------------------------------------------


def test_unknown_subcommand_exits_64(capsys):
    assert run_cli(capsys, "nonsense")[0] == 64


def test_unwritable_out_exits_64(capsys):
    code, _, err = run_cli(capsys, "verify", "--out", "/nonexistent-dir/x.txt")
    assert code == 64
    assert "cannot write" in err


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verdict", "--preset", "prop20", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["conclusion"] == "contains-basis"


def test_byte_stable_over_repeated_runs(capsys):
    argv = ("verdict", "--preset", "thm31")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    argv = ("beta", "--potential", TWO_TERM_13, "--range", "5,8", "--format", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_module_entrypoint_runs():
    # the child imports the package under test, however pytest found it
    paths = [str(Path(hillwalk.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "hillwalk", "verdict", "--preset", "prop20"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["conclusion"] == "contains-basis"
