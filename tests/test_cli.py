"""Command-line surface: subcommands, exit codes, byte stability."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import hillwalk
from hillwalk import cli
from hillwalk.cli import main
from hillwalk.criteria import BasisVerdict
from hillwalk.spectra import ConvergenceError
from test_golden import CASES, GOLDEN

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
    assert row5[3] == "21743419393/3206175906594816"
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


@pytest.mark.parametrize("b,n,column", [
    # beta^- at n = 92 is below the least normal double: complex() read 0.0
    ("-85000", 92, "beta_minus"),
    # beta^+ at n = 60 is past the largest double: complex() raised OverflowError
    ("-10000000000", 60, "beta_plus"),
])
def test_beta_prints_a_float_part_past_the_double_range_as_a_string(capsys, b, n, column):
    potential = json.dumps({"a": "1", "b": b, "R": 1, "S": 1})
    code, out, _ = run_cli(capsys, "beta", "--potential", potential, "--range", str(n),
                           "--format", "json")
    assert code == 0
    (row,) = _strict_json(out)["rows"]
    pot, params = hillwalk.two_term(1, int(b), 1, 1)
    exact = {"beta_plus": hillwalk.beta_plus, "beta_minus": hillwalk.beta_minus}[column](
        pot, params, n).value.re
    assert not sys.float_info.min <= abs(exact) <= sys.float_info.max
    text = row[f"{column}_float"]["re"]
    assert isinstance(text, str) and len(text.lstrip("-").split("e")[0]) == 18  # 17 digits
    with mpmath.workprec(256):
        assert abs(mpmath.mpf(text) * exact.denominator / exact.numerator - 1) <= 1e-16
    assert row[f"{column}_float"]["im"] == 0.0
    code, out, _ = run_cli(capsys, "beta", "--potential", potential, "--range", str(n))
    assert code == 0
    header, line = out.strip().split("\n")
    cells = dict(zip(header.split(","), line.split(",")))
    assert cells[f"{column}_float"] == f"({text}+0.0j)"


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


@pytest.mark.parametrize("potential, config, message", [
    ('{"a":"1/0","b":"1","R":1,"S":1}', "{}", "bad potential literal: zero denominator in '1/0'"),
    ('{"terms":[{"m":2,"re":"1/0"}]}', "{}", "bad potential literal: zero denominator in '1/0'"),
    (TWO_TERM_13, '{"z":"1/0"}', "bad z literal: zero denominator in '1/0'"),
], ids=["shorthand", "term", "config-z"])
def test_zero_denominator_exits_64(capsys, tmp_path, potential, config, message):
    # it used to escape as a ZeroDivisionError traceback, with exit 1
    conf = tmp_path / "conf.json"
    conf.write_text(config)
    code, out, err = run_cli(capsys, "beta", "--potential", potential, "--range", "2", "--config", str(conf))
    assert code == 64 and out == ""
    assert err == f"hillwalk: {message}\n"


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


def test_spectrum_rejects_boolean_K(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text('{"K": true}')
    code, out, err = run_cli(capsys, "spectrum", "--potential", TWO_TERM_13, "--config", str(conf))
    assert code == 64 and out == ""
    assert err == "hillwalk: --K must be a positive integer, got True\n"


@pytest.mark.parametrize("key, value", [
    ("range", [True, 2.7]), ("range", [6, 8.0]),
])
def test_beta_list_items_must_be_integers(capsys, tmp_path, key, value):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"range": [6], key: value}))
    code, out, err = run_cli(capsys, "beta", "--potential", TWO_TERM_13, "--config", str(conf))
    assert code == 64 and out == ""
    assert err.startswith("hillwalk: ") and key in err


@pytest.mark.parametrize("potential", ['{"a":"1","b":"1","R":true,"S":3}',
                                       '{"a":"1","b":"1","R":1,"S":false}'])
def test_beta_rejects_boolean_band_offsets(capsys, potential):
    # a JSON true is no integer: it used to tabulate R = 1
    code, out, err = run_cli(capsys, "beta", "--potential", potential, "--range", "5")
    assert code == 64 and out == ""
    assert err == "hillwalk: bad potential literal: R and S must be integers\n"


@pytest.mark.parametrize("literal", ['"1.5"', "1.5", '"1e-3"'])
def test_decimal_rationals_exit_64_in_every_form(capsys, literal):
    # a rational is an int or a string 'p/q' wherever it stands
    for potential in (f'{{"a":{literal},"b":"1","R":1,"S":3}}',
                      f'{{"a":{{"re":{literal}}},"b":"1","R":1,"S":3}}',
                      f'{{"a":{{"re":"1","im":{literal}}},"b":"1","R":1,"S":3}}',
                      f'{{"terms":[{{"m":-2,"re":{literal}}}]}}',
                      f'{{"terms":[{{"m":-2,"re":"1","im":{literal}}}]}}'):
        code, out, err = run_cli(capsys, "beta", "--potential", potential, "--range", "5")
        assert code == 64 and out == "", potential
        assert err.startswith("hillwalk: bad potential literal: "), potential


@pytest.mark.parametrize("potential, form", [
    ('{"a":"1","b":"2","R":1,"S":1,"c":"9"}', "['R', 'S', 'a', 'b']"),
    ('{"terms":[{"m":-2,"re":"1"},{"m":2,"re":"2"}],"R":5}', "['terms']"),
    ('{"terms":[{"m":-2,"re":"1"},{"m":2,"re":"2"}],"a":"1","b":"2","R":1,"S":1}', "['terms']"),
], ids=["two-term", "terms", "both-forms"])
def test_potential_keys_outside_the_form_exit_64(capsys, potential, form):
    # they used to pass unread
    code, out, err = run_cli(capsys, "beta", "--potential", potential, "--range", "5")
    keys = sorted(json.loads(potential))
    assert code == 64 and out == ""
    assert err == ("hillwalk: bad potential literal: potential literal needs the keys "
                   f"{form} and no other, got {keys}\n")


def test_spectrum_rejects_nonpositive_K(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--potential", '{"terms": []}', "--K", "0")
    assert code == 64
    assert "--K" in err


def test_spectrum_localization_violation_exits_3(capsys):
    # no cutoff N <= N_CAP localizes this strong a potential at K = 16
    code, out, err = run_cli(capsys, "spectrum", "--potential", '{"a":"20","b":"20","R":1,"S":1}',
                             "--K", "16", "--range", "4:12")
    assert code == 3 and out == ""
    assert err.startswith("hillwalk: disc around ") and err.endswith(", expected 2\n")


def test_spectrum_rejects_range_without_discs(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--potential", '{"a":"1","b":"1","R":1,"S":1}',
                             "--range", "0")
    assert code == 64 and out == ""
    assert err == "hillwalk: --range must hold positive integers, got 0\n"


@pytest.mark.parametrize("argv, message", [
    (("spectrum", "--potential", TWO_TERM_13, "--K", "300"), "--K must be at most 256, got 300"),
    (("verdict", "--preset", "crit-compare", "--precision", "32"),
     "--precision must be at least 64, got 32"),
    (("beta", "--potential", TWO_TERM_13, "--range", "0,5"),
     "--range must hold positive integers, got 0"),
], ids=["spectrum", "verdict", "beta"])
def test_out_of_range_integers_exit_64(capsys, argv, message):
    # the readers refuse what the library would refuse as a criteria error
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == ""
    assert err == f"hillwalk: {message}\n"


def _spectrum(capsys, *extra):
    return run_cli(capsys, "spectrum", "--potential", '{"a":"1","b":"2","R":1,"S":1}',
                   "--K", "32", *extra)


def test_spectrum_csv_prints_only_the_range(capsys):
    code, out, _ = _spectrum(capsys, "--range", "8:8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,lam_minus_re,")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["8"]
    # the printed row is the one the full scan gives
    _, full, _ = _spectrum(capsys)
    assert lines[1] in full.split("\n")
    code, out, _ = _spectrum(capsys, "--range", "")
    assert code == 0 and out == lines[0] + "\n"


def test_spectrum_json_prints_only_the_range(capsys):
    code, out, _ = _spectrum(capsys, "--range", "6,10", "--format", "json")
    assert code == 0
    assert [p["n"] for p in json.loads(out)["pairs"]] == [6, 10]
    code, out, _ = _spectrum(capsys, "--range", "", "--format", "json")
    assert code == 0 and json.loads(out)["pairs"] == []


def test_spectrum_range_of_the_other_parity_exits_64(capsys):
    # per+ discs sit at even n, per- discs at odd n
    code, out, err = _spectrum(capsys, "--range", "5,7")
    assert code == 64 and out == ""
    assert err.startswith("hillwalk: --range holds no per+ disc") and "--bc per-" in err
    code, out, err = _spectrum(capsys, "--bc", "per-", "--range", "4:4")
    assert code == 64 and out == ""
    assert err.startswith("hillwalk: --range holds no per- disc") and "--bc per+" in err


@pytest.mark.parametrize("extra, message", [
    (("--K", "2", "--range", "4:12"), "--K 2 holds per+ discs up to n = 4, got n up to 12"),
    (("--K", "2", "--bc", "per-", "--range", "3:5"), "--K 2 holds per- discs up to n = 3, got n up to 5"),
], ids=["per+-beyond-K", "per--beyond-K"])
def test_spectrum_scan_outside_the_input_exits_64(capsys, extra, message):
    # usage errors, not a criteria error (4) or a localization violation (3)
    code, out, err = _spectrum(capsys, *extra)
    assert code == 64 and out == ""
    assert err == f"hillwalk: {message}\n"


def test_spectrum_scans_every_disc_the_truncation_holds(capsys):
    # per+ at K = 2 holds e^{+-4ix}: n = 4 is its last disc, and 5 is per-'s
    code, out, _ = _spectrum(capsys, "--K", "2", "--range", "4:5")
    assert code == 0 and [ln.split(",")[0] for ln in out.strip().split("\n")[1:]] == ["4"]


def test_spectrum_rejects_dirichlet_pairs(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--potential", '{"a":"1","b":"1","R":1,"S":1}',
                             "--bc", "dirichlet")
    assert code == 64 and out == ""
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
    assert code == 64
    assert "even" in err


@pytest.mark.parametrize("argv, config, message", [
    (("--preset", "thm31"), '{"bc":"dirichlet"}', "basis verdicts apply to per+ / per- only"),
    (("--preset", "prop20"), '{"bc":"dirichlet"}', "basis verdicts apply to per+ / per- only"),
    (("--potential", TWO_TERM_13, "--delta", "rsd-multiples:1:2"), "{}",
     "--delta holds no index for R = 1, S = 3: rsd-multiples in [1, 2]"),
    (("--preset", "crit-compare", "--range", "100"), "{}",
     "--K 32 holds per+ discs up to n = 64 and Dirichlet discs up to n = 32, got n up to 100"),
    (("--preset", "crit-compare", "--K", "7", "--range", "8"), "{}",
     "--K 7 holds per+ discs up to n = 14 and Dirichlet discs up to n = 7, got n up to 8"),
], ids=["ratio-collapse-dirichlet", "equal-offsets-dirichlet", "empty-delta",
        "concordance-beyond-K", "concordance-beyond-dirichlet-K"])
def test_verdict_inputs_outside_the_reach_exit_64(capsys, tmp_path, argv, config, message):
    # usage errors, not a criteria error (4)
    conf = tmp_path / "conf.json"
    conf.write_text(config)
    code, out, err = run_cli(capsys, "verdict", *argv, "--config", str(conf))
    assert code == 64 and out == ""
    assert err == f"hillwalk: {message}\n"


def test_verdict_concordance_runs_to_the_dirichlet_reach(capsys):
    code, out, _ = run_cli(capsys, "verdict", "--preset", "crit-compare", "--K", "7", "--range", "6")
    assert code == 0 and [r["n"] for r in json.loads(out)["rows"]] == [6]


def _strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def _exact_root(q):
    with mpmath.workprec(256):
        return mpmath.sqrt(mpmath.mpf(q.numerator) / q.denominator)


def _within(text, q, rel=1e-15):
    """The printed string is sqrt(q) to `rel`, relative."""
    with mpmath.workprec(256):
        return abs(mpmath.mpf(text) / _exact_root(q) - 1) <= rel


def test_verdict_prints_an_overflowing_t_as_a_string(capsys):
    # t = |b/a|^92 and more, past the largest double: a float reads Infinity
    potential = '{"a":"1","b":"-85000","R":1,"S":1}'
    code, out, _ = run_cli(capsys, "verdict", "--potential", potential, "--delta", "explicit:92")
    assert code == 0
    doc = _strict_json(out)
    assert doc["conclusion"] == "inconclusive"
    (row,) = doc["rows"]
    pot, params = hillwalk.two_term(1, -85000, 1, 1)
    bp, bm = (f(pot, params, 92).value for f in (hillwalk.beta_plus, hillwalk.beta_minus))
    q = max(bm.abs2() / bp.abs2(), bp.abs2() / bm.abs2())
    assert isinstance(row["t"], str) and _within(row["t"], q)
    assert _exact_root(q) > sys.float_info.max


def test_verdict_prints_an_underflowing_ratio_as_a_string(capsys, tmp_path):
    # from n = 74 on, |beta^-/beta^+|^2 is below the least normal double, and
    # float(ratio^2) ** 0.5 used to print 0.0
    conf = tmp_path / "conf.json"
    conf.write_text('{"m_range": [2, 60]}')
    code, out, _ = run_cli(capsys, "verdict", "--preset", "thm5", "--config", str(conf))
    assert code == 0
    doc = _strict_json(out)
    assert doc["conclusion"] == "no-basis"
    pot, params = hillwalk.two_term(1, 1, 1, 3)
    strings = 0
    for row in doc["rows"]:
        bp, bm = (f(pot, params, row["n"]).value for f in (hillwalk.beta_plus, hillwalk.beta_minus))
        q = bm.abs2() / bp.abs2()
        if isinstance(row["ratio"], str):
            strings += 1
            assert _exact_root(q) < sys.float_info.min and _within(row["ratio"], q)
        else:
            assert row["ratio"] >= sys.float_info.min and _within(repr(row["ratio"]), q, 1e-14)
    assert strings == 20


def test_non_finite_float_exits_4(capsys, monkeypatch):
    def infinite(*args, **kwargs):
        return BasisVerdict("m in [2, 3]", ({"n": 5, "m": 2, "ratio": math.inf},), "no-basis")

    monkeypatch.setattr(cli, "theorem5_report", infinite)
    code, out, err = run_cli(capsys, "verdict", "--preset", "thm5")
    assert code == 4 and out == ""
    assert err.startswith("hillwalk: Out of range float values are not JSON compliant")


@pytest.mark.parametrize("setting", [
    {"thresholds": {"divergence": 10.0, "cap": 2.0, "monotone_points": 2}}, {"z": "1/2"},
], ids=["thresholds", "z"])
def test_verdict_first_criterion_refuses_thresholds_and_z(capsys, tmp_path, setting):
    # criterion 1 judges t_n(0) by fixed thresholds
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(setting))
    code, out, err = run_cli(capsys, "verdict", "--potential", '{"a":"1","b":"2","R":5,"S":5}',
                             "--delta", "R-multiples:1:50:even", "--config", str(conf))
    assert code == 64 and out == ""
    assert err == f"hillwalk: verdict does not read config keys {', '.join(setting)}\n"


def test_verdict_report_refuses_thresholds(capsys, tmp_path):
    # the analytic reports decide by rule; thresholds would be printed unread
    conf = tmp_path / "conf.json"
    conf.write_text('{"thresholds": {"divergence": 10.0, "cap": 2.0, "monotone_points": 2}}')
    code, out, err = run_cli(capsys, "verdict", "--preset", "thm31", "--config", str(conf))
    assert code == 64 and out == ""
    assert err == "hillwalk: the ratio-collapse report does not read config keys thresholds\n"


@pytest.mark.parametrize("preset,potential,need", [
    ("thm5", '{"a":"1","b":"1","R":2,"S":3}', "R = 1 and S >= 3"),
    ("prop20", TWO_TERM_13, "R = S"),
    ("crit-compare", TWO_TERM_13, "R = S = 1"),
    ("thm31", '{"a":"1","b":"1","R":1,"S":1}', "R != S"),
    ("thm5", '{"a":"1","b":"1","R":1,"S":2}', "R = 1 and S >= 3"),
])
def test_verdict_report_refuses_bands_it_does_not_cover(capsys, preset, potential, need):
    code, out, err = run_cli(capsys, "verdict", "--preset", preset, "--potential", potential)
    R, S = json.loads(potential)["R"], json.loads(potential)["S"]
    assert code == 64 and out == ""
    assert err.startswith("hillwalk: the ") and f"needs bands {need}, got R = {R}, S = {S}\n" in err


@pytest.mark.parametrize("extra", [("--delta", "explicit:2,4"), ("--delta", "R-multiples:1:8"),
                                   ("--preset", "thm31")], ids=["explicit", "family", "report"])
def test_verdict_refuses_a_potential_that_is_not_two_term(capsys, extra):
    # the first criterion read the band parameters of no two-term potential
    code, out, err = run_cli(capsys, "verdict", "--potential", '{"terms":[{"m":-4,"re":"1"}]}', *extra)
    assert code == 64 and out == ""
    assert err == "hillwalk: verdicts need a two-term potential\n"


@pytest.mark.parametrize("m_range", [[2, 3, 4], "ab", [True, 3], [5, 2], [0, 3]])
def test_verdict_rejects_malformed_m_range(capsys, tmp_path, m_range):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"m_range": m_range}))
    code, out, err = run_cli(capsys, "verdict", "--preset", "thm31", "--config", str(conf))
    assert code == 64 and out == ""
    assert err == f"hillwalk: m_range must be two integers [lo, hi] with 1 <= lo < hi, got {m_range!r}\n"


@pytest.mark.parametrize("report", ["bogus", ["ratio-collapse"]])
def test_verdict_rejects_unknown_report(capsys, tmp_path, report):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"report": report, "potential": TWO_TERM_13}))
    code, out, err = run_cli(capsys, "verdict", "--config", str(conf))
    assert code == 64 and out == ""
    assert err == f"hillwalk: unknown report kind {report!r}\n"


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


# every option each subcommand registers besides --help: an option that is
# added, dropped or brought back shows up here as a diff
FLAG_SETS = {
    "beta": {"--potential", "--range", "--format", "--out", "--preset", "--config"},
    "spectrum": {"--potential", "--bc", "--K", "--range", "--format", "--out", "--preset",
                 "--config"},
    "verdict": {"--potential", "--bc", "--K", "--precision", "--delta", "--range", "--out",
                "--preset", "--config"},
    "verify": {"--inject-error", "--out", "--preset", "--config"},
}
# options that were removed: the spectrum cutoff, the shell caps
REMOVED_FLAGS = {"--N", "--caps"}


def test_each_command_registers_exactly_its_flags():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    registered = {name: {o for a in p._actions for o in a.option_strings if o.startswith("--")}
                  for name, p in sub.choices.items()}
    assert registered == {name: flags | {"--help"} for name, flags in FLAG_SETS.items()}


@pytest.mark.parametrize("command,flags", [
    (command, tuple(sorted(set().union(REMOVED_FLAGS, *FLAG_SETS.values()) - flags)))
    for command, flags in FLAG_SETS.items()
])
def test_flags_a_command_does_not_read_exit_64(capsys, command, flags):
    for flag in flags:
        value = "per+" if flag == "--bc" else "json" if flag == "--format" else "1"
        code, out, err = run_cli(capsys, command, flag, value)
        assert code == 64 and out == ""
        assert err == f"hillwalk: unrecognized arguments: {flag} {value}\n"


@pytest.mark.parametrize("command,argv,unread", [
    ("verify", ("--inj",), "--inj"),
    ("beta", ("--potential", TWO_TERM_13, "--ra", "5"), "--ra 5"),
] + [
    # the longest proper prefix of every flag, which alone would pick it
    (command, (flag[:-1], "1"), f"{flag[:-1]} 1")
    for command, flags in FLAG_SETS.items() for flag in sorted(flags) if len(flag) > 3
])
def test_flag_prefixes_exit_64(capsys, command, argv, unread):
    """A prefix is not its flag: what one would mean changes whenever a
    flag is added or removed."""
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 64 and out == ""
    assert err == f"hillwalk: unrecognized arguments: {unread}\n"


@pytest.mark.parametrize("command,argv", [
    ("beta", ("--potential", TWO_TERM_13, "--range", "5")),
    ("spectrum", ("--potential", TWO_TERM_13)),
    ("verdict", ("--preset", "prop20")),
    ("verify", ()),
])
def test_config_keys_a_command_does_not_read_exit_64(capsys, tmp_path, command, argv):
    conf = tmp_path / "conf.json"
    conf.write_text('{"bogus": 1, "K": 16}')
    code, out, err = run_cli(capsys, command, *argv, "--config", str(conf))
    # the equal-offsets report that prop20 picks reads no K, nor does verify
    unread = "bogus" if command == "spectrum" else "K, bogus"
    where = "the equal-offsets report" if command == "verdict" else command
    assert code == 64 and out == ""
    assert err == f"hillwalk: {where} does not read config keys {unread}\n"


def test_spectrum_config_has_no_dirichlet_key(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text('{"dirichlet": true}')
    code, out, err = run_cli(capsys, "spectrum", "--potential", TWO_TERM_13, "--config", str(conf))
    assert code == 64 and out == ""
    assert err == "hillwalk: spectrum does not read config keys dirichlet\n"


def test_preset_keys_a_command_does_not_read_are_not_checked(capsys):
    # crit-compare sets `report`, which only verdict reads
    code, out, _ = run_cli(capsys, "spectrum", "--preset", "crit-compare")
    assert code == 0
    assert [ln.split(",")[0] for ln in out.strip().split("\n")[1:]] == ["6", "8", "10", "12"]


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


def test_convergence_error_exits_4(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ConvergenceError("Newton polish", 80, 0.25)

    monkeypatch.setattr(cli, "concordance_report", no_convergence)
    code, out, err = run_cli(capsys, "verdict", "--preset", "crit-compare")
    assert code == 4 and out == ""
    assert err == "hillwalk: Newton polish did not converge in 80 iterations (last step size 0.25)\n"


# -- the input contract: which keys each path reads ------------------------

# one command for each (command, report) path of cli._READS
PATH_COMMANDS = {
    ("beta", None): ("beta", "--potential", TWO_TERM_13, "--range", "5"),
    ("spectrum", None): ("spectrum", "--potential", TWO_TERM_13, "--K", "16", "--range", "4"),
    ("verify", None): ("verify",),
    ("verdict", None): ("verdict", "--potential", TWO_TERM_13, "--delta", "explicit:5,8"),
    ("verdict", "ratio-collapse"): ("verdict", "--preset", "thm31"),
    ("verdict", "shifted-collapse"): ("verdict", "--preset", "thm5"),
    ("verdict", "equal-offsets"): ("verdict", "--preset", "prop20"),
    ("verdict", "concordance"): ("verdict", "--preset", "crit-compare"),
}


def _path_id(path):
    return "-".join(p for p in path if p)


def _as_config(argv):
    """The path argv takes, and its preset's keys and its flags as one config."""
    args = cli.build_parser().parse_args(list(argv))
    config = cli.merged_config(args)
    return (args.command, config.get("report") if args.command == "verdict" else None), config


def test_every_path_has_a_command():
    assert set(PATH_COMMANDS) == set(cli._READS)
    assert all(_as_config(argv)[0] == path for path, argv in PATH_COMMANDS.items())


# keys no path reads: the shell caps and the verdict thresholds are fixed,
# and spectrum scans for its cutoff N
REMOVED_KEYS = {"caps", "thresholds", "N"}


@pytest.mark.parametrize("path", PATH_COMMANDS, ids=_path_id)
def test_keys_a_path_does_not_read_exit_64(capsys, tmp_path, path):
    argv = PATH_COMMANDS[path]
    conf = tmp_path / "conf.json"
    for key in sorted(set(cli._FLAGS).union(REMOVED_KEYS, *cli._READS.values()) - cli._READS[path]):
        conf.write_text(json.dumps({key: 1}))
        code, out, err = run_cli(capsys, *argv, "--config", str(conf))
        assert code == 64 and out == "", key
        assert err.endswith(f" does not read config keys {key}\n"), key
        if key in cli._FLAGS:
            flag = [f"--{key.replace('_', '-')}"] + {"bc": ["per+"], "format": ["json"],
                                                      "inject_error": []}.get(key, ["1"])
            code, out, _ = run_cli(capsys, *argv, *flag)
            assert code == 64 and out == "", key


@pytest.mark.parametrize("path", PATH_COMMANDS, ids=_path_id)
def test_keys_a_path_reads_are_accepted_from_config(capsys, tmp_path, path):
    # the golden commands of the path, then its own command, each re-run with
    # the preset's keys and the flags repeated in a --config file
    runs = [(argv, (GOLDEN / name).read_bytes()) for name, argv in sorted(CASES.items())
            if _as_config(argv)[0] == path]
    runs.append((PATH_COMMANDS[path], None))
    conf = tmp_path / "conf.json"
    for argv, want in runs:
        if want is None:
            want = run_cli(capsys, *argv)[1].encode()
        conf.write_text(json.dumps(_as_config(argv)[1]))
        code, out, _ = run_cli(capsys, *argv, "--config", str(conf))
        assert code == 0 and out.encode() == want, argv


def _readme_reads():
    """{(command, report): keys} from the per-path bullets of the README's
    command-line section, which names `out` and `report` once in prose."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    prose = " ".join(section.split())
    assert "every path reads `out`" in prose and "`report` picks the `verdict` path" in prose
    reads = {}
    for bullet in re.findall(r"^- (`.*(?:\n  .*)*)", section, re.M):
        label, keys = bullet.split(":", 1)
        names = re.findall(r"`([\w-]+)`", label)
        path = (names[0], names[1] if len(names) > 1 else None)
        reads[path] = set(re.findall(r"`(\w+)`", keys)) | {"out"}
        if path[0] == "verdict":
            reads[path].add("report")
    return reads


def test_readme_lists_the_keys_each_path_reads():
    assert _readme_reads() == cli._READS
