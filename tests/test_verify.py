"""The built-in identity suite and its negative control."""

from hillwalk.verify import CheckResult, run_verify


def test_default_suite_passes():
    report = run_verify()
    assert report.passed
    assert len(report.checks) == 33
    assert all(c.line().startswith("PASS") for c in report.checks)
    assert report.lines()[-1] == "33/33 checks passed"
    # the suite's fixed settings: the residual truncation and the render precision
    names = [c.name for c in report.checks]
    assert "reduction-residual[n=6,lam-,K=32]" in names
    assert "reduction-residual[n=6,lam+,K=32]" in names
    assert "factorial-identity-render[256 bits]" in names


def test_injected_perturbation_fails_by_name():
    report = run_verify(inject_error=True)
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert len(failed) == 1
    assert failed[0].name == "shell0-boundary-weights[s=3,m=2]"
    assert failed[0].line().startswith("FAIL shell0-boundary-weights")
    assert report.lines()[-1] == "32/33 checks passed"


def test_check_line_shows_expected_and_actual():
    line = CheckResult("sample", False, "1/2", "1/3").line()
    assert line == "FAIL sample: expected 1/2, got 1/3"
