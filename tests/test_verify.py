"""The built-in identity suite and its negative control."""

from hillwalk.potential import two_term
from hillwalk.spectra import BoundaryCondition
from hillwalk.verify import PAIR_TOLERANCE, CheckResult, _pair_errors, run_verify


def test_default_suite_passes():
    report = run_verify()
    assert report.passed
    assert len(report.checks) == 33
    assert all(c.line().startswith("PASS") for c in report.checks)
    assert report.lines()[-1] == "33/33 checks passed"
    # the suite's fixed settings: the pair truncation and the render precision
    names = [c.name for c in report.checks]
    assert "refined-pair[n=6,lam-,K=32]" in names
    assert "refined-pair[n=6,lam+,K=32]" in names
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


def test_pair_check_sees_a_wrong_root_in_a_near_double_pair():
    """per- (1, 1, 1, 3) at n = 9, K = 64: the gap is 2.7e-9 and each LAPACK
    root sits half a gap from its refined root, where the residual
    |det(z - S(z))| read 1.8e-18."""
    pot, _ = two_term(1, 1, 1, 3)
    errors = _pair_errors(pot, BoundaryCondition.PER_MINUS, 9, 64)
    assert all(0.49 < error < 0.51 for error in errors)
    assert min(errors) > PAIR_TOLERANCE
