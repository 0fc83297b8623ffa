"""Golden-output lock: CLI stdout must stay byte-identical to the files in
tests/golden/.  Only outputs that do not print LAPACK eigenvalues are locked
(verify's residual lines and `spectrum` can vary across BLAS builds)."""

from pathlib import Path

import pytest

from hillwalk.cli import main

GOLDEN = Path(__file__).parent / "golden"

THREE_TERM = (
    '{"terms":[{"m":-2,"re":"1"},{"m":4,"re":"1/2","im":"1/3"},{"m":6,"re":"-2/3"}]}'
)

CASES = {
    "verdict_thm31.json": ("verdict", "--preset", "thm31"),
    "verdict_thm5.json": ("verdict", "--preset", "thm5"),
    "verdict_prop20.json": ("verdict", "--preset", "prop20"),
    "verdict_crit-compare.json": ("verdict", "--preset", "crit-compare"),
    "beta_two_term.csv": (
        "beta", "--potential", '{"a":"1","b":"1","R":1,"S":3}', "--range", "5,8,11"),
    "beta_three_term.csv": ("beta", "--potential", THREE_TERM, "--range", "1,2,3,5,8"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, name):
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()
