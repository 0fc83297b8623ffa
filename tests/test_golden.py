"""Golden-output lock: CLI stdout must stay byte-identical to the files in
tests/golden/.  Only outputs that do not print LAPACK eigenvalues are locked
(verify's residual lines and `spectrum` can vary across BLAS builds); the
refined roots are Newton-polished at 320 bits from a hardware seed and keep
only the digits Newton resolved, so they do not depend on the seed."""

from pathlib import Path

import mpmath
import pytest

from hillwalk.cli import main
from hillwalk.potential import two_term
from hillwalk import spectra
from hillwalk.spectra import refined_dirichlet, refined_pair

GOLDEN = Path(__file__).parent / "golden"

THREE_TERM = (
    '{"terms":[{"m":-2,"re":"1"},{"m":4,"re":"1/2","im":"1/3"},{"m":6,"re":"-2/3"}]}'
)

CASES = {
    "verdict_thm31.json": ("verdict", "--preset", "thm31"),
    "verdict_thm5.json": ("verdict", "--preset", "thm5"),
    "verdict_prop20.json": ("verdict", "--preset", "prop20"),
    "verdict_crit-compare.json": ("verdict", "--preset", "crit-compare"),
    # branches the presets do not reach
    "verdict_c1_delta.json": (
        "verdict", "--potential", '{"a":"1","b":"1","R":1,"S":3}', "--delta", "explicit:5,8,11,14"),
    "verdict_prop20_per+.json": (
        "verdict", "--preset", "prop20", "--bc", "per+", "--potential", '{"a":"1","b":"2","R":1,"S":1}'),
    "verdict_thm31_per-_odd.json": ("verdict", "--preset", "thm31", "--bc", "per-"),
    "verdict_thm31_per-_even.json": (
        "verdict", "--preset", "thm31", "--bc", "per-", "--potential", '{"a":"1","b":"1","R":2,"S":4}'),
    "verdict_thm5_even_s.json": (
        "verdict", "--preset", "thm5", "--potential", '{"a":"1","b":"1","R":1,"S":4}'),
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


# (bc, (a, b, R, S), ns) at K = 32 and the default refinement precision
REFINED = [
    ("per+", ("1", "2", 1, 1), (6, 8, 10, 12, 22)),
    ("per-", ("1", "1", 2, 2), (5,)),
    ("per+", ("1", "3/5+4/5i", 2, 2), (8,)),
    ("per-", ("1", "2", 3, 3), (9,)),
    ("dirichlet", ("1", "2", 1, 1), (5, 6)),
]


def _refined_roots_text():
    K = 32
    lines = []
    for bc, (a, b, R, S), ns in REFINED:
        pot, _ = two_term(a, b, R, S)
        head = f"{bc} a={a} b={b} R={R} S={S} K={K}"
        for n in ns:
            if bc == "dirichlet":
                lines.append(f"{head} n={n} mu {mpmath.nstr(refined_dirichlet(pot, n, K), 90)}")
                continue
            rp = refined_pair(pot, bc, n, K)
            lines.append(f"{head} n={n} lam_minus {mpmath.nstr(rp.lam_minus, 90)}")
            lines.append(f"{head} n={n} lam_plus {mpmath.nstr(rp.lam_plus, 90)}")
    return "\n".join(lines) + "\n"


def test_refined_roots():
    """Refined pairs and Dirichlet eigenvalues to 90 digits: anchors that
    the band links to each other, anchors it keeps apart (a structural
    double), a complex ab, the n = 22 pair with gap 3.6e-49, and the sine
    reduction for odd n, whose rows reach sin(x), and for even n."""
    assert _refined_roots_text().encode() == (GOLDEN / "refined_roots.txt").read_bytes()


def test_refined_roots_do_not_follow_the_hardware_seed(monkeypatch):
    """Every hardware eigenvalue moved by 3e-13 + 2e-13i, well inside the
    Newton basins, leaves every printed digit of every refined root as it is."""
    solve = spectra.eigenvalues
    monkeypatch.setattr(spectra, "eigenvalues",
                        lambda op: [w + complex(3e-13, 2e-13) for w in solve(op)])
    assert _refined_roots_text().encode() == (GOLDEN / "refined_roots.txt").read_bytes()
