"""Acceptance gate: ten checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines; every
check also enforces its runtime budget.  Tolerances are pinned here and
nowhere looser than in the module suites."""

import math
import time
from fractions import Fraction

from hillwalk.beta import A_alpha, H_minus, H_plus, beta_minus, beta_plus, ratio_H
from hillwalk.criteria import (
    concordance_report,
    prop20_verdict,
    structurally_zero,
    theorem31_report,
    theorem5_report,
)
from hillwalk.numerics import GaussianRational
from hillwalk.potential import two_term
from hillwalk.spectra import (
    BoundaryCondition,
    eigenvalues,
    assemble,
    localize_pairs,
    find_working_N,
    refined_pair,
)
from hillwalk.walks import WalkKind, shell_sum

GR = GaussianRational.of
ZERO = GaussianRational()


class _Gate:
    def __init__(self, number: int, name: str, budget_s: float):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.t0 = time.monotonic()

    def finish(self, ok: bool, detail: str = "") -> None:
        elapsed = time.monotonic() - self.t0
        in_time = elapsed <= self.budget
        verdict = "PASS" if (ok and in_time) else "FAIL"
        tail = f" ({detail})" if detail else ""
        print(f"{verdict} acceptance {self.number}: {self.name} "
              f"[{elapsed:.1f}s / {self.budget:.0f}s]{tail}")
        assert ok, f"acceptance {self.number} ({self.name}) failed{tail}"
        assert in_time, f"acceptance {self.number} over budget: {elapsed:.1f}s > {self.budget}s"


def test_acceptance_1_shell0_exactness():
    gate = _Gate(1, "cap-0 sums equal closed forms exactly", 10.0)
    ok = True
    for s in (3, 4, 5):
        pot, params = two_term(1, 1, 1, s)
        for m in range(1, 9):
            n = s * m - 1
            up = shell_sum(params, n, WalkKind.X, 0, ZERO)
            down = shell_sum(params, n, WalkKind.Y, 0, ZERO)
            ok &= up == GaussianRational(Fraction(H_plus(s, m) - H_minus(s, m)))
            ok &= down == GaussianRational(
                Fraction(1, 4 ** (n - 1) * math.factorial(n - 1) ** 2))
            n2 = s * m
            from hillwalk.beta import h_star_minus, h_star_plus
            ok &= shell_sum(params, n2, WalkKind.X, 0, ZERO) == h_star_plus(params, m)
            ok &= shell_sum(params, n2, WalkKind.Y, 0, ZERO) == h_star_minus(params, m)
    gate.finish(ok, "s in {3,4,5}, m <= 8, zero tolerance")


def test_acceptance_2_convolution_identity():
    gate = _Gate(2, "coefficient convolution and generating function", 5.0)
    ok = True
    for s in range(3, 13):
        alpha = Fraction(1, s)
        for m in range(1, 51):
            conv = sum(A_alpha(alpha, t) * A_alpha(alpha, m - t) for t in range(1, m))
            ok &= conv == 2 * A_alpha(alpha, m) - A_alpha(2 * alpha, m)
        for k in range(31):
            if k == 0:
                coeff = Fraction(0)
            else:
                binom = Fraction(1)
                for t in range(k):
                    binom *= alpha - t
                coeff = -((-1) ** k) * (binom / math.factorial(k))
            ok &= coeff == A_alpha(alpha, k)
    gate.finish(ok, "s in {3..12}, m <= 50, k <= 30, zero tolerance")


def test_acceptance_3_gamma_ratio():
    gate = _Gate(3, "telescoped ratio equals the weight quotient", 5.0)
    ok = ratio_H(3, 2) == Fraction(1, 2)
    for s in (3, 4, 5):
        for m in range(1, 11):
            ok &= ratio_H(s, m) == H_plus(s, m) / H_minus(s, m)
    gate.finish(ok, "s in {3,4,5}, m <= 10, ratio_H(3,2) = 1/2")


def test_acceptance_4_reduction_residual():
    gate = _Gate(4, "eigenvalues are the roots refined on the reduced equation z = S(z)", 60.0)
    pot, _ = two_term(1, 1, 1, 1)
    worst = 0.0
    for bc, ns in ((BoundaryCondition.PER_PLUS, (6, 8, 10, 12)),
                   (BoundaryCondition.PER_MINUS, (7, 9, 11))):
        _, result = find_working_N(pot, bc, 64, max(ns))
        for n in ns:
            pair, refined = result.pair(n), refined_pair(pot, bc, n, 64)
            for lam, root in ((pair.lam_minus, refined.lam_minus), (pair.lam_plus, refined.lam_plus)):
                worst = max(worst, float(abs(lam - root)))
    gate.finish(worst <= 1e-9, f"n in 6..12, K=64, Schur complement at all shells; "
                               f"worst root error {worst:.2e}")


def test_acceptance_5_localization():
    gate = _Gate(5, "every disc n in 4..12 holds exactly two eigenvalues", 60.0)
    # roster note: every entry localizes from N = 3 on; R = S = 5 under
    # per- does not (its free indices at n = 5 are chain neighbors and the
    # coupling splits them by the disc radius), so it is exercised through
    # the working-N scan elsewhere, not here
    potentials = [
        (1, 1, 1, 1), (1, 2, 1, 1), (1, 1, 1, 3),
        (1, GaussianRational.parse("1i"), 2, 2), (2, 1, 2, 3), (1, 1, 3, 3),
    ]
    ok = True
    checked = 0
    for (a, b, R, S) in potentials:
        pot, _ = two_term(a, b, R, S)
        for bc in (BoundaryCondition.PER_PLUS, BoundaryCondition.PER_MINUS):
            try:
                result = localize_pairs(eigenvalues(assemble(pot, bc, 64)), bc, 3, 12)
            except Exception:
                ok = False
                continue
            parity = 0 if bc == BoundaryCondition.PER_PLUS else 1
            wanted = [n for n in range(4, 13) if n % 2 == parity]
            got = sorted(p.n for p in result.pairs if p.n >= 4)
            ok &= got == wanted
            checked += len(wanted)
    gate.finish(ok, f"{len(potentials)} potentials x 2 classes, {checked} discs, K=64")


def test_acceptance_6_ratio_collapse_unequal_offsets():
    gate = _Gate(6, "band-ratio collapse over n = 3m refuses a basis", 30.0)
    rep = theorem31_report(1, 1, 1, 3, range(2, 7))
    ratios = [r["ratio"] for r in rep.rows]
    ok = rep.conclusion == "no-basis"
    ok &= all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
    for r in rep.rows[:-1]:
        ok &= r["log_decrement"] >= r["log_decrement_floor"]
    ok &= not any("corroboration failed" in c for c in rep.caveats)
    gate.finish(ok, "m in {2..6}, decrement floor 0.8 |r-s| log m")


def test_acceptance_7_ratio_collapse_shifted_family():
    gate = _Gate(7, "collapse over n = 3m-1 refuses an antiperiodic basis", 30.0)
    rep = theorem5_report(1, 1, 3, range(2, 8))
    ratios = [r["ratio"] for r in rep.rows]
    ok = rep.conclusion == "no-basis"
    for i, m in enumerate(range(2, 7)):
        ok &= ratios[i + 1] * m**2 <= ratios[i]
    ok &= not any("corroboration failed" in c for c in rep.caveats)
    gate.finish(ok, "m in {2..7}, per-step factor >= m^2")


def test_acceptance_8_equal_offset_verdicts():
    gate = _Gate(8, "equal offsets: structural basis and modulus rule", 30.0)
    v1 = prop20_verdict(1, GaussianRational.parse("1i"), 2, "per-")
    _, params22 = two_term(1, 1, 2, 2)
    ok = v1.conclusion == "contains-basis"
    ok &= all(structurally_zero(params22, n) for n in range(1, 13, 2))
    v2 = prop20_verdict(1, 2, 1, "per+")
    ok &= v2.conclusion == "no-basis"
    for row in v2.rows:
        lead = 2.0 ** row["n"]
        ok &= lead / 2 <= row["t"] <= lead * 2
    gate.finish(ok, "R=2 per- structural; R=1 |a|/|b|=2: t_n ~ 2^n within factor 2")


def test_acceptance_9_two_sided_stability():
    gate = _Gate(9, "weight sums stable two-sidedly across the disc", 60.0)
    pot, params = two_term(1, 1, 1, 3)
    samples = (GR(1), GR(-1), GaussianRational.parse("1i"), GaussianRational.parse("-1i"))
    ok = True
    for m in range(4, 11):
        n = 3 * m - 1
        base_p = beta_plus(pot, params, n, shell_cap=3).value.abs2()
        base_m = beta_minus(pot, params, n, shell_cap=2).value.abs2()
        for z in samples:
            moved_p = beta_plus(pot, params, n, z=z, shell_cap=3).value.abs2()
            moved_m = beta_minus(pot, params, n, z=z, shell_cap=2).value.abs2()
            # 1/2 |b(0)| <= |b(z)| <= 2 |b(0)|, compared on exact squares
            ok &= 4 * moved_p >= base_p and moved_p <= 4 * base_p
            ok &= 4 * moved_m >= base_m and moved_m <= 4 * base_m
    gate.finish(ok, "n = 3m-1, m in {4..10}, z in {0, +-1, +-i}, exact")


def test_acceptance_10_criterion_concordance():
    gate = _Gate(10, "three criteria agree at desk scale", 120.0)
    rep_unequal = concordance_report(1, 2)
    rows = rep_unequal.rows
    ok = [r["n"] for r in rows] == [6, 8, 10, 12]
    for key in ("c1", "c2", "c3"):
        series = [r[key] for r in rows]
        ok &= all(series[i] < series[i + 1] for i in range(len(series) - 1))
        ok &= series[-1] > 10
    rep_equal = concordance_report(1, 1)
    for r in rep_equal.rows:
        ok &= max(r["c1"], r["c2"], r["c3"]) <= 2.0
    gate.finish(ok, "(1,2): all exceed 10 by n=12, monotone; (1,1): all <= 2")
