"""Built-in cross-route consistency suite.

Every check here compares two independently coded routes to the same
quantity: walk sums against closed forms, coefficient identities
against their generating function, and truncated-operator eigenvalues
against the Schur-complement reduction of their disc.  The suite needs
no fixtures and is the backing for the `verify` subcommand."""

import math
from dataclasses import dataclass
from fractions import Fraction

from .beta import A_alpha, H_minus, H_plus, beta_plus_leading, beta_plus_leading_exact, ratio_H
from .numerics import DEFAULT_PRECISION, GaussianRational, check_precision, to_mpc
from .potential import two_term
from .spectra import BoundaryCondition, find_working_N, reduction_residual
from .walks import WalkKind, shell_sum


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    actual: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: expected {self.expected}, got {self.actual}"


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        out = [c.line() for c in self.checks]
        n_fail = sum(1 for c in self.checks if not c.passed)
        out.append(f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed")
        return out


def _exact(name: str, expected, actual) -> CheckResult:
    return CheckResult(name, expected == actual, str(expected), str(actual))


def check_shell0_mixed_bands(inject_error: bool = False) -> list:
    """Enumerated cap-0 crossing sums at n = s m - 1 against the two-walk
    closed form H+ - H- (coefficients a = b = 1)."""
    out = []
    for s in (3, 4, 5):
        pot, params = two_term(1, 1, 1, s)
        for m in (2, 3):
            n = s * m - 1
            val = shell_sum(params, n, WalkKind.X, 0, GaussianRational())
            closed = Fraction(H_plus(s, m) - H_minus(s, m))
            if inject_error and (s, m) == (3, 2):
                closed += Fraction(1, 10**9)
            out.append(_exact(
                f"shell0-boundary-weights[s={s},m={m}]",
                GaussianRational(closed),
                val,
            ))
    return out


def check_shell0_single_walks() -> list:
    """Cap-0 sums at n = r s d m, where exactly one walk survives each way:
    all positive steps up, all negative steps down."""
    from .beta import h_star_minus, h_star_plus

    out = []
    for (R, S) in ((1, 3), (1, 4), (2, 3)):
        pot, params = two_term(1, 1, R, S)
        step = params.r * params.s * params.d
        for m in (1, 2):
            n = step * m
            up = shell_sum(params, n, WalkKind.X, 0, GaussianRational())
            down = shell_sum(params, n, WalkKind.Y, 0, GaussianRational())
            out.append(_exact(f"shell0-up[R={R},S={S},m={m}]", h_star_plus(params, m), up))
            out.append(_exact(f"shell0-down[R={R},S={S},m={m}]", h_star_minus(params, m), down))
    return out


def check_convolution() -> list:
    """sum_tau A(tau) A(m - tau) = 2 A(m) - A_doubled(m) for alpha = 1/s."""
    out = []
    for s in (3, 5, 8, 12):
        alpha = Fraction(1, s)
        single, doubled = ([A_alpha(a, m) for m in range(31)] for a in (alpha, 2 * alpha))
        bad = None
        for m in range(1, 31):
            conv = sum(single[t] * single[m - t] for t in range(1, m))
            want = 2 * single[m] - doubled[m]
            if conv != want:
                bad = (m, want, conv)
                break
        if bad is None:
            out.append(CheckResult(f"convolution[s={s}]", True, "identity for m <= 30", "all equal"))
        else:
            out.append(CheckResult(
                f"convolution[s={s}]", False,
                f"m={bad[0]}: {bad[1]}", str(bad[2]),
            ))
    return out


def check_generating_function() -> list:
    """Taylor coefficients of 1 - (1-w)^alpha against the product formula."""
    out = []
    for s in (3, 4, 7):
        alpha = Fraction(1, s)
        ok = True
        detail = "all equal"
        for k in range(0, 21):
            # binomial route: -(-1)^k binom(alpha, k), falling factorial
            if k == 0:
                binom = Fraction(1)
            else:
                binom = Fraction(1)
                for t in range(k):
                    binom *= (alpha - t)
                binom /= math.factorial(k)
            coeff = -((-1) ** k) * binom if k > 0 else Fraction(0)
            if coeff != A_alpha(alpha, k):
                ok = False
                detail = f"k={k}: {coeff} vs {A_alpha(alpha, k)}"
                break
        out.append(CheckResult(f"generating-function[s={s}]", ok, "coefficients match for k <= 20", detail))
    return out


def check_gamma_ratio() -> list:
    """ratio_H from the coefficient identity against the direct quotient."""
    out = []
    for s in (3, 4, 5):
        ok = all(ratio_H(s, m) == H_plus(s, m) / H_minus(s, m) for m in range(1, 11))
        out.append(CheckResult(f"gamma-ratio[s={s}]", ok, "ratio_H = H+/H- for m <= 10",
                               "all equal" if ok else "mismatch"))
    out.append(_exact("gamma-ratio[3,2]", Fraction(1, 2), ratio_H(3, 2)))
    return out


def check_factorial_identity(precision: int) -> list:
    """Telescoped Gamma route against a b^m (H+ - H-) at m = 40.

    Both sides are exact rationals; the precision knob only touches the
    float rendering, so this passes at 64 bits as well as 256."""
    import mpmath

    check_precision(precision)
    _, params = two_term(1, 1, 1, 3)
    m = 40
    gamma_route = beta_plus_leading(params, m)
    direct = beta_plus_leading_exact(params, m)
    results = [_exact("factorial-identity[m=40]", direct, gamma_route)]
    with mpmath.workprec(precision):
        rendered = to_mpc(gamma_route, precision)
        again = to_mpc(direct, precision)
        results.append(_exact(f"factorial-identity-render[{precision} bits]", again, rendered))
    return results


def check_reduction_residual(K: int) -> list:
    """Truncated-operator eigenvalues near n^2 = 36 plugged into the same
    truncation's Schur-complement equation det(z - S(z)) = 0; residual at most 1e-6."""
    pot, _ = two_term(1, 1, 1, 1)
    _, result = find_working_N(pot, BoundaryCondition.PER_PLUS, K, n_max=8)
    pair = result.pair(6)
    out = []
    for tag, lam in (("lam-", pair.lam_minus), ("lam+", pair.lam_plus)):
        res = reduction_residual(pot, 6, K, lam)
        out.append(CheckResult(
            f"reduction-residual[n=6,{tag},K={K}]",
            res <= 1e-6,
            "<= 1e-06",
            f"{res:.3e}",
        ))
    return out


def run_verify(
    K: int = 32,
    precision: int = DEFAULT_PRECISION,
    inject_error: bool = False,
) -> VerifyReport:
    """Run the whole suite; `inject_error` perturbs one closed form to
    prove the harness can fail."""
    checks = []
    checks += check_shell0_mixed_bands(inject_error)
    checks += check_shell0_single_walks()
    checks += check_convolution()
    checks += check_generating_function()
    checks += check_gamma_ratio()
    checks += check_factorial_identity(precision)
    checks += check_reduction_residual(K)
    return VerifyReport(tuple(checks))
