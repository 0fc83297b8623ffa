"""Walk-sum functionals and their closed forms.

beta_plus / beta_minus sum exact walk weights over shells of X / Y walks for
a two-term potential; alpha_n sums closed walks of bounded step count for any
potential.  The closed forms cover: the single-walk shells at n = r s d m,
the boundary-walk sums H_minus / H_plus at n = s m - 1 (r = 1), the A_alpha
coefficient family with its convolution identity, and the leading-order
asymptotics used by the basis criteria.  Everything stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .numerics import GaussianRational, ScalarLike, abs_value, gamma_product_identity
from .potential import FourierPotential, TwoTermParams
from .walks import DEFAULT_SHELL_CAPS, WalkKind, closed_sum, shell_sums


@dataclass(frozen=True)
class BetaValue:
    """Exact truncated walk sum plus a heuristic tail estimate.

    `value` is the exact sum over the computed shells; `tail_estimate` is
    a nonnegative float (math.inf when the geometric heuristic does not
    apply), never silently added to the value."""

    value: GaussianRational
    tail_estimate: float

    def __post_init__(self) -> None:
        if not (self.tail_estimate >= 0 or math.isinf(self.tail_estimate)):
            raise ValueError("tail_estimate must be nonnegative or inf")


def _coefficient_norm(params: TwoTermParams) -> float:
    return max(abs_value(params.a), abs_value(params.b))


def tail_bound_report(
    params: TwoTermParams,
    n: int,
    kind: WalkKind,
    shell_sums: Sequence[GaussianRational],
) -> float:
    """Heuristic geometric tail after the last computed shell.

    Estimate |last shell| * rho / (1 - rho) with per-shell decay
    rho = (T/n)^(r+s) for X and rho = (T/2n)^(s+1) * (s+2) n for Y,
    T = max(|a|, |b|).  Returns math.inf (the "unbounded" flag) once
    rho >= 1/2; the estimate is a heuristic, not a proven bound."""
    if not shell_sums:
        raise ValueError("tail_bound_report needs at least one computed shell")
    T = _coefficient_norm(params)
    r, s = params.r, params.s
    if kind is WalkKind.X:
        rho = (T / n) ** (r + s)
    elif kind is WalkKind.Y:
        rho = (T / (2 * n)) ** (s + 1) * (s + 2) * n
    else:
        raise ValueError("tail_bound_report covers kinds X and Y")
    if rho >= 0.5:
        return math.inf
    last = abs_value(shell_sums[-1])
    return last * rho / (1.0 - rho)


def _beta(
    pot: FourierPotential,
    params: Optional[TwoTermParams],
    n: int,
    z: ScalarLike,
    shell_cap: int,
    kind: WalkKind,
) -> BetaValue:
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if shell_cap < 0:
        raise ValueError(f"shell_cap must be >= 0, got {shell_cap}")
    zg = GaussianRational.of(z)
    if pot.is_empty():
        return BetaValue(GaussianRational(), 0.0)
    if params is None:
        params = TwoTermParams.from_potential(pot)
    if (pot.coefficient(-2 * params.R), pot.coefficient(2 * params.S)) != (params.a, params.b):
        raise ValueError("params do not match the potential coefficients")
    if n % params.d != 0:
        # no step-count solution at all: identically zero, exact at any cap
        return BetaValue(GaussianRational(), 0.0)
    (sums,) = shell_sums(params, n, kind, range(shell_cap + 1), (zg,))
    total = GaussianRational()
    for s_k in sums:
        total = total + s_k
    tail = tail_bound_report(params, n, kind, sums)
    return BetaValue(total, tail)


def beta_plus(
    pot: FourierPotential,
    params: Optional[TwoTermParams],
    n: int,
    z: ScalarLike = 0,
    shell_cap: int = DEFAULT_SHELL_CAPS[0],
) -> BetaValue:
    """Exact sum of h(x, z) over X-walk shells 0..shell_cap."""
    return _beta(pot, params, n, z, shell_cap, WalkKind.X)


def beta_minus(
    pot: FourierPotential,
    params: Optional[TwoTermParams],
    n: int,
    z: ScalarLike = 0,
    shell_cap: int = DEFAULT_SHELL_CAPS[1],
) -> BetaValue:
    """Exact sum of h(y, z) over Y-walk shells 0..shell_cap."""
    return _beta(pot, params, n, z, shell_cap, WalkKind.Y)


def alpha_n(
    pot: FourierPotential,
    n: int,
    z: ScalarLike = 0,
    step_cap: int = 8,
) -> BetaValue:
    """Exact sum of closed-walk weights with at most step_cap steps.

    No closed-form tail is available for closed walks; for two-term
    potentials the X-kind geometric ratio is reused as a heuristic (closed
    shells also grow by r+s steps), otherwise the tail reads math.inf."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    zg = GaussianRational.of(z)
    total = closed_sum(pot, n, step_cap, zg)
    if pot.is_empty():
        tail = 0.0
    else:
        try:
            params = TwoTermParams.from_potential(pot)
        except ValueError:
            params = None
        if params is None or total.is_zero():
            # no anchor for the geometric estimate: report unknown, not 0
            tail = math.inf
        else:
            tail = tail_bound_report(params, n, WalkKind.X, [total])
    return BetaValue(total, tail)


# -- closed forms ----------------------------------------------------------


def h_star_plus(params: TwoTermParams, m: int) -> GaussianRational:
    """Weight of the single all-positive-step X walk at n = r s d m:
    b^(r m) / ((4 s^2 d^2)^(r m - 1) ((r m - 1)!)^2)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rm = params.r * m
    denom = (4 * params.s ** 2 * params.d ** 2) ** (rm - 1) * math.factorial(rm - 1) ** 2
    return (params.b ** rm) * GaussianRational(Fraction(1, denom))


def h_star_minus(params: TwoTermParams, m: int) -> GaussianRational:
    """Weight of the single all-negative-step Y walk at n = r s d m:
    4 r^2 d^2 (a / (4 r^2 d^2))^(s m) ((s m - 1)!)^(-2)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    sm = params.s * m
    box = 4 * params.r ** 2 * params.d ** 2
    value = (params.a * Fraction(1, box)) ** sm
    return value * GaussianRational(Fraction(box, math.factorial(sm - 1) ** 2))


def H_minus(s: int, m: int) -> Fraction:
    """Shared weight magnitude of the two boundary-position walks at
    n = s m - 1 (r = 1): 2 / ((4s)^m m! prod_{t=1}^{m-1}(s t - 1))."""
    _check_s_m(s, m)
    prod = 1
    for t in range(1, m):
        prod *= s * t - 1
    return Fraction(2, (4 * s) ** m * math.factorial(m) * prod)


def H_plus(s: int, m: int) -> Fraction:
    """Sum of the m-1 interior single-negative-step walk weights at
    n = s m - 1 (r = 1); zero at m = 1."""
    _check_s_m(s, m)
    prod_all = 1
    for t in range(1, m):
        prod_all *= s * t - 1
    total = Fraction(0)
    for tau in range(1, m):
        left = 1
        for t in range(1, tau):
            left *= s * t - 1
        right = 1
        for t in range(1, m - tau):
            right *= s * t - 1
        total += Fraction(left * right, math.factorial(tau) * math.factorial(m - tau))
    return total / Fraction((4 * s) ** m * prod_all ** 2)


def _check_s_m(s: int, m: int) -> None:
    if not isinstance(s, int) or s < 3:
        raise ValueError(f"s must be an int >= 3, got {s!r}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be an int >= 1, got {m!r}")


def A_alpha(alpha: Union[int, Fraction], k: int) -> Fraction:
    """Coefficient family A_alpha(k) = alpha prod_{t=1}^{k-1}(t - alpha) / k!
    with A_alpha(0) = 0; generating function sum_k A_alpha(k) w^k = 1 - (1-w)^alpha."""
    a = Fraction(alpha)
    if not (0 < a < 1):
        raise ValueError(f"alpha must satisfy 0 < alpha < 1, got {a}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return Fraction(0)
    # alpha = p / q: alpha prod (t - alpha) = p prod (t q - p) / q^k, one integer
    p, q = a.numerator, a.denominator
    num = p
    for t in range(1, k):
        num *= t * q - p
    return Fraction(num, q ** k * math.factorial(k))


def ratio_H(s: int, m: int) -> Fraction:
    """Exact H_plus/H_minus through the coefficient identity:
    1 - A_{2/s}(m) / (2 A_{1/s}(m))."""
    _check_s_m(s, m)
    alpha = Fraction(1, s)
    return 1 - A_alpha(2 * alpha, m) / (2 * A_alpha(alpha, m))


# -- leading-order asymptotics --------------------------------------------


def beta_plus_leading_exact(params: TwoTermParams, m: int) -> GaussianRational:
    """Exact leading coefficient of beta_plus at n = s m - 1 for r = d = 1:
    a b^m (H_plus - H_minus), equal to the telescoped Gamma-ratio form."""
    _require_r1(params)
    lead = params.a * (params.b ** m)
    return lead * GaussianRational(H_plus(params.s, m) - H_minus(params.s, m))


def beta_plus_leading(params: TwoTermParams, m: int) -> GaussianRational:
    """Leading term of beta_plus at n = s m - 1 (r = d = 1), via the
    telescoped Gamma-ratio form
    -2 s a b^m / ((2s)^(2m) m!) * G(1-1/s)^2 G(m-2/s) / (G(m-1/s)^2 G(1-2/s))."""
    _require_r1(params)
    s = params.s
    alpha = Fraction(1, s)
    # Gamma(1-a)^2 / Gamma(m-a)^2 telescopes exactly, as does Gamma(m-2a)/Gamma(1-2a)
    ratio = gamma_product_identity(alpha, m) ** 2
    prod2 = Fraction(1)
    for t in range(1, m):
        prod2 *= t - 2 * alpha
    coeff = params.a * (params.b ** m) * Fraction(-2 * s, (2 * s) ** (2 * m) * math.factorial(m))
    return coeff * ratio * GaussianRational(prod2)


def beta_equal_rs_leading_exact(params: TwoTermParams, which: str, m: int) -> GaussianRational:
    """Exact leading term for R = S at n = R m:
    4 R^2 (c / (4 R^2))^m ((m-1)!)^(-2) with c = b for '+', c = a for '-'."""
    if params.R != params.S:
        raise ValueError("equal-band leading term needs R = S")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if which not in ("+", "-"):
        raise ValueError("which must be '+' or '-'")
    c = params.b if which == "+" else params.a
    box = 4 * params.R ** 2
    return (c * Fraction(1, box)) ** m * GaussianRational(
        Fraction(box, math.factorial(m - 1) ** 2)
    )


def _require_r1(params: TwoTermParams) -> None:
    if params.r != 1 or params.d != 1:
        raise ValueError("this closed form needs R = 1 (so r = d = 1) and s = S >= 3")
    if params.s < 3:
        raise ValueError(f"s must be >= 3, got {params.s}")
