"""Walk-sum functionals and their closed forms.

beta_plus / beta_minus sum exact walk weights over shells 0..cap of X / Y
walks for a two-term potential, and alpha_n closed walks of bounded step
count for any potential; nothing estimates the walks past the cap.  The
closed forms cover: the single-walk shells at n = r s d m, the
boundary-walk sums H_minus / H_plus at n = s m - 1 (r = 1), the A_alpha
coefficient family with its convolution identity, and the leading-order
asymptotics used by the basis criteria.  Everything stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .numerics import GaussianRational, ScalarLike, gamma_product_identity
from .potential import FourierPotential, TwoTermParams
from .walks import DEFAULT_SHELL_CAPS, WalkKind, _reduced, _shells_total, closed_sum


@dataclass(frozen=True)
class BetaValue:
    """Exact walk sum over the computed shells (or closed walks)."""

    value: GaussianRational


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
    GaussianRational.of(z)  # a bad z fails here, even where no walk exists
    if pot.is_empty():
        return BetaValue(GaussianRational())
    if params is None:
        params = TwoTermParams.from_potential(pot)
    if (pot.coefficient(-2 * params.R), pot.coefficient(2 * params.S)) != (params.a, params.b):
        raise ValueError("params do not match the potential coefficients")
    return BetaValue(_reduced(*_shells_total(params, n, kind, range(shell_cap + 1), z)))


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
    """Exact sum of closed-walk weights with at most step_cap steps."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return BetaValue(closed_sum(pot, n, step_cap, z))


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
