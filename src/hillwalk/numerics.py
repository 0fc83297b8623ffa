"""Exact scalars and arbitrary-precision floats shared by every layer.

Walk weights and closed-form coefficients are Gaussian rationals (rational
real and imaginary parts) and are kept exact end to end; floating point only
enters when a value is printed or fed to the spectral solvers.  `printed`
rounds every printed number once from its exact value; conversions to mpmath
are correctly rounded at an explicit mantissa precision in bits.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

DEFAULT_PRECISION = 256
MIN_PRECISION = 64

RationalLike = Union[int, Fraction]


def check_precision(precision: int) -> int:
    if not isinstance(precision, int) or precision < MIN_PRECISION:
        raise ValueError(f"precision must be an int >= {MIN_PRECISION} bits, got {precision!r}")
    return precision


def _coerce_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


_RATIONAL_RE = _re.compile(r"[+-]?\d+(?:/\d+)?")


def _parse_rational(text: str) -> Fraction:
    """'3' or '-1/2', spaces ignored: each part of a scalar literal."""
    s = text.strip().replace(" ", "")
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(s)


def gaussian_power(re: int, im: int, k: int) -> Tuple[int, int]:
    """(re + i im)^k for Gaussian integers, k >= 0, by repeated squaring."""
    out_re, out_im = 1, 0
    while k:
        if k & 1:
            out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
        re, im = re * re - im * im, 2 * re * im
        k >>= 1
    return out_re, out_im


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex scalar with Fraction real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _coerce_fraction(self.re))
        object.__setattr__(self, "im", _coerce_fraction(self.im))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value: "ScalarLike") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(_coerce_fraction(value))
        if isinstance(value, str):
            return GaussianRational.parse(value)
        if isinstance(value, (float, complex)):
            # floats are exact dyadic rationals, so this loses nothing
            z = complex(value)
            return GaussianRational(Fraction(z.real), Fraction(z.imag))
        raise TypeError(f"cannot build GaussianRational from {type(value).__name__}")

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse '3', '-1/2', 'i', '-i', '2/5i', '1/2-3/4i' into an exact scalar."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar literal")
        if not s.endswith("i"):
            return GaussianRational(_parse_rational(s))
        body = s[:-1]
        # split real part from imaginary coefficient at the last sign that is
        # not the leading sign and not a digit-internal position
        split = max(body.rfind("+"), body.rfind("-"))
        if split > 0:
            re_text, im_text = body[:split], body[split:]
        else:
            re_text, im_text = "", body
        re_part = _parse_rational(re_text) if re_text else Fraction(0)
        if im_text in ("", "+"):
            im_part = Fraction(1)
        elif im_text == "-":
            im_part = Fraction(-1)
        else:
            im_part = _parse_rational(im_text)
        return GaussianRational(re_part, im_part)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ScalarLike") -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: "ScalarLike") -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: "ScalarLike") -> "GaussianRational":
        return GaussianRational.of(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "ScalarLike") -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "ScalarLike") -> "GaussianRational":
        o = GaussianRational.of(other)
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other: "ScalarLike") -> "GaussianRational":
        return GaussianRational.of(other) / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an int")
        if exponent < 0:
            return GaussianRational(Fraction(1)) / self ** (-exponent)
        # (p + i q) / c over one denominator: one Gaussian-integer power, reduced once
        c = math.lcm(self.re.denominator, self.im.denominator)
        p, q = gaussian_power(self.re.numerator * (c // self.re.denominator),
                              self.im.numerator * (c // self.im.denominator), exponent)
        return GaussianRational(Fraction(p, c ** exponent), Fraction(q, c ** exponent))

    # -- queries -----------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ScalarLike = Union[int, Fraction, str, GaussianRational]


# -- exact <-> floating conversions ---------------------------------------


def fraction_to_mpf(value: RationalLike, precision: int = DEFAULT_PRECISION) -> "mpmath.mpf":
    """Correctly rounded (single rounding) conversion of a rational to mpf."""
    import mpmath
    from mpmath.libmp import from_rational, round_nearest

    check_precision(precision)
    q = _coerce_fraction(value)
    with mpmath.mp.workprec(precision):
        raw = from_rational(q.numerator, q.denominator, precision, round_nearest)
        return +mpmath.mp.make_mpf(raw)


def to_mpc(value: ScalarLike, precision: int = DEFAULT_PRECISION) -> "mpmath.mpc":
    """Correctly rounded conversion of an exact scalar to an mpc at `precision` bits."""
    import mpmath

    g = GaussianRational.of(value)
    with mpmath.mp.workprec(precision):
        return mpmath.mpc(fraction_to_mpf(g.re, precision), fraction_to_mpf(g.im, precision))


def _rounded(q: Fraction, root: int, base: int, digits: int) -> Tuple[int, int]:
    """(m, e) with m * base**e the root-th root of q > 0 rounded half to even to
    `digits` digits, from its exact integer floor, one guard digit and a sticky bit."""
    bits = q.numerator.bit_length() - q.denominator.bit_length()
    e = math.floor(bits / root * math.log(2, base)) - digits
    while True:  # r = floor(q**(1/root) / base**e), wanted with digits + 1 digits
        a, rem = divmod(q.numerator * base ** max(-root * e, 0), q.denominator * base ** max(root * e, 0))
        r = math.isqrt(a) if root == 2 else a
        if base ** digits <= r < base ** (digits + 1):
            break
        e += 1 if r >= base ** digits else -1
    m, guard = divmod(r, base)
    if 2 * guard > base or (2 * guard == base and (rem or r ** root != a or m & 1)):
        m += 1
    return (m // base, e + 2) if m == base ** digits else (m, e + 1)


def printed(q: Fraction, root: int = 1) -> Union[float, str]:
    """q (root 1) or its square root (root 2) rounded once from the exact
    value: the nearest double where that is 0 or a normal finite double,
    else a string of 17 significant digits, rounded half to even."""
    if q == 0:
        return 0.0
    m, e = _rounded(abs(q), root, 2, 53)
    if -1074 <= e <= 971:  # 2**-1022 <= m * 2**e < 2**1024
        return math.ldexp(-m if q < 0 else m, e)
    m, e = _rounded(abs(q), root, 10, 17)
    return f"{'-' if q < 0 else ''}{m // 10**16}.{m % 10**16:016d}e{e + 16:+d}"


# -- telescoped Gamma ratio -----------------------------------------------


def gamma_product_identity(alpha: RationalLike, m: int) -> GaussianRational:
    """Exact value of Gamma(1-alpha)/Gamma(m-alpha) as the telescoped product
    1 / prod_{t=1}^{m-1} (t - alpha), for rational 0 < alpha < 1 and m >= 1."""
    a = _coerce_fraction(alpha)
    if not (0 < a < 1):
        raise ValueError(f"alpha must satisfy 0 < alpha < 1, got {a}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be an int >= 1, got {m!r}")
    prod = Fraction(1)
    for t in range(1, m):
        prod *= t - a
    return GaussianRational(1 / prod)
