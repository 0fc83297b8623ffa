"""Exact scalar arithmetic, precision round trips, the telescoped Gamma ratio,
and the one rounding from an exact rational to a printed number."""

import math
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillwalk.numerics import (
    GaussianRational,
    fraction_to_mpf,
    gamma_product_identity,
    printed,
    to_mpc,
)

fractions_st = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=997
)


class TestGaussianRational:
    def test_parse_forms(self):
        assert GaussianRational.parse("3") == GaussianRational(Fraction(3))
        assert GaussianRational.parse("-1/2") == GaussianRational(Fraction(-1, 2))
        assert GaussianRational.parse("i") == GaussianRational(0, Fraction(1))
        assert GaussianRational.parse("-i") == GaussianRational(0, Fraction(-1))
        assert GaussianRational.parse("2/5i") == GaussianRational(0, Fraction(2, 5))
        assert GaussianRational.parse("1/2-3/4i") == GaussianRational(
            Fraction(1, 2), Fraction(-3, 4)
        )
        assert GaussianRational.parse("-12/5+9/5i") == GaussianRational(
            Fraction(-12, 5), Fraction(9, 5)
        )

    def test_parse_rejects_junk(self):
        for bad in ("", "x", "1.5", "1+2", "i3", "1//2"):
            with pytest.raises(ValueError):
                GaussianRational.parse(bad)

    def test_field_arithmetic(self):
        u = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
        v = GaussianRational(Fraction(2), Fraction(5, 7))
        assert (u + v) - v == u
        assert (u * v) / v == u
        assert u * v == v * u
        assert -u + u == GaussianRational()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(Fraction(1)) / GaussianRational()

    def test_abs2_and_conjugate(self):
        u = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        assert u.abs2() == 1
        assert u * u.conjugate() == GaussianRational(Fraction(1))

    def test_integer_powers(self):
        u = GaussianRational(0, Fraction(1))
        assert u ** 2 == GaussianRational(Fraction(-1))
        assert u ** -1 == GaussianRational(0, Fraction(-1))
        assert u ** 0 == GaussianRational(Fraction(1))

    @given(re=fractions_st, im=fractions_st)
    @settings(max_examples=60)
    def test_round_trip_precision(self, re, im):
        g = GaussianRational(re, im)
        for precision in (64, 128, 256):
            z = to_mpc(g, precision)
            with mpmath.mp.workprec(precision + 96):
                err2 = (z.real - mpmath.mpf(re.numerator) / re.denominator) ** 2 + (
                    z.imag - mpmath.mpf(im.numerator) / im.denominator
                ) ** 2
                mag2 = float(re * re + im * im)
                if mag2 == 0:
                    assert err2 == 0
                else:
                    # correctly rounded components: relative error <= 2^(1-p)
                    assert float(mpmath.sqrt(err2)) <= 2.0 ** (1 - precision) * (
                        math.sqrt(mag2)
                    ) + 1e-300


class TestGamma:
    def test_product_identity_small(self):
        third = Fraction(1, 3)
        assert gamma_product_identity(third, 1).re == 1
        assert gamma_product_identity(third, 2).re == Fraction(3, 2)
        assert gamma_product_identity(third, 3).re == Fraction(9, 10)

    @given(
        num=st.integers(min_value=1, max_value=9),
        den=st.integers(min_value=2, max_value=10),
        m=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60)
    def test_telescoping_property(self, num, den, m):
        if num >= den:
            num = den - 1
        alpha = Fraction(num, den)
        value = gamma_product_identity(alpha, m).re
        prod = Fraction(1)
        for t in range(1, m):
            prod *= t - alpha
        assert value * prod == 1

    def test_product_identity_domain(self):
        with pytest.raises(ValueError):
            gamma_product_identity(Fraction(3, 2), 4)
        with pytest.raises(ValueError):
            gamma_product_identity(Fraction(1, 3), 0)

    def test_gamma_ratio_exact_vs_numeric(self):
        # Gamma(1 - alpha) / Gamma(m - alpha) against mpmath's Gamma
        for alpha, m in ((Fraction(1, 3), 7), (Fraction(2, 3), 19), (Fraction(1, 2), 4)):
            exact = gamma_product_identity(alpha, m)
            with mpmath.mp.workprec(192):
                a = mpmath.mpf(alpha.numerator) / alpha.denominator
                numeric = mpmath.gamma(1 - a) / mpmath.gamma(m - a)
                assert abs(to_mpc(exact, 192) - numeric) < mpmath.mpf(2) ** -180 * abs(numeric)


# rationals from far below the least subnormal to far past the largest double,
# with extra weight where q or its square root crosses an edge of the range
wide_fractions_st = st.builds(
    lambda sign, p, q, k: sign * Fraction(p, q) * Fraction(2) ** k,
    st.sampled_from((1, -1)), st.integers(1, 2**80), st.integers(1, 2**80),
    st.integers(-2400, 2400) | st.sampled_from((-2044, -1022, 1024, 2048)).flatmap(
        lambda edge: st.integers(edge - 90, edge + 6)),
)
SEVENTEEN_DIGITS = re.compile(r"-?[1-9]\.\d{16}e[+-]\d+")


def _bracket(x):
    """The midpoints between the positive double x and its neighbours:
    the reals that round to x."""
    exact = Fraction(x)
    return (exact + Fraction(math.nextafter(x, 0))) / 2, exact + Fraction(math.ulp(x)) / 2


class TestPrinted:
    """`printed` against exact Fraction brackets: a double must be the
    nearest one to q**(1/root), a string must be within half a unit of its
    17th digit, and nothing else may come out."""

    @given(q=wide_fractions_st, root=st.sampled_from((1, 2)))
    @settings(max_examples=300)
    def test_rounds_once_from_the_exact_value(self, q, root):
        if root == 2:
            q = abs(q)
        value = printed(q, root)
        if isinstance(value, float):
            assert (value < 0) == (q < 0)
            lo, hi = _bracket(abs(value))
            assert lo ** root <= abs(q) <= hi ** root
            assert abs(value) >= 2.0 ** -1022
            if root == 1:
                assert value == float(q)
        else:
            assert SEVENTEEN_DIGITS.fullmatch(value)
            assert value.startswith("-") == (q < 0)
            unit = Fraction(10) ** (int(value.split("e")[1]) - 16) / 2
            shown = abs(Fraction(value))
            assert (shown - unit) ** root <= abs(q) <= (shown + unit) ** root
            # past the normal range: a float would be subnormal, 0.0 or inf
            assert abs(q) < Fraction(2) ** (-1022 * root) or abs(q) >= (2**1024 - 2**970) ** root

    def test_fixed_cases(self):
        assert printed(Fraction(0)) == 0.0 and printed(Fraction(0), 2) == 0.0
        assert printed(Fraction(2) ** -1022) == 2.0 ** -1022
        assert printed(Fraction(2) ** -1074) == "4.9406564584124654e-324"
        assert printed(-Fraction(2) ** 1024) == "-1.7976931348623159e+308"
        assert printed(Fraction(2) ** 2048, 2) == "1.7976931348623159e+308"
        assert printed(Fraction(10) ** 400, 2) == 1e200
        # a subnormal double is printed as a string
        assert printed(Fraction(3, 4) * Fraction(2) ** -1022) == "1.6688053938804010e-308"

    def test_ties_round_to_even(self):
        assert printed(1 + Fraction(2) ** -53) == 1.0
        assert printed(1 + 3 * Fraction(2) ** -53) == 1 + 2.0 ** -51
        assert printed((10**16 + Fraction(1, 2)) / Fraction(10) ** 339) == "1.0000000000000000e-323"
        assert printed(-(10**16 + Fraction(3, 2)) / Fraction(10) ** 339) == "-1.0000000000000002e-323"

    def test_square_root_is_rounded_once(self):
        # rounding 1/7 to a double first puts its float root one bit low
        q = Fraction(1, 7)
        lo, hi = _bracket(float(q) ** 0.5)
        assert not lo ** 2 <= q <= hi ** 2
        assert printed(q, 2) == 0.37796447300922725
        lo, hi = _bracket(printed(q, 2))
        assert lo ** 2 <= q <= hi ** 2


def test_fraction_to_mpf_single_rounding():
    q = Fraction(1, 3)
    x = fraction_to_mpf(q, 64)
    with mpmath.mp.workprec(160):
        assert abs(x - mpmath.mpf(1) / 3) < mpmath.mpf(2) ** -64
