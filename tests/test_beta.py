"""Functional values, closed forms and asymptotic constants."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillwalk.beta import (
    A_alpha,
    H_minus,
    H_plus,
    alpha_n,
    beta_equal_rs_leading_exact,
    beta_minus,
    beta_plus,
    beta_plus_leading,
    beta_plus_leading_exact,
    h_star_minus,
    h_star_plus,
    ratio_H,
)
from hillwalk.numerics import GaussianRational
from hillwalk.potential import FourierPotential, two_term
from hillwalk.walks import WalkKind, shell_sum


GR = GaussianRational
F = Fraction


class TestBetaValues:
    def test_beta_plus_first_shell_n6(self):
        pot, params = two_term(1, 1, 1, 3)
        val = beta_plus(pot, params, 6, shell_cap=0)
        assert val.value == GR(F(1, 36))

    def test_beta_minus_single_step(self):
        pot, params = two_term(1, 1, 1, 3)
        # n = 3: the shell-0 walk is the three-step descent
        val = beta_minus(pot, params, 3, shell_cap=0)
        assert val.value == GR(F(1, 64))

    def test_beta_minus_n5(self):
        pot, params = two_term(1, 1, 1, 3)
        val = beta_minus(pot, params, 5, shell_cap=0)
        assert val.value == GR(F(1, 147456))

    def test_structural_zero(self):
        pot, params = two_term(1, 1, 5, 5)
        for n in (1, 2, 3, 4, 6, 7, 8, 9):
            plus = beta_plus(pot, params, n, shell_cap=2)
            minus = beta_minus(pot, params, n, shell_cap=2)
            assert plus.value.is_zero() and minus.value.is_zero()

    def test_equal_coefficients_symmetry(self):
        pot, params = two_term(1, 1, 1, 1)
        for n in range(1, 8):
            for z in (GR(), GR(F(1, 2)), GR(F(1, 5), F(-1, 3))):
                p = beta_plus(pot, params, n, z=z, shell_cap=2)
                m = beta_minus(pot, params, n, z=z, shell_cap=2)
                assert p.value == m.value

    def test_coefficient_scaling(self):
        _, params1 = two_term(1, 1, 1, 3)
        _, params2 = two_term(F(3, 2), F(5, 4), 1, 3)
        n = 5
        s0_base = shell_sum(params1, n, WalkKind.X, 0, GR())
        s0_scaled = shell_sum(params2, n, WalkKind.X, 0, GR())
        # counts (1, 2) on shell 0: scale by a * b^2
        assert s0_scaled == s0_base * GR(F(3, 2)) * GR(F(5, 4)) ** 2

    def test_empty_potential(self):
        pot = FourierPotential.of({})
        val = beta_plus(pot, None, 4, shell_cap=2)
        assert val.value.is_zero()
        aval = alpha_n(pot, 4, step_cap=4)
        assert aval.value.is_zero()

    def test_mismatched_params_rejected(self):
        pot, _ = two_term(1, 1, 1, 3)
        _, other = two_term(2, 1, 1, 3)
        with pytest.raises(ValueError):
            beta_plus(pot, other, 5)


class TestAlpha:
    def test_alpha_two_term_n4(self):
        pot, _ = two_term(1, 1, 1, 1)
        val = alpha_n(pot, 4, step_cap=2)
        assert val.value == GR(F(1, 30))

    def test_alpha_no_closed_walks(self):
        pot, _ = two_term(1, 1, 1, 3)
        val = alpha_n(pot, 5, step_cap=3)
        assert val.value.is_zero()

    def test_alpha_default_cap(self):
        pot, _ = two_term(1, 1, 1, 3)
        val = alpha_n(pot, 7, step_cap=8)
        assert not val.value.is_zero()
        assert alpha_n(pot, 7) == val


class TestClosedForms:
    def test_h_star_plus_values(self):
        # r = 1, d = 1: b^m / ((4 s^2)^(m-1) ((m-1)!)^2)
        _, params = two_term(1, 1, 1, 3)
        assert h_star_plus(params, 1) == GR(1)
        assert h_star_plus(params, 2) == GR(F(1, 36))
        assert h_star_plus(params, 3) == GR(F(1, 36 * 36 * 4))

    def test_h_star_plus_matches_shell0(self):
        pot, params = two_term(1, 1, 1, 3)
        for m in (1, 2, 3, 4):
            n = 3 * m
            assert beta_plus(pot, params, n, shell_cap=0).value == h_star_plus(params, m)

    def test_h_star_minus_values(self):
        _, params = two_term(1, 1, 1, 3)
        # s = 3, m = 2: n = 6, a^6 / (4^5 (5!)^2)
        assert h_star_minus(params, 2) == GR(F(1, 14745600))

    def test_h_star_minus_matches_shell0(self):
        pot, params = two_term(1, 1, 1, 3)
        for m in (1, 2, 3):
            n = 3 * m
            assert beta_minus(pot, params, n, shell_cap=0).value == h_star_minus(params, m)

    def test_H_values(self):
        assert H_minus(3, 2) == F(1, 288)
        assert H_plus(3, 1) == 0
        assert H_plus(3, 2) == F(1, 576)
        assert H_plus(3, 3) == F(1, 86400)

    def test_H_minus_formula(self):
        for s in (3, 4, 5):
            for m in (1, 2, 3, 4):
                prod = math.prod(s * t - 1 for t in range(1, m))
                assert H_minus(s, m) == F(2, (4 * s) ** m * math.factorial(m) * prod)

    def test_H_matches_boundary_weights(self):
        """H_minus collects the two boundary-position X walks at n = s m - 1,
        H_plus the interior ones, so the shell-0 total is their difference."""
        pot, params = two_term(1, 1, 1, 3)
        for m in (2, 3, 4):
            s = 3
            n = s * m - 1
            val = beta_plus(pot, params, n, shell_cap=0).value
            assert val == GR(H_plus(s, m) - H_minus(s, m))


class TestAsymptoticCombinatorics:
    def test_A_alpha_values(self):
        assert A_alpha(F(1, 3), 0) == 0
        assert A_alpha(F(1, 3), 1) == F(1, 3)
        assert A_alpha(F(1, 3), 2) == F(1, 9)
        assert A_alpha(F(2, 3), 2) == F(1, 9)

    def test_A_alpha_domain(self):
        with pytest.raises(ValueError):
            A_alpha(F(3, 2), 1)
        with pytest.raises(ValueError):
            A_alpha(F(1, 3), -1)

    def test_ratio_values(self):
        assert ratio_H(3, 2) == F(1, 2)
        assert ratio_H(4, 2) == F(1, 3)

    def test_ratio_equals_H_quotient(self):
        for s in (3, 4, 5):
            for m in range(2, 11):
                assert ratio_H(s, m) * H_minus(s, m) == H_plus(s, m)

    @given(s=st.integers(min_value=3, max_value=12), m=st.integers(min_value=0, max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_convolution_identity(self, s, m):
        alpha = F(1, s)
        lhs = sum(A_alpha(alpha, tau) * A_alpha(alpha, m - tau) for tau in range(m + 1))
        assert lhs == 2 * A_alpha(alpha, m) - A_alpha(2 * alpha, m)

    @given(s=st.integers(min_value=3, max_value=9), k=st.integers(min_value=1, max_value=30))
    @settings(max_examples=120, deadline=None)
    def test_generating_function_taylor(self, s, k):
        """A_alpha(k) is the w^k Taylor coefficient of 1 - (1-w)^alpha."""
        alpha = F(1, s)
        binom = F(1)
        for j in range(k):
            binom *= alpha - j
        binom /= math.factorial(k)
        assert A_alpha(alpha, k) == -((-1) ** k) * binom


class TestLeadingForms:
    def test_beta_plus_leading_m2(self):
        _, params = two_term(1, 1, 1, 3)
        assert beta_plus_leading(params, 2) == GR(F(-1, 576))

    def test_beta_plus_leading_matches_exact(self):
        # the telescoped Gamma route equals a b^m (H+ - H-) exactly
        _, params = two_term(1, 2, 1, 3)
        for m in range(1, 9):
            assert beta_plus_leading(params, m) == beta_plus_leading_exact(params, m)

    def test_beta_plus_leading_sign(self):
        _, params = two_term(1, 1, 1, 3)
        for m in range(1, 21):
            exact = beta_plus_leading_exact(params, m)
            assert exact.im == 0 and exact.re < 0

    def test_beta_minus_leading(self):
        # for r = 1 the single all-negative Y walk of shell 0 weighs
        # a^n / (4^(n-1) ((n-1)!)^2); checked at n = 6
        a = GaussianRational.parse("2/3+1/5i")
        pot, params = two_term(a, 1, 1, 3)
        expect = a ** 6 * GR(F(1, 4**5 * math.factorial(5) ** 2))
        assert beta_minus(pot, params, 6, shell_cap=0).value == expect

    def test_equal_rs_leading(self):
        _, params = two_term(1, 1, 2, 2)
        exact = beta_equal_rs_leading_exact(params, "+", 2)
        assert exact == GR(F(1, 16))
        pot, params3 = two_term(3, 1, 1, 1)
        exact_minus = beta_equal_rs_leading_exact(params3, "-", 2)
        assert exact_minus == GR(F(9, 4))
        assert beta_minus(pot, params3, 2, shell_cap=0).value == exact_minus

    def test_r1_requirement(self):
        _, params = two_term(1, 1, 2, 3)
        with pytest.raises(ValueError):
            beta_plus_leading_exact(params, 2)


class TestTwoSidedStability:
    @pytest.mark.parametrize("m", [4, 6, 8, 10])
    def test_beta_stable_near_zero(self, m):
        pot, params = two_term(1, 1, 1, 3)
        n = 3 * m - 1
        samples = [GR(F(1)), GR(F(-1)), GR(0, F(1)), GR(0, F(-1))]
        p0 = beta_plus(pot, params, n, shell_cap=1).value
        m0 = beta_minus(pot, params, n, shell_cap=1).value
        for z in samples:
            pz = beta_plus(pot, params, n, z=z, shell_cap=1).value
            mz = beta_minus(pot, params, n, z=z, shell_cap=1).value
            # |.|^2 comparisons stay exact in rational arithmetic
            assert pz.abs2() * 4 >= p0.abs2() and pz.abs2() <= p0.abs2() * 4
            assert mz.abs2() * 4 >= m0.abs2() and mz.abs2() <= m0.abs2() * 4
