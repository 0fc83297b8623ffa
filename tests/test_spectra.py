"""Truncation assembly, eigensolve, localization, and pair refinement."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hillwalk.numerics import GaussianRational, complex_to_gaussian, mpc_abs, to_mpc
from hillwalk.potential import FourierPotential, two_term
from hillwalk.beta import beta_minus, beta_plus
from hillwalk.spectra import (
    BoundaryCondition,
    ConvergenceError,
    DirichletUniquenessError,
    GUARD_BITS,
    LocalizationError,
    MAX_K,
    NEWTON_ITERATIONS,
    SpectralPair,
    TruncatedOperator,
    assemble,
    attach_dirichlet,
    dirichlet_close,
    eigenvalues,
    find_working_N,
    localize_pairs,
    reduction_residual,
    refined_dirichlet,
    refined_pair,
    spectrum_csv,
)
from hillwalk.spectra import _chain_det, _fixed, _newton
from oracles import chain_det, dense_assemble

BC = BoundaryCondition
ZERO = FourierPotential.of({})


class TestAssembly:
    def test_free_per_plus(self):
        op = assemble(ZERO, BC.PER_PLUS, 1)
        assert np.allclose(op.matrix, np.diag([4.0, 0.0, 4.0]))
        assert op.indices == (1, 0, -1)

    def test_free_dirichlet(self):
        op = assemble(ZERO, BC.DIRICHLET, 3)
        assert np.allclose(op.matrix, np.diag([1.0, 4.0, 9.0]))

    def test_two_term_off_diagonals(self):
        pot, _ = two_term(1, 1, 1, 1)
        op = assemble(pot, BC.PER_PLUS, 1)
        # rows are k = 1, 0, -1; coupling k -> k-1 carries V(2) below the
        # diagonal and k -> k+1 carries V(-2) above it
        i0 = op.indices.index(0)
        i1 = op.indices.index(1)
        assert op.matrix[i0, i1] == 1.0 and i0 > i1
        assert op.matrix[i1, i0] == 1.0

    def test_per_minus_diagonal(self):
        op = assemble(ZERO, BC.PER_MINUS, 2)
        assert sorted(np.diag(op.matrix).real.tolist()) == [1.0, 1.0, 9.0, 9.0]

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            assemble(ZERO, BC.PER_PLUS, 0)


def assert_same_matrix(got: np.ndarray, want: np.ndarray) -> None:
    """Equal entries, and equal signs of zero in both parts."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


# ordinary rationals, and ones so small that they round to a signed zero
_rationals = st.one_of(
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 60)),
    st.builds(lambda p: Fraction(p, 10**400), st.integers(-3, 3)),
)
_coefficients = st.builds(GaussianRational, _rationals, _rationals).filter(
    lambda g: not g.is_zero()
)
_frequencies = st.lists(
    st.sampled_from([m for m in range(-12, 13, 2) if m != 0]), min_size=1, max_size=4, unique=True
)

# V(-2) and V(2) both present, and the Dirichlet diagonals |j - k| = 2 cross
# the anti-diagonal j + k = 4, where the exact sum rounds differently from
# the sum of the rounded parts
CROSSING = FourierPotential.of({
    -6: GaussianRational(Fraction(-2, 9), Fraction(1, 3)),
    -2: Fraction(1, 3),
    2: GaussianRational(Fraction(1, 6), Fraction(-1, 7)),
    4: GaussianRational(Fraction(2, 7), Fraction(1, 5)),
})
CANCELLING = FourierPotential.of({-2: Fraction(1, 3), 2: Fraction(-1, 3), 4: Fraction(1, 10**400)})


class TestAssemblyOracle:
    """The support-walking fill against the cell-by-cell reference."""

    @pytest.mark.parametrize("bc", list(BC))
    @pytest.mark.parametrize("K", [1, 2, 5, 17, 64])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_random_potentials(self, bc, K, data):
        freqs = data.draw(_frequencies)
        values = data.draw(st.lists(_coefficients, min_size=len(freqs), max_size=len(freqs)))
        pot = FourierPotential.of(dict(zip(freqs, values)))
        assert_same_matrix(assemble(pot, bc, K).matrix, dense_assemble(pot, bc, K))

    def test_crossing_case_discriminates(self):
        # cell (j, k) = (1, 3): the exact w(2) - w(4), not its rounded parts
        half = Fraction(1, 2)
        w2 = (CROSSING.coefficient(2) + CROSSING.coefficient(-2)) * half
        w4 = (CROSSING.coefficient(4) + CROSSING.coefficient(-4)) * half
        assert complex(w2 - w4) != complex(w2) - complex(w4)
        M = assemble(CROSSING, BC.DIRICHLET, 5).matrix
        assert M[0, 2] == M[2, 0] == complex(w2 - w4)

    @pytest.mark.parametrize("pot", [CROSSING, CANCELLING], ids=["crossing", "cancelling"])
    @pytest.mark.parametrize("bc", list(BC))
    @pytest.mark.parametrize("K", [1, 2, 3, 5, 17])
    def test_fixed_cases(self, pot, bc, K):
        assert_same_matrix(assemble(pot, bc, K).matrix, dense_assemble(pot, bc, K))

    @pytest.mark.parametrize("bc", list(BC))
    def test_two_three_potential_at_K255(self, bc):
        pot, _ = two_term("3/7+1/5i", "-2/9+4/11i", 2, 3)
        assert_same_matrix(assemble(pot, bc, 255).matrix, dense_assemble(pot, bc, 255))


class TestEigenvalues:
    def test_diagonal(self):
        op = assemble(ZERO, BC.DIRICHLET, 3)
        assert eigenvalues(op) == [1.0, 4.0, 9.0]

    def test_swap_matrix(self):
        op = TruncatedOperator(
            BC.PER_PLUS, 1, (0, 1), np.array([[0, 1], [1, 0]], dtype=complex)
        )
        vals = eigenvalues(op)
        assert abs(vals[0] + 1) < 1e-12 and abs(vals[1] - 1) < 1e-12

    def test_dimension_guard(self):
        # one cap in K for every boundary condition, checked before the fill
        for bc in BC:
            with pytest.raises(ValueError, match="K=257 exceeds the limit K <= 256"):
                assemble(ZERO, bc, MAX_K + 1)

    def test_two_resolution_stability(self):
        pot, _ = two_term(1, 1, 1, 3)
        lo = eigenvalues(assemble(pot, BC.PER_MINUS, 32))
        hi = eigenvalues(assemble(pot, BC.PER_MINUS, 64))
        for lam in lo:
            if abs(lam) <= 400:
                assert min(abs(lam - other) for other in hi) < 1e-10


class TestLocalization:
    def test_zero_potential_doubles(self):
        eigs = eigenvalues(assemble(ZERO, BC.PER_PLUS, 16))
        res = localize_pairs(eigs, BC.PER_PLUS, 0, 10)
        assert [p.n for p in res.pairs] == [2, 4, 6, 8, 10]
        for p in res.pairs:
            assert p.multiplicity_flag == "double"
            assert abs(p.lam_minus - p.n**2) < 1e-9
        assert res.low_block == (0j,)

    def test_zero_potential_per_minus(self):
        eigs = eigenvalues(assemble(ZERO, BC.PER_MINUS, 16))
        res = localize_pairs(eigs, BC.PER_MINUS, 0, 9)
        assert [p.n for p in res.pairs] == [1, 3, 5, 7, 9]
        assert all(p.multiplicity_flag == "double" for p in res.pairs)

    def test_violation_raises(self):
        eigs = eigenvalues(assemble(ZERO, BC.PER_PLUS, 16))
        pruned = [lam for lam in eigs if abs(lam - 16) > 0.5]
        with pytest.raises(LocalizationError) as err:
            localize_pairs(pruned, BC.PER_PLUS, 0, 10)
        assert err.value.n == 4 and len(err.value.found) == 0

    @pytest.mark.parametrize(
        "a,b,R,S,bc",
        [
            (1, 1, 1, 1, BC.PER_PLUS),
            (1, 2, 1, 1, BC.PER_PLUS),
            (1, 1, 1, 3, BC.PER_PLUS),
            (1, 1, 1, 3, BC.PER_MINUS),
            (2, 1, 2, 2, BC.PER_MINUS),
            (1, 1, 2, 3, BC.PER_PLUS),
        ],
    )
    def test_working_N_covers_desk_range(self, a, b, R, S, bc):
        pot, _ = two_term(a, b, R, S)
        N, res = find_working_N(pot, bc, 64, 12)
        assert N <= 10
        covered = [p.n for p in res.pairs]
        parity = 0 if bc == BC.PER_PLUS else 1
        for n in range(max(4, N + 1), 13):
            if n % 2 == parity:
                assert n in covered

    def test_simple_pairs_when_moduli_differ(self):
        pot, _ = two_term(1, 2, 1, 1)
        eigs = eigenvalues(assemble(pot, BC.PER_PLUS, 64))
        res = localize_pairs(eigs, BC.PER_PLUS, 2, 12, pairing_tol=1e-12)
        for p in res.pairs:
            if p.n <= 8:
                # hardware can still resolve these gaps; beyond n=8 the
                # true gap sinks below eigensolver noise
                assert p.multiplicity_flag == "simple-pair"
                assert p.gap > 1e-12

    def test_parity_decoupling_doubles(self):
        pot, _ = two_term(1, 1, 2, 2)
        eigs = eigenvalues(assemble(pot, BC.PER_MINUS, 64))
        res = localize_pairs(eigs, BC.PER_MINUS, 2, 11)
        for p in res.pairs:
            assert p.gap < 1e-8
            assert p.multiplicity_flag == "double"

    def test_chain_neighbor_coupling_delays_localization(self):
        # R = S = 5, per-: at n = 5 the free indices k = 2 and k = -3 sit
        # five apart, so the band coupling links them directly and splits
        # the pair by about the disc radius; the working threshold lands
        # exactly at N = 5 and the disc at 5^2 fails below it
        pot, _ = two_term(1, 1, 5, 5)
        eigs = eigenvalues(assemble(pot, BC.PER_MINUS, 64))
        with pytest.raises(LocalizationError) as err:
            localize_pairs(eigs, BC.PER_MINUS, 3, 12)
        assert err.value.n == 5
        N, res = find_working_N(pot, BC.PER_MINUS, 64, 12)
        assert N == 5
        assert [p.n for p in res.pairs] == [7, 9, 11]

    @pytest.mark.parametrize(
        "bc,n_max,K,match",
        [
            (BC.PER_PLUS, 0, 10, "n_max must be >= 1, got 0"),
            (BC.PER_MINUS, -3, 10, "n_max must be >= 1, got -3"),
            (BC.DIRICHLET, 8, 10, "per\\+ / per- only"),
        ],
    )
    def test_working_N_rejects_before_assembly(self, monkeypatch, bc, n_max, K, match):
        def no_assembly(*args):
            raise AssertionError("assembled before the arguments were checked")

        monkeypatch.setattr("hillwalk.spectra.assemble", no_assembly)
        pot, _ = two_term(1, 1, 1, 1)
        with pytest.raises(ValueError, match=match):
            find_working_N(pot, bc, K, n_max)

    def test_z_star_consistency_enforced(self):
        with pytest.raises(ValueError):
            SpectralPair(
                n=2, lam_minus=4.0, lam_plus=4.2, z_star=1.0, gap=0.2,
                multiplicity_flag="simple-pair",
            )


class TestDirichlet:
    def test_free_values(self):
        assert abs(dirichlet_close(ZERO, 16, 3) - 9) < 1e-9
        assert abs(dirichlet_close(ZERO, 16, 5) - 25) < 1e-9

    def test_two_resolution(self):
        pot, _ = two_term(1, 1, 1, 3)
        lo = dirichlet_close(pot, 64, 8)
        hi = dirichlet_close(pot, 128, 8)
        assert abs(lo - hi) < 1e-10

    def test_uniqueness_violation(self):
        with pytest.raises(DirichletUniquenessError):
            dirichlet_close(ZERO, 2, 8)

    def test_attach(self):
        pot, _ = two_term(1, 2, 1, 1)
        N, res = find_working_N(pot, BC.PER_PLUS, 64, 10)
        full = attach_dirichlet(res, pot, 64)
        for p in full.pairs:
            assert p.mu is not None
            assert p.deviation == abs(p.lam_plus - p.mu)


class TestReductionResidual:
    def test_zero_potential_exact(self):
        assert reduction_residual(ZERO, None, 5, 25.0) == 0.0

    def test_cross_path_agreement(self):
        pot, params = two_term(1, 1, 1, 1)
        N, res = find_working_N(pot, BC.PER_PLUS, 64, 12)
        for n in (6, 8, 10, 12):
            p = res.pair(n)
            for lam in (p.lam_minus, p.lam_plus):
                assert reduction_residual(pot, params, n, lam) <= 1e-6

    def test_perturbation_increases_residual(self):
        pot, params = two_term(1, 1, 1, 1)
        N, res = find_working_N(pot, BC.PER_PLUS, 64, 8)
        p = res.pair(6)
        base = reduction_residual(pot, params, 6, p.lam_plus)
        moved = reduction_residual(pot, params, 6, p.lam_plus + 0.1)
        assert moved > base

    def test_domain_guard(self):
        pot, params = two_term(1, 1, 1, 1)
        with pytest.raises(ValueError):
            reduction_residual(pot, params, 4, 16.0 + 2.0)


class TestRefinement:
    def test_matches_hardware_at_resolvable_gap(self):
        pot, _ = two_term(1, 1, 1, 1)
        N, res = find_working_N(pot, BC.PER_PLUS, 64, 8)
        hw = res.pair(6)
        rp = refined_pair(pot, BC.PER_PLUS, 6, 64)
        assert abs(complex(rp.lam_minus) - hw.lam_minus) < 1e-9
        assert abs(complex(rp.lam_plus) - hw.lam_plus) < 1e-9
        assert abs(float(rp.gap) - hw.gap) < 1e-10

    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_gap_tracks_walk_prediction(self, n):
        """Refined gaps agree with 2 sqrt(beta+ beta-) at z_star within 1%,
        far below hardware eigensolver resolution for n >= 10."""
        pot, params = two_term(1, 2, 1, 1)
        rp = refined_pair(pot, BC.PER_PLUS, n, 64)
        with mpmath.workprec(320):
            zg = complex_to_gaussian(complex(rp.z_star))
            bp = beta_plus(pot, params, n, z=zg, shell_cap=3).value
            bm = beta_minus(pot, params, n, z=zg, shell_cap=2).value
            pred = mpc_abs(2 * mpmath.sqrt(to_mpc(bp * bm, 320)))
            assert pred > 0
            assert abs(rp.gap - pred) / pred < 0.01
            assert rp.gap > 0

    def test_desk_scale_gap_floor(self):
        """Gaps stay above 1e-12 only while the closed forms say they do:
        the n=10 and n=12 gaps of this potential are genuinely below that."""
        pot, _ = two_term(1, 2, 1, 1)
        gaps = {}
        for n in (4, 6, 8, 10, 12):
            gaps[n] = float(refined_pair(pot, BC.PER_PLUS, n, 64).gap)
        for n in (4, 6, 8):
            assert gaps[n] > 1e-12
        assert 0 < gaps[10] < 1e-12
        assert 0 < gaps[12] < 1e-12

    def test_structural_double_refines_to_zero_gap(self):
        pot, _ = two_term(1, 1, 2, 2)
        rp = refined_pair(pot, BC.PER_MINUS, 5, 64)
        assert float(rp.gap) < 1e-80

    def test_refined_dirichlet_matches_hardware(self):
        # odd n runs the chain through the corner j = 1, even n the plain one
        pot, _ = two_term(1, 2, 1, 1)
        for n in (5, 6):
            hw = dirichlet_close(pot, 64, n)
            mu = refined_dirichlet(pot, n, 64)
            assert abs(complex(mu) - hw) < 1e-9

    def test_refinement_requires_a_chain(self):
        # bands 1 and 3 couple k to k - 1 and k + 3: no neighbour order
        pot13, _ = two_term(1, 1, 1, 3)
        with pytest.raises(ValueError, match="not a chain"):
            refined_pair(pot13, BC.PER_PLUS, 6, 64)
        # w(4) couples sin(jx) to sin((j +- 4)x), and the anti-diagonal
        # j + k = 4 couples sin(x) to sin(3x) as well: the odd block through
        # sin(5x) links 1 to both 3 and 5
        pot22, _ = two_term(1, 1, 2, 2)
        with pytest.raises(ValueError, match="not a chain"):
            refined_dirichlet(pot22, 5, 64)
        # the even block through sin(6x) is 2, 6, 10, ... with stride 4
        mu = refined_dirichlet(pot22, 6, 64)
        assert abs(complex(mu) - dirichlet_close(pot22, 64, 6)) < 1e-9

    def test_parity_validation(self):
        pot, _ = two_term(1, 1, 1, 1)
        with pytest.raises(ValueError):
            refined_pair(pot, BC.PER_PLUS, 5, 64)
        with pytest.raises(ValueError):
            refined_pair(pot, BC.PER_MINUS, 6, 64)

    def test_newton_polish_raises_when_iterations_run_out(self):
        # det(T - lam) = lam^2 + 1 has roots +-i; from a real seed Newton
        # never leaves the real line
        one = 1 << (320 + GUARD_BITS)
        with mpmath.workprec(320):
            with pytest.raises(ConvergenceError) as err:
                _newton([(0, 0)] * 2, [(-one, 0)], 0.5, 320, 0, "Newton polish")
        assert err.value.iterations == NEWTON_ITERATIONS
        assert err.value.step > 0
        assert f"Newton polish did not converge in {NEWTON_ITERATIONS} iterations" in str(err.value)
        assert "last step size" in str(err.value)

    def test_cluster_roots_raises_when_iterations_run_out(self):
        # det(T - lam) = -lam^3 - 3 lam, whose derivative -3(lam^2 + 1) has
        # no real root for the critical-point Newton to reach
        one = 1 << (320 + GUARD_BITS)
        with mpmath.workprec(320):
            with pytest.raises(ConvergenceError) as err:
                _newton([(0, 0)] * 3, [(-one, 0), (-2 * one, 0)], 0.5, 320, 1,
                        "critical-point Newton")
        assert err.value.iterations == NEWTON_ITERATIONS
        assert "critical-point Newton did not converge" in str(err.value)
        assert "last step size" in str(err.value)

    def test_simplicity_is_decided_at_the_working_precision(self):
        """The n = 22 gap of a=1, b=2 lies below 2^-160, so at 320 bits the
        pair is not known to be simple; at 800 bits the same gap is."""
        pot, _ = two_term(1, 2, 1, 1)
        for precision, flag in ((320, "double"), (800, "simple-pair")):
            rp = refined_pair(pot, BC.PER_PLUS, 22, 32, precision)
            assert isinstance(rp, SpectralPair)
            assert rp.multiplicity_flag == flag
            assert abs(float(rp.gap) / 3.5677e-49 - 1) < 1e-4

    def test_near_double_pair_resolves_at_higher_precision(self):
        """At 640 and 1280 bits the n = 22 pair (gap 3.6e-49) is simple and
        its roots agree with the 800-bit ones to 2^-300.  Near this
        near-double root d and d' are far smaller than d'', so each keeps
        its own exponent in the determinant kernel."""
        pot, _ = two_term(1, 2, 1, 1)
        ref = refined_pair(pot, BC.PER_PLUS, 22, 32, 800)
        for precision in (640, 1280):
            rp = refined_pair(pot, BC.PER_PLUS, 22, 32, precision)
            assert rp.multiplicity_flag == "simple-pair"
            with mpmath.workprec(precision):
                assert abs(rp.lam_minus - ref.lam_minus) <= mpmath.mpf(2) ** -300
                assert abs(rp.lam_plus - ref.lam_plus) <= mpmath.mpf(2) ** -300

    def test_real_chain_gives_real_roots(self):
        """a=1, b=2 gives a real symmetric chain: the imaginary parts below
        the Newton tolerance are zeroed, not carried from the seed."""
        pot, _ = two_term(1, 2, 1, 1)
        for n in (6, 8):
            rp = refined_pair(pot, BC.PER_PLUS, n, 32)
            assert rp.lam_minus.imag == 0 and rp.lam_plus.imag == 0
            assert rp.z_star.imag == 0
            assert rp.lam_minus.real < rp.lam_plus.real


gaussian_st = st.builds(
    GaussianRational,
    st.fractions(min_value=-8, max_value=8, max_denominator=4),
    st.fractions(min_value=-8, max_value=8, max_denominator=4),
)


class TestChainDeterminant:
    """The fixed-point kernel against the mpmath recurrence of the oracle,
    which runs 64 bits above the kernel's precision on the same exact chain."""

    @given(
        diag=st.lists(gaussian_st, min_size=1, max_size=5),
        offprod=st.lists(gaussian_st, min_size=4, max_size=4),
        lam=gaussian_st,
        precision=st.sampled_from([320, 800]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_mpmath_recurrence(self, diag, offprod, lam, precision):
        offprod = offprod[:len(diag) - 1]
        # T with unit subdiagonal has det(T - lam) of this chain; keep lam
        # 1e-3 away from every root of d, d' and d'' so that relative
        # agreement is meaningful
        T = np.diag([complex(v) for v in diag])
        T += np.diag([complex(v) for v in offprod], 1) + np.diag([1.0] * len(offprod), -1)
        poly = np.poly(T)
        roots = [r for k in range(3) for r in np.roots(np.polyder(poly, k))]
        assume(all(abs(complex(lam) - r) >= 1e-3 for r in roots))

        bits = precision + GUARD_BITS
        lam_mp = to_mpc(lam, precision)  # the same lam for both
        with mpmath.workprec(precision + 64):
            want = chain_det([to_mpc(v, precision + 64) for v in diag],
                             [to_mpc(v, precision + 64) for v in offprod], lam_mp)
        with mpmath.workprec(precision):
            chain = [_fixed(v, bits) for v in diag], [_fixed(v, bits) for v in offprod]
            got = _chain_det(*chain, lam_mp, precision)
            assert _chain_det(*chain, lam_mp, precision, 1) == got[:2]
        with mpmath.workprec(precision + 64):
            for g, w in zip(got, want):
                assert abs(g - w) <= mpmath.mpf(2) ** -(precision - 10) * abs(w)


class TestDump:
    def test_csv_layout_and_stability(self):
        pot, _ = two_term(1, 2, 1, 1)
        N, res = find_working_N(pot, BC.PER_PLUS, 32, 8)
        full = attach_dirichlet(res, pot, 32)
        text = spectrum_csv(full)
        again = spectrum_csv(full)
        assert text == again
        lines = text.strip().split("\n")
        assert lines[0].startswith("n,lam_minus_re")
        assert len(lines) == 1 + len(full.pairs)
        assert all(row.count(",") == 11 for row in lines)
