"""Truncation assembly, eigensolve, localization, and pair refinement."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from hillwalk.numerics import GaussianRational, to_mpc
from hillwalk.potential import FourierPotential, two_term
from hillwalk.beta import beta_minus, beta_plus
from hillwalk.criteria import concordance_report
from hillwalk.spectra import (
    BoundaryCondition,
    ConvergenceError,
    DEFAULT_PAIRING_TOL,
    DegenerateRatioError,
    DirichletUniquenessError,
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
    pair_couplings,
    reduction_residual,
    refined_dirichlet,
    refined_pair,
    spectrum_csv,
)
from hillwalk import spectra
from hillwalk.spectra import _newton, _reduction, _schur
from oracles import dense_assemble, schur_complement

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
        res = localize_pairs(eigs, BC.PER_PLUS, 2, 12)
        for p in res.pairs:
            assert p.multiplicity_flag == ("double" if p.gap <= DEFAULT_PAIRING_TOL else "simple-pair")
            if p.n <= 8:
                # hardware can still resolve these gaps; beyond n=8 the
                # true gap sinks below eigensolver noise
                assert p.gap > 1e-12
        # the n = 8 gap, near 1e-10, is below the pairing tolerance
        assert [p.n for p in res.pairs if p.multiplicity_flag == "simple-pair"] == [4, 6]

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
        assert reduction_residual(ZERO, 5, 16, 25.0) == 0.0  # per-
        assert reduction_residual(ZERO, 6, 16, 36.0) == 0.0  # per+

    def test_cross_path_agreement(self):
        pot, _ = two_term(1, 1, 1, 1)
        for bc, ns in ((BC.PER_PLUS, (6, 8, 10, 12)), (BC.PER_MINUS, (7, 9, 11))):
            N, res = find_working_N(pot, bc, 64, max(ns))
            for n in ns:
                p = res.pair(n)
                for lam in (p.lam_minus, p.lam_plus):
                    assert reduction_residual(pot, n, 64, lam) <= 1e-6

    def test_hardware_roots_solve_the_reduction_of_their_truncation(self):
        """|det(z - S(z))| is about |lam - lam+| |lam - lam-|: a LAPACK root
        off by 1e-14 in a pair of gap 1e-7 leaves 1e-21.  The capped walk
        sums left 7.0e-15 here, their own truncation error."""
        pot, _ = two_term(1, 1, 1, 1)
        N, res = find_working_N(pot, BC.PER_PLUS, 32, 8)
        p = res.pair(6)
        for lam in (p.lam_minus, p.lam_plus):
            assert reduction_residual(pot, 6, 32, lam) <= 1e-18

    def test_perturbation_increases_residual(self):
        pot, _ = two_term(1, 1, 1, 1)
        N, res = find_working_N(pot, BC.PER_PLUS, 64, 8)
        p = res.pair(6)
        base = reduction_residual(pot, 6, 64, p.lam_plus)
        moved = reduction_residual(pot, 6, 64, p.lam_plus + 0.1)
        assert moved > base

    def test_domain_guard(self):
        pot, _ = two_term(1, 1, 1, 1)
        with pytest.raises(ValueError):
            reduction_residual(pot, 4, 32, 16.0 + 2.0)

    def test_guard_is_the_disc_the_reduction_checks(self):
        # n/4 = 2 would admit z = 1.2, where no row's dominance was checked
        pot, _ = two_term(1, 1, 1, 1)
        with pytest.raises(ValueError, match=r"need \|lam - n\^2\| < 1, got \|z\| = 1.2 at n = 8"):
            reduction_residual(pot, 8, 32, 64.0 + 1.2)


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
            z_star = complex(rp.z_star)
            zg = GaussianRational(Fraction(z_star.real), Fraction(z_star.imag))
            bp = beta_plus(pot, params, n, z=zg, shell_cap=3).value
            bm = beta_minus(pot, params, n, z=zg, shell_cap=2).value
            pred = abs(2 * mpmath.sqrt(to_mpc(bp * bm, 320)))
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
        # odd n couples through the corner j = 1, even n does not
        pot, _ = two_term(1, 2, 1, 1)
        for n in (5, 6):
            hw = dirichlet_close(pot, 64, n)
            mu = refined_dirichlet(pot, n, 64)
            assert abs(complex(mu) - hw) < 1e-9

    def test_refinement_covers_unequal_bands_and_every_dirichlet_n(self):
        # bands 1 and 3 couple k to k - 1 and k + 3: no tridiagonal chain,
        # but the same reduction, and a gap the hardware still resolves
        pot13, _ = two_term(1, 1, 1, 3)
        hw = find_working_N(pot13, BC.PER_PLUS, 64, 8)[1].pair(6)
        rp = refined_pair(pot13, BC.PER_PLUS, 6, 64)
        assert rp.multiplicity_flag == "simple-pair"
        assert abs(float(rp.gap) - hw.gap) < 1e-11
        # w(4) couples sin(5x) to sin(x), sin(3x) and sin(9x); the even block
        # through sin(6x) has stride 4
        pot22, _ = two_term(1, 1, 2, 2)
        for n in (5, 6):
            assert abs(complex(refined_dirichlet(pot22, n, 64)) - dirichlet_close(pot22, 64, n)) < 1e-9

    def test_unequal_band_gaps_beat_the_hardware(self):
        """per- (1, 3) at n = 9, K = 32: the 200-bit eigenvalues of the same
        truncation (mpmath.eig, held as a constant since it takes 9 s) give
        gap 2.6911442e-9; the hardware eigensolver prints 6.8e-11."""
        pot, _ = two_term(1, 1, 1, 3)
        rp = refined_pair(pot, BC.PER_MINUS, 9, 32)
        assert float(rp.gap) == pytest.approx(2.6911442e-9, rel=1e-6)

    @pytest.mark.parametrize("n, gap", [(8, 8.6116606e-9), (12, 1.8877276e-14), (20, 1.2024911e-31)])
    def test_unequal_band_gaps_do_not_move_with_the_cutoff(self, n, gap):
        """per+ (1, 3): beta+ beta- < 0, so the pair splits along the imaginary
        axis; n = 12 and 20 lie below the hardware floor of 1e-13."""
        pot, _ = two_term(1, 1, 1, 3)
        at32, at48 = (float(refined_pair(pot, BC.PER_PLUS, n, K).gap) for K in (32, 48))
        assert at32 == pytest.approx(gap, rel=1e-7)
        assert at48 == pytest.approx(at32, rel=1e-7)

    def test_reduction_refuses_a_row_without_diagonal_dominance(self):
        pot, _ = two_term(30, 30, 1, 1)
        # checked over the whole disc: |4 - 64| - 1 < 30 + 30 at k = 4
        refusal = r"per\+ reduction at n=2: row k=4 of A\(z\) is not strictly diagonally dominant"
        with pytest.raises(ValueError, match=refusal):
            refined_pair(pot, BC.PER_PLUS, 2, 16)

    @pytest.mark.parametrize("n", [3, 4])
    def test_rows_of_the_other_parity_are_left_out(self, n):
        """Dirichlet a = b = 3: the couplings w(2) join sin(jx) to sin(kx)
        only for j = k mod 2, so the rows of the other parity add nothing to
        S(z) and are not checked.  Row k=4 at n = 3 (and k=3 at n = 4) has
        |n^2 - k^2| - 1 = 6, not above its off-diagonal sum w(2) + w(2) = 6;
        the roots z = 0.223 and 0.273 refine to the dense solve's."""
        pot, _ = two_term(3, 3, 1, 1)
        assert abs(complex(refined_dirichlet(pot, n, 32)) - dirichlet_close(pot, 32, n)) < 1e-9

    def test_dominance_is_checked_over_the_whole_disc(self):
        """Dirichlet a = b = 15 at n = 3: row k=5 is joined to the anchor
        sin(3x) and couples to sin(7x) in Q by w(2) = 15.  It has
        |9 - 25| - 1 = 15, not above 15, though at z = 0 it dominates."""
        pot, _ = two_term(15, 15, 1, 1)
        with pytest.raises(ValueError, match=r"dirichlet reduction at n=3: row k=5 of A\(z\)"):
            refined_dirichlet(pot, 3, 32)

    def test_a_root_outside_the_disc_raises(self):
        """a = b = 2 at n = 2: Newton ends at z = -0.33 and z = +1.17, and
        the second root lies outside the disc D_2."""
        pot, _ = two_term(2, 2, 1, 1)
        with pytest.raises(LocalizationError, match="disc around 2\\^2 under per\\+ holds 1 eigenvalues") as err:
            refined_pair(pot, BC.PER_PLUS, 2, 32)
        assert [round(complex(lam).real - 4, 2) for lam in err.value.found] == [-0.33]

    def test_a_dirichlet_root_outside_the_disc_raises(self, monkeypatch):
        # S = 2 and S' = 0: Newton settles at z = 2 in one step
        monkeypatch.setattr(spectra, "_schur", lambda plan, z: ([[mpmath.mpf(2)]], [[0]]))
        pot, _ = two_term(1, 2, 1, 1)
        with pytest.raises(DirichletUniquenessError, match="disc around 5\\^2 holds 0 Dirichlet"):
            refined_dirichlet(pot, 5, 32)

    def test_refinement_runs_no_eigensolve(self, monkeypatch):
        """Newton starts at the disc centre, so no refinement assembles the
        dense truncation or solves it."""
        def refused(*args):
            raise AssertionError("the refinement path reached the dense solver")

        monkeypatch.setattr(spectra, "assemble", refused)
        monkeypatch.setattr(spectra, "eigenvalues", refused)
        pot, _ = two_term(1, 2, 1, 1)
        pair = refined_pair(pot, BC.PER_PLUS, 6, 32)
        assert refined_dirichlet(pot, 5, 32).real > 0
        assert pair_couplings(pot, BC.PER_MINUS, 7, 32)[0].multiplicity_flag == "simple-pair"
        assert reduction_residual(pot, 6, 32, complex(pair.lam_plus)) <= 1e-18
        assert len(concordance_report(1, 2).rows) == 4

    def test_parity_validation(self):
        pot, _ = two_term(1, 1, 1, 1)
        with pytest.raises(ValueError):
            refined_pair(pot, BC.PER_PLUS, 5, 64)
        with pytest.raises(ValueError):
            refined_pair(pot, BC.PER_MINUS, 6, 64)

    def test_newton_polish_raises_when_iterations_run_out(self):
        # z^2 + 1 has roots +-i; from a real seed Newton never leaves the real line
        with mpmath.workprec(320):
            with pytest.raises(ConvergenceError) as err:
                _newton(lambda z: (z * z + 1) / (2 * z), mpmath.mpc(0.5), mpmath.ldexp(1, -304),
                        "Newton polish")
        assert err.value.iterations == NEWTON_ITERATIONS
        assert err.value.step > 0
        assert f"Newton polish did not converge in {NEWTON_ITERATIONS} iterations" in str(err.value)
        assert "last step size" in str(err.value)

    def test_pair_branch_raises_when_iterations_run_out(self, monkeypatch):
        # S = m(z) I with m(z) = z - e^z: the branch equation z - m = e^z has
        # no root, and every Newton step is 1
        def schur(plan, z):
            m, dm = z - mpmath.exp(z), 1 - mpmath.exp(z)
            return [[m, 0], [0, m]], [[dm, 0], [0, dm]]

        monkeypatch.setattr(spectra, "_schur", schur)
        pot, _ = two_term(1, 2, 1, 1)
        with pytest.raises(ConvergenceError) as err:
            refined_pair(pot, BC.PER_PLUS, 6, 32)
        assert f"first branch at n=6 did not converge in {NEWTON_ITERATIONS}" in str(err.value)
        assert abs(err.value.step - 1) < 1e-60

    def test_simplicity_is_decided_at_the_working_precision(self):
        """The n = 22 gap of a=1, b=2 is 3.5677e-49 (the 800-bit value):
        simple at 320 and 800 bits, where the roots resolve below 2^-290,
        and double at 128 bits, where their resolution 2^-112 * 484 is not."""
        pot, _ = two_term(1, 2, 1, 1)
        for precision in (320, 800):
            rp = refined_pair(pot, BC.PER_PLUS, 22, 32, precision)
            assert isinstance(rp, SpectralPair)
            assert rp.multiplicity_flag == "simple-pair"
            assert abs(float(rp.gap) / 3.5677e-49 - 1) < 1e-4
        rp = refined_pair(pot, BC.PER_PLUS, 22, 32, 128)
        assert rp.multiplicity_flag == "double"
        assert rp.gap <= mpmath.ldexp(484, -112)

    def test_near_double_pair_resolves_at_higher_precision(self):
        """At 640 and 1280 bits the n = 22 pair (gap 3.6e-49) is simple and
        its roots agree with the 800-bit ones to 2^-300."""
        pot, _ = two_term(1, 2, 1, 1)
        ref = refined_pair(pot, BC.PER_PLUS, 22, 32, 800)
        for precision in (640, 1280):
            rp = refined_pair(pot, BC.PER_PLUS, 22, 32, precision)
            assert rp.multiplicity_flag == "simple-pair"
            with mpmath.workprec(precision):
                assert abs(rp.lam_minus - ref.lam_minus) <= mpmath.mpf(2) ** -300
                assert abs(rp.lam_plus - ref.lam_plus) <= mpmath.mpf(2) ** -300

    def test_real_chain_gives_real_roots(self):
        """a=1, b=2 gives a real symmetric truncation: the imaginary parts below
        the Newton tolerance are zeroed, not carried from the seed."""
        pot, _ = two_term(1, 2, 1, 1)
        for n in (6, 8):
            rp = refined_pair(pot, BC.PER_PLUS, n, 32)
            assert rp.lam_minus.imag == 0 and rp.lam_plus.imag == 0
            assert rp.z_star.imag == 0
            assert rp.lam_minus.real < rp.lam_plus.real


_small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 4))


def dense_layout(plan):
    """The same layout with every elimination, every back row and a dense
    V_QP live: the kernel on it does every product the pruned one skips."""
    size = len(plan.steps)
    eliminations = [(j, q) for j, (_, row) in enumerate(plan.steps) for q, _, _ in row]

    def dense_column(column):
        values = {q: (re, im) for q, re, im in column}
        return [(q, *values.get(q, (0, 0))) for q in range(size)]

    return plan._replace(
        forward=[[(j, q, e) for e, (j, q) in enumerate(eliminations)] for _ in plan.forward],
        backward=[list(reversed(range(size))) for _ in plan.backward],
        columns=[dense_column(column) for column in plan.columns])


class TestSchurKernel:
    """The fixed-point banded kernel against the dense mpmath Schur
    complement of the oracle, 64 bits above the kernel's precision.  Complex
    coefficients make A non-symmetric, so the reflection that stands in for
    a second solve is checked too."""

    @given(
        bc=st.sampled_from(list(BC)),
        K=st.one_of(st.integers(5, 7), st.integers(12, 16)),
        m=st.integers(1, 3),
        coeffs=st.dictionaries(st.sampled_from([-6, -4, -2, 2, 4, 6]),
                               st.builds(GaussianRational, _small, _small), min_size=1, max_size=3),
        z=st.builds(GaussianRational, _small, _small).map(lambda g: g * Fraction(1, 4)),
        precision=st.sampled_from([128, 320]),
    )
    # no shrink phase: each candidate would call the dense mpmath oracle
    # (0.5 s at K = 16), and test_live_slots_keep_every_bit shrinks a
    # pruning fault cheaply
    @settings(max_examples=60, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
    def test_matches_the_dense_schur_complement(self, bc, K, m, coeffs, z, precision):
        """The kernel first equals itself on the dense layout, a cheap check
        that fails first on a pruning fault, then matches the oracle."""
        pot = FourierPotential.of(coeffs)
        assume(not pot.is_empty())
        n = {BC.PER_PLUS: 2 * m + 2, BC.PER_MINUS: 2 * m + 1, BC.DIRICHLET: m + 2}[bc]
        count = 1 if bc == BC.DIRICHLET else 2
        try:
            plan = _reduction(pot, bc, n, K, count, precision)
        except ValueError:  # no dominance on the disc
            assume(False)
        zp = to_mpc(z, precision)  # the same z for both
        with mpmath.workprec(precision):
            got = _schur(plan, zp)
            assert got == _schur(dense_layout(plan), zp)
        with mpmath.workprec(precision + 64):
            want = schur_complement(pot, bc, K, n, zp)
            entries = [(g, w) for ms in zip(got, want) for rows in zip(*ms) for g, w in zip(*rows)]
            assert len(entries) == 2 * count**2
            # the kernel works in fixed point, so entries below 1 are held
            # to an absolute 2^-precision
            for g, w in entries:
                assert abs(g - w) <= mpmath.mpf(2) ** -precision * max(1, abs(w))

    @given(
        bc=st.sampled_from(list(BC)),
        R=st.integers(1, 4),
        S=st.integers(1, 4),
        K=st.integers(5, 20),
        m=st.integers(1, 4),
        a=st.builds(GaussianRational, _small, _small),
        b=st.builds(GaussianRational, _small, _small),
        z=st.sampled_from([0, GaussianRational(Fraction(-1, 5), Fraction(3, 10)),
                           GaussianRational(Fraction(0), Fraction(1, 2))]),
        precision=st.sampled_from([64, 200, 320]),
    )
    @settings(max_examples=80, deadline=None)
    def test_live_slots_keep_every_bit(self, bc, R, S, K, m, a, b, z, precision):
        """The kernel on its pruned layout equals the kernel on the same
        layout with every slot live and V_QP dense: the products it skips
        are exact zeros."""
        assume(not (a.is_zero() or b.is_zero()))
        pot, _ = two_term(a, b, R, S)
        n = {BC.PER_PLUS: 2 * m, BC.PER_MINUS: 2 * m + 1, BC.DIRICHLET: m + 1}[bc]
        try:
            plan = _reduction(pot, bc, n, K, 1 if bc == BC.DIRICHLET else 2, precision)
        except ValueError:  # no dominance on the disc
            assume(False)
        with mpmath.workprec(precision):
            zp = to_mpc(z, precision)
            assert _schur(plan, zp) == _schur(dense_layout(plan), zp)


class TestPairCouplings:
    @pytest.mark.parametrize("bc,n", [(BC.PER_PLUS, 8), (BC.PER_MINUS, 9)])
    def test_match_the_walk_sums_as_the_shell_cap_grows(self, bc, n):
        """S12 and S21 sum every walk of the cut-off lattice, so the capped
        crossing sums approach them shell by shell; for bands at -2 and 6,
        n = 8, they are -7.7160490727e-6 and 2.40280891521e-12."""
        pot, params = two_term(1, 1, 1, 3)
        _, ((plus, minus), _) = pair_couplings(pot, bc, n, 32)
        with mpmath.workprec(320):
            errors = []
            for cap in (3, 8, 12):
                walk_plus = to_mpc(beta_plus(pot, params, n, shell_cap=cap).value, 320)
                walk_minus = to_mpc(beta_minus(pot, params, n, shell_cap=cap).value, 320)
                errors.append(max(abs(plus - walk_plus) / abs(walk_plus),
                                  abs(minus - walk_minus) / abs(walk_minus)))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-80
        if (bc, n) == (BC.PER_PLUS, 8):
            assert complex(plus) == pytest.approx(-7.7160490727e-6, rel=1e-10)
            assert complex(minus) == pytest.approx(2.40280891521e-12, rel=1e-10)

    def test_one_layout_serves_the_pair_and_both_couplings(self, monkeypatch):
        pot, _ = two_term(1, 2, 1, 1)
        want = refined_pair(pot, BC.PER_PLUS, 6, 32)
        layouts = []
        monkeypatch.setattr(spectra, "_reduction",
                            lambda *args: layouts.append(None) or _reduction(*args))
        pair, couplings = pair_couplings(pot, BC.PER_PLUS, 6, 32)
        assert len(layouts) == 1 and len(couplings) == 2
        assert pair == want and pair.z_star != 0
        assert len({complex(plus) for plus, _ in couplings}) == 2

    def test_couplings_at_zero_are_the_first_newton_evaluation(self, monkeypatch):
        """S(0) is the kernel call the pair's Newton loop starts with, handed
        on to the couplings: exactly the kernel at z = 0, and one kernel call
        more than `refined_pair` makes, for z*."""
        pot, _ = two_term(GaussianRational.parse("1/2+i"), 2, 1, 1)
        plan = _reduction(pot, BC.PER_MINUS, 7, 32, 2, 320)
        with mpmath.workprec(320):
            (_, s12), (s21, _) = _schur(plan, mpmath.mpc(0))[0]
        calls = []
        monkeypatch.setattr(spectra, "_schur", lambda *args: calls.append(None) or _schur(*args))
        refined_pair(pot, BC.PER_MINUS, 7, 32)
        pair_calls = len(calls)
        _, (at_zero, at_star) = pair_couplings(pot, BC.PER_MINUS, 7, 32)
        assert at_zero == (s12, s21) and at_star != at_zero
        assert len(calls) == 2 * pair_calls + 1

    def test_refuses_a_pair_that_is_not_simple(self):
        # at 128 bits the n = 22 gap 3.57e-49 lies below the pair's resolution
        pot, _ = two_term(1, 2, 1, 1)
        with pytest.raises(DegenerateRatioError, match="pair at n=22 is not simple"):
            pair_couplings(pot, BC.PER_PLUS, 22, 32, precision=128)

    @pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
    def test_entries_at_the_resolution_raise(self, monkeypatch, entry):
        """A coupling the kernel cannot resolve is refused, never turned
        into a ratio: 2^-(precision-16) itself is refused, twice it is not."""
        pot, _ = two_term(1, 2, 1, 1)
        kernel = spectra._schur
        scale = [1]

        def tiny(plan, z):  # at z = 0: the pair's first Newton step, whose S the couplings reuse
            S, T = kernel(plan, z)
            if z == 0:
                S[entry[0]][entry[1]] = mpmath.ldexp(scale[0], 16 - 128)
            return S, T

        monkeypatch.setattr(spectra, "_schur", tiny)
        with pytest.raises(DegenerateRatioError, match="at or below the resolution 2\\^-112"):
            pair_couplings(pot, BC.PER_PLUS, 6, 32, precision=128)
        scale[0] = 2
        _, ((plus, minus), _) = pair_couplings(pot, BC.PER_PLUS, 6, 32, precision=128)
        assert min(abs(plus), abs(minus)) == mpmath.ldexp(1, -111)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_equal_bands_give_equal_couplings(self, data):
        """For a = b and R = S, reflecting j -> -j maps the X walks from n to -n
        onto the Y walks with the same weights, so beta+ = beta- over all shells
        of the lattice, at z = 0 and at z*.  The capped crossing sums are not
        symmetric: their X and Y shell caps differ."""
        bc = data.draw(st.sampled_from([BC.PER_PLUS, BC.PER_MINUS]))
        parity = 0 if bc == BC.PER_PLUS else 1
        # per- discs sit at odd n, which no even R divides
        R = data.draw(st.sampled_from([1, 2, 3] if parity == 0 else [1, 3]))
        n = data.draw(st.sampled_from([n for n in range(6, 13) if n % R == 0 and n % 2 == parity]))
        part = st.fractions(min_value=-2, max_value=2, max_denominator=3)
        a = data.draw(st.builds(GaussianRational, part, part).filter(lambda g: not g.is_zero()))
        pot, _ = two_term(a, a, R, R)
        _, couplings = pair_couplings(pot, bc, n, 32)
        for plus, minus in couplings:
            assert abs(plus - minus) <= mpmath.ldexp(1, 16 - 320)


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
