"""Truncation assembly, eigensolve, localization, and pair refinement."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hillwalk.numerics import GaussianRational, complex_to_gaussian, mpc_abs, to_mpc
from hillwalk.potential import FourierPotential, two_term
from hillwalk.beta import beta_minus, beta_plus
from hillwalk.spectra import (
    BoundaryCondition,
    DirichletUniquenessError,
    LocalizationError,
    MAX_K,
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
from oracles import dense_assemble

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
        "bc,n_max,N_cap,match",
        [
            (BC.PER_PLUS, 0, 10, "n_max must be >= 1, got 0"),
            (BC.PER_MINUS, -3, 10, "n_max must be >= 1, got -3"),
            (BC.PER_PLUS, 8, -1, "N_cap must be >= 0, got -1"),
            (BC.DIRICHLET, 8, 10, "per\\+ / per- only"),
        ],
    )
    def test_working_N_rejects_before_assembly(self, monkeypatch, bc, n_max, N_cap, match):
        def no_assembly(*args):
            raise AssertionError("assembled before the arguments were checked")

        monkeypatch.setattr("hillwalk.spectra.assemble", no_assembly)
        pot, _ = two_term(1, 1, 1, 1)
        with pytest.raises(ValueError, match=match):
            find_working_N(pot, bc, 16, n_max, N_cap=N_cap)

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
        pot, params = two_term(1, 1, 1, 1)
        N, res = find_working_N(pot, BC.PER_PLUS, 64, 8)
        hw = res.pair(6)
        rp = refined_pair(pot, params, BC.PER_PLUS, 6, 64)
        assert abs(complex(rp.lam_minus) - hw.lam_minus) < 1e-9
        assert abs(complex(rp.lam_plus) - hw.lam_plus) < 1e-9
        assert abs(float(rp.gap) - hw.gap) < 1e-10

    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_gap_tracks_walk_prediction(self, n):
        """Refined gaps agree with 2 sqrt(beta+ beta-) at z_star within 1%,
        far below hardware eigensolver resolution for n >= 10."""
        pot, params = two_term(1, 2, 1, 1)
        rp = refined_pair(pot, params, BC.PER_PLUS, n, 64)
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
        pot, params = two_term(1, 2, 1, 1)
        gaps = {}
        for n in (4, 6, 8, 10, 12):
            gaps[n] = float(refined_pair(pot, params, BC.PER_PLUS, n, 64).gap)
        for n in (4, 6, 8):
            assert gaps[n] > 1e-12
        assert 0 < gaps[10] < 1e-12
        assert 0 < gaps[12] < 1e-12

    def test_structural_double_refines_to_zero_gap(self):
        pot, params = two_term(1, 1, 2, 2)
        rp = refined_pair(pot, params, BC.PER_MINUS, 5, 64)
        assert float(rp.gap) < 1e-80

    def test_refined_dirichlet_matches_hardware(self):
        pot, params = two_term(1, 2, 1, 1)
        hw = dirichlet_close(pot, 64, 6)
        mu = refined_dirichlet(pot, params, 6, 64)
        assert abs(complex(mu) - hw) < 1e-9

    def test_refinement_requires_equal_bands(self):
        _, params = two_term(1, 1, 1, 3)
        pot, _ = two_term(1, 1, 1, 3)
        with pytest.raises(ValueError):
            refined_pair(pot, params, BC.PER_PLUS, 6, 64)
        _, params22 = two_term(1, 1, 2, 2)
        pot22, _ = two_term(1, 1, 2, 2)
        with pytest.raises(ValueError):
            refined_dirichlet(pot22, params22, 6, 64)

    def test_parity_validation(self):
        pot, params = two_term(1, 1, 1, 1)
        with pytest.raises(ValueError):
            refined_pair(pot, params, BC.PER_PLUS, 5, 64)
        with pytest.raises(ValueError):
            refined_pair(pot, params, BC.PER_MINUS, 6, 64)


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
