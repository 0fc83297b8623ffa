"""Walk enumeration, weights, shell structure; DP vs enumeration oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hillwalk.beta import alpha_n, beta_minus, beta_plus
from hillwalk.criteria import STABILITY_SAMPLES
from hillwalk.numerics import GaussianRational
from hillwalk.potential import FourierPotential, two_term
from hillwalk.walks import (
    Walk,
    WalkKind,
    WalkSingularityError,
    _dyadic,
    _reach_mask,
    _reduced,
    _shell_walk_sums,
    _shells_total,
    _sqrt_upper,
    _sums_and_disc_bounds,
    _walk_sums,
    enumerate_closed,
    shell_step_counts,
    shell_sum,
    shell_sums,
    sum_and_disc_bound,
    vertices,
    weight,
)
from oracles import enumerate_shell, is_admissible, reach_mask, shell_size_bound


def enum_sum(pot, params, n, kind, shell, z):
    """Independent oracle: explicit enumeration, weights summed one by one."""
    total = GaussianRational()
    for w in enumerate_shell(params, n, kind, shell):
        total = total + weight(w, pot, z)
    return total


def oracle_outcome(walks, pot, z):
    """Sum of weights over explicit walks, or the (t, vertex) of the first
    singular factor in step order when some walk has one."""
    total = GaussianRational()
    singular = []
    for w in walks:
        try:
            total = total + weight(w, pot, z)
        except WalkSingularityError as err:
            singular.append((err.t, err.vertex))
    return min(singular) if singular else total


def engine_outcome(compute):
    try:
        return compute().value
    except WalkSingularityError as err:
        return (err.t, err.vertex)


class TestVertices:
    def test_x_walk(self):
        w = Walk((-2, 6, 6), WalkKind.X, 5)
        assert vertices(w) == (-5, -7, -1, 5)

    def test_y_walk(self):
        w = Walk((-2, -2, -2), WalkKind.Y, 3)
        assert vertices(w) == (3, 1, -1, -3)

    def test_w_walk(self):
        w = Walk((-2, 2), WalkKind.W, 4)
        assert vertices(w) == (4, 2, 4)

    def test_step_sum_validation(self):
        with pytest.raises(ValueError):
            Walk((-2, 6), WalkKind.X, 5)
        with pytest.raises(ValueError):
            Walk((2, 3), WalkKind.W, 4)
        with pytest.raises(ValueError):
            Walk((), WalkKind.W, 4)


class TestShellStructure:
    def test_x_shell_counts_s3(self):
        _, params = two_term(1, 1, 1, 3)
        # n = s m - 1 with m = 2: shell kappa has (1 + 3 kappa, 2 + kappa)
        for kappa in range(4):
            counts = shell_step_counts(params, 5, WalkKind.X, kappa)
            assert (counts.neg, counts.pos) == (1 + 3 * kappa, 2 + kappa)

    def test_x_shell_counts_multiple(self):
        _, params = two_term(1, 1, 1, 3)
        # n = s m with m = 2: shell p has (3p, 2 + p)
        for p in range(4):
            counts = shell_step_counts(params, 6, WalkKind.X, p)
            assert (counts.neg, counts.pos) == (3 * p, 2 + p)

    def test_y_shell_counts(self):
        _, params = two_term(1, 1, 1, 3)
        # r = 1: shell q has (n + 3q, q)
        for q in range(3):
            counts = shell_step_counts(params, 3, WalkKind.Y, q)
            assert (counts.neg, counts.pos) == (3 + 3 * q, q)

    def test_infeasible_when_gcd_fails(self):
        _, params = two_term(1, 1, 5, 5)
        for n in (1, 2, 3, 4, 6, 7, 8, 9, 11):
            assert shell_step_counts(params, n, WalkKind.X, 0) is None
            assert shell_step_counts(params, n, WalkKind.Y, 1) is None
            assert enumerate_shell(params, n, WalkKind.X, 0) == []

    def test_w_shells(self):
        _, params = two_term(1, 1, 2, 3)
        assert shell_step_counts(params, 7, WalkKind.W, 0) is None
        counts = shell_step_counts(params, 7, WalkKind.W, 1)
        assert (counts.neg, counts.pos) == (3, 2)

    def test_size_bound(self):
        _, params = two_term(1, 1, 1, 3)
        assert shell_size_bound(params, 5, WalkKind.X, 0) == 3  # C(3,1)
        assert shell_size_bound(params, 6, WalkKind.X, 0) == 1
        assert shell_size_bound(params, 7, WalkKind.X, 0) == math.comb(5, 2)


class TestEnumeration:
    def test_boundary_walks_n5(self):
        pot, params = two_term(1, 1, 1, 3)
        walks = enumerate_shell(params, 5, WalkKind.X, 0)
        assert [w.steps for w in walks] == [(-2, 6, 6), (6, -2, 6), (6, 6, -2)]
        assert [weight(w, pot, 0) for w in walks] == [
            GaussianRational(Fraction(-1, 576)),
            GaussianRational(Fraction(1, 576)),
            GaussianRational(Fraction(-1, 576)),
        ]

    def test_single_walk_shells(self):
        _, params = two_term(1, 1, 1, 3)
        assert [w.steps for w in enumerate_shell(params, 6, WalkKind.X, 0)] == [(6, 6)]
        assert [w.steps for w in enumerate_shell(params, 3, WalkKind.Y, 0)] == [(-2, -2, -2)]

    def test_single_step_walk(self):
        _, params = two_term(1, 1, 1, 1)
        walks = enumerate_shell(params, 1, WalkKind.X, 0)
        assert [w.steps for w in walks] == [(2,)]
        assert walks[0].nu == 0

    def test_admissibility_filter(self):
        pot, params = two_term(1, 1, 1, 1)
        # n=2: shell 1 has counts (1, 3); interleavings landing on +-2 early die
        walks = enumerate_shell(params, 2, WalkKind.X, 1)
        for w in walks:
            assert is_admissible(w)
        assert len(walks) < math.comb(4, 1)

    def test_closed_walks_two_term(self):
        pot, _ = two_term(1, 1, 1, 1)
        walks = enumerate_closed(pot, 4, 2)
        assert [w.steps for w in walks] == [(-2, 2), (2, -2)]
        values = [weight(w, pot, 0) for w in walks]
        assert values == [GaussianRational(Fraction(1, 12)), GaussianRational(Fraction(-1, 20))]

    def test_closed_walks_respect_cap(self):
        pot, _ = two_term(1, 1, 1, 3)
        assert enumerate_closed(pot, 5, 3) == []
        walks = enumerate_closed(pot, 5, 4)
        assert walks and all(len(w.steps) == 4 for w in walks)


class TestWeight:
    def test_singularity_reported_with_position(self):
        pot, params = two_term(1, 1, 1, 3)
        w = Walk((-2, 6, 6), WalkKind.X, 5)
        # z = -(n^2 - j(1)^2) = -(25-49) = 24 makes the t=1 factor vanish
        with pytest.raises(WalkSingularityError) as err:
            weight(w, pot, 24)
        assert err.value.t == 1 and err.value.vertex == -7 and err.value.n == 5

    def test_off_support_step_gives_zero(self):
        pot, _ = two_term(1, 1, 1, 3)
        w = Walk((2, 2), WalkKind.X, 2)
        assert weight(w, pot, 0).is_zero()


class TestShellSumDP:
    @pytest.mark.parametrize("R,S", [(1, 1), (1, 3), (2, 3), (2, 2), (5, 5)])
    def test_dp_matches_enumeration(self, R, S):
        pot, params = two_term(Fraction(2, 3), GaussianRational(Fraction(1, 2), Fraction(1, 5)), R, S)
        zs = [
            GaussianRational(),
            GaussianRational(Fraction(1)),
            GaussianRational(Fraction(-1)),
            GaussianRational(0, Fraction(1)),
            GaussianRational(Fraction(1, 7), Fraction(-2, 3)),
        ]
        for n in range(1, 13):
            for kind in (WalkKind.X, WalkKind.Y):
                for shell in range(3):
                    bound = shell_size_bound(params, n, kind, shell)
                    if bound > 3000:
                        continue
                    for z in zs:
                        assert shell_sum(params, n, kind, shell, z) == enum_sum(
                            pot, params, n, kind, shell, z
                        )

    def test_dp_singularity_matches_enumeration(self):
        pot, params = two_term(1, 1, 1, 3)
        with pytest.raises(WalkSingularityError):
            shell_sum(params, 5, WalkKind.X, 0, 24)

    def test_w_kind_rejected(self):
        _, params = two_term(1, 1, 1, 1)
        with pytest.raises(ValueError):
            shell_sum(params, 4, WalkKind.W, 1, 0)


@st.composite
def shell_cases(draw):
    R = draw(st.integers(min_value=1, max_value=4))
    S = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=24))
    kind = draw(st.sampled_from([WalkKind.X, WalkKind.Y]))
    shell = draw(st.integers(min_value=0, max_value=2))
    return R, S, n, kind, shell


class TestWalkInvariants:
    @given(case=shell_cases())
    @settings(max_examples=120, deadline=None)
    def test_enumerated_walks_are_valid(self, case):
        R, S, n, kind, shell = case
        _, params = two_term(1, 1, R, S)
        if shell_size_bound(params, n, kind, shell) > 2000:
            return
        walks = enumerate_shell(params, n, kind, shell)
        counts = shell_step_counts(params, n, kind, shell)
        assert len(walks) <= shell_size_bound(params, n, kind, shell)
        want_sum = {WalkKind.X: 2 * n, WalkKind.Y: -2 * n}[kind]
        for w in walks:
            assert sum(w.steps) == want_sum
            assert is_admissible(w)
            assert w.steps.count(-2 * R) == counts.neg
            assert w.steps.count(2 * S) == counts.pos or R == S
            verts = vertices(w)
            # vertices re-derive from partial sums of the steps
            assert all(verts[i + 1] - verts[i] == w.steps[i] for i in range(len(w.steps)))

    @given(
        n=st.integers(min_value=1, max_value=16),
        R=st.integers(min_value=1, max_value=3),
        shell=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_band_reversal_bijection(self, n, R, shell):
        """Reversing and negating steps maps X walks onto Y walks; with the
        coefficients swapped the weights agree, so a=b gives beta+ = beta-."""
        pot_ab, params_ab = two_term(Fraction(2, 5), Fraction(3, 7), R, R)
        pot_ba, params_ba = two_term(Fraction(3, 7), Fraction(2, 5), R, R)
        z = GaussianRational(Fraction(1, 3), Fraction(1, 9))
        xs = enumerate_shell(params_ab, n, WalkKind.X, shell)
        ys = enumerate_shell(params_ba, n, WalkKind.Y, shell)
        mapped = sorted(tuple(-s for s in reversed(w.steps)) for w in xs)
        assert mapped == sorted(w.steps for w in ys)
        sum_x = GaussianRational()
        for w in xs:
            sum_x = sum_x + weight(w, pot_ab, z)
        sum_y = GaussianRational()
        for w in ys:
            sum_y = sum_y + weight(w, pot_ba, z)
        assert sum_x == sum_y


gaussian_rationals = st.builds(
    lambda p, q, u, v: GaussianRational(Fraction(p, q), Fraction(u, v)),
    st.integers(-4, 4), st.integers(1, 4), st.integers(-4, 4), st.integers(1, 4),
)
# real integers hit vanishing denominators; non-real points never do
sample_z = st.one_of(st.integers(-40, 40).map(GaussianRational.of), gaussian_rationals)


class TestEngineOracle:
    """The transfer-DP engine against explicit enumeration and weights."""

    @pytest.mark.parametrize("terms", [2, 3, 4])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_alpha_matches_closed_enumeration(self, terms, data):
        freqs = data.draw(st.lists(st.sampled_from([-6, -4, -2, 2, 4, 6]),
                                   min_size=terms, max_size=terms, unique=True))
        coeffs = data.draw(st.lists(gaussian_rationals.filter(lambda g: not g.is_zero()),
                                    min_size=terms, max_size=terms))
        pot = FourierPotential.of(dict(zip(freqs, coeffs)))
        n = data.draw(st.integers(1, 8))
        cap = data.draw(st.integers(1, 6))
        z = data.draw(sample_z)
        want = oracle_outcome(enumerate_closed(pot, n, cap), pot, z)
        assert engine_outcome(lambda: alpha_n(pot, n, z=z, step_cap=cap)) == want

    @given(
        R=st.integers(1, 3), S=st.integers(1, 3), n=st.integers(1, 14),
        cap=st.integers(0, 2), a=gaussian_rationals, b=gaussian_rationals, z=sample_z,
    )
    @settings(max_examples=80, deadline=None)
    def test_beta_matches_shell_enumeration(self, R, S, n, cap, a, b, z):
        if a.is_zero() or b.is_zero():
            return
        pot, params = two_term(a, b, R, S)
        for kind, beta in ((WalkKind.X, beta_plus), (WalkKind.Y, beta_minus)):
            if any(shell_size_bound(params, n, kind, k) > 2000 for k in range(cap + 1)):
                continue
            walks = [w for k in range(cap + 1) for w in enumerate_shell(params, n, kind, k)]
            got = engine_outcome(lambda: beta(pot, params, n, z=z, shell_cap=cap))
            assert got == oracle_outcome(walks, pot, z)

    def test_alpha_singularity_beyond_cap(self):
        # z = -16 makes the factor at vertex 0 vanish; only closed walks of
        # four or more steps reach 0 from n = 4
        pot, _ = two_term(1, 1, 1, 1)
        short = alpha_n(pot, 4, z=-16, step_cap=2)
        assert short.value == oracle_outcome(enumerate_closed(pot, 4, 2), pot, -16)
        assert oracle_outcome(enumerate_closed(pot, 4, 4), pot, -16) == (2, 0)
        with pytest.raises(WalkSingularityError) as err:
            alpha_n(pot, 4, z=-16, step_cap=4)
        assert (err.value.n, err.value.t, err.value.vertex) == (4, 2, 0)

    @pytest.mark.parametrize("R,S,n,z,cap,want", [
        # z = -16 zeroes the factor at -3, which only shell 1 passes at n = 5
        (1, 3, 5, -16, 0, None),
        (1, 3, 5, -16, 1, (3, -3)),
        # -3 and 3 both vanish first at t=2; the smaller vertex is reported
        (1, 2, 5, -16, 0, (2, -3)),
        # -3 vanishes at t=1 but reaches n only through -n, so no walk passes it
        (1, 1, 1, 8, 1, None),
    ])
    def test_beta_singularity_matches_oracle(self, R, S, n, z, cap, want):
        pot, params = two_term(1, 1, R, S)
        walks = [w for k in range(cap + 1) for w in enumerate_shell(params, n, WalkKind.X, k)]
        expected = oracle_outcome(walks, pot, z)
        assert expected == want if want else isinstance(expected, GaussianRational)
        assert engine_outcome(lambda: beta_plus(pot, params, n, z=z, shell_cap=cap)) == expected


def sums_outcome(compute):
    """The sums, or the (t, vertex) of the WalkSingularityError raised."""
    try:
        return compute()
    except WalkSingularityError as err:
        return (err.t, err.vertex)


class TestOneZ:
    """The engine sums at one z per call."""

    @given(
        R=st.integers(1, 3), S=st.integers(1, 3), n=st.integers(1, 14),
        kind=st.sampled_from([WalkKind.X, WalkKind.Y]), cap=st.integers(0, 2),
        a=gaussian_rationals, b=gaussian_rationals, z=sample_z,
    )
    @settings(max_examples=80, deadline=None)
    def test_conjugation_conjugates_every_shell_sum(self, R, S, n, kind, cap, a, b, z):
        """h(x, z) is a polynomial in a, b and 1/(D + z) with rational
        coefficients, so conjugating a, b and z conjugates each shell sum;
        a singular z is real and stays singular at the same position."""
        if a.is_zero() or b.is_zero():
            return
        shells = range(cap + 1)
        _, params = two_term(a, b, R, S)
        _, mirror = two_term(a.conjugate(), b.conjugate(), R, S)
        plain = sums_outcome(lambda: shell_sums(params, n, kind, shells, z))
        mirrored = sums_outcome(lambda: shell_sums(mirror, n, kind, shells, z.conjugate()))
        if isinstance(plain, tuple):
            assert mirrored == plain
        else:
            assert mirrored == [value.conjugate() for value in plain]

    def test_singular_z_raises_at_its_first_position(self):
        _, params = two_term(1, 1, 1, 3)
        with pytest.raises(WalkSingularityError) as err:
            shell_sums(params, 5, WalkKind.X, range(2), 24)
        assert (err.value.n, err.value.t, err.value.vertex) == (5, 1, -7)


def mask_queries(mask, want, offsets, n, start, end, top):
    """Every (t, u) query the engine makes of a mask, with its answer: the
    layers grow from `start` and keep a vertex on a yes."""
    layer, answers = {start}, []
    for t in range(1, top + 1):
        nxt = set()
        for v in layer:
            for u in (v + x for x in offsets):
                if u != end and abs(u) != n:
                    kept = bool((mask.get(u, 0) << t) & want)
                    answers.append((t, u, kept))
                    if kept:
                        nxt.add(u)
        layer = nxt
    return answers


class TestClippedMask:
    """The reachability mask clipped to the forward cone of the start."""

    @given(
        offsets=st.lists(st.sampled_from([-8, -6, -4, -2, 2, 4, 6, 8]),
                         min_size=1, max_size=4, unique=True),
        n=st.integers(1, 12), start=st.integers(-20, 20), end=st.integers(-20, 20),
        lengths=st.lists(st.integers(0, 10), min_size=1, max_size=4, unique=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_answers_every_query_as_the_unclipped_mask(self, offsets, n, start, end, lengths):
        top = max(lengths)
        clipped = _reach_mask(offsets, n, start, end, lengths)
        unclipped = reach_mask(offsets, n, end, lengths)
        assert clipped[1] == unclipped[1]
        assert (mask_queries(*clipped, offsets, n, start, end, top)
                == mask_queries(*unclipped, offsets, n, start, end, top))

    @given(
        R=st.integers(1, 4), S=st.integers(1, 4), n=st.integers(1, 14), cap=st.integers(0, 3),
        a=gaussian_rationals, b=gaussian_rationals, z=sample_z,
    )
    @settings(max_examples=80, deadline=None)
    def test_reflection_maps_x_sums_onto_y_sums(self, R, S, n, cap, a, b, z):
        """j -> -j maps the X walks of (a, b, R, S) onto the Y walks of
        (b, a, S, R) step by step, coefficients and factors 1/(n^2 - j^2 + z)
        included, so the shell sums are equal; a singular z raises at the
        same t, at the mirrored vertex or at the same one when both of
        -+j are kept and singular."""
        if a.is_zero() or b.is_zero():
            return
        shells = range(cap + 1)
        _, params = two_term(a, b, R, S)
        _, mirror = two_term(b, a, S, R)
        plain = sums_outcome(lambda: shell_sums(params, n, WalkKind.X, shells, z))
        mirrored = sums_outcome(lambda: shell_sums(mirror, n, WalkKind.Y, shells, z))
        if isinstance(plain, tuple):
            assert mirrored in (plain, (plain[0], -plain[1]))
        else:
            assert mirrored == plain


class TestFractionFreeLayers:
    """Cases aimed at the fraction-free arithmetic of the engine: mixed
    coefficient denominators, a huge dyadic z, and integer coefficients
    whose monomials multiply each length's unit-weight sum.  Each compares
    exact values and singular positions with the oracle."""

    # coefficient denominators 3, 5 and 7 (and 4) meet in one common denominator
    MIXED = FourierPotential.of({
        -2: GaussianRational(Fraction(1, 3)),
        4: GaussianRational(Fraction(2, 5), Fraction(1, 7)),
        6: GaussianRational(Fraction(-3, 4), Fraction(-1, 3)),
    })

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_mixed_denominators_closed_sums(self, n):
        zs = [GaussianRational(), GaussianRational(Fraction(2, 9), Fraction(-5, 7))]
        # integer z at -(n^2 - v^2) zeroes the factor at vertex v
        zs += [GaussianRational.of(v * v - n * n) for v in range(-n - 6, n + 7, 2) if abs(v) != n]
        singular = 0
        for z in zs:
            want = oracle_outcome(enumerate_closed(self.MIXED, n, 5), self.MIXED, z)
            singular += isinstance(want, tuple)
            assert engine_outcome(lambda: alpha_n(self.MIXED, n, z=z, step_cap=5)) == want
        assert singular

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_dyadic_z_with_1074_bit_denominator(self, n):
        pot, params = two_term(GaussianRational(Fraction(3, 5), Fraction(-4, 5)),
                               GaussianRational(Fraction(-3, 5), Fraction(-4, 5)), 1, 2)
        z = GaussianRational(Fraction(1, 3), Fraction(1, 2**1074))
        for kind, beta in ((WalkKind.X, beta_plus), (WalkKind.Y, beta_minus)):
            walks = [w for k in range(2) for w in enumerate_shell(params, n, kind, k)]
            got = beta(pot, params, n, z=z, shell_cap=1).value
            assert got == oracle_outcome(walks, pot, z)
            assert got.re.denominator.bit_length() > 1074
        assert alpha_n(pot, n, z=z, step_cap=6).value == oracle_outcome(
            enumerate_closed(pot, n, 6), pot, z)

    @pytest.mark.parametrize("z,singular", [
        (0, None), (Fraction(4, 3), None),
        # z = -16 zeroes the factor at -3 and 3, z = 24 at 7 (and at -7, which
        # no X walk passes: from -7 the only way up is through -5)
        (-16, ((1, -3), (1, 3))), (24, (None, (1, 7))),
    ])
    def test_integer_coefficient_sums_match_the_oracle(self, z, singular):
        """a = 6, b = 1/2 at n = 5: the X shells and the closed walks each
        take a monomial 6^k / 2^(t-k) once per length; the sums, and the
        first singular position where z zeroes a factor, are the oracle's."""
        pot, params = two_term(6, GaussianRational(6, 12), 1, 1)
        n = 5
        walks_x = [w for k in range(3) for w in enumerate_shell(params, n, WalkKind.X, k)]
        want = oracle_outcome(walks_x, pot, z)
        assert engine_outcome(lambda: beta_plus(pot, params, n, z=z, shell_cap=2)) == want
        closed = oracle_outcome(enumerate_closed(pot, n, 6), pot, z)
        assert engine_outcome(lambda: alpha_n(pot, n, z=z, step_cap=6)) == closed
        for outcome, position in zip((want, closed), singular or (None, None)):
            assert outcome == position if position else isinstance(outcome, GaussianRational)


@st.composite
def engine_points(draw, n, dyadic=True):
    """z = 0, a rational, a Gaussian rational, a z that zeroes the factor
    at some vertex v = n mod 2, or, when `dyadic`, the 1074-bit dyadic z."""
    points = [
        st.just(GaussianRational()),
        st.fractions(-9, 9, max_denominator=9).map(GaussianRational),
        gaussian_rationals,
        st.integers(-n - 4, 4).map(lambda j: n + 2 * j).filter(lambda v: abs(v) != n)
        .map(lambda v: GaussianRational.of(v * v - n * n)),
    ]
    if dyadic:
        points.append(st.just(GaussianRational(Fraction(1, 3), Fraction(1, 2**1074))))
    return draw(st.one_of(points))


class TestEngineContract:
    """Every engine path against walk-by-walk sums: unit-weight two-offset
    lattices with their monomials, and coefficients inside the loop for
    three offsets."""

    @given(
        R=st.integers(1, 4), S=st.integers(1, 4), n=st.integers(1, 14),
        cap=st.integers(0, 2), step_cap=st.integers(1, 6),
        a=gaussian_rationals, b=gaussian_rationals, mixed=st.booleans(), data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_sums_match_the_oracle(self, R, S, n, cap, step_cap, a, b, mixed, data):
        """Shell sums per shell and kind, and closed sums of a two-term
        potential or of the three-term MIXED one, equal the oracle's sums,
        or raise at its first singular (t, vertex)."""
        assume(not a.is_zero() and not b.is_zero())
        z = data.draw(engine_points(n))
        pot, params = two_term(a, b, R, S)
        for kind in (WalkKind.X, WalkKind.Y):
            if sum(shell_size_bound(params, n, kind, k) for k in range(cap + 1)) > 400:
                continue
            shells = [enumerate_shell(params, n, kind, k) for k in range(cap + 1)]
            want = oracle_outcome([w for walks in shells for w in walks], pot, z)
            if isinstance(want, GaussianRational):
                want = [oracle_outcome(walks, pot, z) for walks in shells]
            assert sums_outcome(lambda: shell_sums(params, n, kind, range(cap + 1), z)) == want
        closed = TestFractionFreeLayers.MIXED if mixed else pot
        want = oracle_outcome(enumerate_closed(closed, n, step_cap), closed, z)
        assert engine_outcome(lambda: alpha_n(closed, n, z=z, step_cap=step_cap)) == want


def exact_products(params, n, kind, shell):
    """(P1, P0): the sums of prod 1/(|D_t| - 1) and of prod 1/|D_t| over the
    walks of one shell, walk by walk in Fractions."""
    p1 = p0 = Fraction(0)
    for w in enumerate_shell(params, n, kind, shell):
        q1 = q0 = Fraction(1)
        for u in vertices(w)[1:-1]:
            d = abs(n * n - u * u)
            q1 /= d - 1
            q0 /= d
        p1 += q1
        p0 += q0
    return p1, p0


def bound_products(params, n, kind, shell):
    """(P1, P0) of one shell, as the walk engine carries them at z = 0."""
    counts = shell_step_counts(params, n, kind, shell)
    start = -n if kind is WalkKind.X else n
    steps = ((-2 * params.R, params.a), (2 * params.S, params.b))
    *_, m1, m0, e = _walk_sums(steps, n, start, -start, [counts.total], 0)[counts.total]
    return _dyadic(m1, e), _dyadic(m0, e)


gaussian_up_to_8 = st.builds(
    lambda p, q, u, v: GaussianRational(Fraction(p, q), Fraction(u, v)),
    st.integers(-8, 8), st.integers(1, 8), st.integers(-8, 8), st.integers(1, 8),
).filter(lambda g: not g.is_zero())


class TestDiscBound:
    """sum_and_disc_bound bounds |B(z) - B(0)| over |z| <= 1; the engine's
    fixed-point products round P1 up and P0 down."""

    @given(
        R=st.integers(1, 4), S=st.integers(1, 4), n=st.integers(1, 14),
        kind=st.sampled_from([WalkKind.X, WalkKind.Y]), cap=st.integers(0, 3),
        a=gaussian_up_to_8, b=gaussian_up_to_8,
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_the_deviation_at_the_samples(self, R, S, n, kind, cap, a, b):
        """At z = 1, -1, i, -i, |B(z) - B(0)|^2 <= bound^2 exactly, and when
        the bound certifies (4 bound^2 <= |B(0)|^2) the factor-2 test passes."""
        _, params = two_term(a, b, R, S)
        shells = range(cap + 1)
        centre, bound = sum_and_disc_bound(params, n, kind, shells)
        base, *moved = (sum(shell_sums(params, n, kind, shells, z), GaussianRational())
                        for z in (0,) + STABILITY_SAMPLES)
        assert centre == base
        assert bound >= 0
        for value in moved:
            assert (value - base).abs2() <= bound ** 2
            if 4 * bound ** 2 <= base.abs2():
                assert 4 * value.abs2() >= base.abs2() and value.abs2() <= 4 * base.abs2()

    def test_is_attained_at_minus_one_inside_the_band(self):
        """Every interior vertex of the one X walk of shell 0 at R = S = 1
        has D > 0, so at z = -1 each factor is exactly D/(D - 1): the bound
        meets the deviation there, up to its rounding."""
        _, params = two_term(1, 1, 1, 1)
        for n in range(2, 9):
            base, moved = (shell_sums(params, n, WalkKind.X, (0,), z)[0] for z in (0, -1))
            deviation = abs((moved - base).re)
            _, bound = sum_and_disc_bound(params, n, WalkKind.X, (0,))
            assert deviation <= bound <= deviation * (1 + Fraction(1, 2**50))

    @pytest.mark.parametrize("R,S", [(1, 1), (1, 3), (2, 3), (3, 2)])
    def test_fixed_point_brackets_the_exact_products(self, R, S):
        _, params = two_term(1, 1, R, S)
        for n in range(1, 13):
            for kind in (WalkKind.X, WalkKind.Y):
                for shell in range(3):
                    if shell_step_counts(params, n, kind, shell) is None:
                        continue
                    p1, p0 = exact_products(params, n, kind, shell)
                    got1, got0 = bound_products(params, n, kind, shell)
                    assert p1 <= got1 <= p1 * (1 + Fraction(1, 2**50))
                    assert p0 * (1 - Fraction(1, 2**50)) <= got0 <= p0

    def test_products_below_the_double_range_stay_positive(self):
        """At n = 92 the one walk of shell 0 has prod 1/|D| < 2^-1074, the
        smallest positive double; the pass still brackets it."""
        _, params = two_term(1, 1, 1, 1)
        p1, p0 = exact_products(params, 92, WalkKind.X, 0)
        assert p0 < Fraction(1, 2**1074)
        got1, got0 = bound_products(params, 92, WalkKind.X, 0)
        assert p1 <= got1 <= p1 * (1 + Fraction(1, 2**50))
        assert 0 < p0 * (1 - Fraction(1, 2**50)) <= got0 <= p0

    @given(num=st.integers(0, 2**300), den=st.integers(1, 2**300))
    @settings(max_examples=200, deadline=None)
    def test_sqrt_upper_rounds_up_tightly(self, num, den):
        q = Fraction(num, den)
        root = _dyadic(*_sqrt_upper(q.numerator, q.denominator))
        assert root ** 2 >= q
        assert (root * (1 - Fraction(1, 2**60))) ** 2 <= q

    def test_w_kind_rejected(self):
        _, params = two_term(1, 1, 1, 1)
        with pytest.raises(ValueError):
            sum_and_disc_bound(params, 4, WalkKind.W, (1,))


class TestMirrorSharing:
    """For R = S the Y walks mirror the X walks, and `_sums_and_disc_bounds`
    reads both kinds from one engine call."""

    @given(a=gaussian_up_to_8, b=gaussian_up_to_8, R=st.integers(1, 4), n=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_shared_weights_equal_the_unshared_sums(self, a, b, R, n):
        """beta^+- are exactly one `sum_and_disc_bound` per kind, over X
        shells 0..3 and Y shells 0..2, and so is eps^+.  eps^- takes the
        shared pass's P1 - P0, whose fixed-point shifts follow layers that
        also hold the shell-3 vertices, so its last bits may differ from
        the Y pass's: both bound the sum over the Y shells of the rounded-up
        A times the exact P1 - P0, walk by walk, from above and within
        2^-40 of it."""
        _, params = two_term(a, b, R, R)
        (plus, eps_plus), (minus, eps_minus) = _sums_and_disc_bounds(params, n, (3, 2))
        assert (_reduced(*plus), eps_plus) == sum_and_disc_bound(params, n, WalkKind.X, range(4))
        alone, eps_alone = sum_and_disc_bound(params, n, WalkKind.Y, range(3))
        assert _reduced(*minus) == alone
        exact = Fraction(0)
        for shell in range(3):
            counts = shell_step_counts(params, n, WalkKind.Y, shell)
            if counts is not None:
                p1, p0 = exact_products(params, n, WalkKind.Y, shell)
                q = params.a.abs2() ** counts.neg * params.b.abs2() ** counts.pos
                root = _dyadic(*_sqrt_upper(q.numerator, q.denominator))
                exact += root * (p1 - p0)
        for eps in (eps_minus, eps_alone):
            assert exact <= eps <= exact * (1 + Fraction(1, 2**40))


def nested(dens):
    """Whether each denominator divides the next, in length order."""
    return all(den > 0 for den in dens) and all(b % a == 0 for a, b in zip(dens, dens[1:]))


class TestUnreducedSums:
    """`_walk_sums` returns each length's sum as a Gaussian-integer numerator
    over an integer denominator, unreduced.  The denominators of one call
    nest, so a sum over shells or lengths is formed over the largest and
    reduced once; it equals the sum of the per-shell values, the oracle's
    walk-by-walk sum, and raises at the same singular (t, vertex)."""

    @given(
        R=st.integers(1, 4), S=st.integers(1, 4), n=st.integers(1, 20),
        cap=st.integers(0, 3), step_cap=st.integers(1, 6),
        a=gaussian_up_to_8, b=gaussian_up_to_8, c=gaussian_up_to_8,
        third=st.sampled_from([None, -6, 4, 8]), data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_one_reduction_of_nested_denominators(self, R, S, n, cap, step_cap, a, b, c,
                                                  third, data):
        # the 1074-bit z only within TestEngineContract's n <= 14 and cap <= 2:
        # at that z an engine call's cost grows with its step counts, and the
        # shells 0..3 of (R, S) = (3, 4) take about 3 times as long as 0..2
        z = data.draw(engine_points(n, dyadic=n <= 14 and cap <= 2))
        pot, params = two_term(a, b, R, S)
        shells = range(cap + 1)
        for kind, beta in ((WalkKind.X, beta_plus), (WalkKind.Y, beta_minus)):
            per_shell = sums_outcome(lambda: shell_sums(params, n, kind, shells, z))
            once = sums_outcome(lambda: _reduced(*_shells_total(params, n, kind, shells, z)))
            value = engine_outcome(lambda: beta(pot, params, n, z=z, shell_cap=cap))
            if isinstance(per_shell, tuple):
                assert once == value == per_shell
                continue
            assert nested([row[3] for row in _shell_walk_sums(params, n, kind, shells, z)])
            assert once == value == sum(per_shell, GaussianRational())
            if sum(shell_size_bound(params, n, kind, k) for k in shells) <= 400:
                walks = [w for k in shells for w in enumerate_shell(params, n, kind, k)]
                assert once == oracle_outcome(walks, pot, z)
        # closed walks of a two-term or a three-term support
        bands = dict(pot.coeffs)
        if third is not None and third not in bands:
            bands[third] = c
        closed = FourierPotential.of(bands)
        lengths = range(1, step_cap + 1)
        rows = sums_outcome(lambda: _walk_sums(closed.coeffs, n, n, n, lengths, z))
        want = oracle_outcome(enumerate_closed(closed, n, step_cap), closed, z)
        if isinstance(rows, tuple):
            assert rows == want
        else:
            assert nested([rows[t][2] for t in lengths])
            assert sum((_reduced(*rows[t][:3]) for t in lengths), GaussianRational()) == want
        assert engine_outcome(lambda: alpha_n(closed, n, z=z, step_cap=step_cap)) == want
