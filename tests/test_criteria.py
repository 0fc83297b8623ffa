"""Basis verdicts: exact weight ratios, index families, analytic rules."""

import ast
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hillwalk import beta, spectra, walks
from hillwalk.beta import beta_minus, beta_plus
from hillwalk.criteria import (
    DESK_SCALE_CAVEAT,
    STABILITY_SAMPLES,
    BasisVerdict,
    DegenerateRatioError,
    IndexSet,
    concordance_report,
    criterion1_verdict,
    criterion3_ratio,
    prop20_verdict,
    structurally_zero,
    t_n_squared,
    theorem31_report,
    theorem5_report,
)
from hillwalk.criteria import _threshold_conclusion
from hillwalk.numerics import GaussianRational, printed
from hillwalk.potential import two_term
from hillwalk.spectra import SpectralPair, refined_pair

GR = GaussianRational.of


def t_n(bp, bm):
    """max(|beta^-/beta^+|, |beta^+/beta^-|) >= 1, rounded from the exact t_n^2."""
    return printed(t_n_squared(bp, bm), 2)


# -- t_n -------------------------------------------------------------------


def test_t_equal_weights_is_one():
    w = GaussianRational.parse("3/7+2/7i")
    assert t_n_squared(w, w) == Fraction(1)
    assert t_n(w, w) == 1.0


def test_t_squared_takes_the_larger_ratio():
    assert t_n_squared(GR(1), GR(4)) == Fraction(16)
    assert t_n_squared(GR(4), GR(1)) == Fraction(16)
    assert t_n(GR(1), GR(4)) == 4.0


def test_t_rejects_vanishing_weight():
    with pytest.raises(DegenerateRatioError):
        t_n_squared(GR(0), GR(1))
    with pytest.raises(DegenerateRatioError):
        t_n(GR(2), GR(0))


@given(bp=st.builds(GaussianRational, st.fractions(), st.fractions()),
       bm=st.builds(GaussianRational, st.fractions(), st.fractions()))
@settings(max_examples=100, deadline=None)
def test_t_squared_in_integers_is_the_fraction_ratio(bp, bm):
    """t_n^2 formed once from integer numerators and denominators equals
    the larger of |bm|^2 / |bp|^2 and its inverse in Fractions."""
    if bp.is_zero() or bm.is_zero():
        with pytest.raises(DegenerateRatioError):
            t_n_squared(bp, bm)
        return
    q = bm.abs2() / bp.abs2()
    assert t_n_squared(bp, bm) == max(q, 1 / q)


def test_t_complex_route_matches_exact_route():
    bp = GaussianRational.parse("1/3+1/5i")
    bm = GaussianRational.parse("-2/7+1/2i")
    exact = t_n(bp, bm)
    q = abs(complex(bm)) / abs(complex(bp))
    assert abs(exact - max(q, 1 / q)) < 1e-12 * exact


def test_t5_for_bands_minus2_and_6():
    # two-sided ratio at n = 5, s = 3: within a hair of 4^(s-1)^... = 256
    pot, params = two_term(1, 1, 1, 3)
    bp = beta_plus(pot, params, 5, shell_cap=3).value
    bm = beta_minus(pot, params, 5, shell_cap=2).value
    assert 255.9 < t_n(bp, bm) < 256.1


# -- gauge symmetry --------------------------------------------------------


def _tsq(a, b, R, S, n):
    pot, params = two_term(a, b, R, S)
    bp = beta_plus(pot, params, n, shell_cap=3).value
    bm = beta_minus(pot, params, n, shell_cap=2).value
    return t_n_squared(bp, bm)


@pytest.mark.parametrize(
    "a,b,R,S,ns",
    [
        (1, 2, 1, 1, (4, 8, 12)),
        (1, 1, 1, 3, (5, 8, 11)),
        (2, GaussianRational.parse("1+1i"), 2, 3, (5, 10)),
    ],
)
def test_t_invariant_under_gauge_rotation(a, b, R, S, ns):
    # (a, b) -> (a mu^R, b mu^-S) with |mu| = 1 shifts every crossing
    # walk by the same unimodular factor, so the ratio cannot move
    mu = GaussianRational.parse("3/5+4/5i")
    assert mu.abs2() == 1
    mu_R = GR(1)
    for _ in range(R):
        mu_R = mu_R * mu
    mu_S_inv = GR(1)
    for _ in range(S):
        mu_S_inv = mu_S_inv * mu.conjugate()
    for n in ns:
        base = _tsq(a, b, R, S, n)
        gauged = _tsq(mu_R * GR(a), mu_S_inv * GR(b), R, S, n)
        assert base == gauged


def test_t_under_plain_scaling_moves_only_at_cross_shell_order():
    # multiplying both coefficients by one unimodular factor mixes shells
    # with different step counts: the ratio moves, but only by the next
    # shell's relative size, and never enough to touch a verdict
    lam = GaussianRational.parse("3/5+4/5i")
    base = _tsq(1, 2, 1, 1, 4)
    moved = _tsq(lam, lam * GR(2), 1, 1, 4)
    assert moved != base
    assert abs(float(moved / base) - 1.0) < 1e-4


def test_verdict_invariant_under_plain_unimodular_scaling():
    lam = GaussianRational.parse("3/5+4/5i")
    iset = IndexSet("R-multiples", 1, 50, parity="even")
    pot0, params0 = two_term(1, 2, 5, 5)
    pot1, params1 = two_term(lam, lam * GR(2), 5, 5)
    v0 = criterion1_verdict(pot0, params0, iset)
    v1 = criterion1_verdict(pot1, params1, iset)
    assert v0.conclusion == v1.conclusion == "no-basis"


# -- structural zeros ------------------------------------------------------


def test_structural_zero_tracks_divisibility():
    _, params = two_term(1, 1, 5, 5)
    for n in (1, 2, 3, 4, 6, 7, 12):
        assert structurally_zero(params, n)
    for n in (5, 10, 15):
        assert not structurally_zero(params, n)


def test_no_structural_zero_when_gcd_is_one():
    _, params = two_term(1, 1, 1, 3)
    assert not any(structurally_zero(params, n) for n in range(1, 13))


# -- criteria 2 and 3 on synthetic pairs -----------------------------------


def _pair(n, lo, hi, mu=None):
    return SpectralPair(
        n=n,
        lam_minus=lo,
        lam_plus=hi,
        z_star=0.5 * (lo + hi) - n**2,
        gap=abs(hi - lo),
        multiplicity_flag="simple-pair",
        mu=mu,
        deviation=None if mu is None else abs(hi - mu),
    )


def test_criterion3_midpoint_dirichlet_gives_half():
    assert criterion3_ratio(_pair(3, 9.0, 9.1, mu=9.05)) == pytest.approx(0.5)


def test_criterion3_dirichlet_at_edge_gives_zero():
    assert criterion3_ratio(_pair(3, 9.0, 9.1, mu=9.1)) == 0.0


def test_criterion3_needs_dirichlet_value():
    with pytest.raises(ValueError):
        criterion3_ratio(_pair(3, 9.0, 9.1))


def test_criterion3_rejects_zero_gap():
    with pytest.raises(DegenerateRatioError):
        criterion3_ratio(_pair(3, 9.0, 9.0, mu=9.05))


def test_criterion2_symmetric_potential_gives_one():
    # equal coefficients balance beta^+ and beta^- at every z, and the Schur
    # complement sums every walk, so no truncation residue is left
    row, = concordance_report(1, 1, ns=(6,)).rows
    assert row["c2"] == 1.0


def test_criterion2_refuses_double_pairs():
    # at 128 bits the n = 22 gap 3.57e-49 lies below the pair's resolution
    assert refined_pair(two_term(1, 2, 1, 1)[0], "per+", 22, 32, 128).multiplicity_flag == "double"
    with pytest.raises(DegenerateRatioError, match="pair at n=22 is not simple"):
        concordance_report(1, 2, ns=(22,), precision=128)


# -- index families --------------------------------------------------------


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSet("powers-of-two", 1, 10)
    with pytest.raises(ValueError):
        IndexSet("explicit", 1, 10, parity="mixed")
    with pytest.raises(ValueError):
        IndexSet("explicit", 5, 4)


def test_index_set_families():
    _, p23 = two_term(1, 1, 2, 3)
    assert IndexSet("rsd-multiples", 1, 20).indices(p23) == [6, 12, 18]
    _, p13 = two_term(1, 1, 1, 3)
    assert IndexSet("sm-minus-1", 2, 12).indices(p13) == [2, 5, 8, 11]
    _, p55 = two_term(1, 1, 5, 5)
    assert IndexSet("mod-R-nonzero", 1, 8).indices(p55) == [1, 2, 3, 4, 6, 7, 8]
    assert IndexSet("R-multiples", 1, 20).indices(p55) == [5, 10, 15, 20]
    assert IndexSet("R-multiples", 1, 20, parity="even").indices(p55) == [10, 20]


def test_index_set_explicit_sorted_dedup_filtered():
    iset = IndexSet("explicit", 3, 9, explicit=(9, 4, 4, 2, 7))
    assert iset.indices(None) == [4, 7, 9]
    assert "explicit" in iset.describe()


def test_generated_kinds_need_parameters():
    with pytest.raises(ValueError):
        IndexSet("R-multiples", 1, 10).indices(None)


# -- threshold logic -------------------------------------------------------


def test_thresholds_cap_gives_contains_basis():
    sq = [Fraction(1), Fraction(16), Fraction(9)]
    assert _threshold_conclusion(sq) == "contains-basis"


def test_thresholds_divergent_monotone_gives_no_basis():
    sq = [Fraction(10) ** k for k in (2, 4, 6, 8)]
    assert _threshold_conclusion(sq) == "no-basis"


def test_thresholds_divergent_but_wobbly_is_inconclusive():
    sq = [Fraction(10) ** 8, Fraction(10) ** 7, Fraction(10) ** 8]
    assert _threshold_conclusion(sq) == "inconclusive"


def test_thresholds_middle_ground_is_inconclusive():
    sq = [Fraction(10) ** 5, Fraction(10) ** 5, Fraction(10) ** 5]
    assert _threshold_conclusion(sq) == "inconclusive"
    assert _threshold_conclusion([]) == "inconclusive"


# -- criterion 1 verdicts --------------------------------------------------


def test_criterion1_all_structural_indices_contain_basis():
    pot, params = two_term(1, 1, 5, 5)
    v = criterion1_verdict(pot, params, IndexSet("mod-R-nonzero", 1, 12))
    assert v.conclusion == "contains-basis"
    assert all(r["class"] == "delta0" for r in v.rows)
    assert any("structurally degenerate" in c for c in v.caveats)


def test_criterion1_unequal_moduli_diverge():
    pot, params = two_term(1, 2, 5, 5)
    v = criterion1_verdict(pot, params, IndexSet("R-multiples", 1, 50, parity="even"))
    assert v.conclusion == "no-basis"
    assert [r["n"] for r in v.rows] == [10, 20, 30, 40, 50]
    for r, m in zip(v.rows, (2, 4, 6, 8, 10)):
        assert r["t"] == pytest.approx(2.0**m, rel=1e-2)


def test_criterion1_mixed_band_family_diverges():
    pot, params = two_term(1, 1, 1, 3)
    v = criterion1_verdict(pot, params, IndexSet("sm-minus-1", 2, 20))
    assert v.conclusion == "no-basis"
    assert [r["n"] for r in v.rows] == [2, 5, 8, 11, 14, 17, 20]


def test_criterion1_empty_family_rejected():
    pot, params = two_term(1, 1, 1, 1)
    with pytest.raises(ValueError):
        criterion1_verdict(pot, params, IndexSet("explicit", 1, 10))


def test_verdict_json_shape():
    pot, params = two_term(1, 1, 5, 5)
    v = criterion1_verdict(pot, params, IndexSet("mod-R-nonzero", 1, 6))
    d = v.to_json_dict()
    assert set(d) == {"criterion", "delta", "rows", "conclusion", "thresholds", "caveats"}
    assert d["thresholds"] == {"divergence": 1e3, "cap": 1e2, "monotone_points": 3}


def test_verdict_conclusion_validated():
    with pytest.raises(ValueError):
        BasisVerdict("x", (), "maybe")


def _weights_from_engine(pot, params, n, z):
    """(beta^+(z), beta^-(z)) over shells 0..cap, one engine call per kind."""
    kinds = (walks.WalkKind.X, walks.WalkKind.Y)
    return tuple(sum(walks.shell_sums(params, n, kind, range(cap + 1), z), GaussianRational())
                 for kind, cap in zip(kinds, walks.DEFAULT_SHELL_CAPS))


def _weights_from_beta(pot, params, n, z):
    """The same pair from beta_plus / beta_minus."""
    return beta_plus(pot, params, n, z=z).value, beta_minus(pot, params, n, z=z).value


def _five_z_verdict(pot, params, index_set, weights=_weights_from_engine):
    """criterion1_verdict as it was before the disc bound: both kinds summed
    exactly at z = 0 and at every stability sample, one z at a time, with no
    certificate."""
    ns = index_set.indices(params)
    rows, squares, failures = [], [], []
    for n in ns:
        if structurally_zero(params, n):
            rows.append({"n": n, "class": "delta0", "t": None})
            continue
        base, *moved_weights = (weights(pot, params, n, z) for z in (0,) + STABILITY_SAMPLES)
        if any(w.is_zero() for w in base):
            raise DegenerateRatioError(f"beta vanishes numerically at n={n} though walks exist")
        sq = t_n_squared(*base)
        squares.append(sq)
        rows.append({"n": n, "class": "delta1", "t": printed(sq, 2)})
        for z, moved in zip(STABILITY_SAMPLES, moved_weights):
            for fixed, value in zip(base, moved):
                if not (4 * value.abs2() >= fixed.abs2() and value.abs2() <= 4 * fixed.abs2()):
                    failures.append((n, str(z)))
    caveats = [DESK_SCALE_CAVEAT, "two-sided z-stability sampled at z in {0, 1, -1, i, -i} only"]
    if failures:
        caveats.append(f"two-sided stability violated at {failures}")
    if not squares:
        conclusion = "contains-basis"
        caveats.append("all indices structurally degenerate: weight functionals vanish identically")
    else:
        conclusion = _threshold_conclusion(squares)
    return BasisVerdict(index_set.describe(), tuple(rows), conclusion, tuple(caveats))


def _verdict_outcome(compute):
    try:
        return compute()
    except DegenerateRatioError as err:
        return (type(err), str(err))


def _stability_failures(verdict):
    """The (n, z) entries of the verdict's stability caveat, in order."""
    prefix = "two-sided stability violated at "
    return next((ast.literal_eval(c.removeprefix(prefix))
                 for c in verdict.caveats if c.startswith(prefix)), [])


_gaussian = st.builds(
    lambda p, q, u, v: GaussianRational(Fraction(p, q), Fraction(u, v)),
    st.integers(-4, 4).filter(bool), st.integers(1, 4), st.integers(-4, 4), st.integers(1, 4),
)
# a = 3 + 2i, b = -4 + i/2 at R = 2, S = 4: delta0 rows and stability violations
_VIOLATING = (GaussianRational(Fraction(3), Fraction(2)),
              GaussianRational(Fraction(-4), Fraction(1, 2)), 2, 4)


@given(R=st.integers(1, 4), S=st.integers(1, 4), a=_gaussian, b=_gaussian,
       ns=st.lists(st.integers(1, 12), min_size=1, max_size=6))
@example(R=_VIOLATING[2], S=_VIOLATING[3], a=_VIOLATING[0], b=_VIOLATING[1],
         ns=list(range(1, 13)))
@settings(max_examples=40, deadline=None)
def test_criterion1_matches_beta_at_each_z(R, S, a, b, ns):
    """Rows, stability caveats and conclusion equal those of the five-z loop
    on beta_plus / beta_minus at z = 0 and at each stability sample.  With
    d = gcd(R, S) > 1 the indices off the multiples of d are delta0 rows;
    the example has R != S, delta0 rows and stability violations."""
    pot, params = two_term(a, b, R, S)
    iset = IndexSet("explicit", 1, 12, explicit=tuple(ns))
    got = _verdict_outcome(lambda: criterion1_verdict(pot, params, iset))
    want = _verdict_outcome(lambda: _five_z_verdict(pot, params, iset, _weights_from_beta))
    assert got == want


def test_criterion1_matches_beta_on_a_violating_family():
    pot, params = two_term(*_VIOLATING)
    iset = IndexSet("explicit", 1, 12, explicit=tuple(range(1, 13)))
    v = criterion1_verdict(pot, params, iset)
    assert [r["class"] for r in v.rows] == ["delta0", "delta1"] * 6
    assert v.caveats[-1].startswith("two-sided stability violated at [(6, '1'), (6, '-1'),")
    assert v == _five_z_verdict(pot, params, iset)


def test_reports_call_no_beta_and_sum_one_z_per_engine_call(monkeypatch):
    """Criterion 1 and the analytic reports take their weights from the walk
    engine, with no beta function: one engine call at z = 0 per (n, kind)
    for R != S, which carries the disc bound too, and one per n for R = S,
    whose Y walks mirror its X walks.  Criterion 1 adds one call per
    sample, four in all, for each (n, kind) the disc bound leaves
    undecided: here the X walks at n = 6 and n = 10, where the samples
    violate the bound."""
    def refuse(*args, **kwargs):
        raise AssertionError("a verdict report called into beta")

    for name in ("_beta", "closed_sum"):
        monkeypatch.setattr(beta, name, refuse)
    calls = []
    engine = walks._walk_sums

    def counted(steps, n, start, end, lengths, z):
        calls.append((n, start, str(GaussianRational.of(z))))
        return engine(steps, n, start, end, lengths, z)

    monkeypatch.setattr(walks, "_walk_sums", counted)
    pot, params = two_term(1, 2, 2, 4)
    v = criterion1_verdict(pot, params, IndexSet("explicit", 1, 10, explicit=tuple(range(1, 11))))
    assert sorted(calls) == sorted([(n, start, "0") for n in (2, 4, 6, 8, 10) for start in (-n, n)]
                                   + [(n, -n, str(z)) for n in (6, 10) for z in STABILITY_SAMPLES])
    assert [r["n"] for r in v.rows if r["class"] == "delta1"] == [2, 4, 6, 8, 10]
    assert [n for n, _ in _stability_failures(v)] == [6] * 4 + [10] * 4
    for report, ns, starts in (
            (lambda: theorem31_report(1, 2, 1, 3, [1, 2, 3]), (3, 6, 9), (-1, 1)),
            (lambda: theorem5_report(1, 1, 3, [2, 3, 4]), (5, 8, 11), (-1, 1)),
            (lambda: prop20_verdict(1, 2, 2, "per+"), (2, 4, 6, 8, 10, 12), (-1,))):
        calls.clear()
        report()
        assert sorted(calls) == [(n, sign * n, "0") for n in ns for sign in starts]


def test_criterion1_matches_the_five_z_loop_below_the_double_range():
    """At n = 92, R = S = 1, every X walk passes each vertex of the straight
    one, so its prod 1/|D| is below the straight walk's, which is below
    2^-1074, the smallest positive double.  a b = -85000 puts beta^+(0) near
    a root of its shell polynomial, so the samples violate the two-sided
    bound there.  A disc bound that flushed to zero would certify the kind
    and miss them."""
    n = 92
    straight = 1
    for u in range(-n + 2, n, 2):
        straight *= n * n - u * u
    assert Fraction(1, straight) < Fraction(1, 2**1074)
    pot, params = two_term(291, Fraction(-85000, 291), 1, 1)
    iset = IndexSet("explicit", n, n, explicit=(n,))
    v = criterion1_verdict(pot, params, iset)
    assert v.caveats[-1] == (
        "two-sided stability violated at [(92, '1'), (92, '-1'), (92, '0+1i'), (92, '0-1i')]")
    assert v == _five_z_verdict(pot, params, iset)


_CONJUGATE_SAMPLE = {"1": "1", "-1": "-1", "0+1i": "0-1i", "0-1i": "0+1i"}


@given(R=st.integers(1, 4), S=st.integers(1, 4), a=_gaussian, b=_gaussian,
       ns=st.lists(st.integers(1, 12), min_size=1, max_size=6))
@example(R=_VIOLATING[2], S=_VIOLATING[3], a=_VIOLATING[0], b=_VIOLATING[1],
         ns=list(range(1, 13)))
@settings(max_examples=40, deadline=None)
def test_criterion1_commutes_with_conjugation(R, S, a, b, ns):
    """beta(z) of conj a, conj b is conj beta(conj z): the rows and the
    conclusion stay, and the stability failures map z -> conj z as a
    multiset."""
    iset = IndexSet("explicit", 1, 12, explicit=tuple(ns))
    plain, conjugated = (
        _verdict_outcome(lambda: criterion1_verdict(*two_term(*coeffs, R, S), iset))
        for coeffs in ((a, b), (a.conjugate(), b.conjugate())))
    if not isinstance(plain, BasisVerdict):
        assert conjugated == plain
        return
    assert (conjugated.rows, conjugated.conclusion) == (plain.rows, plain.conclusion)
    assert sorted(_stability_failures(conjugated)) == sorted(
        (n, _CONJUGATE_SAMPLE[z]) for n, z in _stability_failures(plain))


@given(R=st.integers(1, 3), S=st.integers(1, 3), a=_gaussian, b=_gaussian,
       m=st.integers(1, 2), bc=st.sampled_from(["per+", "per-"]))
@settings(max_examples=40, deadline=None)
def test_analytic_reports_commute_with_conjugation(R, S, a, b, m, bc):
    """beta(0) of conj a, conj b is conj beta(0), and every ratio the
    reports print or judge is a modulus: conjugating both coefficients
    leaves each report exactly as it was."""
    reports = [lambda a, b: theorem5_report(a, b, S + 2, [m, m + 1]),
               lambda a, b: prop20_verdict(a, b, R, bc)]
    if R != S:
        reports.append(lambda a, b: theorem31_report(a, b, R, S, [m, m + 1], bc))
    for report in reports:
        plain, conjugated = (_verdict_outcome(lambda: report(*coeffs))
                             for coeffs in ((a, b), (a.conjugate(), b.conjugate())))
        assert conjugated == plain


@pytest.mark.parametrize("other", [(1, 3, 1, 3), (1, 2, 1, 1), (2, 1, 1, 3)])
def test_criterion1_refuses_params_of_another_potential(other):
    pot, _ = two_term(1, 2, 1, 3)
    _, params = two_term(*other)
    with pytest.raises(ValueError, match="^params do not match the potential coefficients$"):
        criterion1_verdict(pot, params, IndexSet("explicit", 5, 8, explicit=(5, 8)))


# -- ratio-collapse reports ------------------------------------------------


def test_collapse_report_needs_unequal_offsets():
    with pytest.raises(ValueError):
        theorem31_report(1, 1, 2, 2, (2, 3, 4))
    with pytest.raises(ValueError):
        theorem31_report(1, 1, 1, 3, (2, 3), bc="dirichlet")
    with pytest.raises(ValueError):
        theorem31_report(1, 1, 1, 3, (2,))


def test_collapse_periodic_refuses_basis():
    rep = theorem31_report(1, 1, 1, 3, range(2, 7))
    assert rep.conclusion == "no-basis"
    ratios = [r["ratio"] for r in rep.rows]
    frozen = (2.44e-6, 4.87e-11, 2.51e-16, 4.74e-22, 4.01e-28)
    for got, want in zip(ratios, frozen):
        assert got == pytest.approx(want, rel=1e-2)
    for r in rep.rows[:-1]:
        assert r["log_decrement"] >= r["log_decrement_floor"]
    assert not any("corroboration failed" in c for c in rep.caveats)


def test_collapse_antiperiodic_with_odd_offsets():
    rep = theorem31_report(1, 1, 1, 3, range(2, 7), bc="per-")
    assert rep.conclusion == "no-basis"
    assert any("odd offsets" in c for c in rep.caveats)


def test_collapse_antiperiodic_with_even_offset_inconclusive():
    rep = theorem31_report(1, 1, 2, 4, range(2, 6), bc="per-")
    assert rep.conclusion == "inconclusive"
    assert any("even offset" in c for c in rep.caveats)


def test_shifted_family_collapse():
    rep = theorem5_report(1, 1, 3, range(2, 8))
    assert rep.conclusion == "no-basis"
    ratios = [r["ratio"] for r in rep.rows]
    frozen = (3.91e-3, 3.11e-7, 4.12e-12, 1.59e-17, 2.38e-23, 1.67e-29)
    for got, want in zip(ratios, frozen):
        assert got == pytest.approx(want, rel=1e-2)
    # successive collapse beats the m^2 floor
    for i, m in enumerate(range(2, 7)):
        assert ratios[i + 1] * m**2 <= ratios[i]
    assert not any("corroboration failed" in c for c in rep.caveats)
    assert any("odd s" in c for c in rep.caveats)


def test_shifted_family_needs_s_at_least_three():
    with pytest.raises(ValueError):
        theorem5_report(1, 1, 2, (2, 3))


def test_shifted_family_even_s_parity_note():
    rep = theorem5_report(1, 1, 4, (2, 3, 4))
    assert rep.conclusion == "no-basis"
    assert any("even s" in c for c in rep.caveats)


# -- equal-offset verdicts -------------------------------------------------


def test_equal_offsets_even_R_antiperiodic_structural():
    v = prop20_verdict(1, complex(0, 1), 2, "per-")
    assert v.conclusion == "contains-basis"
    assert [r["n"] for r in v.rows] == [1, 3, 5, 7, 9, 11]
    assert all(r["class"] == "delta0" for r in v.rows)


def test_equal_offsets_unequal_moduli_refuse_basis():
    v = prop20_verdict(1, 2, 1, "per+")
    assert v.conclusion == "no-basis"
    for r, m in zip(v.rows, (2, 4, 6, 8, 10, 12)):
        assert r["t"] == pytest.approx(2.0**m, rel=1e-2)
        assert r["leading"] == 2.0**m
    assert not any("corroboration failed" in c for c in v.caveats)


def test_equal_offsets_equal_moduli_contain_basis():
    # |a| = |-12/5 + 9/5 i| = 3 exactly, decided on squares
    b = GaussianRational.parse("-12/5+9/5i")
    v = prop20_verdict(3, b, 3, "per-")
    assert v.conclusion == "contains-basis"
    assert [r["n"] for r in v.rows] == [3, 9]
    for r in v.rows:
        assert abs(r["t"] - 1.0) < 1e-6


def test_equal_offsets_reject_dirichlet():
    with pytest.raises(ValueError):
        prop20_verdict(1, 1, 1, "dirichlet")


# -- three-criteria concordance --------------------------------------------


@pytest.fixture(scope="module")
def concordance_12():
    return concordance_report(1, 2)


@pytest.fixture(scope="module")
def concordance_11():
    return concordance_report(1, 1)


def test_concordance_unequal_moduli_all_three_diverge(concordance_12):
    rows = concordance_12.rows
    assert [r["n"] for r in rows] == [6, 8, 10, 12]
    for r in rows:
        assert r["c1"] == pytest.approx(2.0 ** r["n"], rel=1e-2)
        assert r["c2"] == pytest.approx(2.0 ** r["n"], rel=1e-2)
    c3 = [r["c3"] for r in rows]
    frozen = (3.30e3, 2.58e7, 6.81e11, 4.57e16)
    for got, want in zip(c3, frozen):
        assert got == pytest.approx(want, rel=5e-2)
    assert all(c3[i] < c3[i + 1] for i in range(3))
    assert all(v > 10 for v in c3)


def test_concordance_gaps_track_refinement(concordance_12):
    gaps = [r["gap"] for r in concordance_12.rows]
    frozen = (1.08e-6, 7.68e-11, 1.85e-15, 1.92e-20)
    for got, want in zip(gaps, frozen):
        assert got == pytest.approx(want, rel=1e-2)


def test_concordance_determinant_count(monkeypatch):
    """concordance_report(1, 2) refines four pairs and four Dirichlet
    eigenvalues and takes beta+- at z = 0 and z* of each pair in at most 54
    evaluations of the Schur-complement kernel, with every Newton loop
    started at the disc centre and S(0) taken from the pair's first Newton
    step.  The count does not depend on timing, so a change to the Newton
    path shows here."""
    calls = []
    kernel = spectra._schur

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(spectra, "_schur", counted)
    concordance_report(1, 2)
    assert 0 < len(calls) <= 54


def test_concordance_symmetric_potential_all_three_bounded(concordance_11):
    for r in concordance_11.rows:
        assert abs(r["c1"] - 1.0) < 1e-6
        assert abs(r["c2"] - 1.0) < 1e-6
        assert abs(r["c3"] - 1.0) < 1e-6
        assert max(r["c1"], r["c2"], r["c3"]) <= 2.0


def test_concordance_symmetric_gaps(concordance_11):
    gaps = [r["gap"] for r in concordance_11.rows]
    frozen = (1.35e-7, 4.80e-12, 5.79e-17, 2.99e-22)
    for got, want in zip(gaps, frozen):
        assert got == pytest.approx(want, rel=1e-2)


def test_concordance_json_shape(concordance_11):
    d = concordance_11.to_json_dict()
    assert set(d) == {"potential", "K", "precision", "rows"}
    assert d["K"] == 32 and d["precision"] == 320
    assert isinstance(d["rows"][0], dict)


def test_concordance_rejects_odd_indices():
    with pytest.raises(ValueError):
        concordance_report(1, 2, ns=(5,))


def test_concordance_z_star_drops_unresolved_imaginary_part():
    """ab = -1 is real, so z* is real; the refined midpoint used to carry a
    denormal imaginary part (2.26e-314) into criterion 2."""
    a = GaussianRational(Fraction(3, 5), Fraction(-4, 5))
    b = GaussianRational(Fraction(-3, 5), Fraction(-4, 5))
    z_star = refined_pair(two_term(a, b, 1, 1)[0], "per+", 20, 32).z_star
    assert z_star != 0 and z_star.imag == 0
    row = concordance_report(a, b, ns=(20,)).rows[0]
    # |a| = |b|: beta^+ and beta^- have one modulus at every z
    assert row["c2"] == 1.0


# (p + q i) / 5 with {|p|, |q|} one of these, as the benchmark draws them:
# |a b| >= 1 keeps every pair gap up to n = 20 resolvable at 320 bits
_PARTS = ((3, 4), (4, 3), (3, 6), (6, 3), (4, 4))
_fifths = st.builds(lambda parts, re, im: GaussianRational(Fraction(re * parts[0], 5),
                                                             Fraction(im * parts[1], 5)),
                    st.sampled_from(_PARTS), st.sampled_from((-1, 1)), st.sampled_from((-1, 1)))


@given(a=_fifths, b=_fifths, n=st.sampled_from(range(6, 21, 2)))
@settings(max_examples=15, deadline=None)
def test_concordance_commutes_with_conjugation(a, b, n):
    """Conjugating a and b conjugates T, so its spectrum and every coupling
    modulus stay: c1, c2, c3 and the gap match within 1e-12 relative.  They
    are not bit-equal: the kernel's fixed-point floor shifts are not odd."""
    plain, conjugated = (concordance_report(*coeffs, ns=(n,)).rows[0]
                         for coeffs in ((a, b), (a.conjugate(), b.conjugate())))
    assert plain["n"] == conjugated["n"] == n
    for key in ("c1", "c2", "c3", "gap"):
        x, y = plain[key], conjugated[key]
        assert abs(x - y) <= 1e-12 * max(abs(x), abs(y)), key


def test_concordance_sums_no_walks(monkeypatch):
    """c1 and c2 come from the pair's Schur complement, not from walk sums."""
    calls = []
    engine = walks._walk_sums

    def counted(*args):
        calls.append(None)
        return engine(*args)

    monkeypatch.setattr(walks, "_walk_sums", counted)
    concordance_report(1, 2, ns=(6, 8))
    assert calls == []


def test_concordance_lays_out_one_pair_reduction_per_n(monkeypatch):
    """The pair and its couplings at z = 0 and z* share one per+ layout;
    the Dirichlet eigenvalue takes the other."""
    layouts = []
    reduction = spectra._reduction

    def counted(pot, bc, *args):
        layouts.append(bc)
        return reduction(pot, bc, *args)

    monkeypatch.setattr(spectra, "_reduction", counted)
    concordance_report(1, 2, ns=(6,))
    assert sorted(layouts) == [spectra.BoundaryCondition.DIRICHLET, spectra.BoundaryCondition.PER_PLUS]


# coefficient pairs of the refine-concordance benchmark family: the fixed
# real-ab pair, then two with unequal moduli and ab not real
FAMILY_PAIRS = [
    ((Fraction(3, 5), Fraction(-4, 5)), (Fraction(-3, 5), Fraction(-4, 5))),
    ((Fraction(-4, 5), Fraction(4, 5)), (Fraction(-6, 5), Fraction(-3, 5))),
    ((Fraction(3, 5), Fraction(4, 5)), (Fraction(6, 5), Fraction(-3, 5))),
]


@pytest.mark.parametrize("a,b", FAMILY_PAIRS)
def test_concordance_c1_and_c2_are_the_modulus_power(a, b):
    """For bands at -2 and 2 a diagonal similarity balances the two
    couplings, so beta^+/beta^- = (b/a)^n at every z over the whole cut-off
    lattice: c1 = c2 = max(|a/b|, |b/a|)^n.  The capped walk sums missed
    it, by 5e-7 relative for a = 1, b = 2 at n = 6."""
    a, b = GaussianRational(*a), GaussianRational(*b)
    q2 = max(a.abs2() / b.abs2(), b.abs2() / a.abs2())
    for row in concordance_report(a, b, ns=tuple(range(6, 21, 2))).rows:
        want = printed(q2 ** row["n"], 2)
        assert row["c1"] == pytest.approx(want, rel=1e-12)
        assert row["c2"] == pytest.approx(want, rel=1e-12)
