"""Riesz-basis verdicts for root-function systems of the truncated operator.

Three routes to the same question, evaluated over an index family Delta:

  1. the z = 0 weight ratio t_n = max(|beta^-/beta^+|, |beta^+/beta^-|),
  2. the same ratio at the pair midpoint z * of the disc D_n,
  3. the Dirichlet deviation |lam^+ - mu_n| against the pair gap.

Criterion-1 verdicts and the analytic reports take beta^+- at z = 0 as
exact walk sums up to fixed shell caps, straight from the walk engine,
one engine call per (n, kind), or per n when R = S and the Y walks mirror
the X walks; the shells past the caps are left out.
Criterion 1 checks its z-stability with a bound over the whole disc
|z| <= 1, which the same z = 0 engine call carries, and sums the four
samples, one engine call each, only for an (n, kind) the bound cannot
decide.  The concordance takes them for routes 1 and 2 from the pair's
2x2 Schur complement at z = 0 and at z * (`pair_couplings`): sums over
every walk of the cut-off lattice.

Boundedness of the monitored quantity along the simple-pair indices marks
a basis; divergence rules one out.  The asymptotic statements behind the
analytic verdicts cannot be decided from finitely many n, so numeric
conclusions are threshold surrogates and say so; where an analytic rule
applies (band-ratio collapse, equal-offset modulus rule) the rule decides
and the numbers are attached as corroboration only.
"""

import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

from .numerics import GaussianRational, printed
from .potential import FourierPotential, TwoTermParams, two_term
from .spectra import (
    REFINE_PRECISION,
    BoundaryCondition,
    DegenerateRatioError,
    SpectralPair,
    pair_couplings,
    refined_dirichlet,
)
from .walks import (
    DEFAULT_SHELL_CAPS,
    WalkKind,
    _shells_total,
    _sums_and_disc_bounds,
)

STABILITY_SAMPLES = (
    GaussianRational(Fraction(1)),
    GaussianRational(Fraction(-1)),
    GaussianRational(Fraction(0), Fraction(1)),
    GaussianRational(Fraction(0), Fraction(-1)),
)

# the desk-scale surrogate for an asymptotic boundedness criterion: no-basis
# when t_n passes the divergence and its last monotone_points values grow,
# contains-basis when every t_n is within the cap
THRESHOLDS = {"divergence": 1e3, "cap": 1e2, "monotone_points": 3}


@dataclass(frozen=True)
class IndexSet:
    """Generated family of disc indices with parity filter and range."""

    kind: str
    n_min: int
    n_max: int
    parity: str = "both"
    explicit: tuple = ()

    KINDS = ("rsd-multiples", "sm-minus-1", "mod-R-nonzero", "R-multiples", "explicit")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown index-set kind {self.kind!r}")
        if self.parity not in ("even", "odd", "both"):
            raise ValueError(f"unknown parity filter {self.parity!r}")
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError(f"bad range [{self.n_min}, {self.n_max}]")

    def _parity_ok(self, n: int) -> bool:
        if self.parity == "even":
            return n % 2 == 0
        if self.parity == "odd":
            return n % 2 == 1
        return True

    def indices(self, params: Optional[TwoTermParams]) -> list:
        if self.kind == "explicit":
            base = [int(n) for n in self.explicit]
        else:
            if params is None:
                raise ValueError(f"index-set kind {self.kind!r} needs potential parameters")
            if self.kind == "rsd-multiples":
                step = params.r * params.s * params.d
                base = list(range(step, self.n_max + 1, step))
            elif self.kind == "sm-minus-1":
                base = [params.s * m - 1 for m in range(1, self.n_max + 2)]
            elif self.kind == "mod-R-nonzero":
                base = [n for n in range(1, self.n_max + 1) if n % params.d != 0]
            else:  # R-multiples
                base = list(range(params.d, self.n_max + 1, params.d))
        out = [n for n in base if self.n_min <= n <= self.n_max and self._parity_ok(n)]
        return sorted(set(out))

    def describe(self) -> str:
        tag = f"{self.kind} in [{self.n_min}, {self.n_max}]"
        if self.parity != "both":
            tag += f", {self.parity} only"
        if self.kind == "explicit":
            tag += f": {list(self.explicit)}"
        return tag


@dataclass(frozen=True)
class BasisVerdict:
    """A basis verdict.  Criterion 1 decides by the fixed THRESHOLDS; the
    analytic reports decide by rule and print the thresholds only for display."""

    index_set: str
    rows: tuple
    conclusion: str
    caveats: tuple = ()

    def __post_init__(self) -> None:
        if self.conclusion not in ("contains-basis", "no-basis", "inconclusive"):
            raise ValueError(f"unknown conclusion {self.conclusion!r}")

    def to_json_dict(self) -> dict:
        return {
            "criterion": "C1",
            "delta": self.index_set,
            "rows": [dict(r) for r in self.rows],
            "conclusion": self.conclusion,
            "thresholds": dict(THRESHOLDS),
            "caveats": list(self.caveats),
        }


DESK_SCALE_CAVEAT = (
    "asymptotic boundedness judged from finitely many indices; "
    "thresholds printed alongside the data"
)


# -- elementary quantities -------------------------------------------------


# beta^+ sums the X walks, beta^- the Y walks, each over shells 0..cap
_KIND_SHELLS = tuple((kind, range(cap + 1))
                     for kind, cap in zip((WalkKind.X, WalkKind.Y), DEFAULT_SHELL_CAPS))


def _weights(pot, params, n):
    """|beta^+(0)|^2 and |beta^-(0)|^2 as integer pairs (`_norm2`), each
    summed over its walk shells 0..cap (DEFAULT_SHELL_CAPS), and their disc
    bounds (eps^+, eps^-) (`sum_and_disc_bound`), one engine call per
    lattice (`_sums_and_disc_bounds`): one per kind for R != S, one in all
    for R = S, whose Y walks mirror its X walks."""
    if (pot.coefficient(-2 * params.R), pot.coefficient(2 * params.S)) != (params.a, params.b):
        raise ValueError("params do not match the potential coefficients")
    pairs = _sums_and_disc_bounds(params, n, DEFAULT_SHELL_CAPS)
    return tuple(_norm2(*value) for value, _ in pairs), tuple(eps for _, eps in pairs)


def _norm2(re: int, im: int, den: int) -> tuple:
    """|(re + i im) / den|^2 as (re^2 + im^2, den^2), unreduced."""
    return re * re + im * im, den * den


def _t_squared(plus: tuple, minus: tuple) -> Fraction:
    """max(q, 1/q), q = |beta^-|^2 / |beta^+|^2 from integer pairs, reduced once."""
    if plus[0] == 0 or minus[0] == 0:
        raise DegenerateRatioError("t_n needs both weight functionals nonzero")
    x, y = minus[0] * plus[1], plus[0] * minus[1]
    return Fraction(max(x, y), min(x, y))


def t_n_squared(bp: GaussianRational, bm: GaussianRational) -> Fraction:
    """Exact t_n^2 = max(|b-/b+|, |b+/b-|)^2 as a rational."""
    return _t_squared(*((q.numerator, q.denominator) for q in (bp.abs2(), bm.abs2())))


def structurally_zero(params: TwoTermParams, n: int) -> bool:
    """Whether beta_n^+- vanish identically: no walk reaches -n from n.

    Decided by step-count feasibility, never numerically: X and Y walks
    both exist exactly when d divides n."""
    return n % params.d != 0


def criterion3_ratio(pair: SpectralPair) -> float:
    """Dirichlet deviation against the pair gap: |lam^+ - mu| / |lam^+ - lam^-|."""
    if pair.mu is None:
        raise ValueError("pair carries no Dirichlet eigenvalue")
    gap = abs(pair.lam_plus - pair.lam_minus)
    if gap == 0:
        raise DegenerateRatioError("zero gap: double pair, ratio undefined")
    return float(abs(pair.lam_plus - pair.mu) / gap)


# -- verdict aggregation ---------------------------------------------------


def _threshold_conclusion(exact_squares: Sequence[Fraction]) -> str:
    """Apply the THRESHOLDS to exact t^2 values in index order."""
    if not exact_squares:
        return "inconclusive"
    div2 = Fraction(THRESHOLDS["divergence"]) ** 2
    cap2 = Fraction(THRESHOLDS["cap"]) ** 2
    k = THRESHOLDS["monotone_points"]
    tail = list(exact_squares[-k:])
    monotone = len(tail) == k and all(tail[i] < tail[i + 1] for i in range(k - 1))
    if max(exact_squares) > div2 and monotone:
        return "no-basis"
    if all(v <= cap2 for v in exact_squares):
        return "contains-basis"
    return "inconclusive"


def criterion1_verdict(
    pot: FourierPotential,
    params: TwoTermParams,
    index_set: IndexSet,
) -> BasisVerdict:
    """t_n(0) over Delta, with the structural-zero indices split off.

    Indices where both functionals vanish identically carry automatic
    doubles and never obstruct a basis; if every index lands there the
    verdict is contains-basis outright.  The remaining indices are judged
    by the fixed THRESHOLDS.

    The z = 0 reduction needs |beta(z)| within a factor 2 of |beta(0)| on
    |z| <= 1, spot-checked at z in {1, -1, i, -i}.  A kind whose disc bound
    eps >= sup |beta(z) - beta(0)| (`sum_and_disc_bound`) has 2 eps <=
    |beta(0)| keeps |beta(z)| between |beta(0)|/2 and 3|beta(0)|/2 on the
    whole disc, so it passes every sample; only the other kinds are summed
    at the samples, one z per engine call.  The failures listed are the
    samples' own, in the same order."""
    ns = index_set.indices(params)
    if not ns:
        raise ValueError(f"empty index set: {index_set.describe()}")
    rows = []
    squares = []
    stability_failures = []
    for n in ns:
        if structurally_zero(params, n):
            rows.append({"n": n, "class": "delta0", "t": None})
            continue
        base, bounds = _weights(pot, params, n)
        if any(num == 0 for num, _ in base):
            raise DegenerateRatioError(
                f"beta vanishes numerically at n={n} though walks exist"
            )
        sq = _t_squared(*base)
        squares.append(sq)
        rows.append({"n": n, "class": "delta1", "t": printed(sq, 2)})
        # per kind: |beta|^2 at each sample, or none where 4 eps^2 <= |beta|^2 certifies it
        moved = [[] if 4 * eps.numerator ** 2 * den <= num * eps.denominator ** 2
                 else [_norm2(*_shells_total(params, n, kind, shells, z)) for z in STABILITY_SAMPLES]
                 for (num, den), eps, (kind, shells) in zip(base, bounds, _KIND_SHELLS)]
        for i, z in enumerate(STABILITY_SAMPLES):
            # |beta(0)|^2 <= 4 |beta(z)|^2 <= 16 |beta(0)|^2
            stability_failures += [(n, str(z)) for (f, g), sums in zip(base, moved) if sums
                                   and not f * sums[i][1] <= 4 * sums[i][0] * g <= 16 * f * sums[i][1]]
    caveats = [DESK_SCALE_CAVEAT, "two-sided z-stability sampled at z in {0, 1, -1, i, -i} only"]
    if stability_failures:
        caveats.append(f"two-sided stability violated at {stability_failures}")
    if not squares:
        conclusion = "contains-basis"
        caveats.append("all indices structurally degenerate: weight functionals vanish identically")
    else:
        conclusion = _threshold_conclusion(squares)
    return BasisVerdict(
        index_set=index_set.describe(),
        rows=tuple(rows),
        conclusion=conclusion,
        caveats=tuple(caveats),
    )


# -- analytic reports ------------------------------------------------------


def _ratio_rows(pot, params, m_range, index_of):
    """Exact |beta^-(0)/beta^+(0)|^2 over n = index_of(m), plus display rows.

    Returns the sorted distinct m values, the rows and the exact squares."""
    ms = sorted(set(int(m) for m in m_range))
    if len(ms) < 2 or ms[0] < 1:
        raise ValueError("need at least two positive m values")
    rows, squares = [], []
    for m in ms:
        n = index_of(m)
        (bp, bm), _ = _weights(pot, params, n)
        if bp[0] == 0 or bm[0] == 0:
            raise DegenerateRatioError(f"vanishing weight sum at n={n}")
        sq = Fraction(bm[0] * bp[1], bp[0] * bm[1])
        squares.append(sq)
        rows.append({"n": n, "m": m, "ratio": printed(sq, 2)})
    return ms, rows, squares


def theorem31_report(
    a,
    b,
    R: int,
    S: int,
    m_range: Sequence[int],
    bc: Union[str, BoundaryCondition] = BoundaryCondition.PER_PLUS,
) -> BasisVerdict:
    """Band-ratio collapse over n = r s d m for unequal offsets R != S.

    The weight ratio |beta^-(0)/beta^+(0)| collapses super-exponentially
    (per-step log-decrement at least |r-s| log m up to a 20% allowance);
    the analytic rule then refuses a basis under periodic conditions
    always, and under antiperiodic ones when both offsets are odd (the
    index family contains odd n exactly then)."""
    import mpmath

    if R == S:
        raise ValueError("ratio-collapse analysis needs R != S")
    bc = BoundaryCondition(bc)
    if bc == BoundaryCondition.DIRICHLET:
        raise ValueError("basis verdicts apply to per+ / per- only")
    pot, params = two_term(a, b, R, S)
    step = params.r * params.s * params.d
    ms, rows, squares = _ratio_rows(pot, params, m_range, lambda m: step * m)
    # corroboration: strict collapse with the advertised per-step decrement
    drop = abs(params.r - params.s)
    decay_ok = all(squares[i + 1] < squares[i] for i in range(len(squares) - 1))
    slope_ok = True
    for i in range(len(ms) - 1):
        lo, hi = squares[i + 1], squares[i]
        # log(ratio_m / ratio_{m+1}) >= 0.8 * |r-s| * log(m), vacuous at m=1
        need = 0.8 * drop * math.log(max(ms[i], 1))
        got = 0.5 * float(mpmath.log(mpmath.mpf(hi.numerator) / hi.denominator)
                          - mpmath.log(mpmath.mpf(lo.numerator) / lo.denominator))
        rows[i]["log_decrement"] = got
        rows[i]["log_decrement_floor"] = need
        if got < need:
            slope_ok = False
    both_odd = R % 2 == 1 and S % 2 == 1
    caveats = [DESK_SCALE_CAVEAT]
    if not (decay_ok and slope_ok):
        caveats.append("numeric corroboration failed: collapse slower than the analytic rate")
    if bc == BoundaryCondition.PER_PLUS:
        conclusion = "no-basis"
    elif both_odd:
        conclusion = "no-basis"
        caveats.append("odd offsets: the index family meets the antiperiodic parity class")
    else:
        conclusion = "inconclusive"
        caveats.append(
            "even offset present: every generated index is even, the antiperiodic "
            "class is untouched by this family"
        )
    return BasisVerdict(
        index_set=f"multiples of r*s*d = {step}, m in {ms}",
        rows=tuple(rows),
        conclusion=conclusion,
        caveats=tuple(caveats),
    )


def theorem5_report(
    a,
    b,
    s: int,
    m_range: Sequence[int],
) -> BasisVerdict:
    """Ratio collapse over n = s m - 1 for the bands at -2 and 2s, s >= 3.

    Successive ratios shrink faster than m^2 per step; the antiperiodic
    root system gets no basis.  For even s every index is odd; for odd s
    the even-m half of the family is."""
    if not isinstance(s, int) or s < 3:
        raise ValueError(f"s must be an int >= 3, got {s!r}")
    pot, params = two_term(a, b, 1, s)
    ms, rows, squares = _ratio_rows(pot, params, m_range, lambda m: s * m - 1)
    # each step must beat the m^2 collapse floor: ratio^2 by m^4
    factor_ok = all(squares[i + 1] * Fraction(ms[i]) ** 4 <= squares[i]
                    for i in range(len(ms) - 1))
    caveats = [DESK_SCALE_CAVEAT]
    if s % 2 == 0:
        caveats.append("even s: every index n = s m - 1 is odd")
    else:
        caveats.append("odd s: indices with even m are odd")
    if not factor_ok:
        caveats.append("numeric corroboration failed: collapse slower than m^2 per step")
    return BasisVerdict(
        index_set=f"n = {s} m - 1, m in {ms}",
        rows=tuple(rows),
        conclusion="no-basis",
        caveats=tuple(caveats),
    )


def prop20_verdict(
    a,
    b,
    R: int,
    bc: Union[str, BoundaryCondition],
) -> BasisVerdict:
    """Equal band offsets: bands at -2R and 2R, over n <= 12.

    Antiperiodic with even R: every odd n is structurally degenerate, the
    root system is all doubles, basis automatic.  Otherwise the modulus
    rule decides: a basis exists iff |a| = |b|, compared exactly on |a|^2
    and |b|^2.  A t_n table over the active indices corroborates."""
    bc = BoundaryCondition(bc)
    if bc == BoundaryCondition.DIRICHLET:
        raise ValueError("basis verdicts apply to per+ / per- only")
    pot, params = two_term(a, b, R, R)
    parity = 0 if bc == BoundaryCondition.PER_PLUS else 1
    # structural: no odd n is a multiple of an even R
    degenerate = parity == 1 and R % 2 == 0
    a2, b2 = params.a.abs2(), params.b.abs2()
    q2 = max(a2 / b2, b2 / a2)
    rows = []
    corroborated = True
    n_max = 12
    for n in range(2 - parity, n_max + 1, 2):
        if degenerate:
            assert structurally_zero(params, n)
            rows.append({"n": n, "class": "delta0", "t": None})
        elif n % R == 0:
            # corroboration: t_n against the leading modulus ratio power
            sq = _t_squared(*_weights(pot, params, n)[0])
            lead2 = q2 ** (n // R)
            corroborated &= Fraction(1, 4) <= sq / lead2 <= 4  # within factor 2 on t itself
            rows.append({"n": n, "class": "delta1", "t": printed(sq, 2),
                         "leading": printed(lead2, 2)})
    if degenerate:
        return BasisVerdict(
            index_set=f"odd n <= {n_max}",
            rows=tuple(rows),
            conclusion="contains-basis",
            caveats=("even offset, antiperiodic class: every index degenerates structurally",),
        )
    caveats = ["modulus rule decided exactly on |a|^2, |b|^2; t_n table attached"]
    if not corroborated:
        caveats.append("numeric corroboration failed: t_n strays from the leading modulus power")
    return BasisVerdict(
        index_set=f"multiples of {R}, parity of {bc.value}, n <= {n_max}",
        rows=tuple(rows),
        conclusion="contains-basis" if a2 == b2 else "no-basis",
        caveats=tuple(caveats),
    )


# -- three-criteria concordance --------------------------------------------


@dataclass(frozen=True)
class ConcordanceReport:
    potential: str
    K: int
    precision: int
    rows: tuple

    def to_json_dict(self) -> dict:
        return {**asdict(self), "rows": [dict(r) for r in self.rows]}


def concordance_report(
    a,
    b,
    ns: Sequence[int] = (6, 8, 10, 12),
    K: int = 32,
    precision: int = REFINE_PRECISION,
) -> ConcordanceReport:
    """All three criteria side by side for bands at -2 and 2.

    The pair gaps shrink below hardware resolution inside the tested
    range, so pairs and the Dirichlet eigenvalue are refined at high
    precision before the ratios are formed.  c1 and c2 are t_n at z = 0
    and at z* of the same simple pair, from its Schur complement."""
    import mpmath

    pot, _ = two_term(a, b, 1, 1)
    rows = []
    for n in ns:
        pair, weights = pair_couplings(pot, BoundaryCondition.PER_PLUS, n, K, precision)
        mu = refined_dirichlet(pot, n, K, precision)
        with mpmath.workprec(precision):
            pair = replace(pair, mu=mu, deviation=abs(pair.lam_plus - mu))
            # max(|beta-/beta+|, |beta+/beta-|) at z = 0, then at z*
            c1, c2 = (float(max(q, 1 / q)) for q in (abs(bm / bp) for bp, bm in weights))
            c3 = criterion3_ratio(pair)
        rows.append({"n": n, "c1": c1, "c2": c2, "c3": c3, "gap": float(pair.gap)})
    return ConcordanceReport(
        potential=f"bands -2, 2 with coefficients {a}, {b}",
        K=K,
        precision=precision,
        rows=tuple(rows),
    )
