"""Truncated-operator spectra of -y'' + v y on [0, pi].

Three boundary conditions, each with its own Fourier basis:

  per+       e^{2ikx},     k = K..-K     (periodic)
  per-       e^{(2k+1)ix}, k = K-1..-K   (antiperiodic)
  dirichlet  sin(kx),      k = 1..K

One map holds which cells of the truncation a potential fills: per+/per-
put V(m) on the line col - row = m/2, and Dirichlet puts w(t) on
col - row = +-t and -w(t) on row + col = t - 2, summed exactly where lines
cross.  Assembly rounds each exact cell to a double once and adds the free
eigenvalue, so the fill costs O(dim |support|) cells.  The dense matrix is
solved at hardware precision; eigenvalues near n^2 are grouped into unit
discs D_n and paired.  The same map drives an arbitrary-precision
refinement of a single pair (the gaps of interest shrink far below
hardware resolution well before n = 12): the basis functions with free
eigenvalue n^2 anchor blocks of positions linked through off-diagonal
cells, and a block whose links only join neighbours in ascending basis
index is a tridiagonal chain with a three-term determinant recurrence.
The recurrence runs on fixed-point Gaussian integers: each chain entry is
rounded once from its exact value to a multiple of 2^-(precision +
GUARD_BITS), and only the final determinant and derivatives become mpmath
values.  One Newton loop, on the determinant or on its first derivative,
finds the roots, and each refined value keeps only the digits that loop
resolved.
"""

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
import numpy as np
from mpmath.libmp import to_fixed

from .beta import alpha_n, beta_minus, beta_plus, default_step_cap
from .numerics import (
    GaussianRational,
    check_precision,
    complex_to_gaussian,
    mpc_abs,
    to_mpc,
)
from .potential import FourierPotential, TwoTermParams

MAX_K = 256
N_CAP = 10
DISC_RADIUS = 1.0
DEFAULT_PAIRING_TOL = 1e-8
REFINE_PRECISION = 320
NEWTON_ITERATIONS = 80
GUARD_BITS = 32


class BoundaryCondition(str, Enum):
    PER_PLUS = "per+"
    PER_MINUS = "per-"
    DIRICHLET = "dirichlet"


class LocalizationError(Exception):
    """A disc D_n holds a number of eigenvalues other than two."""

    def __init__(self, bc: "BoundaryCondition", n: int, found: Sequence[complex]):
        self.bc = bc
        self.n = n
        self.found = tuple(found)
        super().__init__(
            f"disc around {n}^2 under {bc.value} holds {len(self.found)} eigenvalues, expected 2"
        )


class DirichletUniquenessError(Exception):
    """The disc D_n holds a number of Dirichlet eigenvalues other than one."""

    def __init__(self, n: int, found: Sequence[complex]):
        self.n = n
        self.found = tuple(found)
        super().__init__(
            f"disc around {n}^2 holds {len(self.found)} Dirichlet eigenvalues, expected 1"
        )


class ConvergenceError(ArithmeticError):
    """A Newton loop ran out of iterations before its step met the tolerance."""

    def __init__(self, what: str, iterations: int, step):
        self.iterations = iterations
        self.step = step
        super().__init__(
            f"{what} did not converge in {iterations} iterations "
            f"(last step size {mpmath.nstr(step, 5)})"
        )


def basis_indices(bc: BoundaryCondition, K: int) -> tuple:
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K > MAX_K:
        raise ValueError(f"K={K} exceeds the limit K <= {MAX_K}")
    if bc == BoundaryCondition.PER_PLUS:
        return tuple(range(K, -K - 1, -1))
    if bc == BoundaryCondition.PER_MINUS:
        return tuple(range(K - 1, -K - 1, -1))
    return tuple(range(1, K + 1))


def free_eigenvalue(bc: BoundaryCondition, k: int) -> int:
    if bc == BoundaryCondition.PER_PLUS:
        return (2 * k) ** 2
    if bc == BoundaryCondition.PER_MINUS:
        return (2 * k + 1) ** 2
    return k * k


@dataclass(frozen=True)
class TruncatedOperator:
    bc: BoundaryCondition
    K: int
    indices: tuple
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.indices)


def _potential_cells(pot: FourierPotential, bc: BoundaryCondition, K: int) -> dict:
    """The nonzero exact potential entries {(row, col): value} of the
    truncation for bc at cutoff K; the free eigenvalues are not included.

    per+/per-: the entry for (k_i, k_j) is V(2(k_i - k_j)) and indices
    descend, so V(m) sits on col - row = m/2.  Dirichlet: the coupling of
    sin(jx) and sin(kx) is w(|j - k|) - w(j + k) with w(t) = (V(t) + V(-t))/2,
    so w(t) sits on col - row = +-t and -w(t) on row + col = t - 2; where
    lines cross the exact values are summed.  Exact zeros are dropped."""
    dim = len(basis_indices(bc, K))

    def diagonal(offset):  # the cells with col - row = offset
        return ((r, r + offset) for r in range(max(0, -offset), min(dim, dim - offset)))

    def antidiagonal(total):  # the cells with row + col = total
        return ((r, total - r) for r in range(max(0, total - dim + 1), min(dim, total + 1)))

    if bc == BoundaryCondition.DIRICHLET:
        lines = []
        for t in sorted({abs(m) for m in pot.support()}):
            w = (pot.coefficient(t) + pot.coefficient(-t)) * Fraction(1, 2)
            lines += [(diagonal(t), w), (diagonal(-t), w), (antidiagonal(t - 2), -w)]
    else:
        lines = [(diagonal(m // 2), value) for m, value in pot.coeffs]
    cells = {}
    for line, value in lines:
        for cell in line:
            cells[cell] = cells[cell] + value if cell in cells else value
    return {cell: value for cell, value in cells.items() if not value.is_zero()}


def _operator(cells: dict, bc: BoundaryCondition, K: int) -> TruncatedOperator:
    """The dense truncation filled from the cell map `cells`
    (`_potential_cells(pot, bc, K)`).

    Each exact cell is rounded once and the free eigenvalue is added on the
    diagonal after the rounding, so every entry is the one an entry-by-entry
    fill gives."""
    ks = basis_indices(bc, K)
    M = np.zeros((len(ks), len(ks)), dtype=complex)
    if cells:
        rows, cols = zip(*cells)
        M[rows, cols] = [complex(value) for value in cells.values()]
    for i, k in enumerate(ks):
        M[i, i] += free_eigenvalue(bc, k)
    return TruncatedOperator(bc, K, ks, M)


def assemble(pot: FourierPotential, bc: BoundaryCondition, K: int) -> TruncatedOperator:
    """Dense truncation of the operator in the basis for bc at cutoff K."""
    bc = BoundaryCondition(bc)
    return _operator(_potential_cells(pot, bc, K), bc, K)


def eigenvalues(op: TruncatedOperator) -> list:
    """All eigenvalues of the truncation, sorted by (re, im)."""
    vals = np.linalg.eigvals(op.matrix)
    return sorted((complex(v) for v in vals), key=lambda w: (w.real, w.imag))


# -- localization ----------------------------------------------------------


@dataclass(frozen=True)
class SpectralPair:
    """The two eigenvalues in the unit disc around n^2, in (re, im) order:
    floats from localization, mpmath values from `refined_pair`."""

    n: int
    lam_minus: complex
    lam_plus: complex
    z_star: complex
    gap: float
    multiplicity_flag: str
    mu: Optional[complex] = None
    deviation: Optional[float] = None

    def __post_init__(self) -> None:
        mid = 0.5 * (self.lam_minus + self.lam_plus) - self.n**2
        if abs(mid - self.z_star) > 1e-9 * max(1.0, abs(self.z_star)):
            raise ValueError("z_star inconsistent with the stored eigenvalues")
        if self.gap < 0:
            raise ValueError("gap must be nonnegative")


@dataclass(frozen=True)
class LocalizationResult:
    bc: BoundaryCondition
    N: int
    pairs: tuple
    low_block: tuple

    def pair(self, n: int) -> SpectralPair:
        for p in self.pairs:
            if p.n == n:
                return p
        raise KeyError(f"no pair at n={n}")


def parity_indices(bc: BoundaryCondition, N: int, n_max: int) -> list:
    """Disc centers n in (N, n_max] matching the parity class of bc."""
    if bc == BoundaryCondition.PER_PLUS:
        return [n for n in range(N + 1, n_max + 1) if n % 2 == 0]
    if bc == BoundaryCondition.PER_MINUS:
        return [n for n in range(N + 1, n_max + 1) if n % 2 == 1]
    raise ValueError("pair localization applies to per+ / per- only")


def localize_pairs(
    eigs: Sequence[complex],
    bc: BoundaryCondition,
    N: int,
    n_max: int,
    pairing_tol: float = DEFAULT_PAIRING_TOL,
) -> LocalizationResult:
    """Group eigenvalues into unit discs D_n, N < n <= n_max.

    Each disc must hold exactly two eigenvalues (else LocalizationError);
    leftovers below the disc range form the low block, the rest (truncation
    edge) are dropped."""
    bc = BoundaryCondition(bc)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if n_max <= N:
        raise ValueError(f"n_max must exceed N, got n_max={n_max} N={N}")
    centers = parity_indices(bc, N, n_max)
    by_disc = {n: [] for n in centers}
    low = []
    low_cut = (N + 0.5) ** 2
    for lam in eigs:
        owner = None
        for n in centers:
            if abs(lam - n * n) < DISC_RADIUS:
                owner = n
                break
        if owner is not None:
            by_disc[owner].append(lam)
        elif lam.real < low_cut:
            low.append(lam)
    pairs = []
    for n in centers:
        found = sorted(by_disc[n], key=lambda w: (w.real, w.imag))
        if len(found) != 2:
            raise LocalizationError(bc, n, found)
        lo, hi = found
        gap = abs(hi - lo)
        flag = "double" if gap <= pairing_tol else "simple-pair"
        pairs.append(
            SpectralPair(
                n=n,
                lam_minus=lo,
                lam_plus=hi,
                z_star=0.5 * (lo + hi) - n * n,
                gap=gap,
                multiplicity_flag=flag,
            )
        )
    return LocalizationResult(bc, N, tuple(pairs), tuple(low))


def find_working_N(
    pot: FourierPotential,
    bc: BoundaryCondition,
    K: int,
    n_max: int,
) -> tuple:
    """Smallest N <= N_CAP with clean localization, plus its result.

    The threshold below which discs stop being trustworthy is potential
    dependent and only known to exist; this scans for it empirically."""
    bc = BoundaryCondition(bc)
    if bc == BoundaryCondition.DIRICHLET:
        raise ValueError("pair localization applies to per+ / per- only")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    eigs = eigenvalues(assemble(pot, bc, K))
    last_err = None
    for N in range(N_CAP + 1):
        if n_max <= N:
            break
        try:
            return N, localize_pairs(eigs, bc, N, n_max)
        except LocalizationError as err:
            last_err = err
    raise LocalizationError(last_err.bc, last_err.n, last_err.found)


def _dirichlet_in_disc(eigs: Sequence[complex], n: int) -> complex:
    found = [lam for lam in eigs if abs(lam - n * n) < DISC_RADIUS]
    if len(found) != 1:
        raise DirichletUniquenessError(n, found)
    return found[0]


def dirichlet_close(pot: FourierPotential, K: int, n: int) -> complex:
    """The unique Dirichlet eigenvalue in the unit disc around n^2."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _dirichlet_in_disc(eigenvalues(assemble(pot, BoundaryCondition.DIRICHLET, K)), n)


def attach_dirichlet(
    result: LocalizationResult, pot: FourierPotential, K: int
) -> LocalizationResult:
    """Fill mu and deviation on every pair from one Dirichlet solve."""
    eigs = eigenvalues(assemble(pot, BoundaryCondition.DIRICHLET, K))
    pairs = []
    for p in result.pairs:
        mu = _dirichlet_in_disc(eigs, p.n)
        pairs.append(replace(p, mu=mu, deviation=abs(p.lam_plus - mu)))
    return replace(result, pairs=tuple(pairs))


def spectrum_csv(result: LocalizationResult) -> str:
    """Pair table in the dump layout; mu columns empty when not attached."""
    lines = [
        "n,lam_minus_re,lam_minus_im,lam_plus_re,lam_plus_im,gap,"
        "mu_re,mu_im,deviation,z_star_re,z_star_im,flags"
    ]
    for p in result.pairs:
        mu_re = repr(p.mu.real) if p.mu is not None else ""
        mu_im = repr(p.mu.imag) if p.mu is not None else ""
        dev = repr(p.deviation) if p.deviation is not None else ""
        lines.append(
            f"{p.n},{p.lam_minus.real!r},{p.lam_minus.imag!r},"
            f"{p.lam_plus.real!r},{p.lam_plus.imag!r},{p.gap!r},"
            f"{mu_re},{mu_im},{dev},{p.z_star.real!r},{p.z_star.imag!r},"
            f"{p.multiplicity_flag}"
        )
    return "\n".join(lines) + "\n"


# -- cross-path residual ---------------------------------------------------


def reduction_residual(
    pot: FourierPotential,
    params: Optional[TwoTermParams],
    n: int,
    lam: complex,
) -> float:
    """|(z - alpha_n(z))^2 - beta^-(z) beta^+(z)| at z = lam - n^2.

    Vanishes exactly when lam solves the reduced 2x2 eigenvalue problem;
    at truncated shell caps it measures cross-path agreement between the
    dense solver and the walk sums."""
    z = complex(lam) - n * n
    if abs(z) >= n / 4:
        raise ValueError(f"need |lam - n^2| < n/4, got |z| = {abs(z):.3g} at n = {n}")
    zg = complex_to_gaussian(z)
    if params is None and not pot.is_empty():
        params = TwoTermParams.from_potential(pot)
    cap = default_step_cap(params) if params else 2
    alpha = alpha_n(pot, n, z=zg, step_cap=cap).value
    bplus = beta_plus(pot, params, n, z=zg).value
    bminus = beta_minus(pot, params, n, z=zg).value
    residual = (zg - alpha) ** 2 - bminus * bplus
    return float(mpc_abs(to_mpc(residual)))


# -- arbitrary-precision refinement ----------------------------------------


def _chain_det(diag, offprod, lam, precision, derivatives=2):
    """det(T - lam) and its first `derivatives` (1 or 2) lam-derivatives
    for a tridiagonal chain, as mpc values at the context precision.

    diag and offprod hold Gaussian integers (re, im) scaled by 2^F, F =
    precision + GUARD_BITS, as `_chain` rounds them; offprod[i] is the
    sub*super product coupling entries i and i+1.  The recurrence runs on
    ints: each of d, d', d'' keeps its (current, previous) pair over its own
    power of two and is shifted back to F + GUARD_BITS bits after every
    step; the coupling terms -d and -2d' are aligned to it by a shift.  A
    shared exponent would let d'' drown d and d' near a near-double root."""
    F = precision + GUARD_BITS
    width = F + GUARD_BITS
    lre, lim = to_fixed(lam.real._mpf_, F), to_fixed(lam.imag._mpf_, F)
    (are, aim), one = diag[0], 1 << F
    # per sequence: current re, im, previous re, im, binary exponent
    seqs = [[are - lre, aim - lim, one, 0, -F], [-one, 0, 0, 0, -F], [0, 0, 0, 0, -F]]
    del seqs[derivatives + 1:]
    for (dre, dim), (sre, sim) in zip(diag[1:], offprod):
        are, aim = dre - lre, dim - lim
        lower = None  # the sequence below, before this step: re, im, exponent
        for j, seq in enumerate(seqs):
            cre, cim, pre, pim, e = seq
            re = are * cre - aim * cim - sre * pre + sim * pim
            im = are * cim + aim * cre - sre * pim - sim * pre
            if lower:
                bre, bim, k = lower
                k += F - e
                if k >= 0:
                    re -= j * (bre << k)
                    im -= j * (bim << k)
                else:
                    re -= j * (bre >> -k)
                    im -= j * (bim >> -k)
            lower = cre, cim, e
            if not (re or im or cre or cim):  # a zero pair keeps its exponent
                seq[:4] = 0, 0, 0, 0
                continue
            t = max(re.bit_length(), im.bit_length(),
                    max(cre.bit_length(), cim.bit_length()) + F) - width
            k = F - t
            if t >= 0:
                re, im = re >> t, im >> t
            else:
                re, im = re << -t, im << -t
            if k >= 0:
                seq[:] = re, im, cre << k, cim << k, e - k
            else:
                seq[:] = re, im, cre >> -k, cim >> -k, e - k
    return tuple(mpmath.mpc(mpmath.mpf((re, e)), mpmath.mpf((im, e))) for re, im, _, _, e in seqs)


def _newton(diag, offprod, lam, precision, order, what):
    """Newton from `lam` on the order-th lam-derivative of det(T - lam):
    order 0 polishes a root, order 1 finds the critical point between two.
    Stops once a step is below 2^-(precision-16) max(1, |lam|)."""
    lam = mpmath.mpc(lam)
    tol = mpmath.mpf(2) ** (-(precision - 16))
    for _ in range(NEWTON_ITERATIONS):
        f, df = _chain_det(diag, offprod, lam, precision, order + 1)[order:]
        if df == 0:
            return lam
        step = f / df
        lam = lam - step
        if mpc_abs(step) <= tol * max(mpmath.mpf(1), mpc_abs(lam)):
            return lam
    raise ConvergenceError(what, NEWTON_ITERATIONS, mpc_abs(step))


def _resolved(z, scale, precision):
    """z with every component below the Newton tolerance
    2^-(precision-16) max(1, scale) set to zero: those digits were never
    resolved and would follow the hardware seed, not the operator."""
    tol = mpmath.mpf(2) ** (-(precision - 16)) * max(1, scale)
    return mpmath.mpc(0 if abs(z.real) < tol else z.real, 0 if abs(z.imag) < tol else z.imag)


def _root(diag, offprod, seed, precision):
    """The chain determinant's root polished from `seed`, resolved digits only."""
    lam = _newton(diag, offprod, seed, precision, 0, "Newton polish")
    return _resolved(lam, abs(lam), precision)


def _fixed(value, bits: int) -> tuple:
    """round(value 2^bits) of an exact scalar, as a Gaussian integer (re, im)."""
    g = GaussianRational.of(value)
    return tuple((2 * (q.numerator << bits) + q.denominator) // (2 * q.denominator)
                 for q in (g.re, g.im))


def _chain(cells: dict, bc: BoundaryCondition, K: int, anchor: int, precision: int):
    """The tridiagonal chain through basis position `anchor` of the cell map
    `cells` (`_potential_cells(pot, bc, K)`).

    The block is every position linked to the anchor through off-diagonal
    cells, in ascending basis index k; unless every link joins neighbours
    in that order the block is no chain and ValueError is raised.  The
    diagonal is the free eigenvalue plus the diagonal cell, and offprod[i]
    is cell(i, i+1) * cell(i+1, i), formed once per distinct pair of cells.
    Each distinct exact value is rounded once to a Gaussian integer over
    2^(precision + GUARD_BITS) (`_fixed`).  Returns (block, diag, offprod)."""
    ks = basis_indices(bc, K)
    links = {}
    for row, col in cells:
        if row != col:
            links.setdefault(row, set()).add(col)
            links.setdefault(col, set()).add(row)
    block, frontier = {anchor}, [anchor]
    while frontier:
        for j in links.get(frontier.pop(), ()):
            if j not in block:
                block.add(j)
                frontier.append(j)
    order = sorted(block, key=lambda i: ks[i])
    place = {i: p for p, i in enumerate(order)}
    for i in order:
        for j in links.get(i, ()):
            if abs(place[i] - place[j]) != 1:
                raise ValueError(
                    f"the {bc.value} block through k={ks[anchor]} is not a chain: "
                    f"k={ks[i]} couples to k={ks[j]}, which is not its neighbour"
                )
    bits = precision + GUARD_BITS
    rounded = {}

    def fixed(value):
        if value not in rounded:
            rounded[value] = _fixed(value, bits)
        return rounded[value]

    # the cells of one line share one value object, so the identities of a
    # link's two cells name its product without hashing a Fraction per link
    zero = GaussianRational()
    pairs = [(cells.get((i, j), zero), cells.get((j, i), zero)) for i, j in zip(order, order[1:])]
    distinct = {(id(x), id(y)): (x, y) for x, y in pairs}
    products = {key: fixed(x * y) for key, (x, y) in distinct.items()}
    # a diagonal without a cell stays an int, which hashes and rounds cheaply
    diag = [fixed(free_eigenvalue(bc, ks[i]) + cells.get((i, i), 0)) for i in order]
    return block, diag, [products[id(x), id(y)] for x, y in pairs]


def _disc_anchors(bc: BoundaryCondition, K: int, n: int, count: int) -> list:
    """The basis positions whose free eigenvalue is n^2, n >= 1: the functions
    the disc D_n grows from.  A pair has two, a Dirichlet disc one; any other
    count raises ValueError (wrong parity for bc, or n beyond the cutoff)."""
    ks = basis_indices(bc, K) if n >= 1 else ()
    anchors = [i for i, k in enumerate(ks) if free_eigenvalue(bc, k) == n * n]
    if len(anchors) != count:
        parity = {BoundaryCondition.PER_PLUS: " (per+ discs sit at even n)",
                  BoundaryCondition.PER_MINUS: " (per- discs sit at odd n)"}.get(bc, "")
        raise ValueError(
            f"{bc.value} at K={K} has {len(anchors)} basis functions with free "
            f"eigenvalue n^2 for n={n}, need {count}{parity}"
        )
    return anchors


def refined_pair(
    pot: FourierPotential,
    bc: BoundaryCondition,
    n: int,
    K: int,
    precision: int = REFINE_PRECISION,
) -> SpectralPair:
    """The D_n pair at arbitrary precision, as a SpectralPair of mpmath values.

    Hardware eigenvalues seed a Newton iteration on the chain determinants
    through the two basis functions with free eigenvalue n^2.  When both lie
    in one chain the near-double pair is split first: the quadratic-model
    discriminant at the seed cancels to (gap/seed error)^2 and drowns once
    gaps fall below the square of the hardware error, so Newton drives det'
    to zero (the critical point sits between the two roots and is reached at
    full precision), then steps +-sqrt(-2 p / p'').  Needed because the pair
    gaps shrink super-exponentially in n while the eigenvalues themselves
    stay of size n^2.

    Roots and z* keep only their resolved digits (`_resolved`): when ab is
    real, z* is real, and a denormal imaginary part would put every exact sum
    at z* over a 1074-bit denominator.  The pair is simple when its gap
    exceeds 2^-(precision/2), below which the split is not resolved."""
    check_precision(precision)
    bc = BoundaryCondition(bc)
    first, second = _disc_anchors(bc, K, n, 2)
    cells = _potential_cells(pot, bc, K)
    block, diag, offprod = _chain(cells, bc, K, first, precision)
    eigs = eigenvalues(_operator(cells, bc, K))
    near = sorted(eigs, key=lambda w: abs(w - n * n))[:2]
    seed = 0.5 * (near[0] + near[1])
    with mpmath.workprec(precision):
        if second in block:
            mid = _newton(diag, offprod, seed, precision, 1, "critical-point Newton")
            p, _, p2 = _chain_det(diag, offprod, mid, precision)
            h = mpmath.sqrt(-2 * p / p2) if p2 != 0 else 0
            chains, seeds = [(diag, offprod)] * 2, (mid - h, mid + h)
        else:
            chains = [(diag, offprod), _chain(cells, bc, K, second, precision)[1:]]
            seeds = (seed, seed)
        lam_minus, lam_plus = sorted(
            (_root(d, o, s, precision) for (d, o), s in zip(chains, seeds)),
            key=lambda w: (w.real, w.imag))
        gap = abs(lam_plus - lam_minus)
        z = (lam_minus + lam_plus) / 2 - n**2
        return SpectralPair(
            n=n,
            lam_minus=lam_minus,
            lam_plus=lam_plus,
            z_star=_resolved(z, max(abs(lam_minus), abs(lam_plus)), precision),
            gap=gap,
            multiplicity_flag="simple-pair" if gap > mpmath.mpf(2) ** (-(precision // 2))
            else "double",
        )


def refined_dirichlet(
    pot: FourierPotential,
    n: int,
    K: int,
    precision: int = REFINE_PRECISION,
) -> mpmath.mpc:
    """mu_n at arbitrary precision, by Newton on the chain through sin(nx)
    seeded from the hardware solve."""
    check_precision(precision)
    bc = BoundaryCondition.DIRICHLET
    (anchor,) = _disc_anchors(bc, K, n, 1)
    cells = _potential_cells(pot, bc, K)
    _, diag, offprod = _chain(cells, bc, K, anchor, precision)
    seed = _dirichlet_in_disc(eigenvalues(_operator(cells, bc, K)), n)
    with mpmath.workprec(precision):
        return _root(diag, offprod, seed, precision)
