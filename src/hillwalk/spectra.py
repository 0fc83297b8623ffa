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
discs D_n and paired.  Pair gaps shrink far below hardware resolution well
before n = 12, so the same map also drives an arbitrary-precision
refinement: the Schur complement S(z) onto the basis functions with free
eigenvalue n^2 (2x2 for a pair, 1x1 for a Dirichlet disc) comes from one
banded elimination of the other positions on fixed-point Gaussian
integers, and Newton on z = S(z) from the disc centre gives n^2 + z.
One layout of that elimination per disc also gives the pair couplings
beta+- = S12, S21 and the residual |det(z - S(z))| of a hardware root.
The layout marks the live slots, where the solve can be nonzero, and the
kernel does only that arithmetic; S'22 is S'11 under per+-, and the
couplings at z = 0 are the pair's first Newton evaluation.  mpmath is
imported only inside the functions that refine.
"""

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .numerics import GaussianRational, check_precision
from .potential import FourierPotential

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


class DegenerateRatioError(Exception):
    """A weight ratio was requested where one side vanishes."""


class ConvergenceError(ArithmeticError):
    """A Newton loop ran out of iterations before its step met the tolerance."""

    def __init__(self, what: str, iterations: int, step):
        import mpmath

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
    matrix: "numpy.ndarray"  # numpy loads only where a matrix is built

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


def assemble(pot: FourierPotential, bc: BoundaryCondition, K: int) -> TruncatedOperator:
    """Dense truncation of the operator in the basis for bc at cutoff K.

    Each exact cell of `_potential_cells` is rounded once and the free
    eigenvalue is added on the diagonal after the rounding, so every entry
    is the one an entry-by-entry fill gives."""
    import numpy as np

    bc = BoundaryCondition(bc)
    cells = _potential_cells(pot, bc, K)
    ks = basis_indices(bc, K)
    M = np.zeros((len(ks), len(ks)), dtype=complex)
    if cells:
        rows, cols = zip(*cells)
        M[rows, cols] = [complex(value) for value in cells.values()]
    for i, k in enumerate(ks):
        M[i, i] += free_eigenvalue(bc, k)
    return TruncatedOperator(bc, K, ks, M)


def eigenvalues(op: TruncatedOperator) -> list:
    """All eigenvalues of the truncation, sorted by (re, im)."""
    import numpy as np

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
) -> LocalizationResult:
    """Group eigenvalues into unit discs D_n, N < n <= n_max.

    Each disc must hold exactly two eigenvalues (else LocalizationError);
    a pair whose gap is at most DEFAULT_PAIRING_TOL is flagged double.
    Leftovers below the disc range form the low block, the rest (truncation
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
        flag = "double" if gap <= DEFAULT_PAIRING_TOL else "simple-pair"
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


def reduction_residual(pot: FourierPotential, n: int, K: int, lam: complex) -> float:
    """|det(z - S(z))| at z = lam - n^2, for the 2x2 Schur complement S of the
    cutoff-K truncation onto the D_n basis functions (`_schur`), under per+
    for even n and per- for odd n.

    Vanishes exactly when lam is an eigenvalue of that truncation, so at a
    hardware eigenvalue it measures how far the dense solver and the
    reduction agree.  |det| is about |lam - lam+| |lam - lam-|, so it scales
    with the gap of the pair.  Needs |z| < DISC_RADIUS, the disc `_reduction` checks."""
    z = complex(lam) - n * n
    if abs(z) >= DISC_RADIUS:
        raise ValueError(f"need |lam - n^2| < {DISC_RADIUS:g}, got |z| = {abs(z):.3g} at n = {n}")
    import mpmath

    bc = BoundaryCondition.PER_MINUS if n % 2 else BoundaryCondition.PER_PLUS
    plan = _reduction(pot, bc, n, K, 2, REFINE_PRECISION)
    with mpmath.workprec(REFINE_PRECISION):
        z = mpmath.mpc(z)
        ((s11, s12), (s21, s22)), _ = _schur(plan, z)
        return float(abs((z - s11) * (z - s22) - s12 * s21))


# -- arbitrary-precision refinement ----------------------------------------


def _fixed(value, bits: int) -> tuple:
    """round(value 2^bits) of an exact scalar, as a Gaussian integer (re, im)."""
    g = GaussianRational.of(value)
    return tuple((2 * (q.numerator << bits) + q.denominator) // (2 * q.denominator)
                 for q in (g.re, g.im))


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


class _Layout(NamedTuple):
    """The layout of one disc's Schur-complement elimination (`_reduction`)."""

    bits: int  # fixed-point entries are integers over 2^bits
    re: list  # A(0) per slot, real parts
    im: list  # A(0) per slot, imaginary parts
    steps: list  # per row j: (slot of A[j, j], eliminations of row j)
    back: list  # per row q: ((k, slot of A[q, k]) for k > q)
    forward: list  # per anchor p: (j, q, e) for each elimination e that moves x_p[j]
    backward: list  # per anchor p: the rows of x_p back-substitution moves, last first
    columns: list  # per anchor: V_QP as (row, re, im) over its nonzero rows
    vpp: tuple  # V_PP over 2^(2 bits)
    mirror: bool  # whether the reflection J reverses Q (per+-) or is 1


def _reduction(pot: FourierPotential, bc: BoundaryCondition, n: int, K: int, count: int,
               precision: int) -> _Layout:
    """The layout (plan) of the Schur complement of the truncation onto the
    `count` basis functions with free eigenvalue n^2 (`_disc_anchors`).

    Q holds the other positions joined to an anchor through nonzero cells
    (a search over the cell graph of `_potential_cells`).  The rest add
    exactly nothing to S(z): A(z) is block diagonal over them and V_PQ,
    V_QP vanish there, so they are neither eliminated nor checked; the set
    is closed under the reflection J of `_schur`, which still reverses Q.
    A(z) = diag(n^2 + z - free) - V over Q is eliminated in basis order
    without pivoting, which is stable when A is strictly diagonally
    dominant.  Each row is checked over the whole disc
    |z| <= DISC_RADIUS, with no seed: it passes when |n^2 - free - V_jj| -
    DISC_RADIUS exceeds its off-diagonal sum by a margin delta > 0, and a
    row that does not raises ValueError.  The fill pattern does not depend
    on z, so the plan gives each of its entries a slot, holding A(0) with
    each exact cell rounded once over 2^(precision + GUARD_BITS) (`_fixed`),
    or 0.  steps[j] = (slot of A[j, j], ((q, slot of A[j, q], ((slot of
    A[j, k], slot of A[q, k]) for k > q)) for q < j in row j)), and the
    eliminations are numbered e = 0, 1, ... in that order; back[q] = ((k,
    slot of A[q, k]) for k > q).

    Live slots.  The solve x_p = A^-1 V_QP of `_schur` can be nonzero
    during forward elimination only in the rows where V_QP[p] is nonzero
    and the rows an elimination reaches from them, and after
    back-substitution only in those and the rows whose back entries reach
    them.  Both sets come from one bit per anchor, OR-ed along the fill
    pattern as it is built and then back along `back`.  forward[p] keeps
    the eliminations (j, q, e) whose row q is live, backward[p] the live
    rows of back-substitution in the order it visits them, and columns[p]
    the rows of V_QP[p] whose rounded value is nonzero, as (row, re, im):
    every product left out multiplies an exact zero."""
    anchors = _disc_anchors(bc, K, n, count)
    cells = _potential_cells(pot, bc, K)
    ks = basis_indices(bc, K)
    bits = precision + GUARD_BITS
    neighbours = {}
    for i, j in cells:
        neighbours.setdefault(i, []).append(j)
        neighbours.setdefault(j, []).append(i)
    joined, frontier = set(anchors), list(anchors)
    while frontier:
        for j in neighbours.get(frontier.pop(), ()):
            if j not in joined:
                joined.add(j)
                frontier.append(j)
    Q = sorted(joined.difference(anchors))
    del neighbours  # freed before the layout is built, which outlives this call
    at = {i: q for q, i in enumerate(Q)}
    distinct = {id(v): v for v in cells.values()}  # the cells of one line share one object
    rounded = {key: _fixed(v, bits) for key, v in distinct.items()}
    approx = {key: complex(v) for key, v in distinct.items()}
    anchor = {p: a for a, p in enumerate(anchors)}
    rows = [{} for _ in Q]  # off the diagonal: column -> id of the cell value
    columns = [[] for _ in anchors]  # V_QP[p] as (row, re, im) over its nonzero rows
    for (i, j), value in cells.items():
        if i != j and i in at and j in at:
            rows[at[i]][at[j]] = id(value)
        elif i in at and j in anchor and rounded[id(value)] != (0, 0):
            columns[anchor[j]].append((at[i], *rounded[id(value)]))
    live = [0] * len(Q)  # bit p: x_p can be nonzero in this row
    for p, column in enumerate(columns):
        for q, _, _ in column:
            live[q] |= 1 << p
    pattern, slot, values = [], {}, []
    for j, i in enumerate(Q):
        cell, free = id(cells.get((i, i))), n * n - free_eigenvalue(bc, ks[i])
        off = sum(abs(approx[v]) for v in rows[j].values())
        if not abs(free - approx.get(cell, 0)) - DISC_RADIUS > off:
            raise ValueError(f"{bc.value} reduction at n={n}: row k={ks[i]} of A(z) is not strictly "
                             f"diagonally dominant on |z| <= {DISC_RADIUS:g}, so elimination may be unstable")
        cols = set(rows[j]) | {j}
        reach = live[j]
        for q in range(min(cols), j):
            if q in cols:
                cols |= {k for k in pattern[q] if k > q}
                reach |= live[q]
        pattern.append(sorted(cols))
        live[j] = reach
        for k in pattern[j]:
            slot[j, k] = len(values)
            re, im = rounded.get(cell if k == j else rows[j].get(k), (0, 0))
            values.append(((free << bits) - re, -im) if k == j else (-re, -im))
    upper = [[k for k in cols if k > q] for q, cols in enumerate(pattern)]
    back = [[(k, slot[q, k]) for k in cols] for q, cols in enumerate(upper)]
    steps = [(slot[j, j], [(q, slot[j, q], [(slot[j, k], slot[q, k]) for k in upper[q]])
                           for q in cols if q < j]) for j, cols in enumerate(pattern)]
    eliminations = [(j, q) for j, cols in enumerate(pattern) for q in cols if q < j]
    forward = [[(j, q, e) for e, (j, q) in enumerate(eliminations) if live[q] >> p & 1]
               for p in range(len(anchors))]
    for q in reversed(range(len(Q))):
        for k in upper[q]:
            live[q] |= live[k]
    backward = [[q for q in reversed(range(len(Q))) if live[q] >> p & 1] for p in range(len(anchors))]
    vpp = tuple(tuple((re << bits, im << bits) for re, im in
                      (rounded.get(id(cells.get((i, p))), (0, 0)) for p in anchors)) for i in anchors)
    return _Layout(bits, [v[0] for v in values], [v[1] for v in values], steps, back,
                   forward, backward, columns, vpp, bc != BoundaryCondition.DIRICHLET)


def _negated_dot(a, b):
    """-sum a_k b_k for Gaussian-integer vectors held as (re, im) lists."""
    (ar, ai), (br, bi) = a, b
    return (sum(map(mul, ai, bi)) - sum(map(mul, ar, br)),
            -sum(map(mul, ar, bi)) - sum(map(mul, ai, br)))


def _sparse_dot(left, column, start):
    """start + sum left_q (re + i im) over the nonzero rows (q, re, im) of a column."""
    (lr, li), (sr, si) = left, start
    for q, cr, ci in column:
        sr += lr[q] * cr - li[q] * ci
        si += lr[q] * ci + li[q] * cr
    return sr, si


def _schur(plan: _Layout, z) -> tuple:
    """(S(z), S'(z)) on the layout `plan` of `_reduction`, as lists of rows
    of mpc values: S = V_PP + V_PQ A(z)^-1 V_QP, S' = -V_PQ A(z)^-2 V_QP.

    One elimination solves x_p = A^-1 V_QP for each anchor p; V_PQ[p] A^-1
    needs no second solve, since A^T = J A J for the reflection J of the
    basis (k -> -k under per+, k -> -k-1 under per-, the identity for the
    symmetric sine matrix) and J swaps the anchors: V_PQ[p] A^-1 is
    (J x_{Jp})^T.  Products are shifted back to 2^-bits as they are formed;
    the final dot products are summed exactly, and each part of an entry is
    rounded once from its integer over 2^(2 bits) (`from_man_exp`), which
    is what mpc() of the integer times the exact power 2^(-2 bits) gives.

    Only the live slots of the plan are touched: x_p moves in the
    eliminations forward[p] and the rows backward[p], and S sums over the
    nonzero rows of V_QP, so every product left out is an exact zero and
    every entry keeps its bits.  Under per+- the two diagonal entries of S'
    are the same integer products summed in another order, (J x_2) x_1 and
    (J x_1) x_2, so S'_22 is S'_11 and three dot products are formed."""
    from mpmath import mp
    from mpmath.libmp import from_man_exp, round_nearest, to_fixed

    F, re, im, steps, back, forward, backward, columns, vpp, mirror = plan
    re, im = list(re), list(im)
    zr, zi = to_fixed(z.real._mpf_, F), to_fixed(z.imag._mpf_, F)
    for s, _ in steps:
        re[s] += zr
        im[s] += zi
    inverse, multipliers = [], []
    for d, eliminations in steps:
        for q, s, updates in eliminations:
            (ir, ii), ar, ai = inverse[q], re[s], im[s]
            lr, li = (ar * ir - ai * ii) >> F, (ar * ii + ai * ir) >> F
            for t, u in updates:
                ur, ui = re[u], im[u]
                re[t] -= (lr * ur - li * ui) >> F
                im[t] -= (lr * ui + li * ur) >> F
            multipliers.append((lr, li))
        br, bi = re[d], im[d]
        norm = br * br + bi * bi
        inverse.append(((br << 2 * F) // norm, (-bi << 2 * F) // norm))
    xs = []
    for lower, moved, column in zip(forward, backward, columns):
        xr, xi = [0] * len(steps), [0] * len(steps)
        for q, cr, ci in column:
            xr[q], xi[q] = cr, ci
        for j, q, e in lower:
            (lr, li), ur, ui = multipliers[e], xr[q], xi[q]
            xr[j] -= (lr * ur - li * ui) >> F
            xi[j] -= (lr * ui + li * ur) >> F
        for q in moved:
            vr, vi = xr[q], xi[q]
            for k, s in back[q]:
                ar, ai, ur, ui = re[s], im[s], xr[k], xi[k]
                vr -= (ar * ur - ai * ui) >> F
                vi -= (ar * ui + ai * ur) >> F
            ir, ii = inverse[q]
            xr[q], xi[q] = (vr * ir - vi * ii) >> F, (vr * ii + vi * ir) >> F
        xs.append((xr, xi))
    prec = mp.prec

    def entry(re, im):  # (re + i im) 2^(-2F), each part rounded once
        return mp.make_mpc((from_man_exp(re, -2 * F, prec, round_nearest),
                            from_man_exp(im, -2 * F, prec, round_nearest)))

    lefts = [(xr[::-1], xi[::-1]) if mirror else (xr, xi) for xr, xi in reversed(xs)]
    S = [[entry(*_sparse_dot(left, column, v)) for column, v in zip(columns, row)]
         for left, row in zip(lefts, vpp)]
    if not mirror:
        return S, [[entry(*_negated_dot(left, x)) for x in xs] for left in lefts]
    (l1, l2), (x1, x2) = lefts, xs
    t11, t12, t21 = (entry(*_negated_dot(left, x)) for left, x in ((l1, x1), (l1, x2), (l2, x1)))
    return S, [[t11, t12], [t21, t11]]


def _newton(step, z, tol, what):
    """Newton from z, where step(z) returns the step f(z)/f'(z).

    Stops after the first step s with |s| <= 2^-16 sqrt(tol), without
    evaluating again: Newton's error after a step s is about |f''/2f'| s^2,
    so less than tol is left while |f''/2f'| < 2^32.  For the reduced
    equations below, f' = 1 - O(|S'|) and f'' is of the size of S'' =
    2 V_PQ A(z)^-3 V_QP, at most 2 |V|^2 / delta^3 for couplings up to |V|
    and the margin delta > 0 of the diagonal dominance `_reduction` checks
    over the whole disc |z| <= DISC_RADIUS, so at every iterate inside it;
    away from a zero of d, where the two roots meet, sqrt(d)'' is sqrt(d)
    times squared log-derivatives of S and adds no more."""
    import mpmath

    stop = mpmath.sqrt(tol) / 2**16
    for _ in range(NEWTON_ITERATIONS):
        s = step(z)
        z -= s
        if abs(s) <= stop:
            return z
    raise ConvergenceError(what, NEWTON_ITERATIONS, abs(s))


def _resolved(z, tol):
    """z with every component below the Newton resolution tol set to zero:
    those digits were never resolved and would follow the Newton path, not
    the operator."""
    import mpmath

    return mpmath.mpc(0 if abs(z.real) < tol else z.real, 0 if abs(z.imag) < tol else z.imag)


def refined_pair(pot: FourierPotential, bc: BoundaryCondition, n: int, K: int,
                 precision: int = REFINE_PRECISION) -> SpectralPair:
    """The D_n pair at arbitrary precision, as a SpectralPair of mpmath values.

    lam = n^2 + z, where z = S(z) for the 2x2 Schur complement S onto the
    basis functions with free eigenvalue n^2 (`_schur`); its entries are
    alpha, beta+ and beta- summed over every walk of the cut-off lattice.
    Each root solves one branch z = m(z) +- sqrt(d(z)), m = (S11 + S22)/2,
    d = ((S11 - S22)/2)^2 + S12 S21.  Newton runs on the first branch from
    the disc centre z = 0, then on the second from m - sqrt(d) of the first
    branch's last evaluation, each with the square root of d that continues
    its last one.  A root outside the disc |z| < DISC_RADIUS raises
    LocalizationError: the dominance margin delta of `_reduction` holds
    only inside it.  The gap is |z+ - z-|, so no step subtracts numbers of
    size n^2.  Roots and z* keep only their resolved digits (`_resolved`),
    and the pair is double when its gap is below that resolution,
    tol = 2^-(precision-16) n^2."""
    check_precision(precision)
    bc = BoundaryCondition(bc)
    return _pair(_reduction(pot, bc, n, K, 2, precision), bc, n, precision)[0]


def _pair(plan: _Layout, bc: BoundaryCondition, n: int, precision: int) -> tuple:
    """(`refined_pair` on the layout `plan` of `_reduction`, S(0)): Newton's
    first evaluation is the kernel at the disc centre, z = mpc(0) at the
    working precision, and its S is handed on."""
    import mpmath

    with mpmath.workprec(precision):
        tol = mpmath.ldexp(n * n, 16 - precision)
        last = [None, None]  # m and sqrt(d) at the latest evaluation
        origin = []  # S at the first evaluation, z = 0

        def step(z):
            S, ((t11, t12), (t21, t22)) = _schur(plan, z)
            (s11, s12), (s21, s22) = S
            if not origin:
                origin.append(S)
            m, h = (s11 + s22) / 2, (s11 - s22) / 2
            w = mpmath.sqrt(h * h + s12 * s21)
            if last[1] is not None and (w * mpmath.conj(last[1])).real < 0:
                w = -w
            dw = (h * (t11 - t22) + t12 * s21 + s12 * t21) / (2 * w) if w else 0
            last[:] = m, w
            return (z - m - w) / (1 - (t11 + t22) / 2 - dw)

        first = _newton(step, mpmath.mpc(0), tol, f"Newton on the first branch at n={n}")
        m, w = last
        last[1] = -w
        second = _newton(step, m - w, tol, f"Newton on the second branch at n={n}")
        inside = [n * n + z for z in (first, second) if abs(z) < DISC_RADIUS]
        if len(inside) < 2:
            raise LocalizationError(bc, n, inside)
        lo, hi = sorted((_resolved(n * n + z, tol) for z in (first, second)),
                        key=lambda v: (v.real, v.imag))
        gap = abs(first - second)
        return SpectralPair(n, lo, hi, _resolved((lo + hi) / 2 - n**2, tol), gap,
                            "simple-pair" if gap > tol else "double"), origin[0]


def pair_couplings(pot: FourierPotential, bc: BoundaryCondition, n: int, K: int,
                   precision: int = REFINE_PRECISION) -> tuple:
    """(pair, [(beta+, beta-) at z = 0 and at z*]): the refined D_n pair
    (`refined_pair`) and the entries (S12, S21) of its 2x2 Schur complement
    (`_schur`), sums over every walk of the cut-off lattice, from one layout
    of the reduction.  S(0) is the one the pair's Newton loop evaluated
    first (`_pair`), so only z* costs a kernel call here.  A pair that is
    not simple raises DegenerateRatioError, and so does an entry at or
    below the kernel's resolution 2^-(precision-16), instead of handing a
    ratio of noise on."""
    import mpmath

    check_precision(precision)
    bc = BoundaryCondition(bc)
    plan = _reduction(pot, bc, n, K, 2, precision)
    pair, at_zero = _pair(plan, bc, n, precision)
    if pair.multiplicity_flag != "simple-pair":
        raise DegenerateRatioError(f"pair at n={n} is not simple")
    with mpmath.workprec(precision):
        at_star = _schur(plan, mpmath.mpc(pair.z_star))[0]
        couplings = [(s12, s21) for (_, s12), (s21, _) in (at_zero, at_star)]
        if min(abs(s) for c in couplings for s in c) <= mpmath.ldexp(1, 16 - precision):
            raise DegenerateRatioError(f"beta+ or beta- at n={n} is at or below the resolution "
                                       f"2^-{precision - 16} of the reduction")
        return pair, couplings


def refined_dirichlet(pot: FourierPotential, n: int, K: int,
                      precision: int = REFINE_PRECISION) -> "mpmath.mpc":
    """mu_n at arbitrary precision, mu = n^2 + z: Newton on the 1x1
    reduction z = S(z) onto sin(nx) from the disc centre z = 0, with the
    tolerance and resolution of `refined_pair`.  A root outside the disc
    |z| < DISC_RADIUS, where `_reduction` checks dominance, raises
    DirichletUniquenessError."""
    import mpmath

    check_precision(precision)
    plan = _reduction(pot, BoundaryCondition.DIRICHLET, n, K, 1, precision)
    with mpmath.workprec(precision):
        tol = mpmath.ldexp(n * n, 16 - precision)

        def step(z):
            ((s,),), ((t,),) = _schur(plan, z)
            return (z - s) / (1 - t)

        z = _newton(step, mpmath.mpc(0), tol, f"Newton on the Dirichlet equation at n={n}")
        if abs(z) >= DISC_RADIUS:
            raise DirichletUniquenessError(n, [])
        return _resolved(n * n + z, tol)
