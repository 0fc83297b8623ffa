"""Truncated-operator spectra of -y'' + v y on [0, pi].

Three boundary conditions, each with its own Fourier basis:

  per+       e^{2ikx},     k = K..-K     (periodic)
  per-       e^{(2k+1)ix}, k = K-1..-K   (antiperiodic)
  dirichlet  sin(kx),      k = 1..K

Assembly walks the potential's support instead of the dim x dim grid: a
frequency m fills one Toeplitz diagonal for per+/per-, and for Dirichlet two
diagonals and one anti-diagonal.  Each exact line value, and the exact sum
where a diagonal crosses an anti-diagonal, is rounded to a double once, so
the fill costs O(dim |support|) cell writes.  The dense matrix is solved at
hardware precision; eigenvalues near n^2 are grouped into unit discs D_n and
paired.  For two-term potentials with equal band offsets the matrix splits
into tridiagonal chains, which supports a separate arbitrary-precision
refinement of a single pair (the gaps of interest shrink far below hardware
resolution well before n = 12).
"""

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
import numpy as np

from .beta import alpha_n, beta_minus, beta_plus, default_step_cap
from .numerics import (
    DEFAULT_PRECISION,
    GaussianRational,
    check_precision,
    complex_to_gaussian,
    mpc_abs,
    to_mpc,
)
from .potential import FourierPotential, TwoTermParams

MAX_K = 256
DISC_RADIUS = 1.0
DEFAULT_PAIRING_TOL = 1e-8
REFINE_PRECISION = 320


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


def basis_indices(bc: BoundaryCondition, K: int) -> tuple:
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
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


def dirichlet_entry(pot: FourierPotential, j: int, k: int) -> GaussianRational:
    """Coupling of sin(jx) and sin(kx); diagonal adds k^2 separately."""
    total = (
        pot.coefficient(j - k)
        + pot.coefficient(k - j)
        - pot.coefficient(j + k)
        - pot.coefficient(-j - k)
    )
    return total * Fraction(1, 2)


@dataclass(frozen=True)
class TruncatedOperator:
    bc: BoundaryCondition
    K: int
    indices: tuple
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.indices)


def _fill_diagonal(M: np.ndarray, offset: int, value: complex) -> None:
    """Write value on the cells with col - row = offset."""
    for row in range(max(0, -offset), min(len(M), len(M) - offset)):
        M[row, row + offset] = value


def _fill_antidiagonal(M: np.ndarray, total: int, value: complex) -> None:
    """Write value on the cells with row + col = total."""
    for row in range(max(0, total - len(M) + 1), min(len(M), total + 1)):
        M[row, total - row] = value


def _fill_dirichlet(M: np.ndarray, pot: FourierPotential) -> None:
    """Write the potential part of the sine-basis matrix into M (zeros).

    With w(t) = (V(t) + V(-t))/2, the coupling of sin(jx) and sin(kx) is
    w(|j - k|) - w(j + k): w(t) lies on the diagonals col - row = +-t and
    -w(t) on the anti-diagonal j + k = t, i.e. row + col = t - 2.  Where a
    diagonal crosses an anti-diagonal the two exact values are summed
    before the single rounding."""
    dim = len(M)
    w = {
        t: (pot.coefficient(t) + pot.coefficient(-t)) * Fraction(1, 2)
        for t in {abs(m) for m in pot.support()}
    }
    for t, value in w.items():
        if t < dim:
            rounded = complex(value)
            _fill_diagonal(M, t, rounded)
            _fill_diagonal(M, -t, rounded)
        if t <= 2 * dim:
            _fill_antidiagonal(M, t - 2, complex(-value))
    for t_anti, anti in w.items():
        for t_diag, diag in w.items():
            # row + col = t_anti - 2 meets col - row = +-t_diag in two
            # mirrored cells (both t even)
            row, col = (t_anti - 2 - t_diag) // 2, (t_anti - 2 + t_diag) // 2
            if row >= 0 and col < dim:
                M[row, col] = M[col, row] = complex(diag - anti)


def assemble(pot: FourierPotential, bc: BoundaryCondition, K: int) -> TruncatedOperator:
    """Dense truncation of the operator in the basis for bc at cutoff K.

    Only the O(dim |support|) cells a support frequency reaches are
    written.  Each cell's exact value is rounded once and the free
    eigenvalue is added on the diagonal after the rounding, so every entry
    is the one an entry-by-entry fill gives."""
    bc = BoundaryCondition(bc)
    if K > MAX_K:
        raise ValueError(f"K={K} exceeds the limit K <= {MAX_K}")
    ks = basis_indices(bc, K)
    dim = len(ks)
    M = np.zeros((dim, dim), dtype=complex)
    if bc == BoundaryCondition.DIRICHLET:
        _fill_dirichlet(M, pot)
    else:
        # the entry for (k_i, k_j) is V(2(k_i - k_j)); indices descend, so
        # frequency m sits on the diagonal col - row = m/2
        for m, value in pot.coeffs:
            if abs(m) < 2 * dim:
                _fill_diagonal(M, m // 2, complex(value))
    for i, k in enumerate(ks):
        M[i, i] += free_eigenvalue(bc, k)
    return TruncatedOperator(bc, K, ks, M)


def eigenvalues(op: TruncatedOperator) -> list:
    """All eigenvalues of the truncation, sorted by (re, im)."""
    vals = np.linalg.eigvals(op.matrix)
    return sorted((complex(v) for v in vals), key=lambda w: (w.real, w.imag))


# -- localization ----------------------------------------------------------


@dataclass(frozen=True)
class SpectralPair:
    """The two eigenvalues in the unit disc around n^2, in (re, im) order."""

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
    n_max: int
    pairs: tuple
    low_block: tuple
    unassigned: tuple

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
    leftovers below the disc range form the low block, the rest stay
    unassigned (truncation edge)."""
    bc = BoundaryCondition(bc)
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if n_max <= N:
        raise ValueError(f"n_max must exceed N, got n_max={n_max} N={N}")
    centers = parity_indices(bc, N, n_max)
    by_disc = {n: [] for n in centers}
    low, unassigned = [], []
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
        else:
            unassigned.append(lam)
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
    return LocalizationResult(bc, N, n_max, tuple(pairs), tuple(low), tuple(unassigned))


def find_working_N(
    pot: FourierPotential,
    bc: BoundaryCondition,
    K: int,
    n_max: int,
    N_cap: int = 10,
    pairing_tol: float = DEFAULT_PAIRING_TOL,
) -> tuple:
    """Smallest N <= N_cap with clean localization, plus its result.

    The threshold below which discs stop being trustworthy is potential
    dependent and only known to exist; this scans for it empirically."""
    bc = BoundaryCondition(bc)
    if bc == BoundaryCondition.DIRICHLET:
        raise ValueError("pair localization applies to per+ / per- only")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if N_cap < 0:
        raise ValueError(f"N_cap must be >= 0, got {N_cap}")
    eigs = eigenvalues(assemble(pot, bc, K))
    last_err = None
    for N in range(N_cap + 1):
        if n_max <= N:
            break
        try:
            return N, localize_pairs(eigs, bc, N, n_max, pairing_tol)
        except LocalizationError as err:
            last_err = err
    raise LocalizationError(last_err.bc, last_err.n, last_err.found)


def dirichlet_close(pot: FourierPotential, K: int, n: int) -> complex:
    """The unique Dirichlet eigenvalue in the unit disc around n^2."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    eigs = eigenvalues(assemble(pot, BoundaryCondition.DIRICHLET, K))
    found = [lam for lam in eigs if abs(lam - n * n) < DISC_RADIUS]
    if len(found) != 1:
        raise DirichletUniquenessError(n, found)
    return found[0]


def attach_dirichlet(
    result: LocalizationResult, pot: FourierPotential, K: int
) -> LocalizationResult:
    """Fill mu and deviation on every pair from one Dirichlet solve."""
    eigs = eigenvalues(assemble(pot, BoundaryCondition.DIRICHLET, K))
    pairs = []
    for p in result.pairs:
        found = [lam for lam in eigs if abs(lam - p.n * p.n) < DISC_RADIUS]
        if len(found) != 1:
            raise DirichletUniquenessError(p.n, found)
        mu = found[0]
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
    shell_caps: tuple = (3, 2),
    step_cap: Optional[int] = None,
    precision: int = DEFAULT_PRECISION,
) -> float:
    """|(z - alpha_n(z))^2 - beta^-(z) beta^+(z)| at z = lam - n^2.

    Vanishes exactly when lam solves the reduced 2x2 eigenvalue problem;
    at truncated shell caps it measures cross-path agreement between the
    dense solver and the walk sums."""
    check_precision(precision)
    z = complex(lam) - n * n
    if abs(z) >= n / 4:
        raise ValueError(f"need |lam - n^2| < n/4, got |z| = {abs(z):.3g} at n = {n}")
    zg = complex_to_gaussian(z)
    if params is None and not pot.is_empty():
        params = TwoTermParams.from_potential(pot)
    cap = step_cap if step_cap is not None else (default_step_cap(params) if params else 2)
    x_cap, y_cap = shell_caps
    alpha = alpha_n(pot, n, z=zg, step_cap=cap).value
    bplus = beta_plus(pot, params, n, z=zg, shell_cap=x_cap).value
    bminus = beta_minus(pot, params, n, z=zg, shell_cap=y_cap).value
    residual = (zg - alpha) ** 2 - bminus * bplus
    with mpmath.workprec(precision):
        return float(mpc_abs(to_mpc(residual, precision), precision))


# -- arbitrary-precision refinement ----------------------------------------


def _chain_det(diag, offprod, lam):
    """det(T - lam), d/dlam, d2/dlam2 for a tridiagonal chain.

    diag: mpf/mpc diagonal entries; offprod[i]: sub*super product coupling
    entries i and i+1."""
    d_prev2, d_prev = mpmath.mpf(1), diag[0] - lam
    d1_prev2, d1_prev = mpmath.mpf(0), mpmath.mpf(-1)
    d2_prev2, d2_prev = mpmath.mpf(0), mpmath.mpf(0)
    for i in range(1, len(diag)):
        a = diag[i] - lam
        ss = offprod[i - 1]
        d = a * d_prev - ss * d_prev2
        d1 = -d_prev + a * d1_prev - ss * d1_prev2
        d2 = -2 * d1_prev + a * d2_prev - ss * d2_prev2
        d_prev2, d_prev = d_prev, d
        d1_prev2, d1_prev = d1_prev, d1
        d2_prev2, d2_prev = d2_prev, d2
    return d_prev, d1_prev, d2_prev


def _newton_polish(diag, offprod, seed, precision):
    lam = mpmath.mpc(seed)
    tol = mpmath.mpf(2) ** (-(precision - 16))
    for _ in range(80):
        d, d1, _ = _chain_det(diag, offprod, lam)
        if d1 == 0:
            break
        step = d / d1
        lam = lam - step
        if mpc_abs(step) <= tol * max(mpmath.mpf(1), mpc_abs(lam)):
            # one clean-up iteration after the tolerance is reached
            d, d1, _ = _chain_det(diag, offprod, lam)
            if d1 != 0:
                lam = lam - d / d1
            return lam
    return lam


def _cluster_roots(diag, offprod, seed, precision):
    """Split a near-double cluster of det roots around a hardware seed.

    The quadratic-model discriminant at the seed cancels to (gap/seed
    error)^2 and drowns once gaps fall below the square of the hardware
    error, so instead drive det' to zero first (the critical point sits
    between the two roots and Newton reaches it at full precision), then
    step +-sqrt(-2 p / p'')."""
    lam = mpmath.mpc(seed)
    tol = mpmath.mpf(2) ** (-(precision - 16))
    for _ in range(80):
        _, d1, d2 = _chain_det(diag, offprod, lam)
        if d2 == 0:
            break
        step = d1 / d2
        lam = lam - step
        if mpc_abs(step) <= tol * max(mpmath.mpf(1), mpc_abs(lam)):
            break
    p, _, p2 = _chain_det(diag, offprod, lam)
    if p2 == 0:
        return lam, lam
    h = mpmath.sqrt(-2 * p / p2)
    return lam - h, lam + h


def _mp_key(w):
    return (mpmath.re(w), mpmath.im(w))


def _equal_band_chain(params: TwoTermParams, bc: BoundaryCondition, K: int, anchor_k: int, precision: int):
    """Tridiagonal chain through basis index anchor_k when R = S.

    The coupling stride is R, so indices split into residue classes; the
    determinant recurrence only needs the sub*super product a*b."""
    R = params.R
    ks = [k for k in basis_indices(bc, K) if (k - anchor_k) % R == 0]
    ks.sort()
    diag = [mpmath.mpf(free_eigenvalue(bc, k)) for k in ks]
    ab = to_mpc(params.a * params.b, precision)
    offprod = [ab] * (len(ks) - 1)
    return ks, diag, offprod


@dataclass(frozen=True)
class RefinedPair:
    n: int
    lam_minus: mpmath.mpc
    lam_plus: mpmath.mpc
    precision: int

    @property
    def gap(self) -> mpmath.mpf:
        return mpc_abs(self.lam_plus - self.lam_minus)

    @property
    def z_star(self) -> mpmath.mpc:
        return (self.lam_minus + self.lam_plus) / 2 - self.n**2


def refined_pair(
    pot: FourierPotential,
    params: TwoTermParams,
    bc: BoundaryCondition,
    n: int,
    K: int,
    precision: int = REFINE_PRECISION,
    seed: Optional[complex] = None,
) -> RefinedPair:
    """The D_n pair at arbitrary precision for equal band offsets R = S.

    Hardware eigenvalues seed a Newton iteration on the tridiagonal chain
    determinants; a near-double pair inside one chain is split through the
    quadratic model of the determinant before polishing.  Needed because
    the pair gaps shrink super-exponentially in n while the eigenvalues
    themselves stay of size n^2."""
    check_precision(precision)
    bc = BoundaryCondition(bc)
    if params.R != params.S:
        raise ValueError("refinement needs equal band offsets R = S")
    if bc == BoundaryCondition.PER_PLUS:
        if n % 2 != 0 or n < 2:
            raise ValueError(f"per+ discs sit at even n >= 2, got {n}")
        k_lo, k_hi = -n // 2, n // 2
    elif bc == BoundaryCondition.PER_MINUS:
        if n % 2 != 1:
            raise ValueError(f"per- discs sit at odd n, got {n}")
        k_lo, k_hi = -(n + 1) // 2, (n - 1) // 2
    else:
        raise ValueError("pair refinement applies to per+ / per- only")
    if n > K:
        raise ValueError(f"cutoff K={K} too small for n={n}")
    if seed is None:
        eigs = eigenvalues(assemble(pot, bc, K))
        near = sorted(eigs, key=lambda w: abs(w - n * n))[:2]
        seed = 0.5 * (near[0] + near[1])
    with mpmath.workprec(precision):
        if (k_hi - k_lo) % params.R == 0:
            _, diag, offprod = _equal_band_chain(params, bc, K, k_hi, precision)
            r1, r2 = _cluster_roots(diag, offprod, seed, precision)
            roots = [
                _newton_polish(diag, offprod, r1, precision),
                _newton_polish(diag, offprod, r2, precision),
            ]
        else:
            roots = []
            for anchor in (k_lo, k_hi):
                _, diag, offprod = _equal_band_chain(params, bc, K, anchor, precision)
                roots.append(_newton_polish(diag, offprod, seed, precision))
        roots.sort(key=_mp_key)
        return RefinedPair(n, roots[0], roots[1], precision)


def refined_dirichlet(
    pot: FourierPotential,
    params: TwoTermParams,
    n: int,
    K: int,
    precision: int = REFINE_PRECISION,
    seed: Optional[complex] = None,
) -> mpmath.mpc:
    """mu_n at arbitrary precision for R = S = 1.

    The sine basis splits into even and odd chains coupled only along
    j -> j +- 2, with the single corner modification at j = 1."""
    check_precision(precision)
    if params.R != params.S or params.R != 1:
        raise ValueError("Dirichlet refinement implemented for R = S = 1 only")
    if n < 1 or n > K:
        raise ValueError(f"need 1 <= n <= K, got n={n} K={K}")
    if seed is None:
        seed = dirichlet_close(pot, K, n)
    js = [j for j in range(1, K + 1) if j % 2 == n % 2]
    with mpmath.workprec(precision):
        diag = []
        for j in js:
            d = GaussianRational(Fraction(j * j)) + dirichlet_entry(pot, j, j)
            diag.append(to_mpc(d, precision))
        offprod = []
        for j in js[:-1]:
            lo = dirichlet_entry(pot, j + 2, j)
            up = dirichlet_entry(pot, j, j + 2)
            offprod.append(to_mpc(lo * up, precision))
        return _newton_polish(diag, offprod, seed, precision)
