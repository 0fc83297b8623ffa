"""Reference values computed apart from the program.

Nothing here imports `hillwalk`.  Exact complex numbers are (re, im) pairs
of Fractions; the two-term potential a e^{-2iRx} + b e^{2iSx} is given by
its steps -2R, +2S with coefficients a, b.  All walk sums are at z = 0,
where a walk's weight is its coefficient product over the integer product
of n^2 - j^2 along its interior vertices.
"""

import math
from fractions import Fraction

import numpy as np

ONE = (Fraction(1), Fraction(0))
ZERO = (Fraction(0), Fraction(0))


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def cscale(x, q):
    return (x[0] * q, x[1] * q)


def cpow(x, k):
    out = ONE
    for _ in range(k):
        out = cmul(out, x)
    return out


def cabs2(x):
    return x[0] * x[0] + x[1] * x[1]


# -- crossing walks ----------------------------------------------------------


def shell_counts(R, S, n, kind, cap):
    """(negative, positive) step counts of shells 0..cap.

    Kind X runs -n -> n, so -2R neg + 2S pos = 2n; kind Y runs n -> -n, so
    2R neg - 2S pos = 2n.  Shells are the solutions in order of size."""
    out = []
    # solutions recur every S/d (X) or R/d (Y) values of the free count
    for free in range((cap + 1) * (S if kind == "X" else R)):
        if kind == "X":
            rest = n + R * free
            if rest % S == 0:
                out.append((free, rest // S))
        else:
            rest = n + S * free
            if rest % R == 0:
                out.append((rest // R, free))
    return out[:cap + 1]


def brute_shell(R, S, n, kind, neg, pos):
    """Sum over every admissible interleaving of 1 / prod(n^2 - j^2),
    enumerated walk by walk."""
    start = -n if kind == "X" else n
    nsq = n * n
    total = Fraction(0)
    total_steps = neg + pos

    def extend(v, negs, poss, denom):
        nonlocal total
        placed = total_steps - negs - poss
        if placed == total_steps:
            total += Fraction(1, denom)
            return
        for step, left in ((-2 * R, negs), (2 * S, poss)):
            if not left:
                continue
            nxt = v + step
            if placed + 1 < total_steps:
                if nxt in (n, -n):
                    continue
                new = denom * (nsq - nxt * nxt)
            else:
                new = denom
            if step < 0:
                extend(nxt, negs - 1, poss, new)
            else:
                extend(nxt, negs, poss - 1, new)

    extend(start, neg, pos, 1)
    return total


def dp_shell(R, S, n, kind, neg, pos):
    """The same sum by a lattice DP: the vertex after i negative and j
    positive steps does not depend on their order."""
    start = -n if kind == "X" else n
    nsq = n * n
    f = [[Fraction(0)] * (pos + 1) for _ in range(neg + 1)]
    f[0][0] = Fraction(1)
    for i in range(neg + 1):
        for j in range(pos + 1):
            if i == j == 0:
                continue
            v = start - 2 * R * i + 2 * S * j
            inflow = (f[i - 1][j] if i else 0) + (f[i][j - 1] if j else 0)
            if (i, j) == (neg, pos):
                f[i][j] = inflow
            elif v in (n, -n):
                f[i][j] = Fraction(0)
            else:
                f[i][j] = inflow / (nsq - v * v)
    return f[neg][pos]


def crossing_sum(a, b, R, S, n, kind, cap, shell=dp_shell):
    """beta^+ (kind X) or beta^- (kind Y) at z = 0 over shells 0..cap."""
    total = ZERO
    for neg, pos in shell_counts(R, S, n, kind, cap):
        coeff = cmul(cpow(a, neg), cpow(b, pos))
        total = cadd(total, cscale(coeff, shell(R, S, n, kind, neg, pos)))
    return total


def closed_sum(a, b, R, S, n, step_cap):
    """alpha_n at z = 0: closed walks n -> n of at most step_cap steps whose
    interior avoids +-n, by a transfer DP over (steps taken, vertex)."""
    nsq = n * n
    level = {n: ONE}
    total = ZERO
    for _ in range(step_cap):
        nxt_level = {}
        for v, f in level.items():
            for step, coeff in ((-2 * R, a), (2 * S, b)):
                w = v + step
                g = cmul(f, coeff)
                if w == n:
                    total = cadd(total, g)
                elif w != -n:
                    nxt_level[w] = cadd(nxt_level.get(w, ZERO), cscale(g, Fraction(1, nsq - w * w)))
        level = nxt_level
    return total


def brute_closed(a, b, R, S, n, step_cap):
    """alpha_n at z = 0 by enumerating every closed walk."""
    nsq = n * n
    total = ZERO

    def extend(v, used, coeff, denom):
        nonlocal total
        for step, c in ((-2 * R, a), (2 * S, b)):
            w = v + step
            g = cmul(coeff, c)
            if w == n:
                total = cadd(total, cscale(g, Fraction(1, denom)))
            elif w != -n and used + 1 < step_cap:
                extend(w, used + 1, g, denom * (nsq - w * w))

    extend(n, 0, ONE, 1)
    return total


# -- the paper's closed forms -----------------------------------------------


def _prod_st_minus_1(s, upto):
    out = 1
    for t in range(1, upto):
        out *= s * t - 1
    return out


def boundary_weights(s, m):
    """(H^+, H^-) at n = s m - 1 for bands at -2 and 2s."""
    p = _prod_st_minus_1(s, m)
    h_minus = Fraction(2, (4 * s) ** m * math.factorial(m) * p)
    inner = sum(Fraction(_prod_st_minus_1(s, tau) * _prod_st_minus_1(s, m - tau),
                         math.factorial(tau) * math.factorial(m - tau)) for tau in range(1, m))
    return inner / ((4 * s) ** m * p * p), h_minus


def x_shell0_closed(a, b, s, m):
    """X shell 0 at n = s m - 1, R = 1: a b^m (H^+ - H^-)."""
    h_plus, h_minus = boundary_weights(s, m)
    return cscale(cmul(a, cpow(b, m)), h_plus - h_minus)


def y_shell0_closed(a, n):
    """Y shell 0 for R = 1 (the all-negative walk): a^n / (4^(n-1) ((n-1)!)^2)."""
    return cscale(cpow(a, n), Fraction(1, 4 ** (n - 1) * math.factorial(n - 1) ** 2))


def gap_leading(a, b, n):
    """Leading pair gap for bands at -2 and 2: 8 |ab|^(n/2) / (4^n ((n-1)!)^2)."""
    ab = math.sqrt(float(cabs2(a) * cabs2(b)))
    return 8 * ab ** (n / 2) / (4.0 ** n * float(math.factorial(n - 1)) ** 2)


# -- dense truncations --------------------------------------------------------


def coefficient_map(a, b, R, S):
    return {-2 * R: complex(float(a[0]), float(a[1])), 2 * S: complex(float(b[0]), float(b[1]))}


def basis(bc, K):
    if bc == "per+":
        return np.arange(K, -K - 1, -1)
    if bc == "per-":
        return np.arange(K - 1, -K - 1, -1)
    return np.arange(1, K + 1)


def free_values(bc, ks):
    if bc == "per+":
        return (2 * ks) ** 2
    if bc == "per-":
        return (2 * ks + 1) ** 2
    return ks ** 2


def matrix(coeffs, bc, K):
    """Galerkin matrix from the Fourier coefficients, one diagonal at a time."""
    ks = basis(bc, K)
    diff = ks[:, None] - ks[None, :]
    M = np.zeros(diff.shape, dtype=complex)
    for m, c in coeffs.items():
        if bc == "dirichlet":
            total = ks[:, None] + ks[None, :]
            M += 0.5 * c * ((diff == m).astype(float) + (diff == -m)
                            - (total == m) - (total == -m))
        else:
            M += c * (2 * diff == m)
    M[np.diag_indices_from(M)] += free_values(bc, ks)
    return M


def trace(coeffs, bc, K):
    """Trace of the truncation: free eigenvalues plus the diagonal of V.

    Only the sine basis has a potential diagonal: -(V(2k) + V(-2k)) / 2."""
    ks = basis(bc, K)
    total = complex(float(np.sum(free_values(bc, ks))))
    if bc == "dirichlet":
        for k in ks.tolist():
            total -= 0.5 * (coeffs.get(2 * k, 0) + coeffs.get(-2 * k, 0))
    return total
