"""Reference implementations the library is checked against.

They follow the definitions entry by entry, or walk by walk, at a cost the
library avoids.
"""

from fractions import Fraction
from math import comb
from typing import List

import mpmath
import numpy as np

from hillwalk.spectra import BoundaryCondition, basis_indices, free_eigenvalue
from hillwalk.walks import Walk, WalkKind, shell_step_counts, vertices


def dense_assemble(pot, bc, K) -> np.ndarray:
    """Galerkin matrix filled cell by cell over the whole dim x dim grid.

    per+/per-: V(2(k_i - k_j)).  Dirichlet: the sin(jx)/sin(kx) coupling
    (V(j-k) + V(k-j) - V(j+k) - V(-j-k))/2.  Each cell's exact value is
    rounded once; the diagonal then adds the free eigenvalue."""
    bc = BoundaryCondition(bc)
    ks = basis_indices(bc, K)
    dim = len(ks)
    M = np.zeros((dim, dim), dtype=complex)
    for i, ki in enumerate(ks):
        for j, kj in enumerate(ks):
            if bc == BoundaryCondition.DIRICHLET:
                total = (
                    pot.coefficient(ki - kj)
                    + pot.coefficient(kj - ki)
                    - pot.coefficient(ki + kj)
                    - pot.coefficient(-ki - kj)
                )
                entry = complex(total * Fraction(1, 2))
            else:
                entry = complex(pot.coefficient(2 * (ki - kj)))
            if i == j:
                entry += free_eigenvalue(bc, ki)
            M[i, j] = entry
    return M


def schur_complement(pot, bc, K, n, z):
    """S(z) = V_PP + V_PQ A^-1 V_QP and S'(z) = -V_PQ A^-2 V_QP, as lists of
    rows of mpc values at the context precision, for the basis functions P
    with free eigenvalue n^2 and A = (n^2 + z) - T over the other positions Q.

    Every coupling comes from its definition, as in `dense_assemble`, but in
    mpmath; A is dense, solved by mpmath's LU, and A^-2 by a second solve."""
    bc = BoundaryCondition(bc)
    ks = basis_indices(bc, K)

    def coupling(ki, kj):
        if bc == BoundaryCondition.DIRICHLET:
            total = (pot.coefficient(ki - kj) + pot.coefficient(kj - ki)
                     - pot.coefficient(ki + kj) - pot.coefficient(-ki - kj)) * Fraction(1, 2)
        else:
            total = pot.coefficient(2 * (ki - kj))
        return mpmath.mpc(mpmath.mpf(total.re.numerator) / total.re.denominator,
                          mpmath.mpf(total.im.numerator) / total.im.denominator)

    P = [k for k in ks if free_eigenvalue(bc, k) == n * n]
    Q = [k for k in ks if free_eigenvalue(bc, k) != n * n]
    A = mpmath.matrix(len(Q), len(Q))
    for a, ki in enumerate(Q):
        for b, kj in enumerate(Q):
            A[a, b] = (n * n + z - free_eigenvalue(bc, ki) if a == b else 0) - coupling(ki, kj)
    x = {q: mpmath.lu_solve(A, mpmath.matrix([coupling(k, q) for k in Q])) for q in P}
    xx = {q: mpmath.lu_solve(A, x[q]) for q in P}
    S = [[coupling(p, q) + sum(coupling(p, k) * x[q][i] for i, k in enumerate(Q)) for q in P]
         for p in P]
    dS = [[-sum(coupling(p, k) * xx[q][i] for i, k in enumerate(Q)) for q in P] for p in P]
    return S, dS


def is_admissible(walk: Walk) -> bool:
    """True when no interior vertex equals +-n."""
    verts = vertices(walk)
    n = walk.n
    return all(v != n and v != -n for v in verts[1:-1])


def shell_size_bound(params, n: int, kind: WalkKind, shell: int) -> int:
    """Interleaving count C(neg+pos, neg); an upper bound for the walk count."""
    counts = shell_step_counts(params, n, kind, shell)
    if counts is None:
        return 0
    return comb(counts.total, counts.neg)


def enumerate_shell(
    params, n: int, kind: WalkKind, shell: int, max_walks: int = 1_000_000
) -> List[Walk]:
    """All admissible walks of one shell, in lexicographic step order.

    Infeasible shells give an empty list.  Enumeration is depth first with
    prefix pruning (a prefix that lands on +-n before the final step is dead);
    trying the negative step -2R before +2S at every position makes the output
    order lexicographic."""
    counts = shell_step_counts(params, n, kind, shell)
    if counts is None:
        return []
    size = comb(counts.total, counts.neg)
    if size > max_walks:
        raise ValueError(
            f"shell holds up to {size} interleavings; "
            f"raise max_walks to enumerate"
        )
    neg_step, pos_step = -2 * params.R, 2 * params.S
    start = -n if kind is WalkKind.X else n
    total = counts.total
    out: List[Walk] = []
    prefix: List[int] = []

    def extend(vertex: int, neg_left: int, pos_left: int) -> None:
        placed = total - neg_left - pos_left
        if placed == total:
            out.append(Walk(tuple(prefix), kind, n))
            return
        # neg_step < 0 < pos_step, so this trial order is lexicographic
        for step in (neg_step, pos_step):
            left = neg_left if step == neg_step else pos_left
            if left == 0:
                continue
            nxt = vertex + step
            # interior vertices must avoid +-n; the final vertex is exempt
            if placed + 1 < total and (nxt == n or nxt == -n):
                continue
            prefix.append(step)
            if step == neg_step:
                extend(nxt, neg_left - 1, pos_left)
            else:
                extend(nxt, neg_left, pos_left - 1)
            prefix.pop()

    extend(start, counts.neg, counts.pos)
    return out
