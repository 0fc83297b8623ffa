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


def chain_det(diag, offprod, lam):
    """det(T - lam), d/dlam, d2/dlam2 for a tridiagonal chain, in mpmath
    arithmetic at the context precision.

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
