"""Reference implementations the library is checked against.

They follow the definitions entry by entry, at a cost the library avoids.
"""

from fractions import Fraction

import numpy as np

from hillwalk.spectra import BoundaryCondition, basis_indices, free_eigenvalue


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
