"""Symmetric indefinite factorization of interior-point KKT systems.

One backend solves the augmented system

    [ H   J^T ] [dz]   [r1]
    [ J  -dc*I] [dy] = [r2]

with SuperLU restricted to a symmetric fill-reducing permutation and
numerical pivoting disabled, so the U diagonal holds the LDL^T pivots and
gives the matrix inertia.  The caller regularizes until the factorization
has exactly ``n`` positive and ``m`` negative pivots.

SuperLU still pivots off the diagonal where a diagonal pivot is exactly
zero (a row permutation differing from the column permutation).  The LU
solve stays valid, but the pivots no longer give the inertia; the factor
then reports ``inertia = None`` and the caller checks the curvature of the
step instead.

Each solve applies one step of iterative refinement.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Pivots are classified by sign; only exact zeros count as zero, since the
# barrier makes legitimate pivot magnitudes span many orders of magnitude.
# Numerical near-singularity is caught by the caller's solve-residual check.


class FactorizationError(Exception):
    """Factorization broke down (structurally or numerically singular)."""


class _SparseFactor:
    def __init__(self, K: sp.csc_matrix):
        self._K = K
        try:
            self._lu = spla.splu(
                K,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True, Equil=False),
            )
        except RuntimeError as exc:
            raise FactorizationError(str(exc)) from exc
        piv = self._lu.U.diagonal()
        if not np.all(np.isfinite(piv)):
            raise FactorizationError("non-finite pivots")
        if np.array_equal(self._lu.perm_r, self._lu.perm_c):
            pos = int(np.sum(piv > 0.0))
            neg = int(np.sum(piv < 0.0))
            self.inertia = (pos, neg, len(piv) - pos - neg)
        else:
            self.inertia = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self._lu.solve(b)
        r = b - self._K @ x
        x = x + self._lu.solve(r)
        if not np.all(np.isfinite(x)):
            raise FactorizationError("non-finite solution")
        return x


def factorize(K):
    """Factor a symmetric indefinite matrix, returning a factor with
    ``solve(rhs)`` and ``inertia``: (pos, neg, zero), or None when pivoting
    left the diagonal and the inertia is unknown.

    Raises FactorizationError on breakdown; the caller is expected to add
    regularization and retry.
    """
    Ks = K.tocsc() if sp.issparse(K) else sp.csc_matrix(K)
    return _SparseFactor(Ks)
