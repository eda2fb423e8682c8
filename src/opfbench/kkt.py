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

The fill-reducing order depends on the sparsity pattern alone.  A caller
that factors one pattern many times orders it once: the first
``factorize(K)`` runs SuperLU's minimum-degree ordering and exposes it as
``factor.perm``; later calls pass that order as ``perm=`` with K already
stored in it, and SuperLU factors with its natural order, skipping the
ordering.  A symmetric permutation leaves the inertia unchanged, and
``solve`` takes and returns vectors in the original order either way.

Each solve applies one step of iterative refinement and then checks the
residual; a residual too large for the right-hand side means the matrix is
numerically singular, and the solve raises.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Pivots are classified by sign; only exact zeros count as zero, since the
# barrier makes legitimate pivot magnitudes span many orders of magnitude.
# Numerical near-singularity is caught by the solve-residual check: a
# refined solve whose residual max-norm exceeds _SOLVE_RTOL * (1 + |b|_inf).
_SOLVE_RTOL = 1e-6


class FactorizationError(Exception):
    """Factorization broke down (structurally or numerically singular)."""


class _SparseFactor:
    def __init__(self, K: sp.csc_matrix, perm):
        self._K = K
        self._perm = perm
        try:
            self._lu = spla.splu(
                K,
                permc_spec="MMD_AT_PLUS_A" if perm is None else "NATURAL",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True, Equil=False),
            )
        except RuntimeError as exc:
            raise FactorizationError(str(exc)) from exc
        # a copy: perm_c is a view that would keep the whole LU alive
        self.perm = self._lu.perm_c.copy() if perm is None else perm
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
        if self._perm is not None:
            b_stored = np.empty_like(b)
            b_stored[self._perm] = b
            b = b_stored
        x = self._lu.solve(b)
        r = b - self._K @ x
        x = x + self._lu.solve(r)
        if not np.all(np.isfinite(x)):
            raise FactorizationError("non-finite solution")
        residual = np.abs(self._K @ x - b).max(initial=0.0)
        if residual > _SOLVE_RTOL * (1.0 + np.abs(b).max(initial=0.0)):
            raise FactorizationError("numerically singular")
        return x if self._perm is None else x[self._perm]


def factorize(K, *, perm=None):
    """Factor a symmetric indefinite matrix, returning a factor with
    ``solve(rhs)``, ``inertia``: (pos, neg, zero), or None when pivoting
    left the diagonal and the inertia is unknown, and ``perm``, the
    fill-reducing order of K's pattern.

    With ``perm=None`` the order is computed; otherwise entry (i, j) of the
    matrix being factored is stored at (perm[i], perm[j]) of K, and K is
    factored in that order.  ``solve`` works in the unpermuted order.

    Raises FactorizationError on breakdown; the caller is expected to add
    regularization and retry.
    """
    Ks = K.tocsc() if sp.issparse(K) else sp.csc_matrix(K)
    return _SparseFactor(Ks, perm)
