"""Symmetric indefinite factorization of interior-point KKT systems.

One backend solves the augmented system

    [ H   J^T ] [dx]   [r1]
    [ J   -D  ] [dy] = [r2]

with D diagonal, with SuperLU in the order the matrix is stored in, a
symmetric fill-reducing one (see below), and numerical pivoting disabled,
so the U diagonal holds the LDL^T pivots and gives the matrix inertia.  The
caller regularizes until the factorization has exactly ``n`` positive and
``m`` negative pivots.  (The interior-point solver condenses its slacks
into D before it factors; see :mod:`opfbench.ipm`.)

SuperLU still pivots off the diagonal where a diagonal pivot is exactly
zero (a row permutation differing from the column permutation).  The LU
solve stays valid, but the pivots no longer give the inertia; the factor
then reports ``inertia = None`` and the caller checks the curvature of the
step instead.

The fill-reducing order depends on the sparsity pattern alone, so a
caller that factors one pattern many times orders it once, when the
pattern is fixed: ``fill_order(K)`` runs SuperLU's minimum-degree ordering
on identity values stored on K's pattern, a matrix that factors without
breaking down whenever the pattern holds its full diagonal.  The caller
stores K in that order and passes it as ``perm=``; every factorization
takes K in its stored order (SuperLU's natural order), and ``solve`` takes
and returns vectors in the original order.  A symmetric permutation
leaves the inertia unchanged.

Of the orders at hand, ``MMD_AT_PLUS_A`` fills least.  Each was computed
once per model from its first K, as ``fill_order`` does, and every K the
solver factored was factored again in it (one-column panels, min of 3
``gstrf`` calls; scipy 1.17, 2 shared CPUs).  Over the 12 cells of the
120-bus benchmark case (seed 1) and of its 600-bus sibling
(``case30_grid`` tiled 20 times with 2 ties per pair, tie seed 1),
``MMD_AT_PLUS_A`` gave the least L+U fill and the least ``gstrf`` time on
every cell.  On the cells where they never broke down, SuperLU's
``MMD_ATA`` and ``COLAMD`` gave 1.6-1.8 times its fill (SOC-phi at 120
buses: 3.19M and 3.21M against 1.98M), and scipy's
``reverse_cuthill_mckee`` 2.2-3.8 times; their ``gstrf`` time was 1.4-2.2,
1.2-2.1 and 2.1-4.1 times its time.  Each broke down ("exactly singular")
on matrices that factor in this order: ``MMD_ATA`` on 2-6 factorizations
of 8 of the 24 cells (all DC), ``COLAMD`` on 1-3 of 8 (all AC), and
``reverse_cuthill_mckee`` on 1-5 of 15, SOC-phi included.

Each solve checks the residual of its unrefined solution against
``_SOLVE_RTOL * (1 + |b|_inf)``.  Only a solution that fails the check gets
one step of iterative refinement and is checked again; a refined solution
that still fails (or is not finite) means the matrix is numerically
singular, and the solve raises.  On the benchmark models the unrefined
solution passes in most solves (seed 1, tol 1e-8: 824 of 976 on the
bundled grid, 167 of 337 on the 120-bus case, 607 of 676 on the
infeasible DC cells), and each pass saves a triangular solve and a matrix
product.

SuperLU is called through scipy's private ``_superlu.gstrf``, the routine
``splu`` ends in, from one place (``_gstrf``) with the options ``splu``
would pass apart from the panel width below.  ``factorize`` does the input
checks ``splu`` did (CSC, float, square, duplicates summed), and they cost
nothing on a matrix already in that form, which is what a caller that
binds its matrix once hands in on every call.  The factor's ``L``/``U``
come back as raw ``(data, indices, indptr)`` arrays, not as matrices, and
the pivots are read from U's storage, where each column ends at its
diagonal entry.

SuperLU factors in panels of adjacent columns, sharing each column's
symbolic and numeric update with the rest of its panel (Demmel, Eisenstat,
Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl. 1999).  KKT factors are too
sparse for that to pay: the SOC-psi K of the 120-bus benchmark case has
4048 rows and 17.7k entries and its L+U 35.6k, so a panel of scipy's
default width mostly carries columns that share nothing.  Every
factorization therefore uses panels of one column (``_PANEL_SIZE``).
Replaying the natural-order ``gstrf`` calls of one benchmark pass (seed 1;
min of 5 replays, 2 CPUs, scipy 1.17) took 0.327 -> 0.195 s on the
120-bus case (422 factorizations), 0.085 -> 0.065 s on the bundled grid
(1116) and 0.025 -> 0.021 s on the infeasible DC cells (756), with the
L+U fill unchanged to within 0.01%.  With one-column panels, no setting
of SuperLU's ``Relax`` (supernode relaxation) from 1 to 64 beat scipy's
default (0.192-0.208 s against 0.192 s on the 120-bus case).  The panel
width changes the order of the LU updates, so the factors differ from the
default's in their last bits.

A factor borrows K for the residual check of its solves: K must not change
while the factor is in use.  A caller that overwrites one bound K on every
assembly discards each factor before it assembles again.

scipy's ``gstrf`` takes no work array: SuperLU allocates its work memory
with ``malloc`` on every factorization and frees it at the end, and glibc
by default hands the freed top of its heap back to the system, so the next
factorization faults the same pages in again.  On import this module
therefore sets two of glibc's ``mallopt`` parameters, once, to fixed
values: ``M_MMAP_THRESHOLD`` to 32 MB (``_MMAP_THRESHOLD``: SuperLU's
blocks come from the heap, not from mappings of their own) and
``M_TRIM_THRESHOLD`` to 64 MB (``_TRIM_THRESHOLD``: up to that much free
memory at the top of the heap stays mapped).  Both are needed; with only
one of them, or with thresholds of 4 and 8 MB, the faults stay.  Minor
page faults per benchmark pass, without and with the settings (seed 1,
mean of three passes after a warm-up, 2 CPUs): 21.4k -> 0.2k on the
120-bus case, 3.5k -> 0.1k on the bundled grid and 1.2k -> 15 on the
infeasible DC cells.  The price is the memory kept mapped: peak RSS of
those passes 72.9 -> 80.4 MB, 69.2 -> 71.3 MB and 65.8 -> 66.1 MB.
Where the C library has no ``mallopt`` (not glibc), nothing is set.
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse.linalg._dsolve import _superlu

# Pivots are classified by sign; only exact zeros count as zero, since the
# barrier makes legitimate pivot magnitudes span many orders of magnitude.
# Numerical near-singularity is caught by the solve-residual check: a
# refined solve whose residual max-norm exceeds _SOLVE_RTOL * (1 + |b|_inf).
_SOLVE_RTOL = 1e-6
# SuperLU's panel width, in columns, for every factorization (see the
# module docstring); None would take scipy's default.
_PANEL_SIZE = 1
# glibc malloc thresholds, in bytes (see the module docstring), and the
# numbers of the M_TRIM_THRESHOLD and M_MMAP_THRESHOLD parameters of
# <malloc.h>.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_work_memory_mapped():
    """Set the malloc thresholds above, where the C library has glibc's
    ``mallopt``; elsewhere do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_work_memory_mapped()


class FactorizationError(Exception):
    """Factorization broke down (structurally or numerically singular)."""


def csc_matvec(A, x):
    """A @ x for a float CSC matrix A and a float vector x, by the
    sparsetools kernel that ``@`` ends in, without scipy's dispatch."""
    out = np.zeros(A.shape[0])
    _sparsetools.csc_matvec(A.shape[0], A.shape[1], A.indptr, A.indices,
                            A.data, x, out)
    return out


def _raw_csc(arrays, shape):
    """gstrf's builder for L and U: the raw CSC arrays, no matrix."""
    return arrays


def _as_csc(K):
    """K as a square float CSC matrix with its duplicates summed, in place
    when K already is one."""
    if not (sp.issparse(K) and K.format == "csc" and K.dtype == np.float64):
        K = sp.csc_matrix(K, dtype=float)
    if K.shape[0] != K.shape[1]:
        raise ValueError("can only factor square matrices")
    K.sum_duplicates()
    return K


def _gstrf(K, data, col_perm):
    """SuperLU's LU of the values ``data`` on K's pattern, in the column
    order ``col_perm`` names: diagonal pivots in a symmetric order, no
    equilibration."""
    try:
        return _superlu.gstrf(
            K.shape[0], K.nnz, data, K.indices, K.indptr,
            csc_construct_func=_raw_csc, ilu=False,
            options=dict(ColPerm=col_perm, DiagPivotThresh=0.0,
                         SymmetricMode=True, Equil=False,
                         PanelSize=_PANEL_SIZE),
        )
    except RuntimeError as exc:
        raise FactorizationError(str(exc)) from exc


def _u_diagonal(lu):
    """The pivots: SuperLU stores U by columns, each ending at its
    diagonal entry."""
    data, _, indptr = lu.U
    return data[indptr[1:] - 1]


def fill_order(K):
    """SuperLU's minimum-degree order of K's sparsity pattern (the
    ``MMD_AT_PLUS_A`` order ``splu`` computes), whatever K's values.

    K is a square CSC pattern: anything with ``shape``, ``nnz``,
    ``indptr`` and ``indices``, each column's rows distinct, such as a CSC
    matrix with its duplicates summed or a CSC ``modelir.SparsePattern``,
    which spares building a matrix only to order it.  Factoring K with
    entry (i, j) stored at (perm[i], perm[j]) in its natural order fills L
    and U as factoring K in this order does.  Raises FactorizationError
    when the pattern misses a diagonal entry.
    """
    cols = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    lu = _gstrf(K, (K.indices == cols).astype(float), "MMD_AT_PLUS_A")
    # a copy: perm_c is a view that would keep the whole LU alive
    return lu.perm_c.copy()


class _SparseFactor:
    def __init__(self, K: sp.csc_matrix, perm):
        self._K = K
        self._perm = perm
        self._lu = _gstrf(K, K.data, "NATURAL")
        self.fill = self._lu.nnz
        piv = _u_diagonal(self._lu)
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
        bound = _SOLVE_RTOL * (1.0 + np.abs(b).max(initial=0.0))
        x = self._lu.solve(b)
        if not self._solves(x, b, bound):
            # one step of iterative refinement, only where it is needed
            x = x + self._lu.solve(b - csc_matvec(self._K, x))
            if not self._solves(x, b, bound):
                raise FactorizationError("numerically singular")
        return x if self._perm is None else x[self._perm]

    def _solves(self, x, b, bound):
        """Whether x is finite and K x - b within ``bound`` in max-norm."""
        residual = np.abs(csc_matvec(self._K, x) - b).max(initial=0.0)
        return bool(residual <= bound) and bool(np.isfinite(x).all())


def factorize(K, *, perm=None):
    """Factor a symmetric indefinite matrix in its stored order, returning
    a factor with ``solve(rhs)``, ``inertia``: (pos, neg, zero), or None
    when pivoting left the diagonal and the inertia is unknown, and
    ``fill``, the number of entries in L and U.

    With ``perm`` given, entry (i, j) of the matrix being factored is
    stored at (perm[i], perm[j]) of K, typically in the order
    ``fill_order`` returns, and ``solve`` works in the unpermuted order.

    K is dense or sparse; a float CSC K is used as it is, after its
    duplicate entries are summed in place.  Raises ValueError if K is not
    square, and FactorizationError on breakdown; the caller is expected to
    add regularization and retry.
    """
    return _SparseFactor(_as_csc(K), perm)
