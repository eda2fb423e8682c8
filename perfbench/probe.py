"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the same solve can take 50% longer from one minute to the
next, because other tenants' work slows this one's CPU.  The benchmark runs
this probe between its timed calls and scales each timed call by the probe
times around it (see ``run.scaled``), so a timing reads as seconds on a
machine where one probe takes ``REFERENCE_S``.

The probe mixes the kinds of work an interior-point iteration of opfbench
does, in similar proportions: interpreted Python, many small numpy calls,
sparse block assembly with ``scipy.sparse.bmat``, a sparse LU and a dense
``scipy.linalg.ldl``.  It calls only numpy and scipy, never opfbench, so a
change to the program cannot change the probe.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Median probe time on the 2-CPU host the benchmark was defined on.
REFERENCE_S = 0.0044

_GRID = 16
_N_SPARSE = _GRID * _GRID
_N_DENSE = 60
_N_VEC = 200


class Probe:
    """Seeded fixed inputs; calling the probe returns its wall seconds."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        # A meshed network's pattern: a 2-D grid graph with random weights.
        side = sp.diags([1.0, 1.0], [-1, 1], shape=(_GRID, _GRID))
        mesh = sp.kron(sp.eye(_GRID), side) + sp.kron(side, sp.eye(_GRID))
        mesh = mesh.tocoo()
        weights = rng.uniform(0.5, 1.5, mesh.nnz)
        h = sp.coo_matrix((weights, (mesh.row, mesh.col)), shape=mesh.shape)
        self.hess = (h + h.T + 10.0 * sp.eye(_N_SPARSE)).tocsc()
        # Constraint rows each couple two neighbouring buses.
        rows = np.repeat(np.arange(_N_SPARSE // 2), 2)
        cols = np.arange(_N_SPARSE)
        self.jac = sp.csc_matrix((rng.uniform(0.5, 1.5, _N_SPARSE),
                                  (rows, cols)),
                                 shape=(_N_SPARSE // 2, _N_SPARSE))
        a = rng.standard_normal((_N_DENSE, _N_DENSE))
        self.dense = a + a.T
        self.vec = rng.uniform(0.5, 1.5, _N_VEC)
        for _ in range(3):  # first calls pay for lazy imports and caches
            self()

    def _work(self) -> float:
        acc = 0.0
        table = {}
        for i in range(600):
            table[i % 31] = table.get(i % 31, 0.0) + i * 0.5
            acc += table[i % 17]
        x = self.vec
        for _ in range(40):
            s = np.maximum(x - 0.9, 1e-8)
            x = np.concatenate([x[1:], x[:1]]) * 0.5 + np.minimum(s, 1.0)
            acc += float(x @ s)
        kkt = sp.bmat([[self.hess, self.jac.T], [self.jac, None]],
                      format="csc")
        kkt = kkt + sp.diags(np.r_[np.zeros(_N_SPARSE),
                                   -1e-8 * np.ones(_N_SPARSE // 2)])
        lu = spla.splu(kkt.tocsc())
        acc += float(lu.solve(np.ones(kkt.shape[0]))[0])
        _l, d, _perm = sla.ldl(self.dense, lower=True)
        acc += float(d[0, 0])
        return acc

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0
