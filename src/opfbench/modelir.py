"""Optimization-model representation consumed by the interior-point solver.

A model is an ordered set of bounded variables, stored as columns (names,
lower bounds, upper bounds, start values), a list of structured constraint
blocks and a linear objective.  Each block belongs to a closed set of kinds
(linear rows, convex quadratic rows, rotated-cone rows, polar power-flow
rows, apparent-power limits) and provides its residuals plus hand-derived
Jacobian and Hessian-of-Lagrangian entries on a sparsity pattern fixed at
construction.

Row bounds use a [lower, upper] range; equality rows have lower == upper.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

INF = math.inf


def _farray(values):
    return np.asarray(values, dtype=float)


def _iarray(values):
    return np.asarray(values, dtype=np.int64)


class SparsePattern:
    """Compressed sparsity fixed once from COO coordinates with repeats.

    ``matrix(vals)`` takes one value per coordinate, in the order the
    coordinates were given, sums repeats onto their slot and wraps the
    result on the fixed ``indptr``/``indices`` without any COO conversion.
    ``scatter(vals, out)`` writes the same sums into ``out``, the ``data``
    of a matrix on this pattern, so a caller that binds one matrix per
    pattern builds none per evaluation.  ``fmt`` is "csr" (row-major) or
    "csc" (column-major).
    """

    def __init__(self, rows, cols, shape, fmt="csr"):
        nrows, ncols = shape
        if fmt == "csr":
            major, minor, nmajor, nminor = rows, cols, nrows, ncols
            self._cls = sp.csr_matrix
        else:
            major, minor, nmajor, nminor = cols, rows, ncols, nrows
            self._cls = sp.csc_matrix
        # np.unique(keys, return_inverse=True), without its overhead on
        # the many small patterns a grid of models builds
        keys = _iarray(major) * nminor + _iarray(minor)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        self.slot = np.empty(len(keys), dtype=np.int64)
        self.slot[order] = np.cumsum(first) - 1
        keys = keys[first]
        self.shape = (nrows, ncols)
        self.nnz = len(keys)
        idx = np.int32 if max(nrows, ncols, self.nnz) < 2**31 else np.int64
        self.indices = (keys % nminor).astype(idx)
        self.indptr = np.searchsorted(
            keys, np.arange(nmajor + 1) * nminor).astype(idx)
        # every matrix shares these arrays: an in-place change must fail
        self.indices.flags.writeable = False
        self.indptr.flags.writeable = False

    def coords(self):
        """(rows, cols) of the stored entries, in storage order."""
        major = np.repeat(np.arange(len(self.indptr) - 1),
                          np.diff(self.indptr))
        minor = self.indices.astype(np.int64)
        return (major, minor) if self._cls is sp.csr_matrix else (minor, major)

    def scatter(self, vals, out):
        out[:] = np.bincount(self.slot, weights=vals, minlength=self.nnz)
        return out

    def matrix(self, vals):
        return self._cls(
            (self.scatter(vals, np.empty(self.nnz)), self.indices,
             self.indptr),
            shape=self.shape,
        )


class LinearBlock:
    """Rows of the form lo <= sum(coef * x) <= up."""

    def __init__(self, label, nrows, entries, lower, upper, equality):
        self.label = label
        self.kind = "LinearEq" if equality else "LinearIneq"
        self.nrows = int(nrows)
        rows = _iarray([e[0] for e in entries])
        self._rows = rows
        self._cols = _iarray([e[1] for e in entries])
        self._vals = _farray([e[2] for e in entries])
        self.row_lower = _farray(lower)
        self.row_upper = _farray(upper)

    def residual(self, x):
        return np.bincount(self._rows, weights=self._vals * x[self._cols],
                           minlength=self.nrows)

    def jac_structure(self):
        return self._rows, self._cols

    def jac_values(self, x):
        return self._vals

    def hess_structure(self):
        return _iarray([]), _iarray([])

    def hess_values(self, x, w):
        return _farray([])

    def dump_lines(self):
        terms: list[list[str]] = [[] for _ in range(self.nrows)]
        for r, c, v in zip(self._rows, self._cols, self._vals):
            terms[r].append(f"{v:.12g}*x[{c}]")
        return [
            f"  row {r}: {self.row_lower[r]:.12g} <= "
            + " + ".join(terms[r]) + f" <= {self.row_upper[r]:.12g}"
            for r in range(self.nrows)
        ]


class QuadraticBlock:
    """Rows const + sum(a*x) + sum(q * x_i * x_j) within a range.

    Quadratic terms are stored once per unordered index pair; a diagonal
    term (i, i, q) contributes q * x_i^2.
    """

    kind = "QuadraticIneq"

    def __init__(self, label, nrows, lin_entries, quad_entries, const,
                 lower, upper):
        self.label = label
        self.nrows = int(nrows)
        self._lrows = _iarray([e[0] for e in lin_entries])
        self._lcols = _iarray([e[1] for e in lin_entries])
        self._lvals = _farray([e[2] for e in lin_entries])
        self._qrows = _iarray([e[0] for e in quad_entries])
        self._qi = _iarray([e[1] for e in quad_entries])
        self._qj = _iarray([e[2] for e in quad_entries])
        self._qvals = _farray([e[3] for e in quad_entries])
        self._const = _farray(const)
        self.row_lower = _farray(lower)
        self.row_upper = _farray(upper)
        # each row sums its constant, then its linear, then its quadratic
        # terms, in entry order
        self._sum_rows = np.concatenate([
            np.arange(self.nrows), self._lrows, self._qrows,
        ])

    def residual(self, x):
        return np.bincount(self._sum_rows, weights=np.concatenate([
            self._const,
            self._lvals * x[self._lcols],
            self._qvals * x[self._qi] * x[self._qj],
        ]), minlength=self.nrows)

    def jac_structure(self):
        rows = np.concatenate([self._lrows, self._qrows, self._qrows])
        cols = np.concatenate([self._lcols, self._qi, self._qj])
        return rows, cols

    def jac_values(self, x):
        return np.concatenate([
            self._lvals,
            self._qvals * x[self._qj],
            self._qvals * x[self._qi],
        ])

    def hess_structure(self):
        return (np.concatenate([self._qi, self._qj]),
                np.concatenate([self._qj, self._qi]))

    def hess_values(self, x, w):
        wv = w[self._qrows] * self._qvals
        return np.concatenate([wv, wv])

    def dump_lines(self):
        terms: list[list[str]] = [[f"{c:.12g}"] for c in self._const]
        for r, c, v in zip(self._lrows, self._lcols, self._lvals):
            terms[r].append(f"{v:.12g}*x[{c}]")
        for r, i, j, v in zip(self._qrows, self._qi, self._qj, self._qvals):
            terms[r].append(f"{v:.12g}*x[{i}]*x[{j}]")
        return [
            f"  row {r}: {self.row_lower[r]:.12g} <= "
            + " + ".join(terms[r]) + f" <= {self.row_upper[r]:.12g}"
            for r in range(self.nrows)
        ]


class SocConeBlock:
    """Rotated second-order cone rows re^2 + im^2 - a*b <= 0."""

    kind = "SocCone"

    def __init__(self, label, idx_re, idx_im, idx_a, idx_b):
        self.label = label
        self._re = _iarray(idx_re)
        self._im = _iarray(idx_im)
        self._a = _iarray(idx_a)
        self._b = _iarray(idx_b)
        self.nrows = len(self._re)
        self.row_lower = np.full(self.nrows, -INF)
        self.row_upper = np.zeros(self.nrows)

    def residual(self, x):
        return (x[self._re] ** 2 + x[self._im] ** 2
                - x[self._a] * x[self._b])

    def jac_structure(self):
        r = np.arange(self.nrows, dtype=np.int64)
        rows = np.concatenate([r, r, r, r])
        cols = np.concatenate([self._re, self._im, self._a, self._b])
        return rows, cols

    def jac_values(self, x):
        return np.concatenate([
            2.0 * x[self._re], 2.0 * x[self._im],
            -x[self._b], -x[self._a],
        ])

    def hess_structure(self):
        rows = np.concatenate([self._re, self._im, self._a, self._b])
        cols = np.concatenate([self._re, self._im, self._b, self._a])
        return rows, cols

    def hess_values(self, x, w):
        return np.concatenate([2.0 * w, 2.0 * w, -w, -w])

    def dump_lines(self):
        return [
            f"  row {r}: x[{self._re[r]}]^2 + x[{self._im[r]}]^2"
            f" - x[{self._a[r]}]*x[{self._b[r]}] <= 0"
            for r in range(self.nrows)
        ]


class AcFlowPolarBlock:
    """Polar power-flow definition rows for oriented branches.

    Each row pins a flow variable to its physics:
        flow = a1 * vf^2 + vf * vt * (kc*cos(thf - tht) + ks*sin(thf - tht))
    Active and reactive rows share this shape; they differ only in the
    (a1, kc, ks) coefficients derived from the branch admittance.
    """

    kind = "AcFlowPolar"

    def __init__(self, label, idx_flow, idx_vf, idx_vt, idx_thf, idx_tht,
                 a1, kc, ks):
        self.label = label
        self._flow = _iarray(idx_flow)
        self._vf = _iarray(idx_vf)
        self._vt = _iarray(idx_vt)
        self._thf = _iarray(idx_thf)
        self._tht = _iarray(idx_tht)
        self._a1 = _farray(a1)
        self._kc = _farray(kc)
        self._ks = _farray(ks)
        self.nrows = len(self._flow)
        self.row_lower = np.zeros(self.nrows)
        self.row_upper = np.zeros(self.nrows)

    def _trig(self, x):
        th = x[self._thf] - x[self._tht]
        c, s = np.cos(th), np.sin(th)
        k = self._kc * c + self._ks * s
        dk = -self._kc * s + self._ks * c
        return k, dk

    def residual(self, x):
        k, _ = self._trig(x)
        vf, vt = x[self._vf], x[self._vt]
        return x[self._flow] - self._a1 * vf * vf - vf * vt * k

    def jac_structure(self):
        r = np.arange(self.nrows, dtype=np.int64)
        rows = np.concatenate([r] * 5)
        cols = np.concatenate(
            [self._flow, self._vf, self._vt, self._thf, self._tht]
        )
        return rows, cols

    def jac_values(self, x):
        k, dk = self._trig(x)
        vf, vt = x[self._vf], x[self._vt]
        return np.concatenate([
            np.ones(self.nrows),
            -2.0 * self._a1 * vf - vt * k,
            -vf * k,
            -vf * vt * dk,
            vf * vt * dk,
        ])

    def hess_structure(self):
        pairs = [
            (self._vf, self._vf),
            (self._vf, self._vt), (self._vt, self._vf),
            (self._vf, self._thf), (self._thf, self._vf),
            (self._vf, self._tht), (self._tht, self._vf),
            (self._vt, self._thf), (self._thf, self._vt),
            (self._vt, self._tht), (self._tht, self._vt),
            (self._thf, self._thf),
            (self._thf, self._tht), (self._tht, self._thf),
            (self._tht, self._tht),
        ]
        rows = np.concatenate([p[0] for p in pairs])
        cols = np.concatenate([p[1] for p in pairs])
        return rows, cols

    def hess_values(self, x, w):
        k, dk = self._trig(x)
        vf, vt = x[self._vf], x[self._vt]
        h_vfvf = -2.0 * self._a1 * w
        h_vfvt = -k * w
        h_vfthf = -vt * dk * w
        h_vftht = vt * dk * w
        h_vtthf = -vf * dk * w
        h_vttht = vf * dk * w
        h_thth = vf * vt * k * w  # d2/dth^2 of -vf*vt*K = +vf*vt*K
        return np.concatenate([
            h_vfvf,
            h_vfvt, h_vfvt,
            h_vfthf, h_vfthf,
            h_vftht, h_vftht,
            h_vtthf, h_vtthf,
            h_vttht, h_vttht,
            h_thth,
            -h_thth, -h_thth,
            h_thth,
        ])

    def dump_lines(self):
        return [
            f"  row {r}: x[{self._flow[r]}] = {self._a1[r]:.12g}*x[{self._vf[r]}]^2"
            f" + x[{self._vf[r]}]*x[{self._vt[r]}]*({self._kc[r]:.12g}*cos"
            f" + {self._ks[r]:.12g}*sin)(x[{self._thf[r]}]-x[{self._tht[r]}])"
            for r in range(self.nrows)
        ]


class ApparentPowerLimitBlock:
    """Thermal limit rows p^2 + q^2 <= limit^2."""

    kind = "ApparentPowerLimit"

    def __init__(self, label, idx_p, idx_q, limit_sq):
        self.label = label
        self._p = _iarray(idx_p)
        self._q = _iarray(idx_q)
        self.nrows = len(self._p)
        self.row_lower = np.full(self.nrows, -INF)
        self.row_upper = _farray(limit_sq)

    def residual(self, x):
        return x[self._p] ** 2 + x[self._q] ** 2

    def jac_structure(self):
        r = np.arange(self.nrows, dtype=np.int64)
        return np.concatenate([r, r]), np.concatenate([self._p, self._q])

    def jac_values(self, x):
        return np.concatenate([2.0 * x[self._p], 2.0 * x[self._q]])

    def hess_structure(self):
        return (np.concatenate([self._p, self._q]),
                np.concatenate([self._p, self._q]))

    def hess_values(self, x, w):
        return np.concatenate([2.0 * w, 2.0 * w])

    def dump_lines(self):
        return [
            f"  row {r}: x[{self._p[r]}]^2 + x[{self._q[r]}]^2"
            f" <= {self.row_upper[r]:.12g}"
            for r in range(self.nrows)
        ]


class ModelIR:
    """Variables, constraint blocks and a linear objective.

    Variables live in four columns indexed by variable: ``var_names``,
    ``var_lower``, ``var_upper`` and ``var_start``.  They are plain lists
    while the model is built; :meth:`add_variable` appends one entry to
    each.  :meth:`finalize` freezes the structure, turns the three numeric
    columns into float arrays and precomputes what every evaluation reuses:
    the row offsets and ranges, the objective vector, and the fixed CSR
    patterns of the Jacobian and of the Hessian of the Lagrangian
    (``jac_pattern``, ``hess_pattern``), with the slot each block entry
    sums into.  Evaluation is pure and safe to call concurrently once
    finalized.
    """

    def __init__(self, name="model"):
        self.name = name
        self.var_names: list[str] = []
        self.var_lower: list[float] = []
        self.var_upper: list[float] = []
        self.var_start: list[float] = []
        self.blocks: list = []
        self._obj_terms: dict[int, float] = {}
        self.obj_offset = 0.0
        self.meta: dict = {}
        self._finalized = False

    # -- construction -------------------------------------------------

    def add_variable(self, name, lower=-INF, upper=INF, initial=0.0) -> int:
        """Append a variable and return its index; the start value is
        clamped into [lower, upper]."""
        self._check_open()
        if lower > upper:
            raise ValueError(f"variable {name}: lower {lower} > upper {upper}")
        self.var_names.append(name)
        self.var_lower.append(lower)
        self.var_upper.append(upper)
        self.var_start.append(min(max(initial, lower), upper))
        return len(self.var_names) - 1

    def add_block(self, block):
        self._check_open()
        self.blocks.append(block)
        return block

    def add_objective_term(self, var_index: int, coef: float):
        self._check_open()
        self._obj_terms[var_index] = self._obj_terms.get(var_index, 0.0) + coef

    def add_objective_offset(self, value: float):
        self._check_open()
        self.obj_offset += value

    def _check_open(self):
        if self._finalized:
            raise RuntimeError("model already finalized")

    def finalize(self):
        """Freeze the model and precompute its layout (see the class
        docstring); a second call is a no-op."""
        if self._finalized:
            return self
        n = len(self.var_names)
        jac_rows, jac_cols = [], []
        hess_rows, hess_cols = [], []
        row_offsets, off = [], 0
        for blk in self.blocks:
            row_offsets.append(off)
            jr, jc = blk.jac_structure()
            jac_rows.append(jr + off)
            jac_cols.append(jc)
            hr, hc = blk.hess_structure()
            hess_rows.append(hr)
            hess_cols.append(hc)
            off += blk.nrows
        cols = np.concatenate(jac_cols) if jac_cols else _iarray([])
        if len(cols) and (cols.min() < 0 or cols.max() >= n):
            blk = next(b for b, c in zip(self.blocks, jac_cols)
                       if len(c) and (c.min() < 0 or c.max() >= n))
            raise ValueError(
                f"block {blk.label} references variable out of range"
            )
        if any(not 0 <= i < n for i in self._obj_terms):
            raise ValueError("objective references variable out of range")
        self.obj_coeffs = np.zeros(n)
        for idx, coef in self._obj_terms.items():
            self.obj_coeffs[idx] = coef
        self._row_offsets = row_offsets
        self.nrows = off
        self.nvars = n
        self.row_lower = np.concatenate(
            [blk.row_lower for blk in self.blocks]
        ) if self.blocks else np.zeros(0)
        self.row_upper = np.concatenate(
            [blk.row_upper for blk in self.blocks]
        ) if self.blocks else np.zeros(0)
        self.row_is_eq = self.row_lower == self.row_upper
        self.jac_pattern = SparsePattern(
            np.concatenate(jac_rows) if jac_rows else _iarray([]), cols,
            (self.nrows, n),
        )
        self.hess_pattern = SparsePattern(
            np.concatenate(hess_rows) if hess_rows else _iarray([]),
            np.concatenate(hess_cols) if hess_cols else _iarray([]),
            (n, n),
        )
        self.var_lower = _farray(self.var_lower)
        self.var_upper = _farray(self.var_upper)
        self.var_start = _farray(self.var_start)
        self._finalized = True
        return self

    # -- evaluation ---------------------------------------------------

    def _check_x(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.nvars,):
            raise ValueError(
                f"point has shape {x.shape}, model has {self.nvars} variables"
            )
        return x

    def variable_bounds(self):
        """(lower, upper) bound arrays of a finalized model, as copies."""
        return self.var_lower.copy(), self.var_upper.copy()

    def initial_point(self):
        """Start point of a finalized model, as a copy."""
        return self.var_start.copy()

    def eval_objective(self, x):
        x = self._check_x(x)
        return float(self.obj_coeffs @ x + self.obj_offset)

    def eval_raw_rows(self, x):
        """Raw row values g(x) without any range shift."""
        x = self._check_x(x)
        if not self.blocks:
            return np.zeros(0)
        return np.concatenate([blk.residual(x) for blk in self.blocks])


def eval_residuals(m: ModelIR, x) -> np.ndarray:
    """Per-row residuals: g(x) - rhs on equality rows, raw g(x) elsewhere.

    Inequality rows are interpreted against their [lower, upper] range,
    available as m.row_lower / m.row_upper.
    """
    res = m.eval_raw_rows(x)
    res[m.row_is_eq] -= m.row_lower[m.row_is_eq]
    return res


def _evaluated(pattern: SparsePattern, vals, out):
    if out is None:
        return pattern.matrix(vals)
    pattern.scatter(vals, out.data)
    return out


def eval_jacobian(m: ModelIR, x, out=None) -> sp.csr_matrix:
    """Sparse Jacobian of the raw row values at x, on ``m.jac_pattern``: a
    new matrix, or ``out``, a matrix on that pattern, overwritten."""
    x = m._check_x(x)
    vals = (np.concatenate([blk.jac_values(x) for blk in m.blocks])
            if m.blocks else np.zeros(0))
    return _evaluated(m.jac_pattern, vals, out)


def eval_lagrangian_hessian(m: ModelIR, x, duals, out=None) -> sp.csr_matrix:
    """Sparse Hessian of objective + duals . g(x), on ``m.hess_pattern``: a
    new matrix, or ``out``, a matrix on that pattern, overwritten.

    The objective is linear, so only constraint curvature contributes.
    """
    x = m._check_x(x)
    duals = np.asarray(duals, dtype=float)
    if duals.shape != (m.nrows,):
        raise ValueError(
            f"duals have shape {duals.shape}, model has {m.nrows} rows"
        )
    vals = []
    for blk, off in zip(m.blocks, m._row_offsets):
        vals.append(blk.hess_values(x, duals[off:off + blk.nrows]))
    return _evaluated(m.hess_pattern,
                      np.concatenate(vals) if vals else np.zeros(0), out)


def dump_model(m: ModelIR) -> str:
    """Human-readable listing of variables, blocks and objective."""
    lines = [f"model {m.name}: {m.nvars} variables, {m.nrows} rows"]
    for i, (name, lo, up, x0) in enumerate(zip(
            m.var_names, m.var_lower, m.var_upper, m.var_start)):
        lines.append(
            f"var x[{i}] {name}: [{lo:.12g}, {up:.12g}] init {x0:.12g}"
        )
    lines.append(f"objective offset {m.obj_offset:.12g}")
    for i in np.nonzero(m.obj_coeffs)[0]:
        lines.append(f"obj x[{i}] coef {m.obj_coeffs[i]:.12g}")
    for blk in m.blocks:
        lines.append(f"block {blk.label} kind={blk.kind} rows={blk.nrows}")
        lines.extend(blk.dump_lines())
    return "\n".join(lines)


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_ERROR = "numerical_error"


@dataclass
class SolveResult:
    """Solver outcome: status, objective and the full primal-dual point."""

    status: SolveStatus
    objective: float
    x: np.ndarray
    y: np.ndarray          # constraint-row duals
    zl: np.ndarray         # lower-bound duals, >= 0
    zu: np.ndarray         # upper-bound duals, >= 0
    kkt_residual: float
    iterations: int
    wall_time: float
