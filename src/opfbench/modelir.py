"""Optimization-model representation consumed by the interior-point solver.

A model is an ordered set of bounded variables, stored as columns (names,
lower bounds, upper bounds, start values), a list of constraint blocks and
a linear objective.  There are two row kinds.  A :class:`QuadraticBlock`
holds polynomial rows of degree two or less: a constant, linear terms and
products of two variables.  Linear rows, convex quadratic cost rows,
rotated-cone rows and apparent-power limits are all of this kind.  An
:class:`AcFlowPolarBlock` holds the polar power-flow rows, with
hand-derived derivatives.  Each block provides its residuals plus Jacobian
and Hessian-of-Lagrangian entries on a sparsity pattern fixed at
construction.  A finalized model stacks the terms of all its polynomial
rows into one QuadraticBlock and evaluates them in one pass, then each
polar block.

Row bounds use a [lower, upper] range; equality rows have lower == upper.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import _sparsetools

INF = math.inf


def _farray(values):
    return np.asarray(values, dtype=float)


def _iarray(values):
    return np.asarray(values, dtype=np.int64)


class SparsePattern:
    """Compressed sparse column (CSC) pattern fixed once from COO
    coordinates with repeats: the one sparse form of the program.

    Values live in plain float arrays of ``nnz`` entries, one per stored
    slot, in storage order: column by column, each column's rows sorted
    and distinct.  ``scatter(vals)`` takes one value per coordinate, in
    the order the coordinates were given, and returns the new array of
    their sums per slot, repeats summed in that order.  ``matvec`` and
    ``rmatvec`` multiply by the matrix such values make, or by its
    transpose, with the sparsetools kernels scipy's ``@`` ends in, so no
    caller builds a matrix.
    """

    def __init__(self, rows, cols, shape):
        nrows, ncols = shape
        # np.unique(keys, return_inverse=True), without its overhead on
        # the many small patterns a grid of models builds
        keys = _iarray(cols) * nrows + _iarray(rows)
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
        self.indices = (keys % nrows).astype(idx)
        self.indptr = np.searchsorted(
            keys, np.arange(ncols + 1) * nrows).astype(idx)
        # every evaluation shares these arrays: an in-place change must
        # fail
        for a in (self.slot, self.indices, self.indptr):
            a.flags.writeable = False

    def coords(self):
        """(rows, cols) of the stored entries, in storage order."""
        cols = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        return self.indices.astype(np.int64), cols

    def scatter(self, vals):
        # float even when empty: bincount of no slots counts in int64
        return np.bincount(self.slot, weights=vals,
                           minlength=self.nnz).astype(float, copy=False)

    def matvec(self, data, x):
        """A @ x for the matrix A with the values ``data`` on this
        pattern, by the sparsetools kernel scipy's ``@`` ends in, so the
        product is ``@``'s, bit for bit."""
        out = np.zeros(self.shape[0])
        _sparsetools.csc_matvec(*self.shape, self.indptr, self.indices,
                                data, x, out)
        return out

    def rmatvec(self, data, x):
        """A^T @ x: the same arrays read as the rows of A^T, as scipy's
        ``A.T @ x`` reads them."""
        out = np.zeros(self.shape[1])
        _sparsetools.csr_matvec(*self.shape[::-1], self.indptr,
                                self.indices, data, x, out)
        return out


class QuadraticBlock:
    """Rows const + sum(a * x_c) + sum(q * x_i * x_j) within a range.

    The one polynomial row kind: linear rows have no product terms, and
    convex quadratic, rotated-cone and apparent-power rows are products of
    two variables.  Terms come as parallel arrays with row indices local to
    the block: ``linear`` is (rows, cols, coefs) and ``quadratic`` is
    (rows, i, j, coefs), one product term per unordered index pair; a
    diagonal term (r, i, i, q) contributes q * x_i^2.  ``const`` defaults
    to zero.  Each row sums its constant, then its linear, then its product
    terms, in the order given.  A term outside the block's rows raises
    ValueError naming the block: stacked with other blocks, it would land
    in a neighbour's row.  Each row needs lower <= upper and a finite
    bound; ``ModelIR.finalize`` raises ValueError naming the block and the
    row otherwise.
    """

    def __init__(self, label, lower, upper, linear=((), (), ()),
                 quadratic=((), (), (), ()), const=None):
        self.label = label
        self.row_lower = _farray(lower)
        self.row_upper = _farray(upper)
        self.nrows = len(self.row_lower)
        rows, cols, vals = linear
        self._lrows, self._lcols = _iarray(rows), _iarray(cols)
        self._lvals = _farray(vals)
        rows, i, j, vals = quadratic
        self._qrows, self._qi, self._qj = _iarray(rows), _iarray(i), _iarray(j)
        self._qvals = _farray(vals)
        self._const = np.zeros(self.nrows) if const is None else _farray(const)
        for r in (self._lrows, self._qrows):
            # a negative row reads as a huge unsigned one
            if len(r) and r.view(np.uint64).max() >= self.nrows:
                raise ValueError(f"block {label} references row out of range")

    @cached_property
    def _sum_rows(self):
        return np.concatenate([
            np.arange(self.nrows), self._lrows, self._qrows,
        ])

    def residual(self, x):
        terms = [self._const, self._lvals * x[self._lcols]]
        if len(self._qvals):
            # the products come last, so leaving out an empty part leaves
            # every row's sum, and its order, as it is
            terms.append(self._qvals * x[self._qi] * x[self._qj])
        return np.bincount(self._sum_rows, weights=np.concatenate(terms),
                           minlength=self.nrows)

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
        terms: list[list[str]] = [[f"{c:.12g}"] if c else []
                                  for c in self._const]
        for r, c, v in zip(self._lrows, self._lcols, self._lvals):
            terms[r].append(f"{v:.12g}*x[{c}]")
        for r, i, j, v in zip(self._qrows, self._qi, self._qj, self._qvals):
            terms[r].append(f"{v:.12g}*x[{i}]*x[{j}]")
        return [
            f"  row {r}: {self.row_lower[r]:.12g} <= "
            + (" + ".join(terms[r]) or "0") + f" <= {self.row_upper[r]:.12g}"
            for r in range(self.nrows)
        ]


class AcFlowPolarBlock:
    """Polar power-flow definition rows for oriented branches.

    Each row pins a flow variable to its physics:
        flow = a1 * vf^2 + vf * vt * (kc*cos(thf - tht) + ks*sin(thf - tht))
    Active and reactive rows share this shape; they differ only in the
    (a1, kc, ks) coefficients derived from the branch admittance.
    """

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


class ModelIR:
    """Variables, constraint blocks and a linear objective.

    Variables live in four columns indexed by variable: ``var_names``,
    ``var_lower``, ``var_upper`` and ``var_start``.  They are plain lists
    while the model is built; :meth:`add_variable` appends one entry to
    each.  :meth:`finalize` freezes the structure, turns the three numeric
    columns into float arrays and precomputes what every evaluation reuses:
    the row ranges, the objective vector, one QuadraticBlock holding the
    terms of every polynomial row at its model row, the row offset of
    each polar block, and the fixed CSC patterns of the Jacobian and of
    the Hessian of the Lagrangian (``jac_pattern``, ``hess_pattern``),
    with the slot each entry sums into.  A model holds only bounds a
    solver can use: a variable needs lower <= upper (so neither is NaN),
    lower < inf and upper > -inf, and a row lower <= upper and a finite
    bound; ``add_variable`` and ``finalize`` raise ValueError naming the
    variable or the block otherwise.  Entries come in one order for
    patterns and values alike: the stacked linear terms, the products'
    two Jacobian halves, then each polar block's.  The arrays it publishes
    (the three variable columns, ``row_lower``, ``row_upper``,
    ``row_is_eq``, ``obj_coeffs`` and the patterns' index arrays) are
    read-only, so whatever a solver derives from a finalized model cannot
    go stale.  Evaluation is pure and safe to call concurrently once
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
        clamped into [lower, upper].  Raises ValueError naming the variable
        unless lower <= upper, lower < inf and upper > -inf: no real value
        lies within other bounds."""
        self._check_open()
        if not (lower <= upper and lower < INF and upper > -INF):
            raise ValueError(
                f"variable {name}: lower {lower}, upper {upper}: need lower "
                f"<= upper, lower < inf and upper > -inf")
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

    def copy(self) -> ModelIR:
        """An unfinalized copy that grows apart from this model: its own
        variable columns, block list, objective and ``meta`` dict.  The
        blocks and ``meta``'s values are shared; nothing changes a block
        once it is made."""
        self._check_open()
        twin = ModelIR(self.name)
        twin.var_names = self.var_names.copy()
        twin.var_lower = self.var_lower.copy()
        twin.var_upper = self.var_upper.copy()
        twin.var_start = self.var_start.copy()
        twin.blocks = self.blocks.copy()
        twin._obj_terms = self._obj_terms.copy()
        twin.obj_offset = self.obj_offset
        twin.meta = self.meta.copy()
        return twin

    def finalize(self):
        """Freeze the model and precompute its layout (see the class
        docstring); a second call is a no-op."""
        if self._finalized:
            return self
        n = len(self.var_names)
        if any(not 0 <= i < n for i in self._obj_terms):
            raise ValueError("objective references variable out of range")
        poly, self._polar, off = [], [], 0
        for blk in self.blocks:
            (poly if isinstance(blk, QuadraticBlock)
             else self._polar).append((off, blk))
            off += blk.nrows
        self.obj_coeffs = np.zeros(n)
        for idx, coef in self._obj_terms.items():
            self.obj_coeffs[idx] = coef
        self.nrows = off
        self.nvars = n
        self.row_lower = np.concatenate(
            [_NO_ROWS.row_lower] + [blk.row_lower for blk in self.blocks])
        self.row_upper = np.concatenate(
            [_NO_ROWS.row_upper] + [blk.row_upper for blk in self.blocks])
        # a row needs lower <= upper (so no NaN) and a finite bound: one
        # with none constrains nothing, and one with crossed bounds admits
        # no point
        bad = ~((self.row_lower <= self.row_upper)
                & (np.isfinite(self.row_lower) | np.isfinite(self.row_upper)))
        if bad.any():
            r = int(np.argmax(bad))
            for blk in self.blocks:
                if r < blk.nrows:
                    break
                r -= blk.nrows
            raise ValueError(
                f"block {blk.label} row {r}: lower {blk.row_lower[r]}, upper "
                f"{blk.row_upper[r]}: need lower <= upper and a finite bound")
        self.row_is_eq = self.row_lower == self.row_upper
        self._poly = _stacked(poly, self.row_lower, self.row_upper)
        self._parts = [(0, self._poly)] + self._polar
        cat = np.concatenate
        jac = [(off, blk.jac_structure()) for off, blk in self._parts]
        cols = cat([cols for _, (_, cols) in jac])
        if len(cols) and (cols.min() < 0 or cols.max() >= n):
            blk = next(b for b in self.blocks
                       if any(not 0 <= c < n for c in b.jac_structure()[1]))
            raise ValueError(
                f"block {blk.label} references variable out of range"
            )
        self.jac_pattern = SparsePattern(
            cat([rows + off for off, (rows, _) in jac]), cols,
            (self.nrows, n),
        )
        hess = [blk.hess_structure() for _, blk in self._parts]
        self.hess_pattern = SparsePattern(
            cat([rows for rows, _ in hess]), cat([cols for _, cols in hess]),
            (n, n),
        )
        self.var_lower = _farray(self.var_lower)
        self.var_upper = _farray(self.var_upper)
        self.var_start = _farray(self.var_start)
        # what a solver derives from these stays valid: none can change
        for a in (self.var_lower, self.var_upper, self.var_start,
                  self.row_lower, self.row_upper, self.row_is_eq,
                  self.obj_coeffs):
            a.flags.writeable = False
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
        """Raw row values g(x) without any range shift: every polynomial
        row in one pass, then the rows of each polar block."""
        x = self._check_x(x)
        res = self._poly.residual(x)
        for off, blk in self._polar:
            res[off:off + blk.nrows] = blk.residual(x)
        return res


# Zero rows and no terms: the seed of every stack, so each concatenation
# has at least one part of the right type.
_NO_ROWS = QuadraticBlock("no rows", (), ())


def _stacked(parts, lower, upper) -> QuadraticBlock:
    """One QuadraticBlock over all model rows with the terms of every
    (row offset, QuadraticBlock) part, in part order; rows of no part have
    no terms."""
    blocks = [_NO_ROWS] + [blk for _, blk in parts]
    const = np.zeros(len(lower))
    for off, blk in parts:
        const[off:off + blk.nrows] = blk._const
    lc, lv, qi, qj, qv = (np.concatenate(terms) for terms in zip(*[
        (blk._lcols, blk._lvals, blk._qi, blk._qj, blk._qvals)
        for blk in blocks
    ]))
    # the rows of all linear terms, then of all products, shifted from
    # their block's rows to the model's
    counts = ([len(blk._lrows) for blk in blocks]
              + [len(blk._qrows) for blk in blocks])
    rows = np.concatenate([blk._lrows for blk in blocks]
                          + [blk._qrows for blk in blocks])
    rows += np.array(([0] + [off for off, _ in parts]) * 2).repeat(counts)
    nlin = sum(counts[:len(blocks)])
    return QuadraticBlock("polynomial rows", lower, upper,
                          linear=(rows[:nlin], lc, lv),
                          quadratic=(rows[nlin:], qi, qj, qv), const=const)


def eval_residuals(m: ModelIR, x) -> np.ndarray:
    """Per-row residuals: g(x) - rhs on equality rows, raw g(x) elsewhere.

    Inequality rows are interpreted against their [lower, upper] range,
    available as m.row_lower / m.row_upper.
    """
    res = m.eval_raw_rows(x)
    res[m.row_is_eq] -= m.row_lower[m.row_is_eq]
    return res


def eval_jacobian(m: ModelIR, x) -> np.ndarray:
    """Jacobian of the raw row values at x: a new array of its values on
    ``m.jac_pattern``."""
    x = m._check_x(x)
    return m.jac_pattern.scatter(
        np.concatenate([blk.jac_values(x) for _, blk in m._parts]))


def eval_lagrangian_hessian(m: ModelIR, x, duals) -> np.ndarray:
    """Hessian of objective + duals . g(x): a new array of its values on
    ``m.hess_pattern``, which is symmetric, as the values are.

    The objective is linear, so only constraint curvature contributes.
    """
    x = m._check_x(x)
    duals = np.asarray(duals, dtype=float)
    if duals.shape != (m.nrows,):
        raise ValueError(
            f"duals have shape {duals.shape}, model has {m.nrows} rows"
        )
    return m.hess_pattern.scatter(
        np.concatenate([blk.hess_values(x, duals[off:off + blk.nrows])
                        for off, blk in m._parts]))


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
        lines.append(f"block {blk.label} rows={blk.nrows}")
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
