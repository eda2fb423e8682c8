"""Embedded primal-dual interior-point solver for ModelIR instances.

One engine covers the linear approximation (an LP), the lifted relaxation
(a convex QCQP) and the polar formulation (a non-convex NLP): a logarithmic
barrier on bounds and slacks, a Newton step on the perturbed KKT system
factored by :mod:`opfbench.kkt`, a backtracking line search on an l1
exact-penalty merit function, the fraction-to-the-boundary rule, and
monotone barrier reduction with inertia-corrected primal regularization.
Where the factorization cannot report the inertia, the step of a model
with curvature is accepted on an inertia-free curvature test instead
(Chiang & Zavala, 2016); an LP needs neither test (see below).

The inertia correction follows Algorithm IC of Waechter & Biegler (2006)
on models with curvature, those with a nonempty Hessian pattern; a model
without is an LP.  An iteration first tries delta_w = 0, or the
larger value a failed line search forces; the first nonzero trial is
kappa_w^- = 1/3 times the delta_w the last correction settled on, and
each later trial kappa_w^+ = 8 times the one before.  Until a first
correction, and always on LPs, the trials are 1e-8 and then x10.  The
first iteration of a model with curvature starts at delta_w = delta_c =
1e-8: at y = 0 its Hessian block is all zeros, and the unregularized
matrix is singular.

An LP reads no inertia: its K has no W and its primal diagonal is sigma
+ delta_w >= 0, so no step has negative curvature, and ``factor`` takes
the first step whose back-solve passes ``kkt``'s residual check.  A
rejected factorization, one that breaks down or fails its back-solve, is
factored once more at the same delta_w and delta_c with threshold
pivoting (``factorize(..., pivoted=True)``, through the one entry point),
and that counts as one correction; only when it fails too do the
regularizations grow, and the iteration's later trials keep the
threshold.  Steps at delta_w > 0 had stalled large LPs: on the 1500-bus
DC-psi cell (``case30_grid`` tiled 50 times, tol 1e-8), 131 of 167
iterations sat at the least mu, each corrected to delta_w = 1e-8; with
the retry the solve takes 29 iterations with 3 corrections, and the
3000-bus cell, which had run to the iteration limit, 27.

A solve is one ``_Solve`` object.  It owns what an iteration hands to the
next: the point (z, y, v) with its evaluation, the barrier parameter, the
merit penalty, the regularization a failed line search forces and the
last corrected delta_w.  Each iteration runs IPOPT's phases in order, one
method each: ``evaluate`` (Jacobian, the solver's own residuals, the KKT
audit and the optimality and infeasibility tests), ``update_barrier`` (mu
and the barrier gradient), ``factor`` (the Hessian, K and the inertia
correction, ending in the Newton step), ``line_search`` (the penalty
update, backtracking on ``merit`` and one second-order correction) and
``accept`` (the dual step and the move to the new point).

What a solve derives from its model alone is built once per model, at
the model's first solve, and reused by every later solve of it: the
``_Structure``.  It holds the intake (index sets, column scaling, bounds
and start-point bounds), the auditor's index sets, the KKT pattern with
its fill order (one ordering factorization), the objective scaling,
whether the model is an LP, and the start point (z0, v0) with its
evaluation (two row evaluations).  Every value stays with the solve: the
iterates, the model-row duals, the log, and the Jacobian, the Hessian and
K as float arrays of their values on fixed CSC patterns
(``modelir.SparsePattern``), the program's one sparse form: each model
evaluation returns a new such array, and K is one array per solve that
``_Kkt`` overwrites in place.  No solve builds a scipy matrix: J^T y, the
curvature's W dx and the factor's residual run the sparsetools kernels on
(pattern, values), and K is factored as (pattern, values), the form
``kkt.factorize`` takes.  K is stored in its fill order, and its factor
solves in that order; ``_Kkt.step`` alone gathers the right-hand side
into it and the step out of it, one gather each way.  ``ipm`` keeps each
structure in a ``weakref.WeakKeyDictionary`` keyed by its model, so it
lives exactly as long as the model; it holds no reference to the model,
which would keep its own key alive.  Its arrays are read-only,
as are the model arrays it is derived from (``ModelIR.finalize``), so a
structure cannot go stale and no solve can write into what another reads;
solves of one model from two threads at once share it.  It depends on no
``SolverOptions`` value, and reads the module constants ``_SCALE_BOUND``,
``_BOUND_PUSH``, ``_OBJ_GRAD_TARGET`` and ``_MU_INIT`` when it is built, so
a change to one of them reaches only models first solved after it.  A
later solve takes the same steps as the first, bit for bit.

K is written in two steps on every model (``_Kkt``): ``factor`` writes
the Hessian's and the Jacobian's values into their slots of K where it
evaluates the Hessian, and every trial of the correction writes only its
diagonal.  No two of those values share a slot, so K is the one scatter
of all its values, bit for bit, with no scatter made.  An LP's
derivatives never change, so it evaluates them once per solve, as IPOPT
does for constant Jacobians and Hessians (Waechter & Biegler 2006).  A
solve starts with no Jacobian and no Hessian, and one rule covers both:
a model with curvature evaluates them at every point, an LP only while it
has none.  So ``evaluate`` calls ``eval_jacobian`` at an LP's first point
only, and keeps those model-unit values for J^T y and for every audit,
the one ``finish`` makes included, and one copy scaled for K; ``factor``
calls ``eval_lagrangian_hessian``, whose values are empty, and writes
both into K at its first call only.  Every step stays the one
per-iteration evaluation took, bit for bit.  Once per solve, not once per
model: the values stay with the solve, like every other value, and each
solve still enters both evaluations, so a caller that wraps them, as
perfbench's tracer does, sees every solve evaluate its model (a solve
that ends at its start point never reaches the Hessian).

Each point is evaluated once, as IPOPT caches its evaluations per iterate
(Waechter & Biegler 2006).  ``_evaluate_point`` computes the model
variables x in model units, the rows, the internal residual with its l1
and max-norms and the barrier terms at z: the bound gaps, obj . z and
the lower and upper log sums.  The start point is evaluated once per
model, with its structure, and every later point by ``merit`` as a trial
point of the line search; ``accept`` carries the evaluation of the point
it accepts into the next iteration.  ``evaluate`` reads the rows,
residual, max-norm and gaps from it, ``evaluate`` and ``factor`` take the
derivatives at its x, and the line search's merit at its start is formed
from its barrier terms at the current mu and its l1 norm.  A failed line
search keeps the point and its evaluation.

``evaluate`` computes J^T y once per iteration, in model units and then
multiplied by D (see below), and from it the solver's own residuals: the
primal-dual stationarity and the complementarity of the gaps, divided by
one plus the largest internal dual.  ``update_barrier`` reuses all of
them; it takes the barrier error max |gap v - mu| at each trial mu in
one pass over the products gap v that ``evaluate`` keeps, and keeps mu /
gap for the dual step, as ``factor`` keeps v / gap.  The independent
audit, ``_Auditor``, runs only when both are within ``_GATE`` times tol,
as IPOPT tests termination on the residuals it already holds (Waechter &
Biegler 2006); only an audited iteration may end optimal, so every
optimal result passes ``kkt_check`` by construction.
On the benchmark workloads the gate opens on about 8% of evaluations.

One rule ends a solve of any model, LP, QCQP or NLP, as infeasible, on
one path whether the iteration was audited or not: the internal duals it
already holds, in objective units, 1 + max(max |y|, max v) / obj_scale,
pass ``_DUAL_BLOWUP`` while the raw violation (``_Auditor.feasibility``)
exceeds tol.  Audited or not, the iteration computes the violation only
once the duals pass the threshold.  Each model-unit dual is an internal
one divided by obj_scale, a bound dual also by its d >= 1, so the measure
is never below the audit's divisor (``_Auditor.denominator``, one plus
the largest model-unit dual).  That divisor only scales the audit's
residuals: a change to it moves no label.  A solve that ends other than
optimal is audited at the point it returns.

Inequality rows are converted to equalities with range-bounded slacks at
intake, and variables fixed through equal bounds become free variables
pinned by an extra equality row, so the barrier only ever sees strictly
feasible gaps.  Bounds so close that the start point's push off them
rounds to zero count as equal, at the lower one, for variables and rows
alike (``_pinned``).  The internal rows are the model rows, one for one,
then the fix rows: ``ModelIR`` admits only rows with lower <= upper and a
finite bound, and variables with lower <= upper, lower < inf and upper >
-inf, so the intake drops no row, and a crossed row, like a crossed
variable, is an error when the model is built.  Solves are deterministic
functions of (model, options).

Each Newton system is factored with its slacks condensed, the slack
elimination of IPOPT's augmented system (Waechter & Biegler 2006).  A
slack's column holds one Jacobian entry, -1 on its row, and its diagonal
S = sigma_s + delta_w, where sigma_s > 0 because every slack has a
finite bound.  Eliminating it leaves K over the model variables and the
rows, with -(delta_c + 1/S) on the row's dual diagonal; the right-hand
side of the row gains r_s / S, and after the solve the slack step is
ds = (r_s + dy_row) / S.  The step, the second-order correction and the
curvature test all take this one path (``_Kkt.assemble`` and
``step``).  Each eliminated slack takes one positive pivot with it, so the
inertia the correction asks for is (nx, m, 0): nx model variables and m
rows, fix rows included.  Against the full system, seed 1 of the 120-bus
benchmark case factors 0.89M rows per pass instead of 1.10M, with L+U fill
9.2M instead of 9.9M.

The intake also scales the model variables, x = D x' (Waechter & Biegler
2006, section 3.8).  A variable whose largest finite bound magnitude
exceeds 100 gets D_j = that magnitude rounded to a power of two, so x' and
its bounds are exact; every other variable keeps D_j = 1.  The solver
iterates on x': its bounds are divided by D, the objective gradient and
the Jacobian's columns are multiplied by D and the Hessian by D_r D_c,
while rows are evaluated and results returned in model units.  Without
this the bound push, the fraction-to-the-boundary rule and the
multiplier corridor all act on the scale of psi's epigraph costs (bounds
up to 5760), and psi paid two to five times lambda's iterations.  Slacks
are never scaled: they share their row's units, and scaling them by the
row bounds sent the 120-bus SOC-psi solve to the iteration limit.  The
objective scaling is taken from the scaled gradient, the one the solver
sees: taken from the model's, it would leave that gradient up to D times
the target magnitude.  The scaling is applied on every model: where no
bound is large, D = 1 and each product with it is exact, so every step is
the unscaled solver's, bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import time
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import OptionError
from .kkt import FactorizationError, factorize, fill_order
from .modelir import (
    ModelIR,
    SolveResult,
    SolveStatus,
    SparsePattern,
    eval_jacobian,
    eval_lagrangian_hessian,
)

INF = math.inf

# Internal algorithm constants.
_OBJ_GRAD_TARGET = 100.0     # objective gradient scaled down to this magnitude
_BOUND_PUSH = 1e-2           # push of the start point off its bounds, relative
                             # to the scaled bound's magnitude and width
_SCALE_BOUND = 100.0         # variables with a larger finite bound are scaled
_KAPPA_EPS = 10.0            # barrier subproblem tolerance factor
_MU_INIT = 0.1               # initial barrier parameter
_MU_FACTOR = 0.2             # monotone barrier reduction factor
_TAU = 0.995                 # fraction-to-the-boundary factor
_KAPPA_SIGMA = 1e10          # bound-multiplier safeguard corridor
_ARMIJO_ETA = 1e-4
_MAX_BACKTRACKS = 40
_MAX_LS_FAILURES = 20
_REG_FLOOR = 1e-8            # first primal regularization tried
_REG_MAX = 1e12
_KAPPA_W_MINUS = 1.0 / 3.0   # warm start: first trial after a correction
_KAPPA_W_PLUS = 8.0          # growth of delta_w after a warm start
_REG_GROWTH_COLD = 10.0      # growth of delta_w before a first correction
_DELTA_C = 1e-10             # dual-block regularization
_DELTA_C_SINGULAR = 1e-8     # least dual regularization once K is singular
# A solve of any model ends infeasible once its internal duals in objective
# units, 1 + max(max |y|, max v) / obj_scale, pass this while the raw
# violation exceeds tol: no point satisfies the rows, and the duals grow
# without bound.  The -_DELTA_C*I dual block caps that growth near
# 1/_DELTA_C, so blow-up is declared two decades lower.
_DUAL_BLOWUP = 1e-2 / _DELTA_C
# The KKT audit runs once the internal stationarity and complementarity
# are both within this factor of tol.  Over seeds 1-3 of the benchmark
# workloads, every passing audit had them within 0.97 and 0.70 x tol.  The
# primal residual is left out: slack mismatch is not a raw violation, and
# passing audits have seen it at 127 x tol.
_GATE = 10.0


@dataclass
class SolverOptions:
    """Interior-point options; defaults terminate at a 1e-6 KKT max-norm."""

    tol: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        if not 0.0 < self.tol < INF:
            raise OptionError("tol must be positive and finite")
        if (not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise OptionError("max_iter must be an integer of at least 1")


@dataclass
class IterationRecord:
    iteration: int
    mu: float
    primal_inf: float
    dual_inf: float
    compl: float
    alpha_primal: float
    alpha_dual: float
    reg: float
    inertia_corrections: int
    fill: int  # L+U entries of the iteration's accepted factorization
    # True: dual_inf and compl are the KKT audit's; False: they are the
    # solver's internal residuals, the audit did not run
    audited: bool


@dataclass
class IterationLog:
    records: list[IterationRecord] = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([
            "iter", "mu", "primal_inf", "dual_inf", "compl",
            "alpha_primal", "alpha_dual", "reg", "corrections", "fill",
            "audited",
        ])
        for r in self.records:
            writer.writerow([
                r.iteration, repr(r.mu), repr(r.primal_inf),
                repr(r.dual_inf), repr(r.compl), repr(r.alpha_primal),
                repr(r.alpha_dual), repr(r.reg), r.inertia_corrections,
                r.fill, int(r.audited),
            ])
        return buf.getvalue()


@dataclass
class KktReport:
    """Scaled KKT residual components recomputed from a model and a result."""

    stationarity: float
    feasibility: float
    complementarity: float
    raw_feasibility: float

    @property
    def max_residual(self) -> float:
        return max(self.stationarity, self.feasibility, self.complementarity)


class _Auditor:
    """Scaled KKT residuals of model-shape points (x, y, zl, zu) against
    one model.

    Built once per model: it holds the variable bounds, the inequality rows
    with their bounds, the index sets of the infinite variable bounds and
    the Jacobian's pattern, so each audit is a few gathers and reductions.
    Its arrays are read-only, the model's own ones included.
    """

    def __init__(self, m: ModelIR):
        self.obj = m.obj_coeffs
        self.jac_pattern = m.jac_pattern
        self.row_lo, self.row_up = m.row_lower, m.row_upper
        self.xlo, self.xup = m.var_lower, m.var_upper
        self.ineq = np.nonzero(~m.row_is_eq)[0]
        self.ineq_lo = self.row_lo[self.ineq]
        self.ineq_up = self.row_up[self.ineq]
        self.lo_free = np.nonzero(~np.isfinite(self.xlo))[0]
        self.up_free = np.nonzero(~np.isfinite(self.xup))[0]
        _read_only(self)

    def feasibility(self, x, raw) -> float:
        """Largest violation of a row or variable bound, in model units."""
        with np.errstate(invalid="ignore"):
            row_viol = np.maximum(np.maximum(self.row_lo - raw,
                                             raw - self.row_up), 0.0)
        bnd_viol = np.maximum(np.maximum(self.xlo - x, x - self.xup), 0.0)
        return float(max(row_viol.max(initial=0.0),
                         bnd_viol.max(initial=0.0)))

    def denominator(self, y, zl, zu) -> float:
        """One plus the largest dual magnitude: the residuals' divisor."""
        return 1.0 + max(float(np.abs(y).max(initial=0.0)),
                         float(np.abs(zl).max(initial=0.0)),
                         float(np.abs(zu).max(initial=0.0)))

    def __call__(self, x, y, zl, zu, raw, jac) -> KktReport:
        """Residuals given the raw rows and the Jacobian's values (on the
        model's pattern) at x."""
        stat = self.obj + self.jac_pattern.rmatvec(jac, y) - zl + zu
        raw_feas = self.feasibility(x, raw)

        # a row dual pairs with its upper gap when positive, else with its
        # lower gap, and a bound dual with its bound's gap; against an
        # infinite bound a dual is its own residual
        yi, ri = y[self.ineq], raw[self.ineq]
        gap = np.where(yi > 0, self.ineq_up - ri, ri - self.ineq_lo)
        gap[~np.isfinite(gap)] = 1.0
        lo_gap, up_gap = x - self.xlo, self.xup - x
        lo_gap[self.lo_free] = 1.0
        up_gap[self.up_free] = 1.0
        compl = max(float(np.abs(yi * gap).max(initial=0.0)),
                    float(np.abs(zl * lo_gap).max(initial=0.0)),
                    float(np.abs(zu * up_gap).max(initial=0.0)))

        denom = self.denominator(y, zl, zu)
        return KktReport(
            stationarity=float(np.abs(stat).max(initial=0.0)) / denom,
            feasibility=raw_feas / denom,
            complementarity=compl / denom,
            raw_feasibility=raw_feas,
        )


def kkt_check(m: ModelIR, result: SolveResult) -> KktReport:
    """Audit a solve result by recomputing the scaled KKT residuals.

    Uses only the public model evaluations and the primal/dual vectors in
    the result, independently of the solver's internal state.  Raises
    ValueError unless y has one entry per model row and zl and zu one per
    variable.
    """
    m.finalize()
    x = np.asarray(result.x, dtype=float)
    duals = []
    for name, size in (("y", m.nrows), ("zl", m.nvars), ("zu", m.nvars)):
        dual = np.asarray(getattr(result, name), dtype=float)
        if dual.shape != (size,):
            raise ValueError(f"{name} has shape {dual.shape}, the model "
                             f"needs {(size,)}")
        duals.append(dual)
    return _Auditor(m)(x, *duals, m.eval_raw_rows(x), eval_jacobian(m, x))


def _read_only(obj):
    """obj, with every array among its attributes marked read-only: all
    solves of a model share its structure, and none may write into it."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return obj


def _pinned(lo, up):
    """Where the start point's push off the bounds lo and up (see
    ``_Intake``'s ``b_start``) rounds to zero, so that z0 would sit on a
    bound: equal bounds, or ones within about 1e-14 relative.  Only the
    push's width term can round to zero."""
    push = _BOUND_PUSH * (up - lo)
    with np.errstate(invalid="ignore"):  # inf - inf: an infinite bound
        return (lo + push == lo) | (up - push == up)


class _Intake:
    """Reformulation of a ModelIR into the internal equality-only shape:
    index sets, scaling and bounds, read-only, with no reference to the
    model."""

    def __init__(self, m: ModelIR):
        xlo, xup = m.variable_bounds()
        self.nx, self.nrows = m.nvars, m.nrows
        # pinned variables are fixed at their lower bound
        fixed = _pinned(xlo, xup)
        self.fixed_idx = np.nonzero(fixed)[0]
        self.fix_vals = xlo[self.fixed_idx]
        # column scaling x = d * x': d is the largest finite bound magnitude
        # rounded to a power of two where that exceeds _SCALE_BOUND, else 1,
        # so x' and its bounds are exact; fixed variables stay unscaled
        mag = np.maximum(*(np.where(np.isfinite(b), np.abs(b), 0.0)
                           for b in (xlo, xup)))
        big = (mag > _SCALE_BOUND) & ~fixed
        self.d = np.ones(self.nx)
        self.d[big] = np.exp2(np.round(np.log2(mag[big])))
        # factors of the Jacobian's and the Hessian's stored entries
        self.jac_pattern = m.jac_pattern
        self.jac_d = self.d[m.jac_pattern.coords()[1]]
        wr, wc = m.hess_pattern.coords()
        self.hess_d = self.d[wr] * self.d[wc]
        xlo, xup = xlo / self.d, xup / self.d
        # the internal rows are the model rows, then one fix row per pinned
        # variable; a pinned row is an equality at its lower bound, and
        # every other row gets a slack
        row_eq = _pinned(m.row_lower, m.row_upper)
        self.ineq = np.nonzero(~row_eq)[0]
        self.ns = len(self.ineq)
        self.nz = self.nx + self.ns
        self.n_fix = len(self.fixed_idx)
        self.m_int = self.nrows + self.n_fix
        zlo = np.concatenate([xlo, m.row_lower[self.ineq]])
        zup = np.concatenate([xup, m.row_upper[self.ineq]])
        zlo[self.fixed_idx] = -INF
        zup[self.fixed_idx] = INF
        # every finite bound once, lower bounds first: bound k has the gap
        # sb[k] * (z[ib[k]] - bb[k]) and one multiplier v[k]
        ilo = np.nonzero(np.isfinite(zlo))[0]
        iup = np.nonzero(np.isfinite(zup))[0]
        self.nlo = len(ilo)
        self.ib = np.concatenate([ilo, iup])
        self.bb = np.concatenate([zlo[ilo], zup[iup]])
        self.sb = np.concatenate([np.ones(len(ilo)), -np.ones(len(iup))])
        # the start point keeps this far inside each bound: a push relative
        # to the bound's magnitude and to the width between both bounds
        width = zup[self.ib] - zlo[self.ib]
        push = np.minimum(_BOUND_PUSH * np.maximum(1.0, np.abs(self.bb)),
                          _BOUND_PUSH * width)
        self.b_start = self.bb + self.sb * push
        self.eq_rhs = np.where(row_eq, m.row_lower, 0.0)
        _read_only(self)

    def model_x(self, z):
        """The model variables, in model units, of the internal point z."""
        return z[:self.nx] * self.d

    def residual(self, z, raw):
        res = raw - self.eq_rhs
        res[self.ineq] -= z[self.nx:]
        return np.concatenate([res, z[self.fixed_idx] - self.fix_vals])

    def jac_t(self, jac, y):
        """J^T y for the internal Jacobian, from the model Jacobian's values
        in model units: each d_j is a power of two, so scaling the product
        equals the product over the scaled columns, bit for bit."""
        out = np.empty(self.nz)
        jty = self.jac_pattern.rmatvec(jac, y[:self.nrows])
        np.multiply(jty, self.d, out=out[:self.nx])
        out[self.nx:] = -y[self.ineq]
        out[self.fixed_idx] += y[self.nrows:]
        return out

    def add_bound_terms(self, out, w):
        """out - w on the lower bounds + w on the upper bounds, in place."""
        out[self.ib[:self.nlo]] -= w[:self.nlo]
        out[self.ib[self.nlo:]] += w[self.nlo:]
        return out

    def map_duals(self, y_int, v, obj_scale):
        """Internal duals back to model-shape (row duals, bound duals)."""
        y = y_int[:self.nrows] / obj_scale
        zl, zu = np.zeros(self.nz), np.zeros(self.nz)
        zl[self.ib[:self.nlo]] = v[:self.nlo]
        zu[self.ib[self.nlo:]] = v[self.nlo:]
        zl = zl[:self.nx] / obj_scale / self.d
        zu = zu[:self.nx] / obj_scale / self.d
        y_fix = y_int[self.nrows:] / obj_scale
        zl[self.fixed_idx] = np.maximum(-y_fix, 0.0)
        zu[self.fixed_idx] = np.maximum(y_fix, 0.0)
        return y, zl, zu


class _KktPattern:
    """CSC pattern of the condensed K = [[W + diag, J^T], [J, -diag_c]]
    of one model, over the model variables and the internal rows, with the
    slots K's values are written through; ``_Kkt`` binds K to it for one
    solve.

    The slacks are eliminated before K is formed (see ``_Kkt.assemble``),
    so J holds the model Jacobian and the intake's +1 fix entries, and the
    dual diagonal carries each eliminated slack.  The pattern's
    coordinates are the model Hessian's pattern, the model Jacobian's in
    J's block and in J^T's, the fix entries in both blocks, and both full
    diagonals, in that order, and each group's stored slots are a view of
    ``csc.slot``: ``w_slots``, ``jac_slots``, ``jac_t_slots``,
    ``fix_slots`` and ``diag``, the diagonal primal then dual.  No two
    coordinates of W and J share a slot, and J never lands on the
    diagonal, so each value is written into its slot, not summed.

    K is stored in the fill-reducing order of this pattern from the start
    (``fill_order``; ``perm`` maps each row and column to its stored
    position, and ``order`` is its inverse), so every assembly comes out
    pre-permuted and is factored in SuperLU's natural order, and no solve
    orders it again.  A factor solves in that stored order: ``_Kkt.step``
    gathers the right-hand side into it through ``order`` and the step out
    of it through ``step_pos``, the stored positions of the model
    variables, of each slack's row (``slack_pos``) and of the rows.

    The full diagonal keeps ``fill_order`` from breaking down, but a
    stored zero on it is no missing pivot to SuperLU: where an updated
    diagonal pivot is exactly zero, SuperLU pivots off the diagonal, and
    the factor loses its inertia (``kkt``).
    """

    def __init__(self, m: ModelIR, intake: _Intake):
        nx, n_fix = intake.nx, intake.n_fix
        n = nx + intake.m_int
        wr, wc = m.hess_pattern.coords()
        jr, jc = m.jac_pattern.coords()
        fr, fc = nx + m.nrows + np.arange(n_fix), intake.fixed_idx
        d = np.arange(n)
        kr = np.concatenate([wr, nx + jr, jc, fr, fc, d])
        kc = np.concatenate([wc, jc, nx + jr, fc, fr, d])
        perm = self.perm = fill_order(SparsePattern(kr, kc, (n, n)))
        self.order = np.argsort(perm)
        self.csc = SparsePattern(perm[kr], perm[kc], (n, n))
        cuts = np.cumsum([len(wr), len(jr), len(jr), 2 * n_fix])
        (self.w_slots, self.jac_slots, self.jac_t_slots, self.fix_slots,
         self.diag) = np.split(self.csc.slot, cuts)
        self.nx, self.m_int, self.ineq = nx, intake.m_int, intake.ineq
        self.slack_pos = perm[nx + intake.ineq]
        self.step_pos = np.concatenate((perm[:nx], self.slack_pos, perm[nx:]))
        _read_only(self)


class _Kkt:
    """The condensed K of one solve: its values on its model's
    ``_KktPattern``, one array written in two steps.

    ``set_derivatives`` writes W and J into their slots, once per
    evaluation of the Hessian; ``assemble`` writes only the diagonal
    slots, on every trial of the inertia correction, as IPOPT keeps W and
    J within an iteration and changes only the perturbations (Waechter &
    Biegler 2006).  The fix entries are constant and written once, when K
    is made.  Each slot receives one value, and each diagonal slot W's
    value plus the diagonal's, so K equals one scatter of all its values
    (a sum per slot in coordinate order, the diagonal last), bit for bit.
    """

    def __init__(self, pattern: _KktPattern):
        self.pattern = pattern
        # one array per solve: a new one per assembly, each kept alive by
        # its factor, raised the peak RSS of three passes over the 120-bus
        # benchmark case (seed 4) from 88.2 to 89.7 MB, median of 6 runs
        self.values = np.empty(pattern.csc.nnz)
        self.values[pattern.fix_slots] = 1.0
        # the diagonal, primal then dual, rewritten by every assembly
        self.diag = np.empty(len(pattern.diag))

    def set_derivatives(self, w, jac):
        """Write the values w and jac of the model Hessian and Jacobian on
        their model patterns into K's slots, and keep W's share of the
        primal diagonal slots, zero where W has no diagonal entry."""
        p, values = self.pattern, self.values
        values[p.diag] = 0.0
        values[p.w_slots] = w
        values[p.jac_slots] = values[p.jac_t_slots] = jac
        self.w_diag = values[p.diag[:p.nx]]

    def assemble(self, sigma, delta_w, delta_c):
        """K's values on ``pattern.csc`` for the barrier diagonal sigma of
        every internal variable, slacks included, and the regularizations
        delta_w and delta_c, with the derivatives ``set_derivatives`` set.

        The full system's slack rows are eliminated: with S = sigma_s +
        delta_w, each inequality row's dual diagonal is -(delta_c + 1/S).
        Returns the same value array on every call, with the diagonal of
        the previous assembly overwritten, and keeps S for ``step``.
        """
        p, diag = self.pattern, self.diag
        nx = p.nx
        self.slack_diag = sigma[nx:] + delta_w
        diag_x = diag[:nx]
        np.add(sigma[:nx], delta_w, out=diag_x)
        diag_x += self.w_diag
        diag_c = diag[nx:]
        diag_c.fill(-delta_c)
        diag_c[p.ineq] -= 1.0 / self.slack_diag
        self.values[p.diag] = diag
        return self.values

    def step(self, factor, r1, r2):
        """The full system's step (dz, dy) for the right-hand side (r1, r2),
        from the factor of the last assembled K: each slack's row r1_s
        moves to its dual row as r1_s / S, and the slack step is recovered
        as ds = (r1_s + dy_s) / S.  The right-hand side is gathered into
        K's stored order, and the step out of it, one gather each way."""
        p, s_diag = self.pattern, self.slack_diag
        nx = p.nx
        b = np.concatenate((r1[:nx], r2))[p.order]
        b[p.slack_pos] += r1[nx:] / s_diag
        out = factor.solve(b)[p.step_pos]
        ds = out[nx:len(r1)]
        ds += r1[nx:]
        ds /= s_diag
        return out


def _gaps(intake, z):
    """Distance of z to each finite bound, positive inside."""
    return intake.sb * (z[intake.ib] - intake.bb)


def _gap_step(intake, dz):
    """Change of the bound gaps along a primal step dz."""
    return intake.sb * dz[intake.ib]


def _initial_point(intake, x0, raw0, mu0):
    z0 = np.zeros(intake.nz)
    z0[:intake.nx] = x0
    z0[intake.nx:] = raw0[intake.ineq]
    nlo, lo, up = intake.nlo, intake.ib[:intake.nlo], intake.ib[intake.nlo:]
    z0[lo] = np.maximum(z0[lo], intake.b_start[:nlo])
    z0[up] = np.minimum(z0[up], intake.b_start[nlo:])
    z0[intake.fixed_idx] = intake.fix_vals
    return z0, np.clip(mu0 / _gaps(intake, z0), 1e-10, 1e10)


def _barrier_terms(intake, z, obj_lin):
    """(gaps, sums) at z: the bound gaps, and sums = (obj_lin @ z, lower
    log sum, upper log sum), the mu-free parts of the barrier objective,
    or None at or past a bound."""
    gap = _gaps(intake, z)
    if len(gap) and gap.min() <= 0.0:
        return gap, None
    # lower and upper logs as two sums: the split fixes the rounding
    nlo, logs = intake.nlo, np.log(gap)
    return gap, (float(obj_lin @ z), float(logs[:nlo].sum()),
                 float(logs[nlo:].sum()))


def _barrier_value(terms, mu):
    """The barrier objective at mu from ``_barrier_terms``; INF at or past
    a bound.  An empty log sum is 0.0, and subtracting mu * 0.0 leaves the
    value unchanged, bit for bit."""
    sums = terms[1]
    if sums is None:
        return INF
    val, lo, up = sums
    val -= mu * lo
    val -= mu * up
    return val


class _Point(NamedTuple):
    """One evaluation of an internal point z, made once per point (see
    ``_evaluate_point``)."""

    x: np.ndarray    # the model variables at z, in model units
    raw: np.ndarray  # the model rows at x
    h: np.ndarray    # the internal constraint residual
    h_l1: float      # its l1 norm, the merit's penalty term
    h_inf: float     # its max-norm, the barrier error's primal part
    terms: tuple     # ``_barrier_terms`` at z

    @property
    def gap(self):
        return self.terms[0]


def _evaluate_point(m, intake, obj_lin, z):
    """The model variables, the rows, the internal residual with its l1
    and max-norms and the barrier terms at z."""
    x = intake.model_x(z)
    raw = m.eval_raw_rows(x)
    h = intake.residual(z, raw)
    h_abs = np.abs(h)
    return _Point(x, raw, h, float(h_abs.sum()),
                  float(h_abs.max(initial=0.0)),
                  _barrier_terms(intake, z, obj_lin))


def _sigma(intake, v_gap):
    """Primal barrier diagonal: sum of v_gap = v / gap over each
    component's bounds."""
    return np.bincount(intake.ib, weights=v_gap, minlength=intake.nz)


def _max_step(gap, dgap):
    """Largest alpha in [0, 1] keeping every gap + alpha*dgap at least a
    (1 - tau) fraction of its gap: one divide, over the shrinking gaps
    alone, and one minimum."""
    ratio = np.empty(len(gap))
    ratio.fill(1.0)
    np.divide(-_TAU * gap, dgap, out=ratio, where=dgap < 0)
    return max(float(ratio.min(initial=1.0)), 0.0)


def _dual_step(mu_gap, v_gap, v, dgap):
    """Bound-multiplier Newton step dv = mu/gap - v - (v/gap) dgap for the
    gap step dgap, from mu_gap = mu/gap and v_gap = v/gap, and the largest
    fraction-to-the-boundary step length keeping v positive."""
    dv = np.subtract(mu_gap, v)
    dv -= np.multiply(v_gap, dgap)
    return dv, _max_step(v, dv)


def _dual_update(v, alpha, dv, mu, gap):
    """v + alpha dv, held in the safeguard corridor [mu / (kappa_sigma
    gap), kappa_sigma mu / gap] that keeps the bound multipliers
    consistent with mu; the corridor's floor is positive, so no v drops
    below zero.  dv is overwritten with the result."""
    dv *= alpha
    dv += v
    lo = np.multiply(_KAPPA_SIGMA, gap)
    np.divide(mu, lo, out=lo)
    return np.clip(dv, lo, np.divide(_KAPPA_SIGMA * mu, gap), out=dv)


def _curvature(w_pattern, w, diag, dz):
    """dz^T (W + diag(diag)) dz, the primal curvature along the step, for
    W with the values w on ``w_pattern``; W covers the leading model
    variables of dz, the slacks have none."""
    dx = dz[:w_pattern.shape[0]]
    return float(dx @ w_pattern.matvec(w, dx)) + float(dz @ (diag * dz))


class _Structure:
    """What every solve of one finalized model shares, built from the
    model alone at its first solve (see ``_structure``): the intake, the
    auditor, the KKT pattern with its fill order, the objective scaling,
    whether the model is an LP, and the start point with its evaluation.
    It holds no reference to the model, and its arrays are read-only."""

    def __init__(self, m: ModelIR):
        self.intake = intake = _Intake(m)
        self.audit = _Auditor(m)
        self.kkt = _KktPattern(m, intake)
        self.is_lp = m.hess_pattern.nnz == 0
        # the gradient in the scaled variables sets the objective scaling
        grad = m.obj_coeffs * intake.d
        grad_norm = float(np.abs(grad).max(initial=0.0))
        self.obj_scale = (min(1.0, _OBJ_GRAD_TARGET / grad_norm)
                          if grad_norm > 0 else 1.0)
        self.obj_lin = np.zeros(intake.nz)
        self.obj_lin[:intake.nx] = self.obj_scale * grad
        x0 = m.initial_point()
        self.z0, self.v0 = _initial_point(intake, x0 / intake.d,
                                          m.eval_raw_rows(x0), _MU_INIT)
        _read_only(self)
        self.point0 = _evaluate_point(m, intake, self.obj_lin, self.z0)
        for a in (*self.point0[:3], self.point0.gap):
            a.flags.writeable = False


# Each model's structure, from its first solve for as long as it lives.
_STRUCTURES = weakref.WeakKeyDictionary()


def _structure(m: ModelIR) -> _Structure:
    """The structure of the finalized model m, built at its first solve.
    Two threads that solve a new model at once may both build one; every
    solve then uses the one stored first, and both are equal."""
    found = _STRUCTURES.get(m)
    if found is None:
        found = _STRUCTURES.setdefault(m, _Structure(m))
    return found


class _Solve:
    """One solve: the state carried from one iteration to the next, and
    one method per phase of an iteration.  ``evaluate`` ends the solve as
    optimal on a passing audit, and as infeasible on dual blow-up at an
    infeasible point, whatever the model."""

    def __init__(self, m: ModelIR, opts: SolverOptions):
        self.m, self.opts = m, opts
        self.t_start = time.perf_counter()
        self.log = IterationLog()
        structure = _structure(m)
        self.intake = intake = structure.intake
        self.audit, self.is_lp = structure.audit, structure.is_lp
        self.obj_scale, self.obj_lin = structure.obj_scale, structure.obj_lin
        self.kkt = _Kkt(structure.kkt)
        # the derivatives' values; an LP's are evaluated once per solve
        self.jac_model = self.hess = None

        self.mu = _MU_INIT
        # barrier floor in internal units so the true-unit duality gap can
        # reach tol/10 despite objective scaling
        self.mu_min = max(opts.tol / 10.0 * self.obj_scale, 1e-16)
        # the evaluation of z: of z0 here, then the line search's of each
        # point it accepts
        self.z, self.v = structure.z0, structure.v0
        self.point = structure.point0
        self.y = np.zeros(intake.m_int)
        self.nu = 1.0
        self.ls_failures = 0
        self.force_reg = 0.0
        self.delta_last = 0.0

    def run(self):
        """Iterate to a status: returns (SolveResult, IterationLog), with
        one record per iteration that reached a step."""
        for it in range(self.opts.max_iter):
            status = self.evaluate()
            if status is not None:
                return self.finish(status)
            self.update_barrier()
            factored = self.factor(it)
            if factored is None:
                return self.finish(SolveStatus.NUMERICAL_ERROR)
            factor, step, delta_w, corrections = factored
            dgap = _gap_step(self.intake, step[:self.intake.nz])
            alpha_max = _max_step(self.point.gap, dgap)
            if alpha_max <= 0.0:
                return self.finish(SolveStatus.NUMERICAL_ERROR)
            accepted = self.line_search(factor, step, dgap, alpha_max)
            if accepted is None:
                self.ls_failures += 1
                if self.ls_failures >= _MAX_LS_FAILURES:
                    return self.finish(SolveStatus.NUMERICAL_ERROR)
                self.force_reg = 10.0 * max(self.force_reg, delta_w,
                                            _REG_FLOOR)
                alpha = alpha_dual = 0.0
            else:
                alpha, alpha_dual = self.accept(*accepted)
            dual_inf, compl, audited = self.residuals
            self.log.records.append(IterationRecord(
                iteration=it, mu=self.mu, primal_inf=self.h_inf,
                dual_inf=dual_inf, compl=compl, alpha_primal=alpha,
                alpha_dual=alpha_dual, reg=delta_w,
                inertia_corrections=corrections, fill=factor.fill,
                audited=audited,
            ))
            # drop this step's factor before the next one is computed
            del factored, factor
        return self.finish(SolveStatus.ITERATION_LIMIT)

    def evaluate(self):
        """Jacobian and the solver's own residuals at the current point,
        from the rows, residual and gaps carried in ``self.point``, and the
        KKT audit once those are within _GATE * tol; returns OPTIMAL or
        INFEASIBLE when the solve is over, else None."""
        m, intake, tol = self.m, self.intake, self.opts.tol
        y, v, point = self.y, self.v, self.point
        x, raw, self.h_inf = point.x, point.raw, point.h_inf
        if self.jac_model is None or not self.is_lp:
            # the Jacobian's values on the model's pattern in model units,
            # and with its columns scaled to x' for K; an LP's rows are
            # linear: its first Jacobian is every one
            self.jac_model = eval_jacobian(m, x)
            self.jac = self.jac_model * intake.jac_d
        jac = self.jac_model

        # the internal residuals, all independent of mu: the stationarity
        # in the primal-dual form, which is what the Newton step drives to
        # zero, and the complementarity of the gaps, whose products
        # update_barrier reads too
        dual_int = max(float(np.abs(y).max(initial=0.0)),
                       float(v.max(initial=0.0)))
        denom = self.denom_int = 1.0 + dual_int
        self.jty = intake.jac_t(jac, y)
        self.stat_pd = float(np.abs(
            intake.add_bound_terms(self.obj_lin + self.jty, v)
        ).max()) / denom
        self.gv = point.gap * v
        compl = float(self.gv.max(initial=0.0)) / denom

        # the independent audit is the final word on optimality, and runs
        # only once the internal residuals say the point is close
        report = self.report = None
        if max(self.stat_pd, compl) <= _GATE * tol:
            report = self.report = self.audit(
                x, *intake.map_duals(y, v, self.obj_scale), raw, jac)
            self.residuals = (report.stationarity, report.complementarity,
                              True)
        else:
            self.residuals = (self.stat_pd, compl, False)
        if (report is not None and report.max_residual <= tol
                and report.raw_feasibility <= tol):
            return SolveStatus.OPTIMAL
        # dual blow-up at an infeasible point, on any model (see
        # _DUAL_BLOWUP); the violation is computed only once the duals pass
        # the threshold
        blown = (1.0 + dual_int / self.obj_scale > _DUAL_BLOWUP
                 and self.audit.feasibility(x, raw) > tol)
        return SolveStatus.INFEASIBLE if blown else None

    def update_barrier(self):
        """Lower mu, up to 8 times, while the barrier subproblem is solved
        to within kappa_eps*mu; sets the barrier gradient and the Newton
        right-hand side's primal part at the new mu."""
        mu, denom_int = self.mu, self.denom_int
        # barrier-KKT error of the mu-subproblem, from evaluate's residuals
        # and the gap-multiplier products
        for _ in range(8):
            compl_mu = float(np.abs(self.gv - mu).max(initial=0.0)) / denom_int
            e_mu = max(self.stat_pd, self.h_inf / denom_int, compl_mu)
            if not (e_mu <= _KAPPA_EPS * mu and mu > self.mu_min):
                break
            mu = max(self.mu_min, _MU_FACTOR * mu)
        self.mu = mu
        self.mu_gap = mu / self.point.gap
        self.grad_phi = self.intake.add_bound_terms(self.obj_lin.copy(),
                                                    self.mu_gap)
        self.r1 = np.add(self.grad_phi, self.jty)
        np.negative(self.r1, out=self.r1)

    def factor(self, it):
        """Factor the Newton system, correcting the inertia of a model
        with curvature and retrying a rejected LP factorization with a
        pivot threshold: returns (factor, step, delta_w, corrections), or
        None once delta_w passes its cap."""
        m, intake, kkt = self.m, self.intake, self.kkt
        if self.hess is None or not self.is_lp:
            # the Hessian's values scaled for K, and K's derivatives; an
            # LP's are constant: set at a solve's first factorization only
            self.hess = eval_lagrangian_hessian(m, self.point.x,
                                                self.y[:intake.nrows])
            self.hess *= intake.hess_d
            kkt.set_derivatives(self.hess, self.jac)
        w = self.hess
        self.v_gap = self.v / self.point.gap
        sigma = _sigma(intake, self.v_gap)
        delta_w, delta_c = self.force_reg, _DELTA_C
        if it == 0 and not self.is_lp:
            # at y = 0 the Hessian block is all stored zeros: the
            # unregularized K is singular, and SuperLU leaves its diagonal
            delta_w, delta_c = _REG_FLOOR, _DELTA_C_SINGULAR
        corrections, pivoted = 0, False
        while True:
            K = kkt.assemble(sigma, delta_w, delta_c)
            try:
                factor = factorize(kkt.pattern.csc, data=K, pivoted=pivoted)
                if self.is_lp:
                    # no inertia: K's primal block is diag(sigma + delta_w)
                    # >= 0, so a step that passes the back-solve's
                    # residual check is taken; raises when it fails
                    return (factor, kkt.step(factor, self.r1, -self.point.h),
                            delta_w, corrections)
                inertia = factor.inertia
                # each condensed slack takes one positive pivot with it
                if inertia is None or inertia == (intake.nx, intake.m_int, 0):
                    # raises on a large solve residual: numerically singular
                    step = kkt.step(factor, self.r1, -self.point.h)
                    # unknown inertia: accept a step of nonnegative
                    # curvature, otherwise raise delta_w only
                    if (inertia is not None
                            or _curvature(m.hess_pattern, w, sigma + delta_w,
                                          step[:intake.nz]) >= 0.0):
                        if corrections:
                            self.delta_last = delta_w
                        return factor, step, delta_w, corrections
                singular = inertia is not None and inertia[2] > 0
            except FactorizationError:
                singular = True
            corrections += 1
            if self.is_lp and not pivoted:
                # a rejected LP factorization is factored again, at the
                # same delta_w, with threshold pivoting; later trials keep it
                pivoted = True
                continue
            if singular:
                delta_c = max(delta_c * 10.0, _DELTA_C_SINGULAR)
            if delta_w > 0.0:
                delta_w *= (_KAPPA_W_PLUS if self.delta_last
                            else _REG_GROWTH_COLD)
            else:
                delta_w = max(_REG_FLOOR, _KAPPA_W_MINUS * self.delta_last)
            if delta_w > _REG_MAX:
                return None

    def merit(self, z):
        """(l1 exact-penalty merit at z, the evaluation of z)."""
        point = _evaluate_point(self.m, self.intake, self.obj_lin, z)
        return (_barrier_value(point.terms, self.mu)
                + self.nu * point.h_l1, point)

    def line_search(self, factor, step, dgap, alpha_max):
        """Raise the merit penalty to what the step needs, then backtrack
        from alpha_max; returns the accepted (z, alpha, dgap, dy, point),
        where dgap is the step's change of the bound gaps and point the
        evaluation of z, or None."""
        intake, z = self.intake, self.z
        h, h_l1 = self.point.h, self.point.h_l1
        nz, m_int = intake.nz, intake.m_int
        dz, dy = step[:nz], step[nz:]
        slope_obj = float(self.grad_phi @ dz)
        if h_l1 > 1e-12:
            nu_req = max(
                1.1 * float(np.abs(self.y + dy).max(initial=0.0)),
                slope_obj / (0.5 * h_l1) if slope_obj > 0 else 0.0,
            )
            if self.nu > 10.0 * (nu_req + 1e-6):
                self.nu = max(nu_req + 1e-6, self.nu / 10.0)
            self.nu = max(self.nu, nu_req + 1e-6)
        merit_slope = slope_obj - self.nu * h_l1

        phi0 = _barrier_value(self.point.terms, self.mu) + self.nu * h_l1
        alpha = alpha_max
        for trial in range(_MAX_BACKTRACKS):
            z_try = z + alpha * dz
            phi_try, point = self.merit(z_try)
            if math.isfinite(phi_try) and (
                    phi_try <= phi0 + _ARMIJO_ETA * alpha * merit_slope
                    or phi_try <= phi0 + 1e-10 * (1.0 + abs(phi0))):
                return z_try, alpha, dgap, dy, point
            if trial == 0 and m_int:
                # second-order correction: re-center the constraint residual
                # at the rejected trial point to step around merit rejection
                # of pure Newton steps caused by constraint curvature
                try:
                    sol_soc = self.kkt.step(factor, self.r1,
                                            -(alpha * h + point.h))
                except FactorizationError:
                    # an inaccurate correction is no correction: backtrack
                    alpha *= 0.5
                    continue
                dz_soc = sol_soc[:nz]
                dgap_soc = _gap_step(intake, dz_soc)
                alpha_soc = _max_step(self.point.gap, dgap_soc)
                z_soc = z + alpha_soc * dz_soc
                phi_soc, point_soc = self.merit(z_soc)
                if math.isfinite(phi_soc) and phi_soc <= (
                        phi0 + _ARMIJO_ETA * alpha_soc * merit_slope):
                    return z_soc, alpha_soc, dgap_soc, sol_soc[nz:], point_soc
            alpha *= 0.5
        return None

    def accept(self, z, alpha, dgap, dy, point):
        """Move to the accepted point z, with its evaluation, and take the
        dual step; returns the primal and dual step lengths."""
        dv, alpha_dual = _dual_step(self.mu_gap, self.v_gap, self.v, dgap)
        self.ls_failures = 0
        self.force_reg = 0.0
        self.z, self.point = z, point
        self.y = self.y + alpha * dy
        self.v = _dual_update(self.v, alpha_dual, dv, self.mu, point.gap)
        return alpha, alpha_dual

    def finish(self, status):
        """(SolveResult, IterationLog) at the current point.  Its KKT
        residual is the audit that ended the loop on OPTIMAL, and
        otherwise the audit of the returned point, made here."""
        m, intake = self.m, self.intake
        x = intake.model_x(self.z)
        x[intake.fixed_idx] = intake.fix_vals
        y, zl, zu = intake.map_duals(self.y, self.v, self.obj_scale)
        if status is SolveStatus.OPTIMAL:
            report = self.report
        else:
            jac = self.jac_model if self.is_lp else eval_jacobian(m, x)
            report = self.audit(x, y, zl, zu, m.eval_raw_rows(x), jac)
        return SolveResult(
            status=status,
            objective=m.eval_objective(x),
            x=x, y=y, zl=zl, zu=zu,
            kkt_residual=report.max_residual,
            iterations=len(self.log.records),
            wall_time=time.perf_counter() - self.t_start,
        ), self.log


def solve(m: ModelIR, opts: SolverOptions | None = None):
    """Minimize a ModelIR, returning (SolveResult, IterationLog).

    The result status is Optimal once the scaled KKT residuals (max-norms of
    stationarity, feasibility and complementarity, each divided by one plus
    the largest dual magnitude) and the raw constraint violation all fall
    below opts.tol.  It is Infeasible once the solver's own duals in
    objective units, one plus the largest internal dual divided by the
    objective scaling, pass 1e8 while the raw constraint violation exceeds
    opts.tol: on any model, the duals of rows that no point satisfies grow
    without bound.
    """
    m.finalize()
    return _Solve(m, opts or SolverOptions()).run()
