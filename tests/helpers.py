"""Shared test utilities: oracles and generators kept independent of the
implementation paths they check."""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp

from opfbench import kkt, netdata
from opfbench.modelir import (
    ModelIR,
    SparsePattern,
    eval_jacobian,
    eval_lagrangian_hessian,
    eval_residuals,
)


def pattern_and_values(K):
    """A dense or scipy matrix K in the one form ``kkt.factorize`` takes:
    the CSC ``SparsePattern`` of K's stored entries (a dense K's nonzeros)
    and their float values scattered onto it, repeated entries summed."""
    K = sp.coo_matrix(K, dtype=float)
    pattern = SparsePattern(K.row, K.col, K.shape)
    return pattern, pattern.scatter(K.data)


def u_diagonal_reads(monkeypatch):
    """A list that gains one entry each time a factor reads its pivots
    (``kkt._u_diagonal``) while the monkeypatch lasts."""
    reads = []
    u_diagonal = kkt._u_diagonal

    def counting(lu):
        reads.append(lu)
        return u_diagonal(lu)

    monkeypatch.setattr(kkt, "_u_diagonal", counting)
    return reads


def counting(calls, name, fn):
    """fn, wrapped to add one to ``calls[name]`` at each call."""
    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return counted


def on_pattern(pattern, values):
    """The scipy CSC matrix with the values ``values`` on the compressed
    ``pattern``, for comparisons with scipy's own routines."""
    return sp.csc_matrix((values, pattern.coords()), shape=pattern.shape)


def dense_jacobian(m: ModelIR, x):
    """``eval_jacobian`` at x as a dense array."""
    return on_pattern(m.jac_pattern, eval_jacobian(m, x)).toarray()


def dense_hessian(m: ModelIR, x, duals):
    """``eval_lagrangian_hessian`` at (x, duals) as a dense array."""
    return on_pattern(m.hess_pattern,
                      eval_lagrangian_hessian(m, x, duals)).toarray()


def random_convex_curve(rng, n_points=None, p_lo=-2.0, p_span=4.0):
    """Random convex PWL curve data: strictly increasing powers and slopes."""
    if n_points is None:
        n_points = int(rng.integers(2, 9))
    gaps = rng.uniform(0.2, 1.5, size=n_points - 1)
    powers = p_lo + rng.uniform(0.0, p_span / 4) + np.concatenate(
        [[0.0], np.cumsum(gaps)]
    )
    slope_steps = rng.uniform(0.05, 2.0, size=n_points - 1)
    slopes = rng.uniform(-3.0, 1.0) + np.cumsum(slope_steps)
    costs = [float(rng.uniform(-5.0, 5.0))]
    for l in range(n_points - 1):
        costs.append(costs[-1] + slopes[l] * (powers[l + 1] - powers[l]))
    return list(zip(powers.tolist(), costs))


def finite_difference_jacobian(m: ModelIR, x, step=1e-6):
    """Central finite differences of eval_residuals."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(m.nvars):
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        cols.append((eval_residuals(m, xp) - eval_residuals(m, xm))
                    / (2.0 * step))
    return np.column_stack(cols) if cols else np.zeros((m.nrows, 0))


def finite_difference_hessian(m: ModelIR, x, duals, step=1e-6):
    """Central finite differences of duals . Jacobian rows."""
    x = np.asarray(x, dtype=float)
    duals = np.asarray(duals, dtype=float)

    def weighted_grad(pt):
        return duals @ dense_jacobian(m, pt)

    cols = []
    for j in range(m.nvars):
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        cols.append((weighted_grad(xp) - weighted_grad(xm)) / (2.0 * step))
    return np.column_stack(cols) if cols else np.zeros((0, 0))


def enumerate_lp_vertices(m: ModelIR):
    """Exhaustive vertex enumeration for a small all-linear model.

    Collects equality rows plus the candidate active set drawn from
    inequality row ends and variable bounds, solves every square system,
    keeps feasible points and returns the best objective value.  Built
    directly from model rows with dense numpy only.
    """
    n = m.nvars
    x_any = np.zeros(n)
    jac = dense_jacobian(m, x_any)
    raw0 = m.eval_raw_rows(np.zeros(n))
    if len(raw0) and np.abs(raw0).max() > 1e-12:
        raise ValueError("model rows are not homogeneous linear")

    eq_rows = []
    eq_rhs = []
    cand_rows = []
    cand_rhs = []
    for r in range(m.nrows):
        if m.row_is_eq[r]:
            eq_rows.append(jac[r])
            eq_rhs.append(m.row_lower[r])
        else:
            if np.isfinite(m.row_lower[r]):
                cand_rows.append(jac[r])
                cand_rhs.append(m.row_lower[r])
            if np.isfinite(m.row_upper[r]):
                cand_rows.append(jac[r])
                cand_rhs.append(m.row_upper[r])
    xlo, xup = m.variable_bounds()
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(xlo[j]):
            cand_rows.append(e.copy())
            cand_rhs.append(xlo[j])
        if np.isfinite(xup[j]):
            cand_rows.append(e.copy())
            cand_rhs.append(xup[j])

    n_eq = len(eq_rows)
    need = n - n_eq
    if need < 0:
        raise ValueError("more equalities than variables")
    best = None
    eq_mat = np.array(eq_rows).reshape(n_eq, n)
    eq_vec = np.array(eq_rhs)

    def feasible(x):
        raw = m.eval_raw_rows(x)
        if np.any(raw < m.row_lower - 1e-7) or np.any(raw > m.row_upper + 1e-7):
            return False
        if np.any(x < xlo - 1e-7) or np.any(x > xup + 1e-7):
            return False
        return True

    for combo in itertools.combinations(range(len(cand_rows)), need):
        rows = [eq_mat] if n_eq else []
        rhs = [eq_vec] if n_eq else []
        for i in combo:
            rows.append(cand_rows[i].reshape(1, n))
            rhs.append(np.array([cand_rhs[i]]))
        A = np.vstack(rows) if rows else np.zeros((0, n))
        b = np.concatenate(rhs) if rhs else np.zeros(0)
        if A.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if feasible(x):
            obj = m.eval_objective(x)
            if best is None or obj < best:
                best = obj
    if best is None:
        raise ValueError("no feasible vertex found")
    return best


def counting_validations(monkeypatch):
    """Record each network whose findings are computed, not looked up."""
    calls = []
    compute = netdata._find_problems

    def counted(network):
        calls.append(network)
        return compute(network)

    monkeypatch.setattr(netdata, "_find_problems", counted)
    return calls
