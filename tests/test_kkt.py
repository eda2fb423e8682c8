import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import opfbench.ipm as ipm_mod
import opfbench.kkt as kkt_mod
from opfbench.cases import case_text
from opfbench.formulations import CostKind, PowerFlowKind, build_opf
from opfbench.kkt import FactorizationError, factorize, fill_order
from opfbench.modelir import SolveStatus
from opfbench.netdata import parse_case

from helpers import on_pattern, pattern_and_values, u_diagonal_reads

DEFINITE = [[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]
# the KKT shape [[H, J^T], [J, -dc]]: n positive, m negative pivots
QUASI_DEFINITE = [[2.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, -1e-10]]
# a zero diagonal forces SuperLU off the diagonal; the LU still solves
SWAP = [[0.0, 1.0], [1.0, 0.0]]


def factor_of(K):
    """The factor of a dense or scipy matrix K, passed in the one form
    ``factorize`` takes."""
    pattern, values = pattern_and_values(K)
    return factorize(pattern, data=values)


def permuted(K, perm):
    """P K P^T: entry (i, j) of K stored at (perm[i], perm[j])."""
    n = len(perm)
    P = sp.csc_matrix((np.ones(n), (perm, np.arange(n))), shape=(n, n))
    return (P @ sp.csc_matrix(K) @ P.T).tocsc()


@pytest.mark.parametrize("K, inertia", [
    (DEFINITE, (3, 0, 0)),
    (QUASI_DEFINITE, (2, 1, 0)),
], ids=["definite", "quasi-definite"])
def test_diagonal_pivots_report_exact_inertia(K, inertia):
    factor = factor_of(np.array(K))
    assert factor.inertia == inertia
    b = np.array([1.0, -2.0, 0.5])
    assert factor.solve(b) == pytest.approx(np.linalg.solve(K, b), abs=1e-12)


def test_off_diagonal_pivoting_leaves_inertia_unknown():
    factor = factor_of(np.array(SWAP))
    assert factor.inertia is None
    assert factor.solve(np.array([3.0, -7.0])) == pytest.approx([-7.0, 3.0])


class CountingLU:
    """A SuperLU factor that counts its triangular solves."""

    def __init__(self, lu):
        self._lu, self.solves = lu, 0

    def solve(self, b):
        self.solves += 1
        return self._lu.solve(b)


# a first pivot of 1e-12: the unrefined solve misses the residual check by
# far (8.5e-5 against 3e-6), and one refinement step meets it (1.3e-10)
TINY_PIVOT = [[1e-12, 1.0, 0.3], [1.0, 1.0, 0.7], [0.3, 0.7, -2.0]]


@pytest.mark.parametrize("K, solves", [
    (DEFINITE, 1),
    (QUASI_DEFINITE, 1),
    (TINY_PIVOT, 2),
], ids=["definite", "quasi-definite", "tiny-pivot"])
def test_refinement_runs_only_on_a_failed_check(K, solves):
    factor = factor_of(np.array(K))
    factor._lu = CountingLU(factor._lu)
    b = np.array([1.0, -2.0, 0.5])
    x = factor.solve(b)
    assert factor._lu.solves == solves
    assert np.abs(np.array(K) @ x - b).max() <= (
        kkt_mod._SOLVE_RTOL * (1.0 + np.abs(b).max()))


class NanLU:
    """A SuperLU factor whose triangular solves return NaN."""

    def solve(self, b):
        return np.full_like(b, np.nan)


def test_non_finite_solution_fails_the_residual_check():
    # NaN in x makes the residual NaN, and NaN <= bound is false
    factor = factor_of(np.array(DEFINITE))
    factor._lu = NanLU()
    with pytest.raises(FactorizationError, match="numerically singular"):
        factor.solve(np.array([1.0, -2.0, 0.5]))


def test_inertia_is_read_once_on_demand(monkeypatch):
    reads = u_diagonal_reads(monkeypatch)
    factor = factor_of(np.array(QUASI_DEFINITE))
    factor.solve(np.array([1.0, -2.0, 0.5]))
    assert reads == []
    assert factor.inertia == factor.inertia == (2, 1, 0)
    assert len(reads) == 1


def test_pivot_threshold_leaves_a_tiny_diagonal_pivot():
    # factorize takes the 1e-12 pivot and refines the solve; with the
    # threshold SuperLU pivots off the diagonal, and one solve passes
    b = np.array([1.0, -2.0, 0.5])
    pattern, values = pattern_and_values(np.array(TINY_PIVOT))
    assert factorize(pattern, data=values).inertia is not None
    pivoted = kkt_mod.factorize_pivoted(pattern, data=values)
    assert pivoted.inertia is None
    pivoted._lu = CountingLU(pivoted._lu)
    x = pivoted.solve(b)
    assert pivoted._lu.solves == 1
    assert x == pytest.approx(np.linalg.solve(TINY_PIVOT, b), abs=1e-9)


def solver_splu(K, order):
    """splu of the CSC matrix K with the solver's options, in the column
    order ``order``: "NATURAL" or SuperLU's minimum-degree
    "MMD_AT_PLUS_A"."""
    return spla.splu(
        K, permc_spec=order, diag_pivot_thresh=0.0,
        panel_size=kkt_mod._PANEL_SIZE,
        options=dict(SymmetricMode=True, Equil=False),
    )


def test_fill_order_is_the_splu_order_of_the_pattern():
    # the order splu computes for K, and K stored in it factors in natural
    # order with the inertia, the solution and the fill of that splu
    rng = np.random.default_rng(3)
    A = sp.random(40, 40, density=0.08, random_state=5)
    K = (A + A.T + sp.diags(rng.uniform(1.0, 2.0, 40) * 5.0)).tocsc()
    order = fill_order(pattern_and_values(K)[0])
    reference = solver_splu(K, "MMD_AT_PLUS_A")
    assert np.array_equal(order, reference.perm_c)
    assert sorted(order) == list(range(40))
    assert not np.array_equal(order, np.arange(40))
    # the order outlives its factorization: it must not hold the LU's memory
    assert order.flags.owndata
    factor = factor_of(permuted(K, order))
    assert factor.inertia == factor_of(K).inertia == (40, 0, 0)
    assert factor.fill == reference.nnz
    # the factor solves in the stored order
    b = rng.normal(size=40)
    b_stored = np.empty_like(b)
    b_stored[order] = b
    assert factor.solve(b_stored)[order] == pytest.approx(reference.solve(b),
                                                          abs=1e-12)


def test_fill_order_needs_the_full_diagonal():
    # identity values on a pattern without its diagonal are singular
    with pytest.raises(FactorizationError):
        fill_order(pattern_and_values(np.array(SWAP))[0])


def test_large_solve_residual_raises():
    # a rank-one matrix whose rounded pivots miss zero: it factors, since
    # only exact zero pivots fail, but b is outside its range
    v = np.array([0.7, 0.1, 1.0])
    factor = factor_of(np.outer(v, v))
    assert factor.inertia is not None and factor.inertia[2] == 0
    with pytest.raises(FactorizationError, match="numerically singular"):
        factor.solve(np.array([0.0, 1.0, 0.0]))


def factored_during_solves():
    """(pattern, values) of every factorization in the case9_loop lambda
    solves, each with a copy of the values factored."""
    factored = []
    factorize_in_solve = ipm_mod.factorize

    def collecting(K, **kwargs):
        factored.append((K, kwargs["data"].copy()))
        return factorize_in_solve(K, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ipm_mod, "factorize", collecting)
        for pf in (PowerFlowKind.AC, PowerFlowKind.SOC, PowerFlowKind.DC):
            res, _ = ipm_mod.solve(build_opf(
                parse_case(case_text("case9_loop")), pf, CostKind.LAMBDA))
            assert res.status == SolveStatus.OPTIMAL
    return factored


def test_raw_u_pivots_match_splu():
    factored = factored_during_solves()
    off_diagonal = 0
    for pattern, values in factored:
        factor = factorize(pattern, data=values)
        reference = solver_splu(on_pattern(pattern, values), "NATURAL")
        assert np.array_equal(kkt_mod._u_diagonal(factor._lu),
                              reference.U.diagonal())
        assert np.array_equal(factor._lu.perm_r, reference.perm_r)
        assert factor.fill == reference.nnz
        off_diagonal += factor.inertia is None
    # both branches of the inertia read are exercised
    assert 0 < off_diagonal < len(factored)


def test_fill_order_matches_splu_on_solve_matrices():
    factored = factored_during_solves()
    for pattern, values in factored:
        assert np.array_equal(fill_order(pattern),
                              solver_splu(on_pattern(pattern, values),
                                          "MMD_AT_PLUS_A").perm_c)


def test_products_on_value_arrays_match_matmul():
    # the kernels `@` ends in, so the products are equal bit for bit: the
    # factor's residual on K's (pattern, values), and the model patterns'
    # products by the Jacobian, its transpose and the Hessian
    rng = np.random.default_rng(3)

    def vector(n):
        return rng.normal(size=2 * n)[::2]  # strided, as slices are

    for pattern, values in factored_during_solves()[::5]:
        x = vector(pattern.shape[1])
        assert np.array_equal(pattern.matvec(values, x),
                              on_pattern(pattern, values) @ x)
    m = build_opf(parse_case(case_text("case9_loop")), PowerFlowKind.AC,
                  CostKind.LAMBDA)
    x0 = m.initial_point()
    jac = ipm_mod.eval_jacobian(m, x0)
    hess = ipm_mod.eval_lagrangian_hessian(m, x0, rng.normal(size=m.nrows))
    for pattern, values in ((m.jac_pattern, jac), (m.hess_pattern, hess)):
        assert pattern.nnz > 0
        A = on_pattern(pattern, values)
        x, y = vector(A.shape[1]), vector(A.shape[0])
        assert np.array_equal(pattern.matvec(values, x), A @ x)
        assert np.array_equal(pattern.rmatvec(values, y), A.T @ y)


def test_inertia_matches_eigenvalue_signs():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(4, 30))
        A = sp.random(n, n, density=0.2, random_state=rng)
        K = (A + A.T + sp.diags(rng.normal(scale=2.0, size=n))).tocsc()
        eig = np.linalg.eigvalsh(K.toarray())
        if np.abs(eig).min() < 1e-6:
            continue
        factor = factor_of(K)
        if factor.inertia is None:
            continue
        assert factor.inertia == (int(np.sum(eig > 0)),
                                  int(np.sum(eig < 0)), 0)
        checked += 1
    assert checked >= 30


def test_non_square_matrix_is_rejected():
    pattern, values = pattern_and_values(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        factorize(pattern, data=values)


def test_pattern_and_values_factor_as_the_matrix():
    # the solver's form, a CSC pattern and a value array, factors as splu
    # factors the matrix they make; values that do not fit the pattern are
    # rejected before SuperLU reads them
    pattern, values = pattern_and_values(np.array(QUASI_DEFINITE))
    factor = factorize(pattern, data=values)
    reference = solver_splu(on_pattern(pattern, values), "NATURAL")
    assert factor.inertia == (2, 1, 0)
    b = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(factor.solve(b), reference.solve(b))
    for data in (values[:-1], values.astype(np.float32)):
        with pytest.raises(ValueError, match="one float per entry"):
            factorize(pattern, data=data)
