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

DEFINITE = [[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]
# the KKT shape [[H, J^T], [J, -dc]]: n positive, m negative pivots
QUASI_DEFINITE = [[2.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, -1e-10]]
# a zero diagonal forces SuperLU off the diagonal; the LU still solves
SWAP = [[0.0, 1.0], [1.0, 0.0]]


def permuted(K, perm):
    """P K P^T: entry (i, j) of K stored at (perm[i], perm[j])."""
    n = len(perm)
    P = sp.csc_matrix((np.ones(n), (perm, np.arange(n))), shape=(n, n))
    return (P @ sp.csc_matrix(np.array(K)) @ P.T).tocsc()


@pytest.mark.parametrize("K, inertia", [
    (DEFINITE, (3, 0, 0)),
    (QUASI_DEFINITE, (2, 1, 0)),
], ids=["definite", "quasi-definite"])
def test_diagonal_pivots_report_exact_inertia(K, inertia):
    factor = factorize(sp.csc_matrix(np.array(K)))
    assert factor.inertia == inertia
    b = np.array([1.0, -2.0, 0.5])
    assert factor.solve(b) == pytest.approx(np.linalg.solve(K, b), abs=1e-12)


def test_off_diagonal_pivoting_leaves_inertia_unknown():
    factor = factorize(sp.csc_matrix(np.array(SWAP)))
    assert factor.inertia is None
    assert factor.solve(np.array([3.0, -7.0])) == pytest.approx([-7.0, 3.0])


@pytest.mark.parametrize("K, perm", [
    (DEFINITE, [2, 0, 1]),
    (QUASI_DEFINITE, [1, 2, 0]),
    (SWAP, [1, 0]),
], ids=["definite", "quasi-definite", "swap"])
def test_given_order_matches_stored_order(K, perm):
    # K stored as P K P^T with perm= given solves in K's own order: it
    # returns exactly what the same stored matrix factored without perm=
    # returns for b scattered to the stored order, gathered back
    perm = np.array(perm)
    reference = factorize(sp.csc_matrix(np.array(K)))
    stored = factorize(permuted(K, perm))
    factor = factorize(permuted(K, perm), perm=perm)
    assert factor.inertia == reference.inertia == stored.inertia
    b = np.array([1.0, -2.0, 0.5][:len(perm)])
    b_stored = np.empty_like(b)
    b_stored[perm] = b
    x = factor.solve(b)
    assert np.array_equal(x, stored.solve(b_stored)[perm])
    # and x solves K itself to the residual check's accuracy (the
    # quasi-definite K in this order takes its -1e-10 pivot early, so its
    # solution may differ from the unpermuted factor's in the 7th digit)
    assert np.abs(np.array(K) @ x - b).max() <= (
        kkt_mod._SOLVE_RTOL * (1.0 + np.abs(b).max()))


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
    factor = factorize(sp.csc_matrix(np.array(K)))
    factor._lu = CountingLU(factor._lu)
    b = np.array([1.0, -2.0, 0.5])
    x = factor.solve(b)
    assert factor._lu.solves == solves
    assert np.abs(np.array(K) @ x - b).max() <= (
        kkt_mod._SOLVE_RTOL * (1.0 + np.abs(b).max()))


def splu_mmd(K):
    """splu with the solver's options and SuperLU's minimum-degree order."""
    return spla.splu(
        K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        panel_size=kkt_mod._PANEL_SIZE,
        options=dict(SymmetricMode=True, Equil=False),
    )


def test_fill_order_is_the_splu_order_of_the_pattern():
    # the order splu computes for K, and K stored in it factors in natural
    # order with the inertia, the solution and the fill of that splu
    rng = np.random.default_rng(3)
    A = sp.random(40, 40, density=0.08, random_state=5)
    K = (A + A.T + sp.diags(rng.uniform(1.0, 2.0, 40) * 5.0)).tocsc()
    order = fill_order(K)
    reference = splu_mmd(K)
    assert np.array_equal(order, reference.perm_c)
    assert sorted(order) == list(range(40))
    assert not np.array_equal(order, np.arange(40))
    # the order outlives its factorization: it must not hold the LU's memory
    assert order.flags.owndata
    factor = factorize(permuted(K.toarray(), order), perm=order)
    assert factor.inertia == factorize(K).inertia == (40, 0, 0)
    assert factor.fill == reference.nnz
    b = rng.normal(size=40)
    assert factor.solve(b) == pytest.approx(reference.solve(b), abs=1e-12)


def test_fill_order_needs_the_full_diagonal():
    # identity values on a pattern without its diagonal are singular
    with pytest.raises(FactorizationError):
        fill_order(sp.csc_matrix(np.array(SWAP)))


def test_large_solve_residual_raises():
    # a rank-one matrix whose rounded pivots miss zero: it factors, since
    # only exact zero pivots fail, but b is outside its range
    v = np.array([0.7, 0.1, 1.0])
    factor = factorize(sp.csc_matrix(np.outer(v, v)))
    assert factor.inertia is not None and factor.inertia[2] == 0
    with pytest.raises(FactorizationError, match="numerically singular"):
        factor.solve(np.array([0.0, 1.0, 0.0]))


def factored_during_solves():
    """(K, perm) of every factorization in the case9_loop lambda solves,
    copied as factored: a solve overwrites its K on every assembly."""
    factored = []
    factorize_in_solve = ipm_mod.factorize

    def collecting(K, **kwargs):
        factored.append((K.copy(), kwargs.get("perm")))
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
    for K, perm in factored:
        factor = factorize(K, perm=perm)
        reference = spla.splu(
            K, permc_spec="NATURAL", diag_pivot_thresh=0.0,
            panel_size=kkt_mod._PANEL_SIZE,
            options=dict(SymmetricMode=True, Equil=False),
        )
        assert np.array_equal(kkt_mod._u_diagonal(factor._lu),
                              reference.U.diagonal())
        assert np.array_equal(factor._lu.perm_r, reference.perm_r)
        assert factor.fill == reference.nnz
        off_diagonal += factor.inertia is None
    # both branches of the inertia read are exercised
    assert 0 < off_diagonal < len(factored)


def test_fill_order_matches_splu_on_solve_matrices():
    factored = factored_during_solves()
    for K, _ in factored:
        assert np.array_equal(fill_order(K), splu_mmd(K).perm_c)


def test_csc_matvec_matches_matmul():
    # the kernel `@` ends in, so the products are equal bit for bit
    rng = np.random.default_rng(3)
    matrices = [K for K, _ in factored_during_solves()[::5]]
    m = build_opf(parse_case(case_text("case9_loop")), PowerFlowKind.AC,
                  CostKind.LAMBDA)
    jac = ipm_mod.eval_jacobian(m, m.initial_point())
    matrices.append(jac.T)  # a CSC view of the CSR Jacobian's arrays
    for A in matrices:
        x = rng.normal(size=2 * A.shape[1])[::2]  # strided, as slices are
        assert np.array_equal(kkt_mod.csc_matvec(A, x), A @ x)


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
        factor = factorize(K)
        if factor.inertia is None:
            continue
        assert factor.inertia == (int(np.sum(eig > 0)),
                                  int(np.sum(eig < 0)), 0)
        checked += 1
    assert checked >= 30


def test_non_square_matrix_is_rejected():
    with pytest.raises(ValueError, match="square"):
        factorize(sp.csc_matrix(np.ones((2, 3))))


def test_duplicate_entries_are_summed():
    # QUASI_DEFINITE with its (0, 0) entry stored as 1.5 + 0.5
    data = np.array([1.5, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, -1e-10])
    indices = np.array([0, 2, 0, 1, 2, 0, 1, 2], dtype=np.int32)
    indptr = np.array([0, 3, 5, 8], dtype=np.int32)
    K = sp.csc_matrix((data, indices, indptr), shape=(3, 3))
    factor = factorize(K)
    assert factor.inertia == (2, 1, 0)
    b = np.array([1.0, -2.0, 0.5])
    assert factor.solve(b) == pytest.approx(
        np.linalg.solve(QUASI_DEFINITE, b), abs=1e-12)


@pytest.mark.parametrize("convert", [
    np.array,
    sp.csr_matrix,
    lambda K: sp.csc_matrix(np.array(K, dtype=int)),
], ids=["dense", "csr", "integer-csc"])
def test_other_inputs_are_converted(convert):
    K = [[4, 1, 0], [1, 3, 1], [0, 1, 2]]
    factor = factorize(convert(K))
    assert factor.inertia == (3, 0, 0)
    b = np.array([1.0, -2.0, 0.5])
    assert factor.solve(b) == pytest.approx(np.linalg.solve(K, b), abs=1e-12)
