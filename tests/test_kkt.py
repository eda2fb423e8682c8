import numpy as np
import pytest
import scipy.sparse as sp

from opfbench.kkt import FactorizationError, factorize

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
def test_given_order_matches_computed_order(K, perm):
    perm = np.array(perm)
    reference = factorize(sp.csc_matrix(np.array(K)))
    factor = factorize(permuted(K, perm), perm=perm)
    assert factor.inertia == reference.inertia
    assert np.array_equal(factor.perm, perm)
    b = np.array([1.0, -2.0, 0.5][:len(perm)])
    assert factor.solve(b) == pytest.approx(reference.solve(b), abs=1e-12)


def test_first_factorization_exposes_its_order():
    # factoring the pattern stored in the exposed order reproduces the
    # inertia and the solution of the first factorization
    rng = np.random.default_rng(3)
    A = sp.random(40, 40, density=0.08, random_state=5)
    K = (A + A.T + sp.diags(rng.uniform(1.0, 2.0, 40) * 5.0)).tocsc()
    first = factorize(K)
    assert sorted(first.perm) == list(range(40))
    # the order outlives the factor: it must not hold the LU's memory
    assert first.perm.flags.owndata
    again = factorize(permuted(K.toarray(), first.perm), perm=first.perm)
    assert again.inertia == first.inertia == (40, 0, 0)
    b = rng.normal(size=40)
    assert again.solve(b) == pytest.approx(first.solve(b), abs=1e-12)


def test_large_solve_residual_raises():
    # a rank-one matrix whose rounded pivots miss zero: it factors, since
    # only exact zero pivots fail, but b is outside its range
    v = np.array([1.0, 0.1, 0.7])
    factor = factorize(sp.csc_matrix(np.outer(v, v)))
    with pytest.raises(FactorizationError, match="numerically singular"):
        factor.solve(np.array([0.0, 1.0, 0.0]))
