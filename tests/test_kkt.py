import numpy as np
import pytest
import scipy.sparse as sp

from opfbench.kkt import factorize


@pytest.mark.parametrize("K, inertia", [
    # positive definite: every pivot positive
    ([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]], (3, 0, 0)),
    # quasi-definite KKT shape [[H, J^T], [J, -dc]]: n positive, m negative
    ([[2.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, -1e-10]], (2, 1, 0)),
], ids=["definite", "quasi-definite"])
def test_diagonal_pivots_report_exact_inertia(K, inertia):
    factor = factorize(sp.csc_matrix(np.array(K)))
    assert factor.inertia == inertia
    b = np.array([1.0, -2.0, 0.5])
    assert factor.solve(b) == pytest.approx(np.linalg.solve(K, b), abs=1e-12)


def test_off_diagonal_pivoting_leaves_inertia_unknown():
    # a zero diagonal forces SuperLU off the diagonal; the LU still solves
    K = np.array([[0.0, 1.0], [1.0, 0.0]])
    factor = factorize(sp.csc_matrix(K))
    assert factor.inertia is None
    assert factor.solve(np.array([3.0, -7.0])) == pytest.approx([-7.0, 3.0])
