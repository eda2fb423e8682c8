import cmath
import math

import numpy as np
import pytest
import scipy.sparse as sp

from opfbench.modelir import (
    AcFlowPolarBlock,
    INF,
    ModelIR,
    QuadraticBlock,
    SparsePattern,
    dump_model,
    eval_jacobian,
    eval_lagrangian_hessian,
    eval_residuals,
)

from helpers import finite_difference_hessian, finite_difference_jacobian


def _matches(analytic, approx, rtol=1e-5, atol=1e-7):
    diff = np.abs(analytic - approx)
    ok = (diff <= atol) | (diff <= rtol * np.abs(analytic))
    return bool(np.all(ok))


def linear_eq_model():
    m = ModelIR("lin")
    m.add_variable("x1", 0.0, 1.0, 0.5)
    m.add_variable("x2", 0.0, 1.0, 0.5)
    m.add_block(QuadraticBlock("sum", [1.0], [1.0],
                               linear=([0, 0], [0, 1], [1.0, 1.0])))
    m.add_objective_term(0, 1.0)
    return m.finalize()


def linear_ineq_model():
    m = ModelIR("linineq")
    m.add_variable("x1", -2.0, 2.0, 0.0)
    m.add_variable("x2", -2.0, 2.0, 0.0)
    m.add_block(QuadraticBlock("range", [-0.5, -INF], [0.5, 1.0],
                               linear=([0, 0, 1], [0, 1, 0], [1.0, -1.0, 0.5])))
    m.add_objective_term(1, 1.0)
    return m.finalize()


def soc_model():
    m = ModelIR("cone")
    for name, init in [("wr", 1.0), ("wi", 0.0), ("wii", 1.0), ("wjj", 1.0)]:
        m.add_variable(name, -5.0, 5.0, init)
    # wr^2 + wi^2 - wii*wjj <= 0
    m.add_block(QuadraticBlock("cone", [-INF], [0.0], quadratic=(
        [0, 0, 0], [0, 1, 2], [0, 1, 3], [1.0, 1.0, -1.0])))
    return m.finalize()


def acflow_model(a1=0.0, kc=0.0, ks=10.0):
    m = ModelIR("flow")
    m.add_variable("p", -INF, INF, 0.0)
    m.add_variable("vf", 0.5, 1.5, 1.0)
    m.add_variable("vt", 0.5, 1.5, 1.0)
    m.add_variable("thf", -1.0, 1.0, 0.0)
    m.add_variable("tht", -1.0, 1.0, 0.0)
    m.add_block(AcFlowPolarBlock("ohm", [0], [1], [2], [3], [4],
                                 [a1], [kc], [ks]))
    return m.finalize()


def quad_model():
    m = ModelIR("quad")
    m.add_variable("p", -2.0, 2.0, 0.3)
    m.add_variable("c", -10.0, 10.0, 1.0)
    # 2*p^2 + 3*p - c + 1 <= 0
    m.add_block(QuadraticBlock(
        "epi", [-INF], [0.0], linear=([0, 0], [0, 1], [3.0, -1.0]),
        quadratic=([0], [0], [0], [2.0]), const=[1.0],
    ))
    return m.finalize()


def limit_model():
    m = ModelIR("lim")
    m.add_variable("p", -3.0, 3.0, 0.4)
    m.add_variable("q", -3.0, 3.0, -0.2)
    # p^2 + q^2 <= 2.25
    m.add_block(QuadraticBlock("thermal", [-INF], [2.25], quadratic=(
        [0, 0], [0, 1], [0, 1], [1.0, 1.0])))
    return m.finalize()


class TestResiduals:
    def test_linear_equality_at_solution(self):
        m = linear_eq_model()
        res = eval_residuals(m, np.array([0.5, 0.5]))
        assert res == pytest.approx([0.0])

    def test_cone_boundary(self):
        m = soc_model()
        res = eval_residuals(m, np.array([3.0, 4.0, 5.0, 5.0]))
        assert res == pytest.approx([0.0])  # 9 + 16 - 25

    def test_polar_flow_against_complex_oracle(self):
        # lossless line with b = -10 between unit-voltage buses 0.1 rad apart
        m = acflow_model()
        x = np.array([0.0, 1.0, 1.0, 0.1, 0.0])
        res = eval_residuals(m, x)
        y = complex(0.0, -10.0)
        vi = cmath.rect(1.0, 0.1)
        vj = cmath.rect(1.0, 0.0)
        s_ij = y.conjugate() * abs(vi) ** 2 - y.conjugate() * vi * vj.conjugate()
        assert s_ij.real == pytest.approx(10 * math.sin(0.1))
        assert res[0] == pytest.approx(-s_ij.real)

    def test_dimension_mismatch(self):
        m = linear_eq_model()
        with pytest.raises(ValueError):
            eval_residuals(m, np.zeros(3))

    def test_repeated_rows_sum_in_entry_order(self):
        # rows repeat, out of order; the sums must equal sequential
        # accumulation (np.add.at) bit for bit
        rng = np.random.default_rng(3)
        nrows, nvars, nent = 4, 6, 40
        rows = rng.integers(0, nrows, nent)
        cols = rng.integers(0, nvars, nent)
        vals = rng.normal(size=nent) * 10.0 ** rng.integers(-8, 8, nent)
        qrows = rng.integers(0, nrows, nent)
        qi = rng.integers(0, nvars, nent)
        qj = rng.integers(0, nvars, nent)
        qvals = rng.normal(size=nent)
        const = rng.normal(size=nrows) * 1e6
        x = rng.normal(size=nvars)
        free = ([-INF] * nrows, [INF] * nrows)
        lin = QuadraticBlock("lin", *free, linear=(rows, cols, vals))
        quad = QuadraticBlock("quad", *free, linear=(rows, cols, vals),
                              quadratic=(qrows, qi, qj, qvals), const=const)

        ref_lin = np.zeros(nrows)
        np.add.at(ref_lin, rows, vals * x[cols])
        ref_quad = const.copy()
        np.add.at(ref_quad, rows, vals * x[cols])
        np.add.at(ref_quad, qrows, qvals * x[qi] * x[qj])
        assert np.array_equal(lin.residual(x), ref_lin)
        assert np.array_equal(quad.residual(x), ref_quad)
        # a row with no entries still has its place
        empty = QuadraticBlock("empty", [0.0] * 3, [0.0] * 3,
                               linear=([0], [0], [1.0]))
        assert list(empty.residual(x)) == [x[0], 0.0, 0.0]


class TestDerivatives:
    @pytest.mark.parametrize("factory", [
        linear_eq_model, linear_ineq_model, soc_model, acflow_model,
        quad_model, limit_model,
    ])
    def test_jacobian_matches_finite_differences(self, factory):
        m = factory()
        rng = np.random.default_rng(5)
        lo, up = m.variable_bounds()
        lo = np.where(np.isfinite(lo), lo, -1.5)
        up = np.where(np.isfinite(up), up, 1.5)
        for _ in range(25):
            x = rng.uniform(lo + 0.05, up - 0.05)
            J = eval_jacobian(m, x).toarray()
            J_fd = finite_difference_jacobian(m, x)
            assert _matches(J, J_fd)

    @pytest.mark.parametrize("factory", [
        linear_eq_model, linear_ineq_model, soc_model, acflow_model,
        quad_model, limit_model,
    ])
    def test_hessian_matches_finite_differences(self, factory):
        m = factory()
        rng = np.random.default_rng(6)
        lo, up = m.variable_bounds()
        lo = np.where(np.isfinite(lo), lo, -1.5)
        up = np.where(np.isfinite(up), up, 1.5)
        for _ in range(25):
            x = rng.uniform(lo + 0.05, up - 0.05)
            duals = rng.uniform(-2.0, 2.0, size=m.nrows)
            H = eval_lagrangian_hessian(m, x, duals).toarray()
            assert np.allclose(H, H.T)
            H_fd = finite_difference_hessian(m, x, duals)
            assert _matches(H, H_fd, rtol=1e-5, atol=1e-6)

    def test_all_linear_model_hessian_is_zero(self):
        # an LP's Hessian is the empty matrix, returned without evaluating
        # a block; the point and the duals are still checked
        m = linear_eq_model()
        x, duals = np.array([0.3, 0.7]), np.array([2.0])
        H = eval_lagrangian_hessian(m, x, duals)
        assert H.format == "csr" and H.shape == (2, 2) and H.nnz == 0
        out = m.hess_pattern.matrix(np.empty(0))
        assert eval_lagrangian_hessian(m, x, duals, out=out) is out
        with pytest.raises(ValueError, match="point has shape"):
            eval_lagrangian_hessian(m, np.zeros(3), duals)
        with pytest.raises(ValueError, match="duals have shape"):
            eval_lagrangian_hessian(m, x, np.zeros(2))

    def test_cone_hessian_structure(self):
        m = soc_model()
        H = eval_lagrangian_hessian(
            m, np.array([1.0, 0.5, 2.0, 3.0]), np.array([1.0])
        ).toarray()
        expected = np.zeros((4, 4))
        expected[0, 0] = 2.0
        expected[1, 1] = 2.0
        expected[2, 3] = expected[3, 2] = -1.0
        assert H == pytest.approx(expected)


class TestSparsityStability:
    @pytest.mark.parametrize("factory", [soc_model, acflow_model, quad_model])
    def test_pattern_identical_at_two_points(self, factory):
        m = factory()
        rng = np.random.default_rng(9)
        lo, up = m.variable_bounds()
        lo = np.where(np.isfinite(lo), lo, -1.0)
        up = np.where(np.isfinite(up), up, 1.0)
        x1 = rng.uniform(lo, up)
        x2 = rng.uniform(lo, up)
        j1, j2 = eval_jacobian(m, x1), eval_jacobian(m, x2)
        assert np.array_equal(j1.indices, j2.indices)
        assert np.array_equal(j1.indptr, j2.indptr)
        d = rng.uniform(-1, 1, size=m.nrows)
        h1 = eval_lagrangian_hessian(m, x1, d)
        h2 = eval_lagrangian_hessian(m, x2, d)
        assert np.array_equal(h1.indices, h2.indices)
        assert np.array_equal(h1.indptr, h2.indptr)

    @pytest.mark.parametrize("factory", [
        linear_ineq_model, soc_model, acflow_model, quad_model, limit_model,
    ])
    def test_scatter_matches_coo_reference(self, factory):
        # quad_model repeats (row, col) pairs in both derivatives
        m = factory()
        rng = np.random.default_rng(10)
        x = rng.uniform(-1.0, 1.0, size=m.nvars)
        duals = rng.uniform(-1.0, 1.0, size=m.nrows)
        jr, jc, jv, hr, hc, hv = [], [], [], [], [], []
        off = 0
        for blk in m.blocks:
            r, c = blk.jac_structure()
            jr.append(r + off)
            jc.append(c)
            jv.append(blk.jac_values(x))
            r, c = blk.hess_structure()
            hr.append(r)
            hc.append(c)
            hv.append(blk.hess_values(x, duals[off:off + blk.nrows]))
            off += blk.nrows
        cat = np.concatenate
        J_ref = sp.coo_matrix((cat(jv), (cat(jr), cat(jc))),
                              shape=(m.nrows, m.nvars)).toarray()
        H_ref = sp.coo_matrix((cat(hv), (cat(hr), cat(hc))),
                              shape=(m.nvars, m.nvars)).toarray()
        J = eval_jacobian(m, x)
        H = eval_lagrangian_hessian(m, x, duals)
        assert J.format == H.format == "csr"
        assert J.toarray() == pytest.approx(J_ref, rel=1e-15, abs=1e-15)
        assert H.toarray() == pytest.approx(H_ref, rel=1e-15, abs=1e-15)


def mixed_model():
    """Every row shape in one model, with rows in both orders around the
    polar block; the curved blocks act on disjoint variables."""
    m = ModelIR("mixed")
    for k in range(12):
        m.add_variable(f"x{k}", -2.0, 2.0, 0.1 * k)
    m.add_block(QuadraticBlock("balance", [0.5, 0.5], [0.5, 0.5], linear=(
        [0, 0, 1, 1, 0], [1, 5, 9, 11, 1], [1.0, -1.0, 2.0, 0.5, 3.0])))
    m.add_block(QuadraticBlock("cone", [-INF] * 2, [0.0] * 2, quadratic=(
        [0, 1, 0, 1, 0, 1], [0, 2, 1, 3, 2, 0], [0, 2, 1, 3, 3, 1],
        [1.0, 1.0, 1.0, 1.0, -1.0, -1.0])))
    m.add_block(AcFlowPolarBlock("polar", [4, 5], [6, 7], [7, 6], [8, 8],
                                 [9, 9], [0.3, -0.2], [1.5, -0.7],
                                 [-4.0, 2.5]))
    m.add_block(QuadraticBlock("thermal", [-INF], [2.0], quadratic=(
        [0, 0], [4, 5], [4, 5], [1.0, 1.0])))
    m.add_block(QuadraticBlock("angle", [-0.5], [INF], linear=(
        [0, 0], [8, 9], [1.0, -1.0])))
    m.add_block(QuadraticBlock(
        "cost", [-INF], [0.0], linear=([0, 0], [10, 11], [3.0, -1.0]),
        quadratic=([0], [10], [10], [0.7]), const=[2.0]))
    return m.finalize()


class TestOnePassEvaluation:
    def test_equals_each_block_evaluated_alone(self):
        m = mixed_model()
        rng = np.random.default_rng(12)
        offsets = np.cumsum([0] + [blk.nrows for blk in m.blocks])
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=m.nvars)
            duals = rng.normal(size=m.nrows)
            rows = np.concatenate([blk.residual(x) for blk in m.blocks])
            J = sp.vstack([
                SparsePattern(*blk.jac_structure(), (blk.nrows, m.nvars))
                .matrix(blk.jac_values(x)) for blk in m.blocks
            ])
            H = sum(
                SparsePattern(*blk.hess_structure(), (m.nvars, m.nvars))
                .matrix(blk.hess_values(x, duals[off:off + blk.nrows]))
                .toarray() for blk, off in zip(m.blocks, offsets)
            )
            assert np.array_equal(m.eval_raw_rows(x), rows)
            assert np.array_equal(eval_jacobian(m, x).toarray(),
                                  J.toarray())
            assert np.array_equal(
                eval_lagrangian_hessian(m, x, duals).toarray(), H)


class TestAddVariable:
    def test_inverted_bounds_name_the_variable(self):
        m = ModelIR("bad")
        with pytest.raises(ValueError, match=r"variable cg\[3\]: lower 2"):
            m.add_variable("cg[3]", 2.0, 1.0, 1.5)

    def test_start_is_clamped_into_bounds(self):
        m = ModelIR("clamp")
        m.add_variable("below", 0.0, 1.0, -3.0)
        m.add_variable("above", -INF, 2.0, 5.0)
        m.add_variable("inside", -1.0, INF, 0.25)
        m.finalize()
        assert list(m.initial_point()) == [0.0, 2.0, 0.25]


class TestFinalize:
    @pytest.mark.parametrize("index", [-1, 2])
    def test_objective_out_of_range(self, index):
        m = ModelIR("bad")
        m.add_variable("a", 0.0, 1.0, 0.5)
        m.add_variable("b", 0.0, 1.0, 0.5)
        m.add_objective_term(index, 5.0)
        with pytest.raises(ValueError, match="objective references"):
            m.finalize()

    def test_block_out_of_range_names_the_block(self):
        m = ModelIR("bad")
        m.add_variable("x", 0.0, 1.0, 0.5)
        m.add_block(QuadraticBlock("ok", [0.0], [1.0],
                                   linear=([0], [0], [1.0])))
        m.add_block(QuadraticBlock("far", [0.0], [1.0],
                                   linear=([0], [3], [1.0])))
        with pytest.raises(ValueError,
                           match="block far references variable"):
            m.finalize()

    @pytest.mark.parametrize("row", [1, -1])
    @pytest.mark.parametrize("term", ["linear", "quadratic"])
    def test_block_row_out_of_range_names_the_block(self, row, term):
        # stacked with its neighbours, a stray row would land silently in
        # the next block's row, or in the previous one's
        m = ModelIR("bad")
        m.add_variable("x", 0.0, 1.0, 0.5)
        terms = {"linear": ([row], [0], [1.0]),
                 "quadratic": ([row], [0], [0], [1.0])}
        ok = {"linear": ([0], [0], [1.0])}
        m.add_block(QuadraticBlock("zeroth", [0.0], [1.0], **ok))
        m.add_block(QuadraticBlock("first", [0.0], [1.0],
                                   **{term: terms[term]}))
        m.add_block(QuadraticBlock("second", [0.0], [1.0], **ok))
        with pytest.raises(ValueError, match="block first references row"):
            m.finalize()

    def test_bounds_and_start_point_are_copies(self):
        m = linear_ineq_model()
        lo, up = m.variable_bounds()
        x0 = m.initial_point()
        lo[:] = up[:] = x0[:] = 7.0
        assert list(m.variable_bounds()[0]) == [-2.0, -2.0]
        assert list(m.variable_bounds()[1]) == [2.0, 2.0]
        assert list(m.initial_point()) == [0.0, 0.0]

    def test_published_arrays_are_read_only(self):
        # a solver derives its structure from these once per model
        m = linear_ineq_model()
        arrays = [m.var_lower, m.var_upper, m.var_start, m.row_lower,
                  m.row_upper, m.row_is_eq, m.obj_coeffs]
        for pattern in (m.jac_pattern, m.hess_pattern):
            arrays += [pattern.slot, pattern.indices, pattern.indptr]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


class TestObjective:
    def test_linear_objective_exact(self):
        m = ModelIR("obj")
        m.add_variable("a", -1, 1, 0)
        m.add_variable("b", -1, 1, 0)
        m.add_objective_term(0, 2.5)
        m.add_objective_term(1, -0.5)
        m.add_objective_offset(3.0)
        m.finalize()
        x = np.array([0.4, -0.8])
        assert m.eval_objective(x) == float(
            np.dot(np.array([2.5, -0.5]), x) + 3.0
        )


class TestDump:
    def test_dump_is_deterministic_and_complete(self):
        m = linear_eq_model()
        text1 = dump_model(m)
        text2 = dump_model(m)
        assert text1 == text2
        assert "var x[0] x1" in text1
        assert "block sum rows=1" in text1

    def test_dump_golden(self):
        m = ModelIR("tiny")
        m.add_variable("u", 0.0, 2.0, 1.0)
        m.add_block(QuadraticBlock("only", [0.0], [6.0],
                                   linear=([0], [0], [3.0])))
        m.add_block(QuadraticBlock("epi", [-INF], [0.0], const=[-1.0],
                                   quadratic=([0], [0], [0], [2.0])))
        m.add_objective_term(0, 1.5)
        m.finalize()
        assert dump_model(m) == (
            "model tiny: 1 variables, 2 rows\n"
            "var x[0] u: [0, 2] init 1\n"
            "objective offset 0\n"
            "obj x[0] coef 1.5\n"
            "block only rows=1\n"
            "  row 0: 0 <= 3*x[0] <= 6\n"
            "block epi rows=1\n"
            "  row 0: -inf <= -1 + 2*x[0]*x[0] <= 0"
        )
