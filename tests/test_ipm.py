import gc
import math
import sys
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._compressed import _cs_matrix

import opfbench.ipm as ipm_mod
import opfbench.kkt as kkt_mod
from opfbench.cases import case_names, case_text
from opfbench.formulations import CostKind, PowerFlowKind, build_opf
from opfbench.ipm import IterationLog, SolverOptions, kkt_check, solve
from opfbench.modelir import (
    INF,
    ModelIR,
    QuadraticBlock,
    SolveResult,
    SolveStatus,
    eval_jacobian,
    eval_lagrangian_hessian,
)
from opfbench.netdata import ComplexPU, parse_case

from helpers import enumerate_lp_vertices


def lp_min_x_geq_1():
    m = ModelIR("lp1")
    m.add_variable("x", 1.0, INF, 5.0)
    m.add_objective_term(0, 1.0)
    return m.finalize()


def lp_two_var():
    # min -x - 2y s.t. x + y <= 4, x in [0, 3], y in [0, 3]
    m = ModelIR("lp2")
    m.add_variable("x", 0.0, 3.0, 1.0)
    m.add_variable("y", 0.0, 3.0, 1.0)
    m.add_block(QuadraticBlock("cap", [-INF], [4.0],
                               linear=([0, 0], [0, 1], [1.0, 1.0])))
    m.add_objective_term(0, -1.0)
    m.add_objective_term(1, -2.0)
    return m.finalize()


def qp_epigraph():
    # min t s.t. (x-1)^2 - t <= 0  ->  x = 1, t = 0
    m = ModelIR("qp")
    m.add_variable("x", -5.0, 5.0, 3.0)
    m.add_variable("t", 0.0, 100.0, 10.0)
    m.add_block(QuadraticBlock(
        "epi", [-INF], [0.0], linear=([0, 0], [0, 1], [-2.0, -1.0]),
        quadratic=([0], [0], [0], [1.0]), const=[1.0],
    ))
    m.add_objective_term(1, 1.0)
    return m.finalize()


def fixed_variable_model(n_pad):
    # x is fixed through equal bounds and linked to y; n_pad idle box
    # variables make the KKT matrix mostly zeros
    m = ModelIR("fix")
    m.add_variable("x", 2.0, 2.0, 2.0)
    m.add_variable("y", 0.0, 10.0, 5.0)
    m.add_block(QuadraticBlock("link", [0.0], [0.0],
                               linear=([0, 0], [0, 1], [1.0, -1.0])))
    m.add_objective_term(1, 3.0)
    for k in range(n_pad):
        m.add_variable(f"pad{k}", -1.0, 1.0, 0.5)
    return m.finalize()


def infeasible_lp():
    # x >= 0 but row forces x = -1
    m = ModelIR("bad")
    m.add_variable("x", 0.0, INF, 1.0)
    m.add_block(QuadraticBlock("pin", [-1.0], [-1.0],
                               linear=([0], [0], [1.0])))
    m.add_objective_term(0, 1.0)
    return m.finalize()


class TestToyProblems:
    def test_lp_bound_active(self):
        res, log = solve(lp_min_x_geq_1())
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(1.0, abs=1e-5)
        assert res.x[0] == pytest.approx(1.0, abs=1e-5)
        assert len(log) == res.iterations

    def test_lp_two_var_against_vertex_oracle(self):
        m = lp_two_var()
        res, _ = solve(m, SolverOptions(tol=1e-9))
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(
            enumerate_lp_vertices(m), abs=1e-8
        )

    def test_qp_epigraph(self):
        res, _ = solve(qp_epigraph())
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(0.0, abs=1e-5)
        assert res.x[0] == pytest.approx(1.0, abs=1e-3)

    # "sparse" pads the model with 250 idle box variables, so its KKT matrix
    # is mostly zeros; "dense" keeps the two-variable KKT matrix
    @pytest.mark.parametrize("n_pad", [0, 250], ids=["dense", "sparse"])
    def test_fixed_variable_via_equal_bounds(self, n_pad):
        m = fixed_variable_model(n_pad)
        res, _ = solve(m)
        assert res.status == SolveStatus.OPTIMAL
        assert res.x[0] == 2.0
        assert res.x[1] == pytest.approx(2.0, abs=1e-7)
        assert res.objective == pytest.approx(6.0, abs=1e-6)

    @pytest.mark.parametrize("curved", [False, True],
                             ids=["linear", "quadratic"])
    def test_rows_without_a_finite_bound_are_dropped(self, curved):
        # a row ranged over (-inf, inf) constrains nothing: the intake drops
        # it, and the solve reports a zero dual for it; the others are
        # lp_two_var's rows (and a curved free row makes the model a QP)
        def model(free_row):
            m = ModelIR("free-row")
            m.add_variable("x", 0.0, 3.0, 1.0)
            m.add_variable("y", 0.0, 3.0, 1.0)
            m.add_block(QuadraticBlock("cap", [-INF], [4.0],
                                       linear=([0, 0], [0, 1], [1.0, 1.0])))
            if free_row:
                m.add_block(QuadraticBlock(
                    "free", [-INF, -INF], [INF, INF],
                    linear=([0, 1], [0, 1], [1.0, -3.0]),
                    quadratic=([0], [0], [1], [1.0]) if curved else
                    ((), (), (), ())))
            m.add_objective_term(0, -1.0)
            m.add_objective_term(1, -2.0)
            return m.finalize()

        m = model(True)
        assert ipm_mod._Intake(m).m_int == m.nrows - 2
        res, _ = solve(m, SolverOptions(tol=1e-9))
        assert res.status == SolveStatus.OPTIMAL
        assert kkt_check(m, res).max_residual <= 1e-9
        assert list(res.y[1:]) == [0.0, 0.0]
        ref, _ = solve(model(False), SolverOptions(tol=1e-9))
        assert res.objective == pytest.approx(ref.objective, abs=1e-8)

    @pytest.mark.parametrize("pf", list(PowerFlowKind))
    def test_near_fixed_variable_is_fixed(self, pf):
        # generator 2 at pmin 50 MW and pmax 1e-14 MW above it: the start
        # push off its bounds rounds to zero, and z0 on a bound once ended
        # the solve at iteration 0 (DC infeasible, AC/SOC numerical error)
        text = case_text("case5_ring")
        line = "3\t0\t0\t60\t-40\t1\t100\t1\t120\t10;"
        assert line in text

        def run(pmax):
            net = parse_case(text.replace(
                line, line.replace("120\t10", f"{pmax}\t50")))
            return solve(build_opf(net, pf, CostKind.LAMBDA),
                         SolverOptions(tol=1e-8))[0]

        fixed = run("50")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            near = run("50.00000000000001")
        assert near.status == fixed.status == SolveStatus.OPTIMAL
        assert near.iterations == fixed.iterations
        assert near.objective == fixed.objective

    def test_near_equal_row_bounds_are_an_equality(self):
        # the slack's start push rounds to zero as a near-fixed variable's
        # does: 0.5 <= x + y <= 0.5 + 1e-16 once ended at iteration 0
        def run(up):
            m = ModelIR("row")
            x = m.add_variable("x", 0.0, 1.0, 0.2)
            y = m.add_variable("y", 0.0, 1.0, 0.2)
            m.add_block(QuadraticBlock("sum", [0.5], [up],
                                       linear=([0, 0], [x, y], [1.0, 1.0])))
            m.add_objective_term(x, 1.0)
            m.add_objective_term(y, 2.0)
            return solve(m.finalize())[0]

        equal = run(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            near = run(0.5000000000000001)
        assert near.status == equal.status == SolveStatus.OPTIMAL
        assert near.iterations == equal.iterations
        assert near.objective == equal.objective

    def test_infeasible_detected(self):
        res, _ = solve(infeasible_lp())
        assert res.status == SolveStatus.INFEASIBLE

    def test_iteration_limit(self):
        res, log = solve(lp_two_var(), SolverOptions(max_iter=2))
        assert res.status == SolveStatus.ITERATION_LIMIT
        assert res.iterations == len(log.records) <= 2

    def test_unconstrained_bounded_lp(self):
        m = ModelIR("box")
        m.add_variable("x", -1.0, 2.0, 0.0)
        m.add_objective_term(0, -1.0)
        m.finalize()
        res, _ = solve(m)
        assert res.status == SolveStatus.OPTIMAL
        assert res.x[0] == pytest.approx(2.0, abs=1e-5)


class TestSolverContracts:
    def test_determinism_bit_identical(self):
        m1, m2 = lp_two_var(), lp_two_var()
        res1, log1 = solve(m1)
        res2, log2 = solve(m2)
        assert np.array_equal(res1.x, res2.x)
        assert np.array_equal(res1.y, res2.y)
        assert res1.objective == res2.objective
        assert len(log1) == len(log2)
        for r1, r2 in zip(log1.records, log2.records):
            assert (r1.mu, r1.primal_inf, r1.dual_inf, r1.compl,
                    r1.alpha_primal, r1.alpha_dual) == \
                   (r2.mu, r2.primal_inf, r2.dual_inf, r2.compl,
                    r2.alpha_primal, r2.alpha_dual)

    def test_monotone_mu_nonincreasing(self):
        _, log = solve(qp_epigraph())
        mus = [r.mu for r in log.records]
        assert all(a >= b for a, b in zip(mus, mus[1:]))

    def test_steps_stay_interior(self):
        _, log = solve(lp_two_var())
        for r in log.records:
            assert 0.0 <= r.alpha_primal <= 1.0
            assert 0.0 <= r.alpha_dual <= 1.0

    def test_option_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(tol=math.inf)
        with pytest.raises(ValueError):
            SolverOptions(max_iter=0)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, "3"])
    def test_non_integer_max_iter_is_rejected(self, max_iter):
        # rejected when built, not by range() inside the solve
        with pytest.raises(ValueError, match="integer"):
            SolverOptions(max_iter=max_iter)

    def test_csv_log_columns(self):
        _, log = solve(lp_two_var())
        text = log.to_csv()
        header = text.splitlines()[0]
        assert header == ("iter,mu,primal_inf,dual_inf,compl,"
                          "alpha_primal,alpha_dual,reg,corrections,fill,"
                          "audited")
        assert len(text.splitlines()) == len(log.records) + 1
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [int(row[-3]) for row in rows] == \
            [r.inertia_corrections for r in log.records]
        assert [int(row[-2]) for row in rows] == \
            [r.fill for r in log.records]
        assert all(r.fill > 0 for r in log.records)
        assert [row[-1] for row in rows] == \
            [str(int(r.audited)) for r in log.records]

    def test_fill_column_repeats_across_solves(self):
        logs = [solve(build_opf(parse_case(case_text("case9_loop")),
                                PowerFlowKind.SOC, CostKind.PSI))[1]
                for _ in range(2)]
        fills = [[line.split(",")[-2] for line in log.to_csv().splitlines()]
                 for log in logs]
        assert fills[0] == fills[1]
        # SuperLU leaves the diagonal at the free DC angle columns on some
        # iterations of this cell, and fills in more there
        m = build_opf(overloaded_network("case30_grid", 0.95),
                      PowerFlowKind.DC, CostKind.DELTA)
        _, log = solve(m, SolverOptions(tol=1e-8))
        assert len({r.fill for r in log.records}) > 1

    def test_first_iteration_is_regularized(self):
        # at y = 0 the Hessian block is all stored zeros; unregularized,
        # the first K of an AC solve leaves SuperLU's diagonal and fills in
        m = build_opf(parse_case(case_text("case30_grid")),
                      PowerFlowKind.AC, CostKind.LAMBDA)
        res, log = solve(m)
        assert res.status == SolveStatus.OPTIMAL
        assert len({r.fill for r in log.records}) == 1
        m = build_opf(parse_case(case_text("case14_mesh")),
                      PowerFlowKind.AC, CostKind.LAMBDA)
        res, log = solve(m)
        assert res.status == SolveStatus.OPTIMAL
        assert log.records[0].reg == ipm_mod._REG_FLOOR
        assert log.records[0].inertia_corrections == 0

    def test_model_without_curvature_is_solved_as_an_lp(self):
        # case1_micro has no branches, so its SOC model has no cone rows:
        # an empty Hessian pattern makes it an LP, whose first K needs no
        # regularization
        m = build_opf(parse_case(case_text("case1_micro")),
                      PowerFlowKind.SOC, CostKind.LAMBDA)
        assert m.hess_pattern.nnz == 0
        res, log = solve(m)
        assert res.status == SolveStatus.OPTIMAL
        assert log.records[0].reg == 0.0

    def test_correction_warm_starts_from_the_last_one(self, monkeypatch):
        # Algorithm IC of Waechter & Biegler (2006): after a corrected
        # iteration, the ladder starts at kappa_w^- times the last delta_w
        # and grows by kappa_w^+.  factorize reports a wrong inertia for
        # the first `wrong` trials of each factor call, at one point of a
        # nonlinear model, so every kind of ladder is driven on purpose
        m = build_opf(parse_case(case_text("case9_loop")),
                      PowerFlowKind.AC, CostKind.LAMBDA)
        s = ipm_mod._Solve(m, SolverOptions())
        assert s.evaluate() is None
        s.update_barrier()
        # K is condensed: its primal block holds the model variables only
        right = (s.intake.nx, s.intake.m_int, 0)
        factorize = ipm_mod.factorize
        trials = []

        def misreporting(K, **kwargs):
            factor = factorize(K, **kwargs)
            factor.inertia = (right if len(trials) >= wrong
                              else (right[0] - 1, right[1] + 1, 0))
            trials.append(factor.inertia)
            return factor

        monkeypatch.setattr(ipm_mod, "factorize", misreporting)
        ladders = []
        for wrong in (3, 1, 2, 1, 1, 1, 1, 1, 3):
            trials.clear()
            _, _, reg, corrections = s.factor(1)
            assert corrections == wrong
            ladders.append((reg, corrections))
        # before any correction the ladder is cold: 1e-8, then x10
        reg, c = ladders[0]
        assert reg == ipm_mod._REG_FLOOR * ipm_mod._REG_GROWTH_COLD ** (c - 1)
        warm = [(reg_last, reg, c)
                for (reg_last, _), (reg, c) in zip(ladders, ladders[1:])]
        assert len(warm) >= 5
        for reg_last, reg, c in warm:
            assert reg == (max(ipm_mod._REG_FLOOR,
                               ipm_mod._KAPPA_W_MINUS * reg_last)
                           * ipm_mod._KAPPA_W_PLUS ** (c - 1))
        # warm starts that must grow, and ones that stop at the floor
        assert any(c > 1 for _, _, c in warm)
        assert any(ipm_mod._KAPPA_W_MINUS * reg_last < ipm_mod._REG_FLOOR
                   for reg_last, _, _ in warm)


class TestVariableScaling:
    # x = D x' at intake: D_j is a power of two on variables with a
    # finite bound above _SCALE_BOUND, and 1 on every other variable

    @staticmethod
    def _intake(name, pf, ck):
        m = build_opf(parse_case(case_text(name)), pf, ck)
        return m, ipm_mod._Intake(m.finalize())

    @pytest.mark.parametrize("name", case_names())
    @pytest.mark.parametrize("pf", list(PowerFlowKind))
    def test_psi_scales_exactly_its_cost_columns(self, name, pf):
        m, intake = self._intake(name, pf, CostKind.PSI)
        scaled = np.nonzero(intake.d != 1.0)[0]
        assert len(scaled)
        assert [m.var_names[j] for j in scaled] == [
            n for n in m.var_names if n.startswith("cg[")]
        mantissa, _ = np.frexp(intake.d[scaled])
        assert np.all(mantissa == 0.5) and np.all(intake.d[scaled] > 1.0)

    @pytest.mark.parametrize("name", case_names())
    @pytest.mark.parametrize("pf", list(PowerFlowKind))
    @pytest.mark.parametrize("ck", [CostKind.LAMBDA, CostKind.DELTA,
                                    CostKind.PHI])
    def test_other_encodings_scale_nothing(self, name, pf, ck):
        _, intake = self._intake(name, pf, ck)
        assert np.all(intake.d == 1.0)
        # the Jacobian and Hessian factors exist, and multiply by one
        assert np.all(intake.jac_d == 1.0) and np.all(intake.hess_d == 1.0)

    @pytest.mark.parametrize("pf", list(PowerFlowKind))
    def test_psi_results_are_in_model_units(self, pf):
        m = build_opf(parse_case(case_text("case30_grid")), pf, CostKind.PSI)
        res, _ = solve(m, SolverOptions(tol=1e-8))
        assert res.status == SolveStatus.OPTIMAL
        report = kkt_check(m, res)
        assert report.max_residual <= 1e-8
        assert report.max_residual == res.kkt_residual
        lo, up = m.variable_bounds()
        assert np.all((lo <= res.x) & (res.x <= up))

    def test_psi_iterations_match_lambda(self):
        # unscaled, the epigraph costs (bounds up to 5760) made this cell
        # take 120 iterations against lambda's 26
        net = parse_case(case_text("case30_grid"))
        iters = {}
        for ck in (CostKind.PSI, CostKind.LAMBDA):
            res, _ = solve(build_opf(net, PowerFlowKind.SOC, ck),
                           SolverOptions(tol=1e-8))
            assert res.status == SolveStatus.OPTIMAL
            iters[ck] = res.iterations
        assert iters[CostKind.PSI] <= 1.25 * iters[CostKind.LAMBDA]


def overloaded_network(name, margin):
    """Bundled case with every bus demand scaled so total active demand is
    ``margin`` times total generator pmax."""
    net = parse_case(case_text(name))
    pmax = sum(g.pmax for g in net.generators)
    factor = margin * pmax / sum(b.demand.re for b in net.buses)
    buses = tuple(
        replace(b, demand=ComplexPU(factor * b.demand.re, factor * b.demand.im))
        for b in net.buses
    )
    return replace(net, buses=buses, raw_tables=None)


def scaled_fixed_model():
    # d = 2^10, 2^12 and 2^7 on a, b and c; f and g fixed through equal
    # bounds; an inequality row, an equality row and a row with no finite
    # bound, which the intake drops
    m = ModelIR("scaled-fixed")
    for name, lo, up in [("a", 0.0, 1000.0), ("b", -5000.0, 300.0),
                         ("c", -INF, 150.0), ("f", 2.0, 2.0),
                         ("g", -1.0, -1.0), ("x", -1.0, 1.0),
                         ("w", -INF, INF)]:
        m.add_variable(name, lo, up, 0.0)
    m.add_block(QuadraticBlock(
        "rows", [-3.0, 1.0, -INF], [3.0, 1.0, INF],
        linear=([r for r in range(3) for _ in range(7)], list(range(7)) * 3,
                [1.0 + r - 0.5 * c for r in range(3) for c in range(7)])))
    m.add_objective_term(0, 1.0)
    return m.finalize()


class TestInfeasibilityDetection:
    def test_dual_bound_is_never_below_the_audit_denominator(self):
        # evaluate maps the duals for the blow-up test only once this
        # bound passes _DUAL_BLOWUP: it must hold for every dual vector
        m = scaled_fixed_model()
        intake, audit = ipm_mod._Intake(m), ipm_mod._Auditor(m)
        assert sorted(set(intake.d)) == [1.0, 128.0, 1024.0, 4096.0]
        assert intake.n_fix == 2 and intake.n_rows == m.nrows - 1
        rng = np.random.default_rng(18)
        for _ in range(2000):
            y = rng.normal(size=intake.m_int) * 10.0 ** rng.uniform(
                -3, 12, intake.m_int)
            v = 10.0 ** rng.uniform(-10, 12, len(intake.ib))
            obj_scale = 10.0 ** rng.uniform(-6, 0)
            dual_int = max(float(np.abs(y).max()), float(v.max()))
            assert ipm_mod._dual_bound(dual_int, obj_scale) >= (
                audit.denominator(*intake.map_duals(y, v, obj_scale)))

    def test_sparse_lp_infeasible_before_stall_window(self):
        # the dual regularization caps dual growth near 1/_DELTA_C, below a
        # blow-up threshold at that value; detection must not take the 30
        # iterations a stall window once waited
        m = build_opf(overloaded_network("case9_loop", 1.4),
                      PowerFlowKind.DC, CostKind.PSI)
        res, _ = solve(m)
        assert res.status == SolveStatus.INFEASIBLE
        assert res.iterations < 30

    def test_lp_correction_ladder_is_not_warm_started(self):
        # warm-starting the LP ladder took this cell to the iteration limit
        m = build_opf(overloaded_network("case5_ring", 0.995),
                      PowerFlowKind.DC, CostKind.PSI)
        res, _ = solve(m, SolverOptions(tol=1e-8))
        assert res.status == SolveStatus.INFEASIBLE
        assert res.iterations < 100

    @pytest.mark.parametrize("panel_size", [None, 1])
    def test_blowup_label_survives_a_change_in_rounding(self, monkeypatch,
                                                        panel_size):
        # psi once stalled here with its violation just under 1e-3, mu at
        # its floor and tiny steps; the SuperLU panel width (scipy's default
        # or one column) moves the last bits of every encoding, and must not
        # decide the dual blow-up label
        monkeypatch.setattr(kkt_mod, "_PANEL_SIZE", panel_size)
        for ck in (CostKind.PSI, CostKind.LAMBDA, CostKind.DELTA,
                   CostKind.PHI):
            m = build_opf(overloaded_network("case5_ring", 0.995),
                          PowerFlowKind.DC, ck)
            res, _ = solve(m, SolverOptions(tol=1e-8))
            assert res.status == SolveStatus.INFEASIBLE, ck
            assert res.iterations < 100, ck

    @pytest.mark.parametrize("ck", [CostKind.PSI, CostKind.LAMBDA,
                                    CostKind.DELTA, CostKind.PHI])
    @pytest.mark.parametrize("pf", [PowerFlowKind.AC, PowerFlowKind.SOC])
    @pytest.mark.parametrize("name, margin", [("case9_loop", 1.4),
                                              ("case5_ring", 0.995)])
    def test_nonlinear_overload_is_infeasible(self, name, margin, pf, ck):
        # one rule for every model: dual blow-up at an infeasible point;
        # these cells once ran all 500 iterations to the iteration limit
        m = build_opf(overloaded_network(name, margin), pf, ck)
        res, _ = solve(m, SolverOptions(tol=1e-8))
        assert res.status == SolveStatus.INFEASIBLE
        assert res.iterations < 100
        assert res.kkt_residual == kkt_check(m, res).max_residual

    @pytest.mark.parametrize("ck", [CostKind.PSI, CostKind.LAMBDA,
                                    CostKind.DELTA, CostKind.PHI])
    @pytest.mark.parametrize("pf", [PowerFlowKind.AC, PowerFlowKind.SOC])
    def test_nonlinear_near_capacity_stays_optimal(self, pf, ck):
        m = build_opf(overloaded_network("case5_ring", 0.95), pf, ck)
        res, _ = solve(m, SolverOptions(tol=1e-8))
        assert res.status == SolveStatus.OPTIMAL
        assert res.kkt_residual <= 1e-8


class TestUnknownInertia:
    def test_dc_optimal_where_superlu_leaves_the_diagonal(self):
        # SuperLU pivots off the diagonal at the free DC angle columns, so
        # the inertia is unknown and steps pass on the curvature test
        m = build_opf(overloaded_network("case30_grid", 0.95),
                      PowerFlowKind.DC, CostKind.DELTA)
        res, _ = solve(m, SolverOptions(tol=1e-8))
        assert res.status == SolveStatus.OPTIMAL
        assert res.iterations <= 30
        assert kkt_check(m, res).max_residual <= 1e-8


class TestKktCheck:
    def test_optimal_result_passes(self):
        m = lp_two_var()
        res, _ = solve(m)
        report = kkt_check(m, res)
        assert report.max_residual <= 1e-6
        assert report.max_residual == pytest.approx(res.kkt_residual)

    @pytest.mark.parametrize("pf", list(PowerFlowKind))
    @pytest.mark.parametrize("ck", [CostKind.PSI, CostKind.LAMBDA,
                                    CostKind.DELTA, CostKind.PHI])
    def test_audit_repeats_the_solver_residual_exactly(self, pf, ck):
        # the loop's stopping test and kkt_check share one auditor
        m = build_opf(parse_case(case_text("case9_loop")), pf, ck)
        res, _ = solve(m, SolverOptions(tol=1e-8))
        assert res.status == SolveStatus.OPTIMAL
        assert kkt_check(m, res).max_residual == res.kkt_residual

    def test_perturbed_point_fails(self):
        m = lp_two_var()
        res, _ = solve(m)
        res.x = res.x.copy()
        res.x[0] += 1e-3
        report = kkt_check(m, res)
        assert report.max_residual > 1e-6

    def test_hand_built_kkt_point(self):
        # epigraph form of min x^2 over free x: t free lower-bounded,
        # row x^2 - t <= 0 active at the origin with unit row dual
        m = ModelIR("minsq")
        ix = m.add_variable("x", -INF, INF, 1.0)
        it = m.add_variable("t", 0.0, INF, 1.0)
        m.add_block(QuadraticBlock(
            "epi", [-INF], [0.0], linear=([0], [it], [-1.0]),
            quadratic=([0], [ix], [ix], [1.0]),
        ))
        m.add_objective_term(it, 1.0)
        m.finalize()
        result = SolveResult(
            status=SolveStatus.OPTIMAL, objective=0.0,
            x=np.array([0.0, 0.0]), y=np.array([1.0]),
            zl=np.zeros(2), zu=np.zeros(2),
            kkt_residual=0.0, iterations=0, wall_time=0.0,
        )
        report = kkt_check(m, result)
        assert report.max_residual <= 1e-12


    @pytest.mark.parametrize("pf", [PowerFlowKind.AC, PowerFlowKind.DC])
    def test_iteration_limit_residual_is_the_returned_points(self, pf):
        # the residual was once the audit of the point one step earlier:
        # 2.26 against kkt_check's 0.66 (AC), 2.25 against 0.54 (DC)
        m = build_opf(parse_case(case_text("case9_loop")), pf,
                      CostKind.LAMBDA)
        res, _ = solve(m, SolverOptions(max_iter=3))
        assert res.status == SolveStatus.ITERATION_LIMIT
        assert res.kkt_residual == kkt_check(m, res).max_residual

    def test_infeasible_residual_is_the_returned_points(self):
        m = build_opf(overloaded_network("case5_ring", 1.4),
                      PowerFlowKind.DC, CostKind.LAMBDA)
        res, _ = solve(m)
        assert res.status == SolveStatus.INFEASIBLE
        assert res.kkt_residual == kkt_check(m, res).max_residual


def same_solve(a, b):
    (ra, la), (rb, lb) = a, b
    assert (ra.status, ra.iterations, repr(ra.objective),
            repr(ra.kkt_residual)) == (rb.status, rb.iterations,
                                       repr(rb.objective),
                                       repr(rb.kkt_residual))
    for va, vb in ((ra.x, rb.x), (ra.y, rb.y), (ra.zl, rb.zl),
                   (ra.zu, rb.zu)):
        assert va.tobytes() == vb.tobytes()
    assert len(la) == len(lb)


class TestAuditGate:
    """The KKT audit runs only once the internal residuals are within
    _GATE * tol; run on every iteration, it must change nothing."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-6])
    @pytest.mark.parametrize("name", case_names())
    def test_gate_never_skips_a_passing_audit(self, monkeypatch, name, tol):
        net = parse_case(case_text(name))
        cells = [(pf, ck) for pf in PowerFlowKind
                 for ck in (CostKind.PSI, CostKind.LAMBDA, CostKind.DELTA,
                            CostKind.PHI)]
        opts = SolverOptions(tol=tol)
        gated = [solve(build_opf(net, pf, ck), opts) for pf, ck in cells]
        monkeypatch.setattr(ipm_mod, "_GATE", math.inf)
        for (pf, ck), expected in zip(cells, gated):
            always = solve(build_opf(net, pf, ck), opts)
            assert all(r.audited for r in always[1].records)
            same_solve(expected, always)

    def test_gate_keeps_the_lp_infeasibility_label(self, monkeypatch):
        def run():
            return solve(build_opf(overloaded_network("case5_ring", 0.995),
                                   PowerFlowKind.DC, CostKind.PSI),
                         SolverOptions(tol=1e-8))
        gated = run()
        assert gated[0].status == SolveStatus.INFEASIBLE
        monkeypatch.setattr(ipm_mod, "_GATE", math.inf)
        same_solve(gated, run())

    def test_audit_runs_near_convergence_only(self):
        m = build_opf(parse_case(case_text("case30_grid")),
                      PowerFlowKind.AC, CostKind.LAMBDA)
        # at the default tol 1e-6, 1 of 17 rows; the last evaluation, the
        # one that ends the solve, is always audited but logs no row
        res, log = solve(m)
        assert res.status == SolveStatus.OPTIMAL
        audited = [r.audited for r in log.records]
        assert sum(audited) < len(audited) / 4
        assert audited[-1]


class TestCarriedEvaluation:
    """Each point is evaluated once: the line search's evaluation of the
    point it accepts is the next iteration's.  Before every ``evaluate``
    the carried evaluation must equal a fresh one of z, bit for bit."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Check the carried evaluation before every ``evaluate``; returns
        the z of each checked call and the number of accepted points that
        came from a second-order correction."""
        evaluate = ipm_mod._Solve.evaluate
        line_search = ipm_mod._Solve.line_search
        seen = {"z": [], "soc": 0}

        def checked_evaluate(slv):
            carried, fresh = slv.point, slv.evaluate_point(slv.z)
            assert np.array_equal(carried.raw, fresh.raw)
            assert np.array_equal(carried.h, fresh.h)
            assert np.array_equal(carried.gap, fresh.gap)
            assert carried.terms[1] == fresh.terms[1]
            seen["z"].append(slv.z)
            return evaluate(slv)

        def counted_line_search(slv, factor, step, dgap, alpha_max):
            out = line_search(slv, factor, step, dgap, alpha_max)
            # a corrected step returns its own gap change
            seen["soc"] += out is not None and out[2] is not dgap
            return out

        monkeypatch.setattr(ipm_mod._Solve, "evaluate", checked_evaluate)
        monkeypatch.setattr(ipm_mod._Solve, "line_search",
                            counted_line_search)
        return seen

    @pytest.mark.parametrize("name", case_names())
    def test_every_bundled_cell(self, checked, name):
        net = parse_case(case_text(name))
        for pf in PowerFlowKind:
            for ck in (CostKind.PSI, CostKind.LAMBDA, CostKind.DELTA,
                       CostKind.PHI):
                res, _ = solve(build_opf(net, pf, ck),
                               SolverOptions(tol=1e-8))
                assert res.status == SolveStatus.OPTIMAL, (pf, ck)
        assert checked["z"]

    def test_a_corrected_step_is_carried(self, checked):
        m = build_opf(parse_case(case_text("case5_ring")),
                      PowerFlowKind.AC, CostKind.LAMBDA)
        res, _ = solve(m, SolverOptions(tol=1e-8))
        assert res.status == SolveStatus.OPTIMAL
        assert checked["soc"] > 0

    def test_infeasible_lp_until_dual_blowup(self, checked):
        m = build_opf(overloaded_network("case5_ring", 0.995),
                      PowerFlowKind.DC, CostKind.PSI)
        res, _ = solve(m, SolverOptions(tol=1e-8))
        assert res.status == SolveStatus.INFEASIBLE
        assert len(checked["z"]) == res.iterations + 1

    def test_failed_line_searches_keep_the_point(self, checked, monkeypatch):
        # no trial point at all: every line search fails and z never moves
        monkeypatch.setattr(ipm_mod, "_MAX_BACKTRACKS", 0)
        m = build_opf(parse_case(case_text("case9_loop")),
                      PowerFlowKind.AC, CostKind.LAMBDA)
        res, log = solve(m)
        assert res.status == SolveStatus.NUMERICAL_ERROR
        assert len(log) == ipm_mod._MAX_LS_FAILURES - 1
        assert len(checked["z"]) == ipm_mod._MAX_LS_FAILURES
        assert all(z is checked["z"][0] for z in checked["z"])


class TestRandomLpsAgainstOracle:
    def test_small_random_lps(self):
        rng = np.random.default_rng(2024)
        solved = 0
        for trial in range(20):
            n = int(rng.integers(2, 5))
            m = ModelIR(f"rand{trial}")
            for j in range(n):
                m.add_variable(f"x{j}", 0.0, float(rng.uniform(1.0, 3.0)), 0.5)
            n_rows = int(rng.integers(1, 3))
            rows, cols, vals, lo, up = [], [], [], [], []
            for r in range(n_rows):
                for j in range(n):
                    rows.append(r)
                    cols.append(j)
                    vals.append(float(rng.uniform(-1.0, 1.0)))
                lo.append(-INF)
                up.append(float(rng.uniform(0.5, 2.0)))
            m.add_block(QuadraticBlock("rows", lo, up,
                                       linear=(rows, cols, vals)))
            for j in range(n):
                m.add_objective_term(j, float(rng.uniform(-2.0, 2.0)))
            m.finalize()
            res, _ = solve(m, SolverOptions(tol=1e-9))
            assert res.status == SolveStatus.OPTIMAL
            oracle = enumerate_lp_vertices(m)
            assert res.objective == pytest.approx(oracle, abs=1e-7)
            solved += 1
        assert solved == 20


def bound_kinds_model():
    # three variables each with both bounds, a lower bound only, an upper
    # bound only, no bound and equal bounds; inequality rows give slacks
    # with both, lower only and upper only ranges
    m = ModelIR("kinds")
    kinds = [(0.0, 1.0), (-1.0, INF), (-INF, 2.0), (-INF, INF), (0.5, 0.5)]
    for k in range(3):
        for j, (lo, up) in enumerate(kinds):
            m.add_variable(f"x{j}_{k}", lo, up, 0.25)
    m.add_block(QuadraticBlock(
        "rows", [-3.0, 0.0, -INF], [3.0, INF, 5.0], linear=(
            [r for r in range(3) for c in range(15)],
            [c for r in range(3) for c in range(15)],
            [1.0 + r + c for r in range(3) for c in range(15)],
        ),
    ))
    return m.finalize()


def masked_bounds(m):
    """Full-length internal bounds: variables then slacks, with variables
    fixed through equal bounds unbounded."""
    xlo, xup = m.variable_bounds()
    ineq = ~m.row_is_eq
    zlo = np.concatenate([xlo, m.row_lower[ineq]])
    zup = np.concatenate([xup, m.row_upper[ineq]])
    fixed = np.nonzero(np.isfinite(xlo) & (xlo == xup))[0]
    zlo[fixed], zup[fixed] = -INF, INF
    return zlo, zup, np.isfinite(zlo), np.isfinite(zup)


def masked_max_step(vals, step, lower, upper, mask_lo, mask_up):
    alpha = 1.0
    neg = mask_lo & (step < 0)
    if neg.any():
        alpha = min(alpha, float(np.min(
            -ipm_mod._TAU * (vals[neg] - lower[neg]) / step[neg])))
    pos = mask_up & (step > 0)
    if pos.any():
        alpha = min(alpha, float(np.min(
            ipm_mod._TAU * (upper[pos] - vals[pos]) / step[pos])))
    return max(alpha, 0.0)


class TestSignedBounds:
    """The signed compact bound vector against full-length masked
    arithmetic as the reference: the results must be equal bit for bit."""

    def random_point(self, rng, zlo, zup):
        z = rng.normal(size=len(zlo)) * 3.0
        both = np.isfinite(zlo) & np.isfinite(zup)
        z[both] = zlo[both] + rng.uniform(1e-6, 1.0, both.sum()) * (
            zup[both] - zlo[both])
        lo_only = np.isfinite(zlo) & ~np.isfinite(zup)
        z[lo_only] = zlo[lo_only] + np.exp(rng.normal(size=lo_only.sum()))
        up_only = np.isfinite(zup) & ~np.isfinite(zlo)
        z[up_only] = zup[up_only] - np.exp(rng.normal(size=up_only.sum()))
        return z

    def test_helpers_match_masked_reference(self):
        m = bound_kinds_model()
        intake = ipm_mod._Intake(m)
        zlo, zup, lo_f, up_f = masked_bounds(m)
        assert (lo_f & up_f).any() and (lo_f & ~up_f).any()
        assert (up_f & ~lo_f).any() and (~lo_f & ~up_f).any()
        assert len(intake.ib) == lo_f.sum() + up_f.sum()
        rng = np.random.default_rng(11)
        nz = intake.nz
        for _ in range(50):
            z = self.random_point(rng, zlo, zup)
            dz = rng.normal(size=nz) * 10.0 ** rng.uniform(-2, 2)
            zl = np.where(lo_f, rng.uniform(1e-8, 10.0, nz), 0.0)
            zu = np.where(up_f, rng.uniform(1e-8, 10.0, nz), 0.0)
            v = np.concatenate([zl[lo_f], zu[up_f]])
            mu = float(rng.uniform(1e-9, 1.0))
            obj = rng.normal(size=nz)

            gap_lo = np.where(lo_f, z - zlo, 1.0)
            gap_up = np.where(up_f, zup - z, 1.0)
            gap = ipm_mod._gaps(intake, z)
            assert np.array_equal(
                gap, np.concatenate([gap_lo[lo_f], gap_up[up_f]]))

            dgap = ipm_mod._gap_step(intake, dz)
            assert ipm_mod._max_step(gap, dgap) == masked_max_step(
                z, dz, zlo, zup, lo_f, up_f)

            dzl = np.where(lo_f, mu / gap_lo - zl - (zl / gap_lo) * dz, 0.0)
            dzu = np.where(up_f, mu / gap_up - zu + (zu / gap_up) * dz, 0.0)
            never = np.zeros(nz, dtype=bool)
            alpha_ref = min(
                masked_max_step(zl, dzl, np.zeros(nz), np.full(nz, INF),
                                lo_f, never),
                masked_max_step(zu, dzu, np.zeros(nz), np.full(nz, INF),
                                up_f, never),
            )
            dv, alpha = ipm_mod._dual_step(mu, gap, v, dgap)
            assert np.array_equal(dv, np.concatenate([dzl[lo_f], dzu[up_f]]))
            assert alpha == alpha_ref

            sigma = np.zeros(nz)
            sigma[lo_f] += (zl / gap_lo)[lo_f]
            sigma[up_f] += (zu / gap_up)[up_f]
            assert np.array_equal(ipm_mod._sigma(intake, gap, v), sigma)

            barrier = float(obj @ z)
            barrier -= mu * float(np.log(gap_lo[lo_f]).sum())
            barrier -= mu * float(np.log(gap_up[up_f]).sum())
            assert ipm_mod._barrier_value(
                ipm_mod._barrier_terms(intake, z, obj), mu) == barrier

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("offset", [0.0, 1e-3])
    def test_barrier_is_infinite_at_and_past_a_bound(self, side, offset):
        m = bound_kinds_model()
        intake = ipm_mod._Intake(m)
        zlo, zup, lo_f, up_f = masked_bounds(m)
        z = self.random_point(np.random.default_rng(5), zlo, zup)
        obj = np.ones(intake.nz)
        assert math.isfinite(ipm_mod._barrier_value(
            ipm_mod._barrier_terms(intake, z, obj), 0.1))
        if side == "lower":
            i = np.nonzero(lo_f & ~up_f)[0][0]
            z[i] = zlo[i] - offset
        else:
            i = np.nonzero(up_f & ~lo_f)[0][0]
            z[i] = zup[i] + offset
        assert ipm_mod._barrier_value(
            ipm_mod._barrier_terms(intake, z, obj), 0.1) == INF


def reference_kkt(m, W, diag, jac, delta_c):
    """[[W + diag, J^T], [J, -delta_c*I]] assembled block by block, with J
    the model Jacobian plus -1 slack columns on inequality rows and +1 fix
    rows on variables fixed through equal bounds."""
    lo, up = m.variable_bounds()
    ineq = np.nonzero(~m.row_is_eq)[0]
    fixed = np.nonzero(np.isfinite(lo) & (lo == up))[0]
    ns, nf = len(ineq), len(fixed)
    slack = sp.coo_matrix((-np.ones(ns), (ineq, np.arange(ns))),
                          shape=(m.nrows, ns))
    fix = sp.coo_matrix((np.ones(nf), (np.arange(nf), fixed)),
                        shape=(nf, m.nvars))
    J = sp.bmat([[jac, slack], [fix, sp.csr_matrix((nf, ns))]])
    H = sp.bmat([[W, None], [None, sp.csr_matrix((ns, ns))]]) + sp.diags(diag)
    return sp.bmat([[H, J.T], [J, -delta_c * sp.identity(m.nrows + nf)]],
                   format="csc")


def condensed_reference(K, nx, ns):
    """The Schur complement of the slack block of K, the dense
    [[W + diag, J^T], [J, -delta_c*I]] of ``reference_kkt``:
    K_kk - K_ks K_ss^-1 K_sk over the model variables and rows."""
    keep = np.r_[0:nx, nx + ns:K.shape[0]]
    slack = np.arange(nx, nx + ns)
    K_ss = np.diag(K[np.ix_(slack, slack)])
    return (K[np.ix_(keep, keep)] - K[np.ix_(keep, slack)]
            @ (K[np.ix_(slack, keep)] / K_ss[:, None]))


def inertia_of(K):
    """(positive, negative) eigenvalue counts of a dense symmetric K."""
    eig = np.linalg.eigvalsh(K)
    return int(np.sum(eig > 0)), int(np.sum(eig < 0))


class ExactFactor:
    """A dense exact solve of K stored as P K P^T, in K's own order: the
    factor a condensation test compares with, free of the rounding that
    SuperLU's unrefined solves keep within their residual check."""

    def __init__(self, K, perm):
        self._K = K.toarray()[np.ix_(perm, perm)]

    def solve(self, b):
        return np.linalg.solve(self._K, b)


def solver_points(m, count):
    """``_Solve`` objects of m at its first ``count`` iterates, each after
    its ``factor`` phase: W and the Jacobian hold the iterate's values,
    r1 and h its Newton right-hand side."""
    s = ipm_mod._Solve(m, SolverOptions(tol=1e-8))
    for it in range(count):
        assert s.evaluate() is None
        s.update_barrier()
        factor, step, _, _ = s.factor(it)
        yield s
        dgap = ipm_mod._gap_step(s.intake, step[:s.intake.nz])
        point = s.line_search(factor, step, dgap,
                              ipm_mod._max_step(s.point.gap, dgap))
        assert point is not None
        s.accept(*point)


KKT_MODELS = [f"case9_loop-{pf.value}-{ck.value}"
              for pf in PowerFlowKind
              for ck in (CostKind.PSI, CostKind.LAMBDA, CostKind.DELTA,
                         CostKind.PHI)] + ["fixed-pad250"]


def kkt_model(name):
    if name == "fixed-pad250":
        return fixed_variable_model(250)
    case, pf, ck = name.split("-")
    return build_opf(parse_case(case_text(case)), PowerFlowKind(pf),
                     CostKind(ck))


class TestKktAssembly:
    @pytest.mark.parametrize("name", KKT_MODELS)
    def test_pattern_assembly_matches_block_assembly(self, name):
        m = kkt_model(name)
        rng = np.random.default_rng(7)
        intake = ipm_mod._Intake(m)
        kkt = ipm_mod._Kkt(ipm_mod._KktPattern(m, intake))
        lo, up = m.variable_bounds()
        x0 = m.initial_point()
        x_rand = np.clip(x0 + 0.1 * rng.normal(size=m.nvars), lo, up)
        # y = 0 makes every Hessian value a stored zero
        points = [(x0, np.zeros(m.nrows)), (x_rand, rng.normal(size=m.nrows))]
        nx, ns = intake.nx, intake.ns
        n = nx + intake.m_int
        # K is stored in the pattern's fill order: P ref P^T
        P = np.zeros((n, n))
        P[kkt.perm, np.arange(n)] = 1.0
        pattern = None
        for x, y in points:
            W = eval_lagrangian_hessian(m, x, y)
            jac = eval_jacobian(m, x)
            # bounded slacks always carry a positive barrier term
            sigma = rng.uniform(0.0, 2.0, intake.nz)
            sigma[:nx:3] = 0.0
            sigma[nx:] += 0.5
            for delta_w in (0.0, 1e-4):
                for delta_c in (1e-10, 1e-6):
                    K = kkt.assemble(W, sigma, delta_w, jac, delta_c)
                    ref = P @ condensed_reference(reference_kkt(
                        m, W, sigma + delta_w, jac, delta_c).toarray(),
                        nx, ns) @ P.T
                    assert K.format == "csc" and K.shape == ref.shape
                    scale = abs(ref).max()
                    assert abs(K.toarray() - ref).max() <= 1e-14 * scale
                    # the pattern is the same for every assembly
                    if pattern is None:
                        pattern = (K.indptr.copy(), K.indices.copy())
                    assert np.array_equal(K.indptr, pattern[0])
                    assert np.array_equal(K.indices, pattern[1])

    @pytest.mark.parametrize("name", KKT_MODELS[:-1])
    def test_condensed_step_solves_the_full_system(self, name):
        # at iterates of a solve, the step of the condensed K, slacks
        # recovered, is the step of the full system assembled block by
        # block, and the condensed inertia is the full one less one
        # positive eigenvalue per slack
        m = kkt_model(name)
        for s in solver_points(m, 4):
            intake, kkt = s.intake, s.kkt
            sigma = ipm_mod._sigma(intake, s.point.gap, s.v)
            rhs = np.concatenate([s.r1, -s.point.h])
            for delta_w, delta_c in ((0.0, 1e-10), (1e-4, 1e-8)):
                K = kkt.assemble(s.W, sigma, delta_w, s.jac_model, delta_c)
                full = reference_kkt(m, s.W, sigma + delta_w, s.jac_model,
                                     delta_c).toarray()
                ref = np.linalg.solve(full, rhs)
                step = kkt.step(ExactFactor(K, kkt.perm), s.r1, -s.point.h)
                assert (np.abs(step - ref).max()
                        <= 1e-9 * np.abs(ref).max())
                # SuperLU's step meets the full system to the accuracy its
                # residual check asks of the condensed one
                factor = kkt_mod.factorize(K, perm=kkt.perm)
                step = kkt.step(factor, s.r1, -s.point.h)
                r_s = s.r1[intake.nx:] / (sigma[intake.nx:] + delta_w)
                assert np.abs(full @ step - rhs).max() <= (
                    kkt_mod._SOLVE_RTOL * (1.0 + np.abs(rhs).max()
                                           + np.abs(r_s).max()))
                pos, neg = inertia_of(full)
                assert inertia_of(condensed_reference(
                    full, intake.nx, intake.ns)) == (pos - intake.ns, neg)
                if factor.inertia is not None:
                    assert factor.inertia == (pos - intake.ns, neg, 0)

    def test_solve_builds_no_sparse_matrices_per_iteration(self,
                                                           monkeypatch):
        m = build_opf(parse_case(case_text("case9_loop")),
                      PowerFlowKind.AC, CostKind.LAMBDA)

        def rebuild(*args, **kwargs):
            raise AssertionError("sparse matrix rebuilt inside the solve")

        for name in ("bmat", "hstack", "vstack", "diags", "identity"):
            monkeypatch.setattr(sp, name, rebuild)
        monkeypatch.setattr(sp.coo_matrix, "tocsr", rebuild)
        res, _ = solve(m)
        assert res.status == SolveStatus.OPTIMAL

    def test_solve_orders_the_pattern_once(self, monkeypatch):
        m = build_opf(parse_case(case_text("case9_loop")),
                      PowerFlowKind.AC, CostKind.LAMBDA)
        gstrf = kkt_mod._superlu.gstrf
        orderings, intakes = [], []

        def counting_gstrf(*args, options, **kwargs):
            orderings.append(options["ColPerm"])
            return gstrf(*args, options=options, **kwargs)

        def counting_intake(model):
            intakes.append(model)
            return intake(model)

        intake = ipm_mod._Intake
        monkeypatch.setattr(kkt_mod._superlu, "gstrf", counting_gstrf)
        monkeypatch.setattr(ipm_mod, "_Intake", counting_intake)
        res, log = solve(m)
        assert res.status == SolveStatus.OPTIMAL
        # the pattern is ordered once, before any factorization; then one
        # natural-order factorization per iteration and per correction
        factorizations = len(log) + sum(
            r.inertia_corrections for r in log.records)
        assert orderings[0] == "MMD_AT_PLUS_A"
        assert orderings.count("MMD_AT_PLUS_A") == 1
        assert orderings.count("NATURAL") == factorizations
        assert len(orderings) == 1 + factorizations
        assert len(intakes) == 1
        # a second solve of the model reuses its structure: no ordering
        # and no intake
        orderings.clear()
        solve(m, SolverOptions(tol=1e-8))
        assert orderings and set(orderings) == {"NATURAL"}
        assert len(intakes) == 1

    def test_sparse_matrices_built_per_solve_not_per_iteration(
            self, monkeypatch):
        init = _cs_matrix.__init__
        built = []

        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(_cs_matrix, "__init__", counting_init)
        counts = []
        for max_iter in (5, 10):
            m = build_opf(parse_case(case_text("case9_loop")),
                          PowerFlowKind.AC, CostKind.LAMBDA)
            built.clear()
            res, log = solve(m, SolverOptions(max_iter=max_iter))
            assert res.status == SolveStatus.ITERATION_LIMIT
            assert len(log) == max_iter
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_failed_correction_solve_is_skipped(self, monkeypatch):
        # a second-order-correction solve that fails its residual check
        # must only cost the correction, not end the solve; this cell
        # tries three corrections
        m = build_opf(parse_case(case_text("case5_ring")),
                      PowerFlowKind.AC, CostKind.LAMBDA)
        factorize = ipm_mod.factorize
        failed = []

        def first_solve_only(K, **kwargs):
            factor = factorize(K, **kwargs)
            step_solve = factor.solve
            calls = []

            def solve_step_only(b):
                calls.append(b)
                if len(calls) > 1:
                    failed.append(True)
                    raise kkt_mod.FactorizationError("numerically singular")
                return step_solve(b)

            factor.solve = solve_step_only
            return factor

        monkeypatch.setattr(ipm_mod, "factorize", first_solve_only)
        res, _ = solve(m)
        assert failed
        assert res.status == SolveStatus.OPTIMAL
        assert kkt_check(m, res).max_residual <= 1e-6

    def test_solve_calls_the_module_attributes_tracing_wraps(
            self, monkeypatch):
        # perfbench's tracer wraps these module attributes; solve must
        # look each one up when it calls it
        calls = {}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        for name in ("factorize", "_barrier_value", "eval_jacobian",
                     "eval_lagrangian_hessian"):
            monkeypatch.setattr(ipm_mod, name,
                                counting(name, getattr(ipm_mod, name)))
        monkeypatch.setattr(ModelIR, "eval_raw_rows",
                            counting("eval_raw_rows", ModelIR.eval_raw_rows))
        m = build_opf(parse_case(case_text("case9_loop")),
                      PowerFlowKind.AC, CostKind.LAMBDA)
        res, log = solve(m)
        assert res.status == SolveStatus.OPTIMAL
        assert calls["factorize"] == len(log) + sum(
            r.inertia_corrections for r in log.records)
        # one Jacobian per iteration and one at the optimum; two barrier
        # values per iteration: the line search's start and one trial; rows
        # at x0, at z0 and at each trial point, each evaluated once
        assert calls == {"factorize": 16, "_barrier_value": 32,
                         "eval_jacobian": 17, "eval_lagrangian_hessian": 16,
                         "eval_raw_rows": 18}
        # a second solve takes z0 and its rows from the model's structure
        calls.clear()
        solve(m)
        assert calls == {"factorize": 16, "_barrier_value": 32,
                         "eval_jacobian": 17, "eval_lagrangian_hessian": 16,
                         "eval_raw_rows": 16}


def identical_solve(a, b):
    """``same_solve``, and the same iteration log, row for row."""
    same_solve(a, b)
    assert a[1].to_csv() == b[1].to_csv()


class TestStructure:
    """Each model's solver structure is built at its first solve and
    reused by every later one, which must take the same steps, bit for
    bit, whatever the options."""

    @staticmethod
    def model(pf=PowerFlowKind.AC):
        # psi scales its cost columns; case9_loop has inequality rows
        return build_opf(parse_case(case_text("case9_loop")), pf,
                         CostKind.PSI)

    @pytest.mark.parametrize("pf", list(PowerFlowKind))
    def test_warm_solve_is_the_cold_one(self, pf):
        m = self.model(pf)
        cold = solve(m, SolverOptions(tol=1e-8))
        assert cold[0].status == SolveStatus.OPTIMAL
        identical_solve(cold, solve(m, SolverOptions(tol=1e-8)))

    def test_warm_solve_at_other_options(self):
        m = self.model()
        assert solve(m, SolverOptions(tol=1e-8))[0].status == (
            SolveStatus.OPTIMAL)
        for opts in (SolverOptions(tol=1e-6), SolverOptions(max_iter=5)):
            identical_solve(solve(self.model(), opts), solve(m, opts))

    def test_two_threads_solving_one_model(self):
        opts = SolverOptions(tol=1e-8)
        expected = solve(self.model(), opts)
        m = self.model()
        results = []
        start = threading.Barrier(2, timeout=60)

        def run():
            start.wait()
            results.append(solve(m, opts))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # the first round builds the structure in both threads at once,
            # the second shares it
            for _ in range(2):
                threads = [threading.Thread(target=run) for _ in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(switch)
        assert len(results) == 4
        for result in results:
            identical_solve(expected, result)

    def test_structure_dies_with_its_model(self):
        m = self.model()
        solve(m)
        assert m in ipm_mod._STRUCTURES
        alive = weakref.ref(m)
        del m
        gc.collect()
        assert alive() is None

    def test_structure_arrays_are_read_only(self):
        m = self.model()
        solve(m)
        st = ipm_mod._STRUCTURES[m]
        arrays = [a for part in (st, st.intake, st.audit, st.kkt, st.kkt.csc)
                  for a in vars(part).values() if isinstance(a, np.ndarray)]
        arrays += [st.point0.raw, st.point0.h, st.point0.gap]
        assert len(arrays) >= 30
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
