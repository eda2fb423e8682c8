import hashlib

import numpy as np
import pytest

from opfbench.cases import case_names, case_text
from opfbench.errors import (
    ConvexityError,
    ModelBuildError,
    RecoveryMismatchError,
)
from opfbench.formulations import (
    PWL_COST_KINDS,
    CostKind,
    PowerFlowKind,
    attach_cost_delta,
    attach_cost_lambda,
    attach_cost_phi,
    attach_cost_polynomial,
    attach_cost_psi,
    build_opf,
    build_power_flow,
    recover_solution,
)
from opfbench.ipm import SolverOptions, solve
from opfbench.modelir import SolveStatus, dump_model
from opfbench.netdata import Bus, Branch, ComplexPU, Generator, Network, parse_case
from opfbench.pwlcost import PiecewiseCost, PolynomialCost, PwlCurve

TIGHT = SolverOptions(tol=1e-8)


def single_bus_network(load_re, load_im, pmin, pmax, cost,
                       qmin=-5.0, qmax=5.0):
    gen = Generator(bus=1, pmin=pmin, pmax=pmax, qmin=qmin, qmax=qmax,
                    cost=cost)
    return Network(
        base_mva=100.0,
        buses=(Bus(1, 3, 0.9, 1.1, ComplexPU(load_re, load_im)),),
        branches=(),
        generators=(gen,),
        gens_at_bus={1: (0,)},
    )


def curve_cost(points):
    return PiecewiseCost(PwlCurve.from_points(points))


def three_bus_network():
    return parse_case(case_text("case3_cycle"))


class TestPowerFlowStructure:
    def test_dc_counts(self):
        net = three_bus_network()
        m = build_power_flow(net, PowerFlowKind.DC).finalize()
        assert len(net.buses) == 3 and len(net.branches) == 3
        assert len(net.generators) == 2
        # p^g per generator, theta per bus, p_ij per orientation
        assert m.nvars == 2 + 3 + 6
        # balance + Ohm + angle-difference + reference pin
        assert m.nrows == 3 + 6 + 3 + 1
        # thermal limits live on the flow-variable bounds
        lo, up = m.variable_bounds()
        for a, idx in enumerate(m.meta["flow_p"]):
            rate = net.branches[m.meta["oriented"][a][0]].rate
            assert up[idx] == rate and lo[idx] == -rate

    def test_soc_single_cone_per_branch(self):
        net = parse_case(case_text("case2_line"))
        m = build_power_flow(net, PowerFlowKind.SOC)
        cones = [b for b in m.blocks if b.label == "voltage-product-cone"]
        assert len(cones) == 1
        assert cones[0].nrows == 1

    def test_ac_single_bus_balance_forces_dispatch(self):
        net = single_bus_network(1.0, 0.2, 0.0, 2.0,
                                 curve_cost([(0, 0), (1, 10), (2, 30)]))
        m = build_opf(net, PowerFlowKind.AC, CostKind.LAMBDA)
        res, _ = solve(m, TIGHT)
        assert res.status == SolveStatus.OPTIMAL
        sol = recover_solution(m, PowerFlowKind.AC, CostKind.LAMBDA, res)
        assert sol.dispatch[0].re == pytest.approx(1.0, abs=1e-7)
        assert sol.dispatch[0].im == pytest.approx(0.2, abs=1e-7)

    def test_reference_bus_pinned(self):
        net = three_bus_network()
        for kind in (PowerFlowKind.AC, PowerFlowKind.DC):
            m = build_opf(net, kind, CostKind.LAMBDA)
            res, _ = solve(m, TIGHT)
            ref = net.reference_bus
            assert abs(res.x[m.meta["th_idx"][ref]]) <= 1e-9

    def test_zero_rate_branch_is_unlimited(self):
        net = three_bus_network()
        branches = tuple(
            Branch(br.from_bus, br.to_bus, br.series_impedance, br.charging,
                   br.tap_ratio, 0.0, br.angmin, br.angmax)
            for br in net.branches
        )
        unlimited = Network(net.base_mva, net.buses, branches,
                            net.generators, net.gens_at_bus)
        m_ac = build_power_flow(unlimited, PowerFlowKind.AC)
        assert all(b.label != "thermal" for b in m_ac.blocks)
        m_dc = build_power_flow(unlimited, PowerFlowKind.DC).finalize()
        lo, up = m_dc.variable_bounds()
        for idx in m_dc.meta["flow_p"]:
            assert lo[idx] == -np.inf and up[idx] == np.inf


class TestFlowPhysics:
    def test_polar_rows_match_complex_arithmetic(self):
        # evaluate the Ohm's-law rows at random operating points and compare
        # with a direct complex computation of the pi-branch flows
        # (series admittance, split charging, off-nominal tap)
        import cmath

        net = parse_case(case_text("case5_ring"))
        m = build_power_flow(net, PowerFlowKind.AC).finalize()
        rng = np.random.default_rng(31)
        block = next(b for b in m.blocks if b.label == "ohm-polar")
        for _ in range(20):
            x = m.initial_point()
            for bus in net.buses:
                x[m.meta["v_idx"][bus.id]] = rng.uniform(0.92, 1.08)
                x[m.meta["th_idx"][bus.id]] = rng.uniform(-0.3, 0.3)
            res = block.residual(x)
            row = 0
            for a, (e, f, t, fwd) in enumerate(m.meta["oriented"]):
                br = net.branches[e]
                r, xx = br.series_impedance.re, br.series_impedance.im
                y = 1.0 / complex(r, xx)
                tap = br.effective_tap
                ysh = complex(0.0, br.charging / 2.0)
                vf = cmath.rect(x[m.meta["v_idx"][f]],
                                x[m.meta["th_idx"][f]])
                vt = cmath.rect(x[m.meta["v_idx"][t]],
                                x[m.meta["th_idx"][t]])
                if fwd:
                    s = vf * ((y + ysh) / tap ** 2 * vf
                              - y / tap * vt).conjugate()
                else:
                    s = vf * ((y + ysh) * vf - y / tap * vt).conjugate()
                # rows alternate active then reactive per oriented branch
                assert res[row] == pytest.approx(-s.real, abs=1e-10)
                assert res[row + 1] == pytest.approx(-s.imag, abs=1e-10)
                row += 2


    def test_lifted_rows_consistent_with_polar_solution(self):
        # lift a solved polar operating point into the W variables: the
        # lifted model's Ohm rows must reproduce the same flows and the
        # cone rows must sit exactly on their boundary
        net = parse_case(case_text("case5_ring"))
        m_ac = build_opf(net, PowerFlowKind.AC, CostKind.LAMBDA)
        res, _ = solve(m_ac, TIGHT)
        sol = recover_solution(m_ac, PowerFlowKind.AC, CostKind.LAMBDA, res)
        vm = dict(zip(sol.bus_ids, (v for v, _ in sol.voltage)))
        va = dict(zip(sol.bus_ids, (a for _, a in sol.voltage)))

        m_soc = build_power_flow(net, PowerFlowKind.SOC).finalize()
        x = m_soc.initial_point()
        for bus_id in sol.bus_ids:
            x[m_soc.meta["w_idx"][bus_id]] = vm[bus_id] ** 2
        for e, br in enumerate(net.branches):
            f, t = br.from_bus, br.to_bus
            prod = vm[f] * vm[t]
            dth = va[f] - va[t]
            x[m_soc.meta["wr_idx"][e]] = prod * np.cos(dth)
            x[m_soc.meta["wi_idx"][e]] = prod * np.sin(dth)
        for a, flow in enumerate(sol.flows):
            x[m_soc.meta["flow_p"][a]] = flow.p
            x[m_soc.meta["flow_q"][a]] = flow.q
        ohm = next(b for b in m_soc.blocks if b.label == "ohm-lifted")
        assert np.abs(ohm.residual(x)).max() <= 1e-9
        cone = next(b for b in m_soc.blocks
                    if b.label == "voltage-product-cone")
        assert np.abs(cone.residual(x)).max() <= 1e-9


class TestCostAttachmentCounts:
    def curves(self, *sizes):
        gens = []
        for n in sizes:
            pts = [(float(l), float(l * l)) for l in range(n)]
            gens.append(Generator(1, 0.0, float(n - 1), -1.0, 1.0,
                                  curve_cost(pts)))
        return gens

    def base_model(self, gens):
        net = Network(
            base_mva=100.0,
            buses=(Bus(1, 3, 0.9, 1.1, ComplexPU(0.5, 0.0)),),
            branches=(),
            generators=tuple(gens),
            gens_at_bus={1: tuple(range(len(gens)))},
        )
        return build_power_flow(net, PowerFlowKind.DC), net

    @pytest.mark.parametrize("sizes", [(3,), (4, 3), (2, 5, 6)])
    def test_sizes_match_closed_forms(self, sizes):
        gens = self.curves(*sizes)
        p = list(sizes)

        m, _ = self.base_model(gens)
        v0, r0 = len(m.var_names), sum(b.nrows for b in m.blocks)
        attach_cost_psi(m, gens)
        assert len(m.var_names) - v0 == len(p)
        assert sum(b.nrows for b in m.blocks) - r0 == sum(n - 1 for n in p)

        m, _ = self.base_model(gens)
        v0, r0 = len(m.var_names), sum(b.nrows for b in m.blocks)
        attach_cost_lambda(m, gens)
        assert len(m.var_names) - v0 == sum(p)
        assert sum(b.nrows for b in m.blocks) - r0 == 2 * len(p)

        m, _ = self.base_model(gens)
        v0, r0 = len(m.var_names), sum(b.nrows for b in m.blocks)
        attach_cost_delta(m, gens)
        assert len(m.var_names) - v0 == sum(n - 1 for n in p)
        assert sum(b.nrows for b in m.blocks) - r0 == len(p)

        m, _ = self.base_model(gens)
        v0, r0 = len(m.var_names), sum(b.nrows for b in m.blocks)
        attach_cost_phi(m, gens)
        assert len(m.var_names) - v0 == sum(n - 2 for n in p)
        assert sum(b.nrows for b in m.blocks) - r0 == sum(n - 2 for n in p)

    def test_pwl_attachment_rejects_polynomial_cost(self):
        gen = Generator(1, 0.0, 1.0, -1.0, 1.0, PolynomialCost(0.0, 1.0, 0.0))
        m, _ = self.base_model([gen])
        with pytest.raises(ModelBuildError):
            attach_cost_lambda(m, [gen])


def solve_single_bus(load, cost_kind, points, pmin=None, pmax=None):
    powers = [p for p, _ in points]
    net = single_bus_network(
        load, 0.0,
        powers[0] if pmin is None else pmin,
        powers[-1] if pmax is None else pmax,
        curve_cost(points),
    )
    m = build_opf(net, PowerFlowKind.DC, cost_kind)
    res, _ = solve(m, TIGHT)
    assert res.status == SolveStatus.OPTIMAL
    return m, res


class TestEncodingSemantics:
    def test_psi_linear_cost_reduces_to_slope(self):
        m, res = solve_single_bus(0.6, CostKind.PSI, [(0, 0), (1, 5)])
        assert res.objective == pytest.approx(3.0, abs=1e-6)

    def test_lambda_vertex_at_breakpoint(self):
        points = [(0.0, 0.0), (1.0, 10.0), (2.0, 30.0)]
        m, res = solve_single_bus(1.0, CostKind.LAMBDA, points)
        lam = [res.x[i] for i in range(m.meta["pg_idx"][0] + 1, m.nvars)]
        assert res.objective == pytest.approx(10.0, abs=1e-6)
        assert lam[1] == pytest.approx(1.0, abs=1e-6)
        assert lam[0] == pytest.approx(0.0, abs=1e-6)
        assert lam[2] == pytest.approx(0.0, abs=1e-6)

    def test_lambda_midpoint_interpolates(self):
        points = [(0.0, 0.0), (1.0, 10.0), (2.0, 30.0)]
        m, res = solve_single_bus(0.5, CostKind.LAMBDA, points)
        # lp oracle on the two-variable subproblem: weights (0.5, 0.5)
        assert res.objective == pytest.approx(5.0, abs=1e-6)

    def _bin_model(self, points, cost_kind):
        net = single_bus_network(0.5, 0.0, points[0][0], points[-1][0],
                                 curve_cost(points))
        return build_opf(net, PowerFlowKind.DC, cost_kind)

    def _assignment(self, m, dispatch, aux):
        x = m.initial_point()
        x[m.meta["pg_idx"][0]] = dispatch
        for name, val in aux.items():
            x[m.var_names.index(name)] = val
        return x

    def test_delta_at_first_breakpoint(self):
        # all bins empty: the encoding evaluates to the first-point cost
        points = [(0.2, 7.0), (1.0, 15.0), (2.0, 35.0)]
        m = self._bin_model(points, CostKind.DELTA)
        x = self._assignment(m, 0.2, {"dpg[0,0]": 0.0, "dpg[0,1]": 0.0})
        assert m.eval_objective(x) == pytest.approx(7.0)

    def test_delta_telescopes_to_last_cost(self):
        # all bins full: first cost plus slope*width sums telescope to the
        # last breakpoint cost
        points = [(0.0, 0.0), (1.0, 10.0), (2.0, 30.0)]
        m = self._bin_model(points, CostKind.DELTA)
        x = self._assignment(m, 2.0, {"dpg[0,0]": 1.0, "dpg[0,1]": 1.0})
        assert m.eval_objective(x) == pytest.approx(30.0)
        # the linking row holds at this assignment
        bins = next(b for b in m.blocks if b.label == "cost-bins")
        assert bins.residual(x)[0] == pytest.approx(0.0)

    def test_phi_first_segment_identity(self):
        points = [(0.0, 0.0), (1.0, 10.0), (2.0, 30.0)]
        m, res = solve_single_bus(0.7, CostKind.PHI, points)
        assert res.objective == pytest.approx(7.0, abs=1e-6)

    def test_phi_at_last_breakpoint(self):
        # scaled form of [(0,0),(10,10),(20,30)]: tight excess variable
        # gives 1*x + 0 + (2-1)*excess = 30 at the top breakpoint
        points = [(0.0, 0.0), (1.0, 10.0), (2.0, 30.0)]
        m = self._bin_model(points, CostKind.PHI)
        x = self._assignment(m, 2.0, {"phi[0,1]": 1.0})
        assert m.eval_objective(x) == pytest.approx(30.0)
        rows = next(b for b in m.blocks if b.label == "cost-excess")
        assert rows.residual(x)[0] >= rows.row_lower[0] - 1e-12


class TestPolynomialCosts:
    def test_pure_linear_no_quadratic_row(self):
        net = single_bus_network(0.5, 0.0, 0.0, 2.0,
                                 PolynomialCost(0.0, 1.0, 0.0))
        m = build_opf(net, PowerFlowKind.DC, CostKind.POLYNOMIAL)
        assert all(b.label != "cost-quadratic-epigraph" for b in m.blocks)
        res, _ = solve(m, TIGHT)
        assert res.objective == pytest.approx(0.5, abs=1e-7)

    def test_quadratic_recovered_cost(self):
        net = single_bus_network(2.0, 0.0, 0.0, 3.0,
                                 PolynomialCost(3.0, 2.0, 1.0))
        m = build_opf(net, PowerFlowKind.DC, CostKind.POLYNOMIAL)
        res, _ = solve(m, TIGHT)
        assert res.objective == pytest.approx(11.0, abs=1e-5)
        sol = recover_solution(m, PowerFlowKind.DC, CostKind.POLYNOMIAL, res)
        assert sol.gen_costs[0] == pytest.approx(11.0, abs=1e-5)

    def test_negative_curvature_rejected(self):
        net = single_bus_network(0.5, 0.0, 0.0, 2.0,
                                 PolynomialCost(0.0, 1.0, -1.0))
        with pytest.raises(ConvexityError):
            build_opf(net, PowerFlowKind.DC, CostKind.POLYNOMIAL,
                      validate=False)

    def test_unit_quadratic_single_bus_ac(self):
        net = single_bus_network(1.0, 0.0, 0.0, 3.0,
                                 PolynomialCost(0.0, 0.0, 1.0))
        m = build_opf(net, PowerFlowKind.AC, CostKind.POLYNOMIAL)
        res, _ = solve(m, TIGHT)
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(1.0, abs=1e-6)

    def test_equal_marginal_cost_split_vs_grid_oracle(self):
        # two quadratic generators on a two-bus link, load 1.0
        g1 = Generator(1, 0.0, 2.0, -1.0, 1.0, PolynomialCost(0.0, 1.0, 2.0))
        g2 = Generator(2, 0.0, 2.0, -1.0, 1.0, PolynomialCost(0.0, 1.5, 3.0))
        net = Network(
            base_mva=100.0,
            buses=(Bus(1, 3, 0.9, 1.1, ComplexPU(0.0, 0.0)),
                   Bus(2, 1, 0.9, 1.1, ComplexPU(1.0, 0.0))),
            branches=(Branch(1, 2, ComplexPU(0.0, 0.1), 0.0, 0.0, 0.0,
                             -0.5236, 0.5236),),
            generators=(g1, g2),
            gens_at_bus={1: (0,), 2: (1,)},
        )
        m = build_opf(net, PowerFlowKind.DC, CostKind.POLYNOMIAL)
        res, _ = solve(m, TIGHT)
        assert res.status == SolveStatus.OPTIMAL

        def total(p1):
            p2 = 1.0 - p1
            return (1.0 * p1 + 2.0 * p1 ** 2) + (1.5 * p2 + 3.0 * p2 ** 2)

        grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        oracle = min(total(p) for p in grid)
        assert res.objective == pytest.approx(oracle, abs=1e-4)


class TestRecovery:
    def test_lambda_linking_row_consistency(self):
        net = three_bus_network()
        m = build_opf(net, PowerFlowKind.DC, CostKind.LAMBDA)
        res, _ = solve(m, TIGHT)
        sol = recover_solution(m, PowerFlowKind.DC, CostKind.LAMBDA, res)
        for k, curve in enumerate(m.meta["cost_curves"]):
            lam_sum = 0.0
            recon = 0.0
            for l, (p, _) in enumerate(curve.points):
                idx = m.var_names.index(f"lam[{k},{l}]")
                lam_sum += res.x[idx]
                recon += p * res.x[idx]
            assert lam_sum == pytest.approx(1.0, abs=1e-8)
            assert recon == pytest.approx(sol.dispatch[k].re, abs=1e-8)

    def test_lambda_two_sparse_support(self):
        net = three_bus_network()
        m = build_opf(net, PowerFlowKind.DC, CostKind.LAMBDA)
        res, _ = solve(m, TIGHT)
        for k, curve in enumerate(m.meta["cost_curves"]):
            weights = []
            for l in range(len(curve.points)):
                idx = m.var_names.index(f"lam[{k},{l}]")
                weights.append(res.x[idx])
            support = [l for l, w in enumerate(weights) if w > 1e-6]
            assert len(support) <= 2
            if len(support) == 2:
                assert support[1] == support[0] + 1

    def test_soc_lower_bounds_ac(self):
        net = parse_case(case_text("case2_line"))
        m_ac = build_opf(net, PowerFlowKind.AC, CostKind.LAMBDA)
        m_soc = build_opf(net, PowerFlowKind.SOC, CostKind.LAMBDA)
        res_ac, _ = solve(m_ac, TIGHT)
        res_soc, _ = solve(m_soc, TIGHT)
        assert res_soc.objective <= res_ac.objective + 1e-6 * abs(
            res_ac.objective
        )

    def test_ac_recovered_solution_feasible(self):
        net = parse_case(case_text("case5_ring"))
        m = build_opf(net, PowerFlowKind.AC, CostKind.DELTA)
        res, _ = solve(m, TIGHT)
        sol = recover_solution(m, PowerFlowKind.AC, CostKind.DELTA, res)
        # per-bus balance from recovered quantities alone
        for b, bus in enumerate(net.buses):
            inj_p = sum(
                sol.dispatch[k].re for k in net.gens_at_bus.get(bus.id, ())
            ) - bus.demand.re
            inj_q = sum(
                sol.dispatch[k].im for k in net.gens_at_bus.get(bus.id, ())
            ) - bus.demand.im
            out_p = sum(f.p for f in sol.flows if f.from_bus == bus.id)
            out_q = sum(f.q for f in sol.flows if f.from_bus == bus.id)
            assert inj_p == pytest.approx(out_p, abs=1e-6)
            assert inj_q == pytest.approx(out_q, abs=1e-6)
        # thermal limits and voltage bounds
        for a, f in enumerate(sol.flows):
            rate = net.branches[m.meta["oriented"][a][0]].rate
            if rate > 0:
                assert np.hypot(f.p, f.q) <= rate * (1 + 1e-6)
        for (vm, _), bus in zip(sol.voltage, net.buses):
            assert bus.vmin - 1e-8 <= vm <= bus.vmax + 1e-8

    @pytest.mark.xfail(strict=True, raises=RecoveryMismatchError,
                       reason="ROADMAP item 2: audit denominator hides the "
                              "error")
    def test_degenerate_psi_recovers_its_objective(self):
        # one bus, no demand, pmax 1 MW, curve (0 MW, $0)-(100 MW, $1000):
        # psi ends optimal with objective 1.68e-5 against a recomputed
        # 6.07e-7, its duals near 1.3e4 shrinking every audited residual
        net = single_bus_network(0.0, 0.0, 0.0, 0.01,
                                 curve_cost([(0.0, 0.0), (1.0, 1000.0)]))
        m = build_opf(net, PowerFlowKind.DC, CostKind.PSI)
        res, _ = solve(m, TIGHT)
        assert res.status == SolveStatus.OPTIMAL
        recover_solution(m, PowerFlowKind.DC, CostKind.PSI, res)

    def test_recovery_requires_optimal(self):
        net = three_bus_network()
        m = build_opf(net, PowerFlowKind.DC, CostKind.LAMBDA)
        res, _ = solve(m, SolverOptions(max_iter=1))
        with pytest.raises(ModelBuildError):
            recover_solution(m, PowerFlowKind.DC, CostKind.LAMBDA, res)


def non_rising_curves_network():
    """case5_ring with a decreasing curve on generator 1 and a V-shaped one
    on generator 2: convex curves whose first cost is not their least nor
    their last cost their greatest."""
    text = case_text("case5_ring")
    for old, new in [
        ("1\t0\t0\t3\t10\t120\t65\t1440\t120\t3200;",
         "1\t0\t0\t2\t10\t2500\t120\t260;"),
        ("1\t0\t0\t2\t10\t260\t90\t2500;",
         "1\t0\t0\t3\t10\t2500\t50\t260\t90\t2500;"),
    ]:
        assert old in text
        text = text.replace(old, new)
    return parse_case(text)


class TestCrossEncodingEquivalence:
    @pytest.mark.parametrize("make_net", [three_bus_network,
                                          non_rising_curves_network])
    @pytest.mark.parametrize("pf", [PowerFlowKind.DC, PowerFlowKind.SOC,
                                    PowerFlowKind.AC])
    def test_four_encodings_agree(self, pf, make_net):
        net = make_net()
        objs = []
        for ck in (CostKind.PSI, CostKind.LAMBDA, CostKind.DELTA,
                   CostKind.PHI):
            m = build_opf(net, pf, ck)
            res, _ = solve(m, TIGHT)
            assert res.status == SolveStatus.OPTIMAL
            objs.append(res.objective)
        ref = objs[1]
        for o in objs:
            assert abs(o - ref) <= 1e-5 * max(1.0, abs(ref))


class TestModelLayout:
    # sha256 over dump_model of every bundled case x power-flow kind x
    # piecewise encoding (84 builds).  A change that alters a model on
    # purpose records the new digest here and says why in CHANGES.md.
    LAYOUT_SHA256 = (
        "cfe5676d1e7e5654a66cabfff731ccbf0f2a48402ee4060b9cf3c6fb1299d71a"
    )

    def test_bundled_models_are_unchanged(self):
        digest = hashlib.sha256()
        for name in case_names():
            net = parse_case(case_text(name))
            for pf in PowerFlowKind:
                for ck in PWL_COST_KINDS:
                    digest.update(f"{name} {pf.value} {ck.value}\n".encode())
                    digest.update(dump_model(build_opf(net, pf, ck)).encode())
        assert digest.hexdigest() == self.LAYOUT_SHA256
