"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line.  The formulation grid (every bundled case times
power-flow kind times cost encoding) is solved once and shared.
"""

import time

import numpy as np
import pytest

from opfbench.bench import BenchConfig, render_report, run_suite
from opfbench.cases import case_names, case_text
from opfbench.formulations import (
    CostKind,
    PowerFlowKind,
    build_opf,
    build_power_flow,
    recover_solution,
)
from opfbench.ipm import SolverOptions, kkt_check, solve
from opfbench.modelir import (
    eval_jacobian,
    eval_lagrangian_hessian,
    eval_residuals,
)
from opfbench.netdata import parse_case
from opfbench.pwlcost import (
    PwlCurve,
    evaluate,
    evaluate_by_bin_fill,
    evaluate_by_interpolation,
    evaluate_by_marginal_excess,
    preprocess,
)

import helpers
import test_modelir as block_models

ENCODINGS = (CostKind.PSI, CostKind.LAMBDA, CostKind.DELTA, CostKind.PHI)
PF_KINDS = (PowerFlowKind.DC, PowerFlowKind.SOC, PowerFlowKind.AC)
GRID_TOL = 1e-8


def _report(number, description, ok):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def grid():
    """Solve the full formulation grid once: {case} x {pf} x {encoding}."""
    t0 = time.perf_counter()
    cells = {}
    opts = SolverOptions(tol=GRID_TOL)
    for name in case_names():
        network = parse_case(case_text(name))
        for pf in PF_KINDS:
            for ck in ENCODINGS:
                model = build_opf(network, pf, ck)
                result, log = solve(model, opts)
                cells[(name, pf, ck)] = (model, result, log)
    elapsed = time.perf_counter() - t0
    return cells, elapsed


def test_criterion_1_cross_encoding_equivalence(grid):
    cells, elapsed = grid
    names = case_names()
    assert len(names) >= 6
    sizes = [len(parse_case(case_text(n)).buses) for n in names]
    assert min(sizes) >= 1 and max(sizes) <= 300
    ok = True
    for name in names:
        for pf in PF_KINDS:
            objs = []
            for ck in ENCODINGS:
                _, result, _ = cells[(name, pf, ck)]
                if result.status.value != "optimal":
                    ok = False
                    continue
                objs.append(result.objective)
            ref = objs[0]
            for o in objs:
                if abs(o - ref) > 1e-5 * max(1.0, abs(ref)):
                    ok = False
    ok = ok and elapsed < 120.0
    _report(1, f"cross-encoding equivalence on {len(names)} cases "
               f"(1e-5 relative, grid solved in {elapsed:.1f}s)", ok)


def test_criterion_2_relaxation_bound(grid):
    cells, _ = grid
    ok = True
    for name in case_names():
        for ck in ENCODINGS:
            _, ac, _ = cells[(name, PowerFlowKind.AC, ck)]
            _, soc, _ = cells[(name, PowerFlowKind.SOC, ck)]
            if soc.objective > ac.objective + 1e-6 * abs(ac.objective):
                ok = False
    _report(2, "lifted relaxation lower-bounds the polar objective on "
               "every case and encoding", ok)


def test_criterion_3_lp_oracle_equivalence():
    checked = 0
    ok = True
    # the 1e-8 absolute objective agreement needs a duality gap far below
    # what the dual-scaled default tolerance guarantees
    tight = SolverOptions(tol=1e-12)
    for name in case_names():
        network = parse_case(case_text(name))
        pf_model = build_power_flow(network, PowerFlowKind.DC).finalize()
        if pf_model.nvars > 12:
            continue
        for ck in ENCODINGS:
            model = build_opf(network, PowerFlowKind.DC, ck)
            result, _ = solve(model, tight)
            oracle = helpers.enumerate_lp_vertices(model)
            if result.status.value != "optimal" \
                    or abs(result.objective - oracle) > 1e-8:
                ok = False
            checked += 1
    ok = ok and checked >= 3 * len(ENCODINGS)
    _report(3, f"interior-point objective matches vertex enumeration on "
               f"{checked} small linear builds (1e-8 absolute)", ok)


def test_criterion_4_pwl_four_form_equivalence():
    rng = np.random.default_rng(20250101)
    ok = True
    for _ in range(1000):
        pts = helpers.random_convex_curve(rng, n_points=int(rng.integers(2, 9)))
        curve = PwlCurve.from_points(pts)
        lo, hi = curve.powers[0], curve.powers[-1]
        xs = rng.uniform(lo, hi, size=100)
        for x in xs:
            ref = evaluate(curve, x)
            if abs(evaluate_by_interpolation(curve, x) - ref) > 1e-9 \
                    or abs(evaluate_by_bin_fill(curve, x) - ref) > 1e-9 \
                    or abs(evaluate_by_marginal_excess(curve, x) - ref) > 1e-9:
                ok = False
        # preprocess idempotence and value preservation on the curve
        pmin = lo + 0.07 * (hi - lo)
        pmax = hi - 0.07 * (hi - lo)
        cleaned = preprocess(pts, pmin, pmax)
        again = preprocess(cleaned, pmin, pmax)
        if cleaned.points != again.points:
            ok = False
        for x in rng.uniform(pmin, pmax, size=10):
            if abs(evaluate(cleaned, x) - evaluate(curve, x)) > 1e-9:
                ok = False
    _report(4, "max/interpolation/bin-fill/marginal-excess evaluations "
               "agree on 1000 random curves (1e-9 absolute)", ok)


def test_criterion_5_derivative_audit():
    rng = np.random.default_rng(77)
    factories = {
        "linear equality": block_models.linear_eq_model,
        "linear inequality": block_models.linear_ineq_model,
        "rotated cone": block_models.soc_model,
        "polar flow": block_models.acflow_model,
        "convex quadratic": block_models.quad_model,
        "apparent power": block_models.limit_model,
    }
    ok = True
    for shape, factory in factories.items():
        model = factory()
        lo, up = model.variable_bounds()
        lo = np.where(np.isfinite(lo), lo, -1.5)
        up = np.where(np.isfinite(up), up, 1.5)
        for _ in range(100):
            x = rng.uniform(lo + 0.05, up - 0.05)
            J = eval_jacobian(model, x).toarray()
            J_fd = helpers.finite_difference_jacobian(model, x)
            dJ = np.abs(J - J_fd)
            if not np.all((dJ <= 1e-7) | (dJ <= 1e-5 * np.abs(J))):
                ok = False
            duals = rng.uniform(-2.0, 2.0, size=model.nrows)
            H = eval_lagrangian_hessian(model, x, duals).toarray()
            H_fd = helpers.finite_difference_hessian(model, x, duals)
            dH = np.abs(H - H_fd)
            if not np.all((dH <= 1e-6) | (dH <= 1e-5 * np.abs(H))):
                ok = False
    _report(5, "analytic Jacobian/Hessian of every constraint shape match "
               "central finite differences at 100 random points", ok)


def test_criterion_6_kkt_audit(grid):
    cells, _ = grid
    ok = True
    audited = 0
    for (name, pf, ck), (model, result, _) in cells.items():
        if result.status.value != "optimal":
            ok = False
            continue
        report = kkt_check(model, result)
        audited += 1
        if report.max_residual > 1e-6:
            ok = False
        # recovery consistency comes along for free on audited results
        recover_solution(model, result)
    _report(6, f"kkt_check passes at 1e-6 on all {audited} optimal "
               f"results", ok)


def test_criterion_7_table_shaped_report(case_paths):
    config = BenchConfig(
        case_paths=[case_paths[n] for n in case_names()],
        trials=1,
        solver_options=SolverOptions(tol=GRID_TOL),
    )
    r1 = run_suite(config)
    r2 = run_suite(config)
    ok = True
    for row in r1.rows:
        ref = row.objective_reference()
        if ref is None or row.ratios is None:
            ok = False
            continue
        for ck in (CostKind.DELTA, CostKind.PHI, CostKind.PSI):
            d = row.delta(ck)
            if d is None or abs(d) > 1e-5 * max(1.0, abs(ref)):
                ok = False
        if any(r < 1.0 - 1e-12 for r in row.ratios.values()):
            ok = False
    for a, b in zip(r1.rows, r2.rows):
        for ck in ENCODINGS:
            if a.cells[ck].objective != b.cells[ck].objective \
                    or a.cells[ck].status != b.cells[ck].status \
                    or a.cells[ck].iterations != b.cells[ck].iterations:
                ok = False
    text = render_report(r1, "csv")
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    for col in ("obj_lambda", "delta_delta", "delta_phi", "delta_psi",
                "ratio_psi", "iters_psi"):
        if col not in header:
            ok = False
    _report(7, "benchmark report in reference-column shape: deltas within "
               "1e-5 relative, ratios >= 1, deterministic re-run", ok)


def test_criterion_8_psi_stress_signal(grid):
    cells, _ = grid
    stressed = []
    for name in case_names():
        network = parse_case(case_text(name))
        point_counts = []
        for g in network.generators:
            curve = g.cost.curve
            cleaned = preprocess(curve, g.pmin, g.pmax)
            point_counts.append(len(cleaned.points))
        if min(point_counts) < 4:
            continue
        psi_iters = cells[(name, PowerFlowKind.AC, CostKind.PSI)][1].iterations
        others = min(
            cells[(name, PowerFlowKind.AC, ck)][1].iterations
            for ck in (CostKind.LAMBDA, CostKind.DELTA, CostKind.PHI)
        )
        stressed.append((name, psi_iters, others))
    ok = len(stressed) >= 1 and any(p >= o for _, p, o in stressed)
    detail = ", ".join(f"{n}: psi={p} vs min-other={o}"
                       for n, p, o in stressed)
    _report(8, f"epigraph encoding needs at least as many interior-point "
               f"iterations ({detail})", ok)
