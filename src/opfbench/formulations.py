"""Builders for the optimal power flow formulation grid.

Three power-flow structures (non-convex polar AC, lifted second-order-cone
relaxation, linear active-power approximation) are crossed with five cost
attachments (four equivalent piecewise linear encodings plus the quadratic
baseline) to produce ModelIR instances, and solver output is mapped back to
physical dispatch, voltage and flow quantities.

Flow variables exist for both orientations of every branch; Ohm's-law rows
pin each oriented flow to the network physics.  The reference-bus angle is
pinned to zero in the AC and DC structures.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelBuildError, RecoveryMismatchError
from .modelir import (
    INF,
    AcFlowPolarBlock,
    ModelIR,
    QuadraticBlock,
    SolveResult,
    SolveStatus,
)
from .netdata import ComplexPU, Network, branch_admittance, require_valid
from .pwlcost import (
    PolynomialCost,
    PwlCurve,
    evaluate,
    evaluate_polynomial,
    preprocess,
)

RECOVERY_RTOL = 1e-6


class PowerFlowKind(enum.Enum):
    AC = "ac"
    SOC = "soc"
    DC = "dc"


class CostKind(enum.Enum):
    PSI = "psi"
    LAMBDA = "lambda"
    DELTA = "delta"
    PHI = "phi"
    POLYNOMIAL = "poly"


PWL_COST_KINDS = (CostKind.PSI, CostKind.LAMBDA, CostKind.DELTA, CostKind.PHI)


@dataclass(frozen=True)
class BranchFlowValue:
    from_bus: int
    to_bus: int
    p: float
    q: float


@dataclass(frozen=True)
class OpfSolution:
    """Physical quantities recovered from a solved formulation."""

    pf_kind: PowerFlowKind
    cost_kind: CostKind
    bus_ids: tuple[int, ...]
    dispatch: tuple[ComplexPU, ...]
    voltage: tuple         # (vm, angle) pairs for AC, w_ii for SOC, angle for DC
    flows: tuple[BranchFlowValue, ...]
    gen_costs: tuple[float, ...]
    objective: float


def _oriented_branches(network: Network):
    """(branch index, from, to, forward) tuples: all forward orientations
    followed by all reverse ones."""
    out = []
    for e, br in enumerate(network.branches):
        out.append((e, br.from_bus, br.to_bus, True))
    for e, br in enumerate(network.branches):
        out.append((e, br.to_bus, br.from_bus, False))
    return out


def _admittance_coefficients(network: Network, e: int, forward: bool):
    """Admittance-matrix entries (gff, bff, gft, bft) for one orientation."""
    br = network.branches[e]
    y = branch_admittance(br)
    t = br.effective_tap
    bc = br.charging
    gft = -y.re / t
    bft = -y.im / t
    if forward:
        gff = y.re / (t * t)
        bff = (y.im + bc / 2.0) / (t * t)
    else:
        gff = y.re
        bff = y.im + bc / 2.0
    return gff, bff, gft, bft


def build_power_flow(network: Network, kind: PowerFlowKind) -> ModelIR:
    """Power-flow structure of the chosen kind as a cost-less ModelIR.

    The returned model carries variable index maps in ``meta`` so the
    attach_cost_* functions and :func:`recover_solution` can address
    generators, voltages and flows.  No objective is set.  A network with
    error findings raises InvalidNetworkError, a ModelBuildError.
    """
    require_valid(network)
    if kind == PowerFlowKind.AC:
        return _build_ac(network)
    if kind == PowerFlowKind.SOC:
        return _build_soc(network)
    if kind == PowerFlowKind.DC:
        return _build_dc(network)
    raise ValueError(f"unknown power flow kind {kind}")


def _add_dispatch_and_flows(m, network, kind):
    """Generator and oriented-flow variables, which every power-flow kind
    shares, recorded with the network in ``m.meta``; returns ``m.meta``.

    Without reactive power (DC) a branch rating bounds the active flow
    directly, and ``qg_idx`` and ``flow_q`` are empty.
    """
    reactive = kind != PowerFlowKind.DC
    pg_idx, qg_idx = [], []
    for k, g in enumerate(network.generators):
        pg_idx.append(m.add_variable(
            f"pg[{k}]", g.pmin, g.pmax, 0.5 * (g.pmin + g.pmax)
        ))
        if reactive:
            qg_idx.append(m.add_variable(
                f"qg[{k}]", g.qmin, g.qmax, 0.5 * (g.qmin + g.qmax)
            ))
    oriented = _oriented_branches(network)
    flow_p = []
    for e, f, t, _ in oriented:
        rate = network.branches[e].rate
        lim = rate if rate > 0.0 and not reactive else INF
        flow_p.append(m.add_variable(f"p[{f}->{t}]", -lim, lim, 0.0))
    flow_q = [m.add_variable(f"q[{f}->{t}]", -INF, INF, 0.0)
              for _, f, t, _ in oriented] if reactive else []
    m.meta.update(
        pf_kind=kind, network=network, oriented=oriented,
        pg_idx=pg_idx, qg_idx=qg_idx, flow_p=flow_p, flow_q=flow_q,
    )
    return m.meta


def _balance_block(label, network, outgoing, gen_idx, flow_idx, demand):
    """Per-bus rows: generation minus outgoing flows equals demand."""
    rows, cols, vals = [], [], []
    for r, bus in enumerate(network.buses):
        for k in network.gens_at_bus.get(bus.id, ()):
            rows.append(r)
            cols.append(gen_idx[k])
            vals.append(1.0)
        for a in outgoing.get(bus.id, ()):
            rows.append(r)
            cols.append(flow_idx[a])
            vals.append(-1.0)
    return QuadraticBlock(label, demand, demand, linear=(rows, cols, vals))


def _add_balance_and_thermal(m):
    """Active power balance and, with reactive power, reactive balance and
    the apparent-power limit of every rated oriented branch."""
    meta = m.meta
    network, oriented = meta["network"], meta["oriented"]
    outgoing = {}
    for a, (_, f, _, _) in enumerate(oriented):
        outgoing.setdefault(f, []).append(a)
    m.add_block(_balance_block(
        "balance-p", network, outgoing, meta["pg_idx"], meta["flow_p"],
        [bus.demand.re for bus in network.buses],
    ))
    if meta["pf_kind"] == PowerFlowKind.DC:
        return
    m.add_block(_balance_block(
        "balance-q", network, outgoing, meta["qg_idx"], meta["flow_q"],
        [bus.demand.im for bus in network.buses],
    ))
    # p^2 + q^2 <= rate^2 on every rated oriented branch
    rated = [a for a, (e, _, _, _) in enumerate(oriented)
             if network.branches[e].rate > 0.0]
    if rated:
        rates = [network.branches[oriented[a][0]].rate for a in rated]
        pq = ([meta["flow_p"][a] for a in rated]
              + [meta["flow_q"][a] for a in rated])
        m.add_block(QuadraticBlock(
            "thermal", [-INF] * len(rated), [r * r for r in rates],
            quadratic=(list(range(len(rated))) * 2, pq, pq,
                       [1.0] * len(pq)),
        ))


def _add_angle_rows(m, network, th_idx):
    """Branch angle-difference limits and the reference-angle pin, for the
    models that carry bus angles explicitly (AC and DC)."""
    branches, nb = network.branches, len(network.branches)
    if branches:
        m.add_block(QuadraticBlock(
            "angle-diff", [br.angmin for br in branches],
            [br.angmax for br in branches], linear=(
                list(range(nb)) * 2,
                [th_idx[br.from_bus] for br in branches]
                + [th_idx[br.to_bus] for br in branches],
                [1.0] * nb + [-1.0] * nb,
            ),
        ))
    m.add_block(QuadraticBlock(
        "angle-reference", [0.0], [0.0],
        linear=([0], [th_idx[network.reference_bus]], [1.0]),
    ))


def _build_ac(network: Network) -> ModelIR:
    m = ModelIR("ac-opf")
    v_idx, th_idx = {}, {}
    for bus in network.buses:
        v_idx[bus.id] = m.add_variable(
            f"v[{bus.id}]", bus.vmin, bus.vmax, 1.0
        )
        th_idx[bus.id] = m.add_variable(f"th[{bus.id}]", -INF, INF, 0.0)
    meta = _add_dispatch_and_flows(m, network, PowerFlowKind.AC)
    meta.update(v_idx=v_idx, th_idx=th_idx)
    oriented, flow_p, flow_q = meta["oriented"], meta["flow_p"], meta["flow_q"]

    rows = {"flow": [], "vf": [], "vt": [], "thf": [], "tht": [],
            "a1": [], "kc": [], "ks": []}
    for a, (e, f, t, fwd) in enumerate(oriented):
        gff, bff, gft, bft = _admittance_coefficients(network, e, fwd)
        # active row: p = gff*vf^2 + vf*vt*(gft*cos + bft*sin)
        rows["flow"].append(flow_p[a])
        rows["vf"].append(v_idx[f])
        rows["vt"].append(v_idx[t])
        rows["thf"].append(th_idx[f])
        rows["tht"].append(th_idx[t])
        rows["a1"].append(gff)
        rows["kc"].append(gft)
        rows["ks"].append(bft)
        # reactive row: q = -bff*vf^2 + vf*vt*(gft*sin - bft*cos)
        rows["flow"].append(flow_q[a])
        rows["vf"].append(v_idx[f])
        rows["vt"].append(v_idx[t])
        rows["thf"].append(th_idx[f])
        rows["tht"].append(th_idx[t])
        rows["a1"].append(-bff)
        rows["kc"].append(-bft)
        rows["ks"].append(gft)
    if oriented:
        m.add_block(AcFlowPolarBlock(
            "ohm-polar", rows["flow"], rows["vf"], rows["vt"],
            rows["thf"], rows["tht"], rows["a1"], rows["kc"], rows["ks"],
        ))

    _add_balance_and_thermal(m)
    _add_angle_rows(m, network, th_idx)
    return m


def _build_soc(network: Network) -> ModelIR:
    m = ModelIR("soc-opf")
    w_idx = {}
    for bus in network.buses:
        w_idx[bus.id] = m.add_variable(
            f"w[{bus.id}]", bus.vmin ** 2, bus.vmax ** 2, 1.0
        )
    wr_idx, wi_idx = [], []
    for e, br in enumerate(network.branches):
        wr_idx.append(m.add_variable(
            f"wr[{br.from_bus},{br.to_bus}]", -INF, INF, 1.0
        ))
        wi_idx.append(m.add_variable(
            f"wi[{br.from_bus},{br.to_bus}]", -INF, INF, 0.0
        ))
    meta = _add_dispatch_and_flows(m, network, PowerFlowKind.SOC)
    meta.update(w_idx=w_idx, wr_idx=wr_idx, wi_idx=wi_idx)
    oriented, flow_p, flow_q = meta["oriented"], meta["flow_p"], meta["flow_q"]

    rows, cols, vals = [], [], []
    for a, (e, f, t, fwd) in enumerate(oriented):
        gff, bff, gft, bft = _admittance_coefficients(network, e, fwd)
        wii, wr, wi = w_idx[f], wr_idx[e], wi_idx[e]
        im_sign = 1.0 if fwd else -1.0  # reverse rows see conj(W_ij)
        rows += [2 * a] * 4 + [2 * a + 1] * 4
        cols += [flow_p[a], wii, wr, wi, flow_q[a], wii, wi, wr]
        vals += [1.0, -gff, -gft, -im_sign * bft,
                 1.0, bff, -im_sign * gft, bft]
    if oriented:
        m.add_block(QuadraticBlock(
            "ohm-lifted", [0.0] * (2 * len(oriented)),
            [0.0] * (2 * len(oriented)), linear=(rows, cols, vals),
        ))

    _add_balance_and_thermal(m)

    rows, cols, vals = [], [], []
    for e, br in enumerate(network.branches):
        # tan(angmin)*Re(W) <= Im(W) <= tan(angmax)*Re(W), split at zero:
        # row 2e:   Im(W) - tan(angmax)*Re(W) in (-inf, 0]
        # row 2e+1: Im(W) - tan(angmin)*Re(W) in [0, inf)
        rows += [2 * e, 2 * e, 2 * e + 1, 2 * e + 1]
        cols += [wi_idx[e], wr_idx[e], wi_idx[e], wr_idx[e]]
        vals += [1.0, -math.tan(br.angmax), 1.0, -math.tan(br.angmin)]
    nb = len(network.branches)
    if nb:
        m.add_block(QuadraticBlock(
            "angle-diff", [-INF, 0.0] * nb, [0.0, INF] * nb,
            linear=(rows, cols, vals),
        ))

    # Re(W)^2 + Im(W)^2 - W_ff*W_tt <= 0 on every branch
    w_from = [w_idx[br.from_bus] for br in network.branches]
    w_to = [w_idx[br.to_bus] for br in network.branches]
    m.add_block(QuadraticBlock(
        "voltage-product-cone", [-INF] * nb, [0.0] * nb, quadratic=(
            list(range(nb)) * 3, wr_idx + wi_idx + w_from,
            wr_idx + wi_idx + w_to, [1.0] * (2 * nb) + [-1.0] * nb,
        ),
    ))
    return m


def _build_dc(network: Network) -> ModelIR:
    m = ModelIR("dc-opf")
    th_idx = {}
    for bus in network.buses:
        th_idx[bus.id] = m.add_variable(f"th[{bus.id}]", -INF, INF, 0.0)
    meta = _add_dispatch_and_flows(m, network, PowerFlowKind.DC)
    meta.update(th_idx=th_idx)
    oriented, flow_p = meta["oriented"], meta["flow_p"]

    rows, cols, vals = [], [], []
    for a, (e, f, t, _) in enumerate(oriented):
        br = network.branches[e]
        # first-order flow around the flat start: p = (-b/t)*(th_f - th_t)
        coef = -branch_admittance(br).im / br.effective_tap
        rows += [a] * 3
        cols += [flow_p[a], th_idx[f], th_idx[t]]
        vals += [1.0, -coef, coef]
    if oriented:
        m.add_block(QuadraticBlock(
            "ohm-dc", [0.0] * len(oriented), [0.0] * len(oriented),
            linear=(rows, cols, vals),
        ))

    _add_balance_and_thermal(m)
    _add_angle_rows(m, network, th_idx)
    return m


# -- cost attachments ----------------------------------------------------


def _ready_curves(m: ModelIR):
    """Every generator's curve, preprocessed against its bounds."""
    curves = []
    for k, g in enumerate(m.meta["network"].generators):
        if not isinstance(g.cost, PwlCurve):
            raise ModelBuildError(
                f"generator {k} has no piecewise cost curve; "
                f"use the polynomial attachment"
            )
        curves.append(preprocess(g.cost, g.pmin, g.pmax))
    m.meta["cost_curves"] = curves
    return curves


def attach_cost_psi(m: ModelIR) -> ModelIR:
    """Epigraph encoding: one cost variable per generator bounded by its
    curve's cost range, one inequality row per segment."""
    curves = _ready_curves(m)
    pg_idx = m.meta["pg_idx"]
    cg_cols, pg_cols, slopes, lo = [], [], [], []
    for k, curve in enumerate(curves):
        cg = m.add_variable(
            f"cg[{k}]", min(curve.costs), max(curve.costs),
            evaluate(curve, m.var_start[pg_idx[k]]),
        )
        # cg - s*pg >= b for every segment
        cg_cols += [cg] * len(curve.slopes)
        pg_cols += [pg_idx[k]] * len(curve.slopes)
        slopes += curve.slopes
        lo += curve.intercepts
        m.add_objective_term(cg, 1.0)
    m.add_block(QuadraticBlock(
        "cost-epigraph", lo, [INF] * len(lo), linear=(
            list(range(len(lo))) * 2, cg_cols + pg_cols,
            [1.0] * len(lo) + [-s for s in slopes],
        ),
    ))
    m.meta["cost_kind"] = CostKind.PSI
    return m


def attach_cost_lambda(m: ModelIR) -> ModelIR:
    """Convex-combination encoding: interpolation weights over breakpoints
    tied to dispatch and summing to one."""
    curves = _ready_curves(m)
    pg_idx = m.meta["pg_idx"]
    rows, cols, vals, rhs = [], [], [], []
    for k, curve in enumerate(curves):
        x0 = m.var_start[pg_idx[k]]
        powers = curve.powers
        l0 = 0
        while l0 < len(powers) - 2 and powers[l0 + 1] <= x0:
            l0 += 1
        w = (x0 - powers[l0]) / (powers[l0 + 1] - powers[l0])
        lam_idx = []
        for l, (p, c) in enumerate(curve.points):
            init = {l0: 1.0 - w, l0 + 1: w}.get(l, 0.0)
            lam_idx.append(m.add_variable(f"lam[{k},{l}]", 0.0, 1.0, init))
            m.add_objective_term(lam_idx[-1], c)
        # sum(p_l * lam_l) - pg = 0, then sum(lam_l) = 1
        row, n = len(rhs), len(powers)
        rows += [row] * (n + 1) + [row + 1] * n
        cols += lam_idx + [pg_idx[k]] + lam_idx
        vals += list(powers) + [-1.0] + [1.0] * n
        rhs += [0.0, 1.0]
    m.add_block(QuadraticBlock("cost-interpolation", rhs, rhs,
                               linear=(rows, cols, vals)))
    m.meta["cost_kind"] = CostKind.LAMBDA
    return m


def attach_cost_delta(m: ModelIR) -> ModelIR:
    """Generation-bin encoding: one bounded bin per segment, dispatch equal
    to the first breakpoint plus the filled bins."""
    curves = _ready_curves(m)
    pg_idx = m.meta["pg_idx"]
    rows, cols, vals, rhs = [], [], [], []
    for k, curve in enumerate(curves):
        x0 = m.var_start[pg_idx[k]]
        powers = curve.powers
        # pg - sum(dpg_l) = the first breakpoint
        rows += [len(rhs)] * len(powers)
        cols.append(pg_idx[k])
        vals += [1.0] + [-1.0] * len(curve.slopes)
        for l, s in enumerate(curve.slopes):
            width = powers[l + 1] - powers[l]
            init = min(max(x0 - powers[l], 0.0), width)
            d = m.add_variable(f"dpg[{k},{l}]", 0.0, width, init)
            m.add_objective_term(d, s)
            cols.append(d)
        m.add_objective_offset(curve.costs[0])
        rhs.append(powers[0])
    m.add_block(QuadraticBlock("cost-bins", rhs, rhs,
                               linear=(rows, cols, vals)))
    m.meta["cost_kind"] = CostKind.DELTA
    return m


def attach_cost_phi(m: ModelIR) -> ModelIR:
    """Marginal-excess encoding: first-segment line plus slope-difference
    terms over the excess above each interior breakpoint.

    Two-point curves contribute only their linear term.
    """
    curves = _ready_curves(m)
    pg_idx = m.meta["pg_idx"]
    rows, cols, lo = [], [], []
    for k, (g, curve) in enumerate(zip(m.meta["network"].generators,
                                       curves)):
        x0 = m.var_start[pg_idx[k]]
        powers = curve.powers
        m.add_objective_term(pg_idx[k], curve.slopes[0])
        m.add_objective_offset(curve.intercepts[0])
        for l in range(1, len(curve.slopes)):
            pb = powers[l]
            ph = m.add_variable(
                f"phi[{k},{l}]", 0.0, g.pmax - pb, max(0.0, x0 - pb)
            )
            m.add_objective_term(ph, curve.slopes[l] - curve.slopes[l - 1])
            # phi - pg >= -pb
            rows += [len(lo)] * 2
            cols += [ph, pg_idx[k]]
            lo.append(-pb)
    if lo:
        m.add_block(QuadraticBlock(
            "cost-excess", lo, [INF] * len(lo),
            linear=(rows, cols, [1.0, -1.0] * len(lo)),
        ))
    m.meta["cost_kind"] = CostKind.PHI
    return m


def attach_cost_polynomial(m: ModelIR) -> ModelIR:
    """Quadratic baseline lowered to a linear objective plus one epigraph
    row per generator with curvature; pure linear costs stay in the
    objective.  Convexity holds: the model's network was validated."""
    pg_idx = m.meta["pg_idx"]
    pg_cols, cg_cols, b_coefs, c_coefs, const = [], [], [], [], []
    for k, g in enumerate(m.meta["network"].generators):
        if not isinstance(g.cost, PolynomialCost):
            raise ModelBuildError(
                f"generator {k} has no polynomial cost; "
                f"use a piecewise attachment"
            )
        a, b, c = g.cost.a, g.cost.b, g.cost.c
        if c == 0.0:
            m.add_objective_term(pg_idx[k], b)
            m.add_objective_offset(a)
            continue
        ends = [evaluate_polynomial(a, b, c, g.pmin),
                evaluate_polynomial(a, b, c, g.pmax)]
        vertex = -b / (2.0 * c)
        cg_lo = min(ends)
        if g.pmin < vertex < g.pmax:
            cg_lo = min(cg_lo, evaluate_polynomial(a, b, c, vertex))
        x0 = m.var_start[pg_idx[k]]
        cg = m.add_variable(
            f"cg[{k}]", cg_lo, max(ends), evaluate_polynomial(a, b, c, x0)
        )
        m.add_objective_term(cg, 1.0)
        # c*pg^2 + b*pg - cg + a <= 0
        pg_cols.append(pg_idx[k])
        cg_cols.append(cg)
        b_coefs.append(b)
        c_coefs.append(c)
        const.append(a)
    if const:
        r = list(range(len(const)))
        m.add_block(QuadraticBlock(
            "cost-quadratic-epigraph", [-INF] * len(r), [0.0] * len(r),
            linear=(r * 2, pg_cols + cg_cols, b_coefs + [-1.0] * len(r)),
            quadratic=(r, pg_cols, pg_cols, c_coefs), const=const,
        ))
    m.meta["cost_kind"] = CostKind.POLYNOMIAL
    return m


def build_opf(network: Network, pf_kind: PowerFlowKind,
              cost_kind: CostKind) -> ModelIR:
    """Complete formulation: power-flow structure plus cost encoding,
    rejecting an invalid network as :func:`build_power_flow` does."""
    m = build_power_flow(network, pf_kind)
    if cost_kind == CostKind.PSI:
        attach_cost_psi(m)
    elif cost_kind == CostKind.LAMBDA:
        attach_cost_lambda(m)
    elif cost_kind == CostKind.DELTA:
        attach_cost_delta(m)
    elif cost_kind == CostKind.PHI:
        attach_cost_phi(m)
    elif cost_kind == CostKind.POLYNOMIAL:
        attach_cost_polynomial(m)
    else:
        raise ValueError(f"unknown cost kind {cost_kind}")
    m.name = f"{pf_kind.value}-opf-{cost_kind.value}"
    return m.finalize()


def recover_solution(m: ModelIR, result: SolveResult) -> OpfSolution:
    """Extract dispatch, voltages and flows, recomputing costs from dispatch.

    The power-flow and cost kinds are the model's own; a model without a
    cost attachment, or a non-optimal result, raises ModelBuildError.  The
    recomputed total cost must match the solver objective to within 1e-6
    relative; a mismatch signals a modeling bug and raises
    RecoveryMismatchError.
    """
    cost_kind = m.meta.get("cost_kind")
    if cost_kind is None:
        raise ModelBuildError("model has no cost attachment to recover")
    pf_kind = m.meta["pf_kind"]
    if result.status != SolveStatus.OPTIMAL:
        raise ModelBuildError(
            f"cannot recover from a {result.status.value} result"
        )
    network: Network = m.meta["network"]
    x = result.x
    pg_idx = m.meta["pg_idx"]
    qg_idx = m.meta["qg_idx"]
    dispatch = tuple(
        ComplexPU(float(x[pg_idx[k]]),
                  float(x[qg_idx[k]]) if qg_idx else 0.0)
        for k in range(len(network.generators))
    )

    gen_costs = []
    for k, g in enumerate(network.generators):
        p = dispatch[k].re
        if cost_kind == CostKind.POLYNOMIAL:
            gen_costs.append(evaluate_polynomial(
                g.cost.a, g.cost.b, g.cost.c, p
            ))
        else:
            curve = m.meta["cost_curves"][k]
            domain_lo, domain_hi = curve.powers[0], curve.powers[-1]
            gen_costs.append(evaluate(
                curve, min(max(p, domain_lo), domain_hi)
            ))
    total = float(np.sum(gen_costs))
    scale = max(1.0, abs(result.objective))
    if abs(total - result.objective) > RECOVERY_RTOL * scale:
        raise RecoveryMismatchError(
            f"recomputed cost {total} differs from solver objective "
            f"{result.objective} beyond {RECOVERY_RTOL} relative"
        )

    bus_ids = tuple(b.id for b in network.buses)
    if pf_kind == PowerFlowKind.AC:
        v_idx, th_idx = m.meta["v_idx"], m.meta["th_idx"]
        voltage = tuple(
            (float(x[v_idx[b]]), float(x[th_idx[b]])) for b in bus_ids
        )
    elif pf_kind == PowerFlowKind.SOC:
        w_idx = m.meta["w_idx"]
        voltage = tuple(float(x[w_idx[b]]) for b in bus_ids)
    else:
        th_idx = m.meta["th_idx"]
        voltage = tuple(float(x[th_idx[b]]) for b in bus_ids)

    flow_p = m.meta["flow_p"]
    flow_q = m.meta["flow_q"]
    flows = tuple(
        BranchFlowValue(
            from_bus=f, to_bus=t, p=float(x[flow_p[a]]),
            q=float(x[flow_q[a]]) if flow_q else 0.0,
        )
        for a, (_, f, t, _) in enumerate(m.meta["oriented"])
    )
    return OpfSolution(
        pf_kind=pf_kind, cost_kind=cost_kind, bus_ids=bus_ids,
        dispatch=dispatch, voltage=voltage, flows=flows,
        gen_costs=tuple(gen_costs), objective=result.objective,
    )
