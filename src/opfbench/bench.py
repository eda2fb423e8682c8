"""Benchmark protocol: the formulation grid with deltas and runtime ratios.

Runs every configured case through the power-flow x cost-encoding grid,
timing only the solve call (model build excluded), and reports objective
deltas against the convex-combination encoding as the reference column plus
each encoding's runtime ratio against the fastest encoding of its cell.
Cells run strictly sequentially so wall-clock timings stay clean; per-cell
failures are recorded in the report rather than aborting the suite.
"""

from __future__ import annotations

import numbers
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import OpfBenchError
from .formulations import PWL_COST_KINDS, CostKind, PowerFlowKind, build_opf
from .ipm import SolverOptions, solve
from .modelir import SolveStatus
from .netdata import read_case, require_valid

REFERENCE_ENCODING = CostKind.LAMBDA


class IncompleteCellError(OpfBenchError):
    """Runtime ratios requested for a cell missing an encoding's time."""


@dataclass
class BenchConfig:
    case_paths: list
    pf_kinds: tuple = (PowerFlowKind.AC, PowerFlowKind.SOC, PowerFlowKind.DC)
    cost_kinds: tuple = PWL_COST_KINDS
    trials: int = 5
    solver_options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if not isinstance(self.trials, numbers.Integral) or self.trials < 1:
            raise ValueError("trials must be an integer of at least 1")


@dataclass
class CellResult:
    cost_kind: CostKind
    status: str
    objective: float | None
    runtime: float | None
    iterations: int | None


@dataclass
class BenchRow:
    case: str
    n_bus: int
    n_branch: int
    pf_kind: PowerFlowKind
    cells: dict  # CostKind -> CellResult
    ratios: dict | None
    fastest: CostKind | None

    def objective_reference(self):
        ref = self.cells.get(REFERENCE_ENCODING)
        if ref is not None and ref.objective is not None:
            return ref.objective
        return None

    def delta(self, kind: CostKind):
        ref = self.objective_reference()
        cell = self.cells.get(kind)
        if ref is None or cell is None or cell.objective is None:
            return None
        return cell.objective - ref


@dataclass
class BenchReport:
    rows: list
    trials: int
    notes: list = field(default_factory=list)


def runtime_ratio(times: dict) -> dict:
    """Per-encoding runtime divided by the cell's best runtime.

    ``times`` maps each of the four encodings to a positive solve time;
    a missing encoding raises IncompleteCellError.
    """
    missing = [k for k in PWL_COST_KINDS if k not in times]
    if missing:
        raise IncompleteCellError(
            "missing encoding times: " + ", ".join(k.value for k in missing)
        )
    for k, t in times.items():
        if not t > 0:
            raise ValueError(f"time for {k.value} must be positive, got {t}")
    best = min(times[k] for k in PWL_COST_KINDS)
    return {k: times[k] / best for k in PWL_COST_KINDS}


def run_suite(config: BenchConfig) -> BenchReport:
    """Build, solve and time every (case, power-flow, encoding) cell."""
    rows = []
    for path in config.case_paths:
        path = Path(path)
        case_name = path.stem
        try:
            network = read_case(path)
            require_valid(network)
        except (OSError, OpfBenchError) as exc:
            for pf in config.pf_kinds:
                rows.append(BenchRow(
                    case=case_name, n_bus=0, n_branch=0, pf_kind=pf,
                    cells={ck: CellResult(ck, f"input-error: {exc}", None,
                                          None, None)
                           for ck in config.cost_kinds},
                    ratios=None, fastest=None,
                ))
            continue
        for pf in config.pf_kinds:
            cells = {}
            for ck in config.cost_kinds:
                try:
                    model = build_opf(network, pf, ck)
                except OpfBenchError as exc:
                    cells[ck] = CellResult(ck, f"build-error: {exc}", None,
                                           None, None)
                    continue
                samples = []
                for _ in range(config.trials):
                    t0 = time.perf_counter()
                    result, _log = solve(model, config.solver_options)
                    samples.append(time.perf_counter() - t0)
                optimal = result.status == SolveStatus.OPTIMAL
                cells[ck] = CellResult(
                    ck, result.status.value,
                    result.objective if optimal else None,
                    float(statistics.median(samples)), result.iterations,
                )
            times = {ck: c.runtime for ck, c in cells.items()
                     if c.status == "optimal"}
            ratios = fastest = None
            if all(ck in times for ck in PWL_COST_KINDS):
                ratios = runtime_ratio(times)
                # the first of equal times, in PWL_COST_KINDS order, wins
                fastest = min(PWL_COST_KINDS, key=times.__getitem__)
            rows.append(BenchRow(
                case=case_name, n_bus=len(network.buses),
                n_branch=len(network.branches), pf_kind=pf,
                cells=cells, ratios=ratios, fastest=fastest,
            ))
    notes = [
        f"runtimes time the solve call only (model build excluded; each "
        f"model's first trial also builds its solver structure); "
        f"statistic=median of {config.trials} trial(s)",
    ]
    return BenchReport(rows=rows, trials=config.trials, notes=notes)


_COLUMNS = [
    "case", "pf", "n_bus", "n_branch", "obj_lambda",
    "delta_delta", "delta_phi", "delta_psi",
    "t_lambda", "t_delta", "t_phi", "t_psi",
    "ratio_lambda", "ratio_delta", "ratio_phi", "ratio_psi",
    "iters_lambda", "iters_delta", "iters_phi", "iters_psi",
]

_REPORT_KINDS = (CostKind.LAMBDA, CostKind.DELTA, CostKind.PHI, CostKind.PSI)


def _row_values(row: BenchRow):
    vals = {
        "case": row.case, "pf": row.pf_kind.value,
        "n_bus": row.n_bus, "n_branch": row.n_branch,
    }
    ref_cell = row.cells.get(REFERENCE_ENCODING)
    if ref_cell is None:
        vals["obj_lambda"] = ""
    elif ref_cell.objective is not None:
        vals["obj_lambda"] = f"{ref_cell.objective:.6f}"
    else:
        vals["obj_lambda"] = ref_cell.status
    for ck, col in ((CostKind.DELTA, "delta_delta"),
                    (CostKind.PHI, "delta_phi"),
                    (CostKind.PSI, "delta_psi")):
        d = row.delta(ck)
        cell = row.cells.get(ck)
        if d is not None:
            vals[col] = f"{d:.6g}"
        elif cell is not None and cell.objective is None:
            vals[col] = cell.status
        else:
            vals[col] = ""
    for ck in _REPORT_KINDS:
        cell = row.cells.get(ck)
        suffix = ck.value
        vals[f"t_{suffix}"] = (
            f"{cell.runtime:.6f}" if cell and cell.runtime is not None else ""
        )
        vals[f"iters_{suffix}"] = (
            str(cell.iterations)
            if cell and cell.iterations is not None else ""
        )
        if row.ratios is not None:
            vals[f"ratio_{suffix}"] = f"{row.ratios[ck]:.4f}"
        else:
            vals[f"ratio_{suffix}"] = ""
    return vals


def render_report(report: BenchReport, fmt: str = "csv") -> str:
    """Render the grid as CSV (full columns) or a Markdown table."""
    if fmt == "csv":
        lines = [f"# {note}" for note in report.notes]
        lines.append(",".join(_COLUMNS))
        for row in report.rows:
            vals = _row_values(row)
            lines.append(",".join(str(vals[c]) for c in _COLUMNS))
        return "\n".join(lines) + "\n"
    if fmt == "md":
        head = ["Case", "PF", "Buses", "Branches", "$/h (lambda)",
                "Delta delta", "Delta phi", "Delta psi",
                "t lambda (s)", "t delta (s)", "t phi (s)", "t psi (s)"]
        lines = ["| " + " | ".join(head) + " |",
                 "|" + "---|" * len(head)]
        for row in report.rows:
            vals = _row_values(row)
            cells = [vals["case"], vals["pf"], str(vals["n_bus"]),
                     str(vals["n_branch"]), vals["obj_lambda"],
                     vals["delta_delta"], vals["delta_phi"],
                     vals["delta_psi"], vals["t_lambda"], vals["t_delta"],
                     vals["t_phi"], vals["t_psi"]]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
        for note in report.notes:
            lines.append(f"*{note}*")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
