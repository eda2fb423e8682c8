"""Command-line interface.

Subcommands: ``validate`` (parse and report findings), ``preprocess``
(clean piecewise cost curves), ``solve`` (one formulation, printed
solution), ``bench`` (the formulation grid with a CSV or Markdown report).

Exit codes: 0 success/optimal, 1 solver non-optimal, 2 input error.
Commands raise every input error: an ``OpfBenchError``, which includes a
bad option value (``OptionError``) and a bench run in which no cell could
be built, or an ``OSError`` from a file that cannot be read or written.
``main`` alone turns one into exit 2 with ``error:`` lines on stderr.
"""

from __future__ import annotations

import argparse
import glob
import sys
from pathlib import Path

from .bench import BenchConfig, render_report, run_suite
from .errors import InvalidNetworkError, OpfBenchError, OptionError
from .formulations import (
    PWL_COST_KINDS,
    CostKind,
    PowerFlowKind,
    build_opf,
    recover_solution,
)
from .ipm import SolverOptions, kkt_check, solve
from .modelir import SolveStatus
from .netdata import read_case, validate_network
from .pwlcost import PwlCurve, preprocess

EXIT_OK = 0
EXIT_NOT_OPTIMAL = 1
EXIT_INPUT_ERROR = 2

_PF = {k.value: k for k in PowerFlowKind}
_COST = {k.value: k for k in CostKind}
# the bench report has one column per piecewise encoding and none for poly
_BENCH_COST = {k.value: k for k in PWL_COST_KINDS}


def _cmd_validate(args) -> int:
    network = read_case(args.case)
    findings = validate_network(network)
    for f in findings:
        print(f"{f.severity}: [{f.code}] {f.message}")
    errors = [f for f in findings if f.severity == "error"]
    print(f"{len(network.buses)} buses, {len(network.branches)} branches, "
          f"{len(network.generators)} generators; "
          f"{len(errors)} error(s), {len(findings) - len(errors)} warning(s)")
    return EXIT_INPUT_ERROR if errors else EXIT_OK


def _cmd_preprocess(args) -> int:
    network = read_case(args.case)
    for k, gen in enumerate(network.generators):
        curve = gen.cost
        if not isinstance(curve, PwlCurve):
            print(f"generator {k}: polynomial cost, nothing to preprocess")
            continue
        try:
            cleaned = preprocess(curve, gen.pmin, gen.pmax)
        except OpfBenchError as exc:
            raise OpfBenchError(f"generator {k}: {exc}") from exc
        print(f"generator {k}: {len(curve.points)} -> "
              f"{len(cleaned.points)} points")
        print(f"  before: {list(curve.points)}")
        print(f"  after:  {list(cleaned.points)}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    opts = SolverOptions(tol=args.tol, max_iter=args.max_iter)
    network = read_case(args.case)
    pf, cost = _PF[args.pf], _COST[args.cost]
    model = build_opf(network, pf, cost)
    result, log = solve(model, opts)
    if args.log_iters:
        Path(args.log_iters).write_text(log.to_csv())
    print(f"status:     {result.status.value}")
    print(f"iterations: {result.iterations}")
    print(f"kkt:        {result.kkt_residual:.3e}")
    if result.status != SolveStatus.OPTIMAL:
        return EXIT_NOT_OPTIMAL
    print(f"objective:  {result.objective:.6f} $/h")
    report = kkt_check(model, result)
    print(f"kkt audit:  {report.max_residual:.3e}")
    try:
        sol = recover_solution(model, result)
    except OpfBenchError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return EXIT_NOT_OPTIMAL
    base = network.base_mva
    for k, (d, c) in enumerate(zip(sol.dispatch, sol.gen_costs)):
        print(f"gen {k} @bus {network.generators[k].bus}: "
              f"P={d.re * base:.2f} MW Q={d.im * base:.2f} MVAr "
              f"cost={c:.2f} $/h")
    if pf == PowerFlowKind.AC:
        for bus_id, (vm, va) in zip(sol.bus_ids, sol.voltage):
            print(f"bus {bus_id}: v={vm:.5f} pu, angle={va:.5f} rad")
    elif pf == PowerFlowKind.SOC:
        for bus_id, w in zip(sol.bus_ids, sol.voltage):
            print(f"bus {bus_id}: w={w:.5f} pu^2")
    else:
        for bus_id, th in zip(sol.bus_ids, sol.voltage):
            print(f"bus {bus_id}: angle={th:.5f} rad")
    return EXIT_OK


def _cmd_bench(args) -> int:
    paths = sorted(glob.glob(args.cases))
    if not paths:
        raise OptionError(f"no case files match {args.cases!r}")
    try:
        # a repeated kind is benchmarked once, in its first place
        pf_kinds = tuple(dict.fromkeys(_PF[p] for p in args.pf.split(",")))
        cost_kinds = tuple(dict.fromkeys(
            _BENCH_COST[c] for c in args.cost.split(",")))
    except KeyError as exc:
        raise OptionError(f"unknown kind {exc}") from None
    report = run_suite(BenchConfig(
        case_paths=paths,
        pf_kinds=pf_kinds,
        cost_kinds=cost_kinds,
        trials=args.trials,
        solver_options=SolverOptions(tol=args.tol),
    ))
    text = render_report(report, args.format)
    if args.out:
        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    cells = [cell for row in report.rows for cell in row.cells.values()]
    # a cell that could not be read or built has no runtime
    if all(cell.runtime is None for cell in cells):
        raise OpfBenchError("no cell could be built")
    return (EXIT_OK if all(cell.status == "optimal" for cell in cells)
            else EXIT_NOT_OPTIMAL)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opfbench",
        description="Optimal power flow formulation workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a case and report findings")
    p.add_argument("case")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("preprocess",
                       help="clean piecewise cost curves against the "
                            "generator bounds")
    p.add_argument("case")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("solve", help="solve one formulation of a case")
    p.add_argument("case")
    p.add_argument("--pf", required=True, choices=sorted(_PF))
    p.add_argument("--cost", required=True, choices=sorted(_COST))
    p.add_argument("--tol", type=float, default=1e-8,
                   help="KKT tolerance (default %(default)g, tight enough "
                        "for consistent cost recovery)")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--log-iters", metavar="PATH",
                   help="write the per-iteration CSV log to PATH")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="run the formulation grid benchmark")
    p.add_argument("--cases", required=True,
                   help="glob pattern of Matpower case files")
    p.add_argument("--pf", default="ac,soc,dc",
                   help="comma-separated power flow kinds "
                        "(default %(default)s)")
    p.add_argument("--cost", default="psi,lambda,delta,phi",
                   help="comma-separated cost encodings "
                        "(default %(default)s)")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the one exit for input errors; any other exception is a bug and keeps
    # its traceback
    try:
        return args.func(args)
    except InvalidNetworkError as exc:
        for f in exc.errors:
            print(f"error: [{f.code}] {f.message}", file=sys.stderr)
    except (OpfBenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
