"""Command-line interface.

Subcommands: ``validate`` (parse and report findings), ``preprocess``
(clean piecewise cost curves), ``solve`` (one formulation, printed
solution), ``bench`` (the formulation grid with a CSV or Markdown report).

Exit codes: 0 success/optimal, 1 solver non-optimal, 2 input error.
"""

from __future__ import annotations

import argparse
import glob
import sys
from pathlib import Path

from .bench import BenchConfig, render_report, run_suite
from .errors import OpfBenchError
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
from .pwlcost import DEFAULT_SLOPE_TOL, check_slope_tol, preprocess

EXIT_OK = 0
EXIT_NOT_OPTIMAL = 1
EXIT_INPUT_ERROR = 2

_PF = {k.value: k for k in PowerFlowKind}
_COST = {k.value: k for k in CostKind}
# the bench report has one column per piecewise encoding and none for poly
_BENCH_COST = {k.value: k for k in PWL_COST_KINDS}


def _write_text(path, text) -> bool:
    """Write text to path; on failure report it and return False."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_validate(args) -> int:
    try:
        network = read_case(args.case)
    except (OSError, OpfBenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    findings = validate_network(network)
    for f in findings:
        print(f"{f.severity}: [{f.code}] {f.message}")
    errors = [f for f in findings if f.severity == "error"]
    print(f"{len(network.buses)} buses, {len(network.branches)} branches, "
          f"{len(network.generators)} generators; "
          f"{len(errors)} error(s), {len(findings) - len(errors)} warning(s)")
    return EXIT_INPUT_ERROR if errors else EXIT_OK


def _cmd_preprocess(args) -> int:
    try:
        check_slope_tol(args.slope_tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        network = read_case(args.case)
    except (OSError, OpfBenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for k, gen in enumerate(network.generators):
        cost = gen.cost
        if not hasattr(cost, "curve"):
            print(f"generator {k}: polynomial cost, nothing to preprocess")
            continue
        try:
            cleaned = preprocess(cost.curve, gen.pmin, gen.pmax,
                                 slope_tol=args.slope_tol)
        except OpfBenchError as exc:
            print(f"generator {k}: error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        print(f"generator {k}: {len(cost.curve.points)} -> "
              f"{len(cleaned.points)} points")
        print(f"  before: {list(cost.curve.points)}")
        print(f"  after:  {list(cleaned.points)}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    try:
        opts = SolverOptions(tol=args.tol, max_iter=args.max_iter)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        network = read_case(args.case)
        errors = [f for f in validate_network(network)
                  if f.severity == "error"]
        if errors:
            for f in errors:
                print(f"error: [{f.code}] {f.message}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        pf = _PF[args.pf]
        cost = _COST[args.cost]
        model = build_opf(network, pf, cost, validate=False)
    except (OSError, OpfBenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    result, log = solve(model, opts)
    if args.log_iters and not _write_text(args.log_iters, log.to_csv()):
        return EXIT_INPUT_ERROR
    print(f"status:     {result.status.value}")
    print(f"iterations: {result.iterations}")
    print(f"kkt:        {result.kkt_residual:.3e}")
    if result.status != SolveStatus.OPTIMAL:
        return EXIT_NOT_OPTIMAL
    print(f"objective:  {result.objective:.6f} $/h")
    report = kkt_check(model, result)
    print(f"kkt audit:  {report.max_residual:.3e}")
    try:
        sol = recover_solution(model, pf, cost, result)
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
        print(f"error: no case files match {args.cases!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        # a repeated kind is benchmarked once, in its first place
        pf_kinds = tuple(dict.fromkeys(_PF[p] for p in args.pf.split(",")))
        cost_kinds = tuple(dict.fromkeys(
            _BENCH_COST[c] for c in args.cost.split(",")))
    except KeyError as exc:
        print(f"error: unknown kind {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        config = BenchConfig(
            case_paths=paths,
            pf_kinds=pf_kinds,
            cost_kinds=cost_kinds,
            trials=args.trials,
            solver_options=SolverOptions(tol=args.tol),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = run_suite(config)
    text = render_report(report, args.format)
    if args.out:
        if not _write_text(args.out, text):
            return EXIT_INPUT_ERROR
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    statuses = [cell.status
                for row in report.rows for cell in row.cells.values()]
    if all(s.startswith("input-error") for s in statuses):
        print("error: no case could be read", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return (EXIT_OK if all(s == "optimal" for s in statuses)
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
    p.add_argument("--slope-tol", type=float, default=DEFAULT_SLOPE_TOL,
                   help="slope difference below which adjacent segments "
                        "merge (default %(default)g)")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
