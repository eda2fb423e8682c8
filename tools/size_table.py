"""Solve one power-flow model of ``case30_grid`` tiled to paper sizes.

Usage: python tools/size_table.py N [N ...] [--pf dc|ac|soc]

For each size N (a multiple of 30, at least 60), ``case30_grid`` is tiled
N / 30 times in a ring with 2 random ties between neighbouring copies (tie
seed 1), as the benchmark's workloads module builds its 120-bus case, and
the chosen model (default dc) is solved with each cost encoding at tol
1e-8.  The script prints one line per cell,

    BUSES ENCODING STATUS ITERATIONS (CORRECTIONS) SECONDS [ORACLE]

where CORRECTIONS is the iteration log's total of inertia corrections and
SECONDS the solve's wall time, one cold solve each: compare ratios, not
absolute times.  A DC line ends with ORACLE, the status and objective
scipy's HiGHS finds for the same LP (``lp_oracle`` of
``tests/helpers.py``), the objective ``-`` when it is infeasible; AC and
SOC have no oracle here.  The workloads module and the tests' helpers are
only imported; the program under test is the ``src`` tree next to this
script.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                str(ROOT / "tests")]

from opfbench.formulations import CostKind, PowerFlowKind, build_opf  # noqa: E402
from opfbench.ipm import SolverOptions, solve  # noqa: E402
from opfbench.netdata import parse_case  # noqa: E402

import workloads  # noqa: E402
from helpers import lp_oracle  # noqa: E402

BASE = "case30_grid"
TIES_PER_PAIR = 2
TIE_SEED = 1
TOL = 1e-8


def tiled_case(buses: int):
    """``BASE`` tiled to ``buses`` buses, parsed."""
    base, tables = workloads._tile(BASE, buses // 30, TIES_PER_PAIR,
                                   random.Random(TIE_SEED))
    name = f"{BASE}_x{buses // 30}"
    return parse_case(workloads.write_case(name, base, tables))


def buses(text: str) -> int:
    n = int(text)
    if n < 60 or n % 30:
        raise argparse.ArgumentTypeError(
            f"{text} is not a multiple of 30 of at least 60")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="iterations and corrections of every encoding at "
                    "tiled sizes")
    parser.add_argument("sizes", nargs="+", type=buses, metavar="N")
    parser.add_argument("--pf", choices=workloads.PF_KINDS, default="dc")
    args = parser.parse_args(argv)
    opts = SolverOptions(tol=TOL)
    for n in args.sizes:
        network = tiled_case(n)
        for ck in workloads.ENCODINGS:
            model = build_opf(network, PowerFlowKind(args.pf), CostKind(ck))
            result, log = solve(model, opts)
            corrections = sum(r.inertia_corrections for r in log.records)
            line = (f"{n} {ck} {result.status.value} {result.iterations} "
                    f"({corrections}) {result.wall_time:.2f}")
            if args.pf == "dc":
                status, objective = lp_oracle(model)
                line += (f" {status.value} "
                         f"{'-' if objective is None else f'{objective:.10g}'}")
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
