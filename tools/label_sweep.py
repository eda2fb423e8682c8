"""Solve every bundled case near and past its generation capacity.

Usage: python tools/label_sweep.py [TOL]

Every bundled case has each bus's active and reactive demand scaled by one
factor, so that total active demand is MARGIN times total generator pmax,
for each margin below.  Each such case is solved with every power-flow
model and cost encoding at tolerance TOL (default 1e-8), 7 cases x 9
margins x 3 models x 4 encodings = 756 cells.  Below a margin of one a
dispatch may exist; above it none does, and ``infeasible`` is the only
right label.  The script prints one line per cell,

    cell CASE MARGIN PF ENCODING STATUS ITERATIONS [ORACLE]

where a DC line ends with ORACLE, the label scipy's HiGHS gives the same
LP (``lp_oracle`` of ``tests/helpers.py``): ``optimal`` or
``infeasible``.  AC and SOC have no oracle here.  Then, per model, it
prints its status counts and its iteration total, and last the number of
DC cells whose label differs from the oracle's.  Diff the output of two
checkouts to see which labels and iteration counts a change moved.  Cases
are built as Matpower text with the benchmark's workloads module, and
the oracle taken from the tests' helpers; both are only imported, and the
program under test is the ``src`` tree next to this script.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                str(ROOT / "tests")]

from opfbench.cases import case_names, case_text  # noqa: E402
from opfbench.formulations import CostKind, PowerFlowKind, build_opf  # noqa: E402
from opfbench.ipm import SolverOptions, solve  # noqa: E402
from opfbench.netdata import parse_case  # noqa: E402

import workloads  # noqa: E402
from helpers import lp_oracle  # noqa: E402

MARGINS = (0.5, 0.7, 0.9, 0.95, 0.995, 1.005, 1.05, 1.15, 1.4)


def scaled_case(name: str, margin: float) -> str:
    """Matpower text of a bundled case with total active demand scaled to
    ``margin`` times total generator pmax, reactive demand alike."""
    base, t = workloads.read_tables(case_text(name))
    pmax = sum(row[workloads.GEN_PMAX] for row in t["gen"])
    factor = margin * pmax / sum(row[workloads.BUS_PD] for row in t["bus"])
    pd, qd = workloads.BUS_PD, workloads.BUS_QD
    bus = [row[:pd] + [row[pd] * factor, row[qd] * factor] + row[qd + 1:]
           for row in t["bus"]]
    return workloads.write_case(name, base, dict(t, bus=bus))


def main(argv):
    try:
        (tol,) = map(float, argv) if argv else (1e-8,)
        opts = SolverOptions(tol=tol)
    except ValueError:
        print("usage: python tools/label_sweep.py [TOL]", file=sys.stderr)
        return 2
    statuses = {pf: Counter() for pf in workloads.PF_KINDS}
    iterations = Counter()
    disagreements = 0
    for name in case_names():
        for margin in MARGINS:
            network = parse_case(scaled_case(name, margin))
            for pf in workloads.PF_KINDS:
                for ck in workloads.ENCODINGS:
                    model = build_opf(network, PowerFlowKind(pf),
                                      CostKind(ck))
                    result, _ = solve(model, opts)
                    statuses[pf][result.status.value] += 1
                    iterations[pf] += result.iterations
                    line = (f"cell {name} {margin} {pf} {ck} "
                            f"{result.status.value} {result.iterations}")
                    if pf == "dc":
                        oracle, _ = lp_oracle(model)
                        disagreements += oracle is not result.status
                        line += f" {oracle.value}"
                    print(line, flush=True)
    for pf in workloads.PF_KINDS:
        counts = " ".join(f"{s}={n}" for s, n in sorted(statuses[pf].items()))
        print(f"model {pf} iterations={iterations[pf]} {counts}")
    print(f"dc oracle disagreements={disagreements}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
