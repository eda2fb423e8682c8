"""Fingerprint every benchmark solve, to compare two versions of the solver.

Usage: python tools/solve_digest.py SEED [SEED ...]

For each seed and each workload of ``perfbench/workloads.py`` (grid, scale
and infeasible), every cell is built and solved at tol 1e-8, the benchmark's
tolerance.  The script prints one line per cell,

    cell SEED WORKLOAD CASE/PF/ENCODING STATUS ITERATIONS SHA256

then, per workload, its iteration total, its factorizations (one per
iteration plus one per inertia correction), its audited iterations (those
whose log row holds the KKT audit's residuals), its row evaluations (calls
of ``ModelIR.eval_raw_rows``), the L+U fill summed over every iteration's
accepted factorization, its status counts and one sha256 over all its
cells.  The factorization and fill totals show a change in the size of the
KKT systems in one line, and the row evaluations a change in how often the
solver evaluates a point.  A cell's sha256 covers the status,
repr(objective), the bytes of x, y, zl and zu, repr(kkt_residual) and the
iteration log's CSV, so two versions that print the same line took the
same steps, bit for bit.  Diff the output of two checkouts to find the
cells that differ.  The workloads module is only imported; the program
under test is the ``src`` tree next to this script.

Every cell is then solved a second time, warm: the solver reuses what it
built for the model at its first solve.  The printed lines cover the first
solves only.  A cell whose second digest differs from its first is named
on standard error, and the script exits 1 once every seed has run.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from opfbench.formulations import CostKind, PowerFlowKind, build_opf  # noqa: E402
from opfbench.ipm import SolverOptions, solve  # noqa: E402
from opfbench.modelir import ModelIR  # noqa: E402
from opfbench.netdata import parse_case  # noqa: E402

import workloads  # noqa: E402

TOL = 1e-8
WORKLOADS = ("grid", "scale", "infeasible")


def cell_digest(result, log) -> str:
    h = hashlib.sha256()
    h.update(result.status.value.encode())
    h.update(repr(result.objective).encode())
    for vec in (result.x, result.y, result.zl, result.zu):
        h.update(vec.tobytes())
    h.update(repr(result.kkt_residual).encode())
    h.update(log.to_csv().encode())
    return h.hexdigest()


def run_workload(workload: str, seed: int):
    """Print one line per cell and the workload's summary line; returns
    the cells whose warm solve differs from their first."""
    cases, cells = workloads.workload_cells(workload, seed)
    networks = {c.name: parse_case(c.text) for c in cases}
    opts = SolverOptions(tol=TOL)
    total = hashlib.sha256()
    statuses, iterations, factorizations, audited, fill = Counter(), 0, 0, 0, 0
    row_evals, warm_differs = 0, []
    eval_raw_rows = ModelIR.eval_raw_rows

    def counted(model, x):
        nonlocal row_evals
        row_evals += 1
        return eval_raw_rows(model, x)

    for case, pf, ck in sorted(cells):
        model = build_opf(networks[case], PowerFlowKind(pf), CostKind(ck))
        ModelIR.eval_raw_rows = counted
        try:
            result, log = solve(model, opts)
        finally:
            ModelIR.eval_raw_rows = eval_raw_rows
        digest = cell_digest(result, log)
        if cell_digest(*solve(model, opts)) != digest:
            warm_differs.append(f"cell {seed} {workload} {case}/{pf}/{ck}")
        total.update(digest.encode())
        statuses[result.status.value] += 1
        iterations += result.iterations
        factorizations += len(log) + sum(
            r.inertia_corrections for r in log.records)
        audited += sum(r.audited for r in log.records)
        fill += sum(r.fill for r in log.records)
        print(f"cell {seed} {workload} {case}/{pf}/{ck} "
              f"{result.status.value} {result.iterations} {digest}")
    counts = " ".join(f"{s}={n}" for s, n in sorted(statuses.items()))
    print(f"workload {seed} {workload} iterations={iterations} "
          f"factorizations={factorizations} audited={audited} "
          f"row_evals={row_evals} fill={fill} "
          f"{counts} sha256={total.hexdigest()}")
    return warm_differs


def main(argv):
    if not argv or not all(a.isdigit() for a in argv):
        print("usage: python tools/solve_digest.py SEED [SEED ...]",
              file=sys.stderr)
        return 2
    warm_differs = []
    for seed in map(int, argv):
        for workload in WORKLOADS:
            warm_differs += run_workload(workload, seed)
    for cell in warm_differs:
        print(f"warm solve differs from the first: {cell}", file=sys.stderr)
    return 1 if warm_differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
