"""Fingerprint every benchmark solve, to compare two versions of the solver.

Usage: python tools/solve_digest.py SEED [SEED ...]

For each seed and each workload of ``perfbench/workloads.py`` (grid, scale
and infeasible), every cell is built and solved at tol 1e-8, the benchmark's
tolerance.  The script prints one line per cell,

    cell SEED WORKLOAD CASE/PF/ENCODING STATUS ITERATIONS SHA256

then, per workload, its iteration total, its factorizations (one per
iteration plus one per inertia correction), its audited iterations (those
whose log row holds the KKT audit's residuals), the L+U fill summed over
every iteration's accepted factorization, its status counts and one sha256
over all its cells.  The factorization and fill totals show a change in the
size of the KKT systems in one line.  A cell's sha256 covers the status,
repr(objective), the bytes of x, y, zl and zu, repr(kkt_residual) and the
iteration log's CSV, so two versions that print the same line took the
same steps, bit for bit.  Diff the output of two checkouts to find the
cells that differ.  The workloads module is only imported; the program
under test is the ``src`` tree next to this script.
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
    """Print one line per cell and the workload's summary line."""
    cases, cells = workloads.workload_cells(workload, seed)
    networks = {c.name: parse_case(c.text) for c in cases}
    opts = SolverOptions(tol=TOL)
    total = hashlib.sha256()
    statuses, iterations, factorizations, audited, fill = Counter(), 0, 0, 0, 0
    for case, pf, ck in sorted(cells):
        model = build_opf(networks[case], PowerFlowKind(pf), CostKind(ck))
        result, log = solve(model, opts)
        digest = cell_digest(result, log)
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
          f"factorizations={factorizations} audited={audited} fill={fill} "
          f"{counts} sha256={total.hexdigest()}")


def main(argv):
    if not argv or not all(a.isdigit() for a in argv):
        print("usage: python tools/solve_digest.py SEED [SEED ...]",
              file=sys.stderr)
        return 2
    for seed in map(int, argv):
        for workload in WORKLOADS:
            run_workload(workload, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
