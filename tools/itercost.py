"""Compare the per-iteration cost of two checkouts of opfbench.

Usage, from the root of either checkout:

    python tools/itercost.py PARENT CHANGE --seed 4 --pairs 10 \\
        --out BENCH.json [--perfbench-seconds S]

PARENT and CHANGE are the roots of two checkouts.  For each workload of
``perfbench/workloads.py`` (grid, scale and infeasible, at ``--seed``) and
for the twelve cells of ``case1_micro`` (three power-flow models by four
encodings: the smallest model, so its time per iteration is the solver's
fixed cost per iteration), the script runs ``--pairs`` alternating pairs
of fresh processes, the parent first in even pairs and the change first in
odd ones.  Each process imports opfbench from its checkout's ``src``,
builds every cell, solves each once (the cold solve, which builds each
model's solver structure, and the iteration total) and then times
``--passes`` warm passes, each solving every cell once.  As in
``perfbench/run.py``, the checkout's ``perfbench/probe.py`` runs before
every solve and after a pass's last one, each solve is scaled to the
probe's reference speed (``run.scaled``), and a pass reads as the sum of
its scaled solves, so a host that slows down for a while slows neither
side's reading.  Probing only before and after each pass was tried: over 8
processes of one checkout (the infeasible workload, 2 shared CPUs), such
passes read 0.26-0.34 s and the raw ones 0.17-0.23 s, against
0.344-0.356 s probed per solve.  A process's readings are its fastest
scaled pass and its fastest raw one, without the probes' time.  The output
records, per workload and side, the median and the quartiles (inclusive
method) of the scaled readings, the iteration total and the number of
pairs in which the change was faster on the scaled readings, then the same
summary of the raw readings; for ``case1_micro`` also the scaled time per
iteration.

Each checkout's ``tools/solve_digest.py 1 2 3`` is run once, and its exit
code and workload lines are recorded; equal lines mean both checkouts took
the same steps on every benchmark cell, bit for bit.

With ``--perfbench-seconds``, each workload is also run through
``perfbench/run.py --trace 0`` at ``--seed`` in the same alternation, and
its end-to-end metrics are summarized the same way.  Then each checkout
runs ``perfbench/run.py --trace 1 --seconds 5`` once per workload, a smoke
check of the traced run (it writes its spans under the checkout's
``perfbench/out/``): the exit code, whether the last line of its output is
strict JSON (``NaN`` and ``Infinity`` rejected), and which ``per_layer``
metrics of the change's ``BENCHMARK.json`` that result lacks.  The script
exits 1 when the change fails one of these checks on a workload where the
parent passes it.

One BLAS thread is set for every process.  Times are seconds from
``time.perf_counter``; compare the two sides of one run, not runs made at
different times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("grid", "scale", "infeasible", "case1_micro")
PERFBENCH_METRICS = ("cells_per_s", "cell_solve_p50_ms", "cell_solve_p90_ms",
                     "ipm_iterations", "peak_rss_mb", "setup_s")
SMOKE_SECONDS = 5
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
           MKL_NUM_THREADS="1")


def measure(root: Path, workload: str, seed: int, passes: int) -> dict:
    """Warm-pass timing of one workload against the checkout at root."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from opfbench.formulations import CostKind, PowerFlowKind, build_opf
    from opfbench.ipm import SolverOptions, solve
    from opfbench.netdata import parse_case

    import probe
    import workloads
    from run import scaled

    if workload == "case1_micro":
        from opfbench.cases import case_text
        texts = {"case1_micro": case_text("case1_micro")}
        cells = [("case1_micro", pf, ck) for pf in workloads.PF_KINDS
                 for ck in workloads.ENCODINGS]
    else:
        cases, cells = workloads.workload_cells(workload, seed)
        texts = {c.name: c.text for c in cases}
    networks = {name: parse_case(text) for name, text in texts.items()}
    models = [build_opf(networks[case], PowerFlowKind(pf), CostKind(ck))
              for case, pf, ck in sorted(cells)]
    opts = SolverOptions(tol=1e-8)
    iterations = sum(solve(m, opts)[0].iterations for m in models)
    speed = probe.Probe()
    raw, readings = [], []
    for _ in range(passes):
        times, probes = [], []
        for m in models:
            probes.append(speed())
            start = time.perf_counter()
            solve(m, opts)
            times.append(time.perf_counter() - start)
        probes.append(speed())
        raw.append(sum(times))
        readings.append(sum(scaled(times, probes)))
    return {"pass_s": min(readings), "raw_pass_s": min(raw),
            "iterations": iterations}


def run_json(cmd, cwd) -> dict:
    out = subprocess.run(cmd, cwd=cwd, env=ENV, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent, change, better) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p)
               for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    return {"parent": p, "change": c,
            "ratio_of_medians": c["median"] / p["median"],
            "pairs_change_better": f"{wins}/{len(parent)}"}


def alternate(pairs, run_one) -> dict:
    """run_one(side) for both sides, in alternating order, pairs times."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_one(side))
    return runs


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def traced_smoke(root: Path, workload: str, seed: int, names) -> dict:
    """One short traced perfbench run of the checkout at root: its exit
    code, whether its last line is strict JSON, and which of the metric
    ``names`` its result lacks."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SMOKE_SECONDS), "--trace",
         "1"], cwd=root, env=ENV, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1], parse_constant=reject_constant)
    except (IndexError, ValueError):
        last = None
    metrics = last.get("metrics", {}) if isinstance(last, dict) else {}
    return {"exit": proc.returncode, "strict_json": last is not None,
            "missing": [name for name in names if name not in metrics]}


def smoke_failures(entry) -> list[str]:
    """The checks of a ``traced_smoke`` result that failed."""
    return [check for check, ok in (("exit", entry["exit"] == 0),
                                    ("strict_json", entry["strict_json"]),
                                    ("complete", not entry["missing"]))
            if not ok]


def digest(root: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "tools/solve_digest.py", "1", "2", "3"], cwd=root,
        env=ENV, capture_output=True, text=True)
    return {"exit": proc.returncode,
            "workloads": [line for line in proc.stdout.splitlines()
                          if line.startswith("workload ")]}


def git_head(root: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--perfbench-seconds", type=float)
    parser.add_argument("--measure", nargs=2, metavar=("ROOT", "WORKLOAD"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        root, workload = args.measure
        print(json.dumps(measure(Path(root), workload, args.seed,
                                 args.passes)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    me = Path(__file__).resolve()
    result = {
        "command": "python tools/itercost.py PARENT CHANGE "
                   f"--seed {args.seed} --pairs {args.pairs} "
                   f"--passes {args.passes}"
                   + (f" --perfbench-seconds {args.perfbench_seconds:g}"
                      if args.perfbench_seconds else ""),
        "commits": {side: git_head(root) for side, root in roots.items()},
        "machine": {"cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "statistic": "per workload and side: median and quartiles "
                     "(inclusive) of the fastest of --passes warm passes "
                     "per process, each the sum of its solves scaled by "
                     "perfbench's probe; 'raw' summarizes the unscaled "
                     "fastest passes; pairs alternate the side that runs "
                     "first; pairs_change_better counts pairs in which the "
                     "change reads better",
        "warm_pass_s": {},
    }
    for workload in WORKLOADS:
        readings = {"parent": [], "change": []}

        def one(side):
            reading = run_json([sys.executable, str(me), "--seed",
                                str(args.seed), "--passes",
                                str(args.passes), "--measure",
                                str(roots[side]), workload], roots[side])
            readings[side].append(reading)
            return reading["pass_s"]

        runs = alternate(args.pairs, one)
        entry = compare(runs["parent"], runs["change"], "lower")
        entry["iterations"] = {
            side: sorted({r["iterations"] for r in rs})
            for side, rs in readings.items()}
        entry["raw"] = compare(
            *([r["raw_pass_s"] for r in readings[side]]
              for side in ("parent", "change")), "lower")
        if workload == "case1_micro":
            entry["per_iteration_us"] = {
                side: entry[side]["median"]
                / readings[side][0]["iterations"] * 1e6
                for side in ("parent", "change")}
        result["warm_pass_s"][workload] = entry
        print(f"{workload}: {entry['ratio_of_medians']:.3f} "
              f"({entry['pairs_change_better']})", file=sys.stderr)
    if args.perfbench_seconds:
        result["perfbench"] = {}
        for workload in WORKLOADS[:3]:
            def one(side):
                return run_json(
                    [sys.executable, "perfbench/run.py", "--workload",
                     workload, "--seed", str(args.seed), "--seconds",
                     f"{args.perfbench_seconds:g}", "--trace", "0"],
                    roots[side])["metrics"]

            runs = alternate(args.pairs, one)
            result["perfbench"][workload] = {
                name: compare(
                    [r[name]["value"] for r in runs["parent"]],
                    [r[name]["value"] for r in runs["change"]],
                    "higher" if name == "cells_per_s" else "lower")
                for name in PERFBENCH_METRICS}
            ratio = result["perfbench"][workload]["cells_per_s"][
                "ratio_of_medians"]
            print(f"perfbench {workload}: cells_per_s {ratio:.3f}",
                  file=sys.stderr)
        names = [m["name"] for m in json.loads(
            (roots["change"] / "BENCHMARK.json").read_text())["per_layer"]]
        smoke = result["traced_smoke"] = {}
        for workload in WORKLOADS[:3]:
            entry = smoke[workload] = {
                side: traced_smoke(root, workload, args.seed, names)
                for side, root in roots.items()}
            entry["change_fails"] = [
                check for check in smoke_failures(entry["change"])
                if check not in smoke_failures(entry["parent"])]
            print(f"traced smoke {workload}: change fails "
                  f"{entry['change_fails'] or 'nothing'} the parent passes",
                  file=sys.stderr)
    result["solve_digest"] = {side: digest(root)
                              for side, root in roots.items()}
    same = (result["solve_digest"]["parent"]["workloads"]
            == result["solve_digest"]["change"]["workloads"])
    result["solve_digest"]["same_lines"] = same
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    smoke = result.get("traced_smoke", {})
    return 1 if any(entry["change_fails"] for entry in smoke.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
