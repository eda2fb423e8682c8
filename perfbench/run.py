"""opfbench benchmark: end-to-end and per-layer numbers for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``grid``, ``scale`` and ``infeasible``.
Each run makes its cells from ``--seed``, then drives the same public calls
as ``opfbench.bench.run_suite``: ``parse_case``, ``validate_network`` and
``build_opf`` (the set-up, repeated and timed as a whole), then one timed
``solve(model, SolverOptions(tol=1e-8))`` per cell.  Cells are solved in
turn, round after round, until ``--seconds`` have passed and every cell has
been solved at least once.

The speed of a shared host drifts by up to 50% over minutes, so a fixed
reference kernel (``probe.py``) runs before every timed call, and each
end-to-end time is scaled to the speed at which that probe takes
``probe.REFERENCE_S``.  A cell's time is the median of its scaled solves.

Outputs are checked outside the timed region: on ``grid`` and ``scale``
every cell must be optimal, pass ``kkt_check`` and agree with the other
encodings of its case and model (``grid`` also with the objectives in
``reference_grid.json``); on ``infeasible`` every cell must be labelled
infeasible.  Failing cells are counted, not fatal; any failure makes the
command exit with code 1.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced rounds instead, reports the
per-layer metrics of the first traced round plus the tracing overhead, and
writes its spans to ``perfbench/out/``.  The last line of standard output
is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so timings do not depend on how
# many cores the machine lends to a library call.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference_grid.json"
OUT = HERE / "out"

SOLVER_TOL = 1e-8
SETUP_REPS = 15
# Output checks: acceptance criterion 6 (kkt_check at 1e-6) and criterion 1
# (cross-encoding agreement at 1e-5 relative); reference objectives are
# held to the solution-recovery tolerance.
KKT_TOL = 1e-6
CROSS_RTOL = 1e-5
REFERENCE_RTOL = 1e-6


class ProgramMissing(Exception):
    """The checkout holds no opfbench sources to benchmark."""


def import_program():
    """Import opfbench from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "opfbench" / "__init__.py").is_file():
        raise ProgramMissing(f"no opfbench sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import opfbench

    if not Path(opfbench.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"opfbench imported from {opfbench.__file__}")
    return opfbench


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def cell_id(cell):
    return "/".join(cell)


def percentile(values, q):
    """Linear-interpolation percentile of a non-empty list."""
    vals = sorted(values)
    pos = (len(vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


class Bench:
    """One workload's cells, models and the calls that time them."""

    def __init__(self, workload, seed):
        from opfbench import formulations, ipm, netdata

        import workloads

        self.netdata, self.formulations, self.ipm = netdata, formulations, ipm
        self.workload, self.seed = workload, seed
        self.cases, self.cells = workloads.workload_cells(workload, seed)
        self.opts = ipm.SolverOptions(tol=SOLVER_TOL)
        self.models = {}
        self.errors = {}  # cell -> reason it could not be built or solved

    def setup(self, tracer=None):
        """Parse, validate and build every cell; returns wall seconds."""
        netdata, formulations = self.netdata, self.formulations
        tag = tracer.on_cell if tracer else _no_cell
        t0 = time.perf_counter()
        networks, models, errors = {}, {}, {}
        for case in self.cases:
            with tag(case.name):
                try:
                    net = netdata.parse_case(case.text)
                    bad = [f.message for f in netdata.validate_network(net)
                           if f.severity == "error"]
                except Exception as exc:
                    bad = [f"{type(exc).__name__}: {exc}"]
                if bad:
                    networks[case.name] = "; ".join(bad)
                else:
                    networks[case.name] = net
        for cell in self.cells:
            net = networks[cell[0]]
            if isinstance(net, str):
                errors[cell] = f"input error: {net}"
                continue
            with tag(cell_id(cell)):
                try:
                    models[cell] = formulations.build_opf(
                        net, formulations.PowerFlowKind(cell[1]),
                        formulations.CostKind(cell[2]),
                    )
                except Exception as exc:
                    errors[cell] = f"build error: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        self.models, self.errors = models, errors
        return elapsed

    def solve(self, cell, tracer=None):
        """Time one solve; returns (seconds, result) or records an error."""
        tag = tracer.on_cell if tracer else _no_cell
        with tag(cell_id(cell)):
            t0 = time.perf_counter()
            try:
                result, _log = self.ipm.solve(self.models[cell], self.opts)
            except Exception as exc:
                self.errors[cell] = f"solve error: {type(exc).__name__}: {exc}"
                return None, None
            return time.perf_counter() - t0, result

    def warm_up(self):
        """Solve one lambda cell per power-flow model, untimed, so lazy
        imports and first-call costs are paid before timing starts."""
        seen = set()
        for cell in self.cells:
            if cell[1] not in seen and cell[2] == "lambda" \
                    and cell in self.models:
                seen.add(cell[1])
                self.solve(cell)

    def live_cells(self):
        return [c for c in self.cells if c in self.models
                and c not in self.errors]

    def sample(self, cell, samples, results, tracer=None):
        """Solve ``cell`` once, adding its time and result."""
        dt, result = self.solve(cell, tracer)
        if result is not None:
            samples.setdefault(cell, []).append(dt)
            results[cell] = result

    def solve_for(self, seconds, probe):
        """Whole first round, then cells in turn until ``seconds`` pass.

        A probe runs before every solve and once after the last, so each
        solve time can be scaled by the machine's speed around it.  Returns
        (samples, results): each cell's scaled solve times and its last
        result.
        """
        order, raw, probes, results = [], [], [], {}
        start, rounds = time.perf_counter(), 0
        while rounds == 0 or (time.perf_counter() - start < seconds
                              and self.live_cells()):
            rounds += 1
            for cell in self.live_cells():
                probes.append(probe())
                dt, result = self.solve(cell)
                order.append(cell)
                raw.append(dt)
                if result is not None:
                    results[cell] = result
                if rounds > 1 and time.perf_counter() - start >= seconds:
                    break
        probes.append(probe())
        samples = {}
        for cell, dt in zip(order, scaled(raw, probes)):
            if dt is not None:
                samples.setdefault(cell, []).append(dt)
        return samples, results

    def check(self, results, reference, tracer=None):
        """Cell -> reason for every cell whose outcome is wrong."""
        bad = dict(self.errors)
        tag = tracer.on_cell if tracer else _no_cell
        objectives = {}
        for cell, result in results.items():
            if cell in bad:
                continue
            status = result.status.value
            if self.workload == "infeasible":
                if status != "infeasible":
                    bad[cell] = f"status {status}, expected infeasible"
                continue
            if status != "optimal":
                bad[cell] = f"status {status}, expected optimal"
                continue
            try:
                with tag(cell_id(cell)):
                    report = self.ipm.kkt_check(self.models[cell], result)
            except Exception as exc:
                bad[cell] = f"kkt_check error: {type(exc).__name__}: {exc}"
                continue
            if not report.max_residual <= KKT_TOL:
                bad[cell] = f"kkt_check residual {report.max_residual:.3g}"
                continue
            if reference is not None:
                ref = reference[cell_id(cell)]
                if abs(result.objective - ref) > REFERENCE_RTOL * max(
                        1.0, abs(ref)):
                    bad[cell] = (f"objective {result.objective!r} differs "
                                 f"from reference {ref!r}")
                    continue
            objectives[cell] = result.objective
        for cell, obj in objectives.items():
            ref = objectives.get((cell[0], cell[1], "lambda"))
            if ref is not None and abs(obj - ref) > CROSS_RTOL * max(
                    1.0, abs(ref)):
                bad[cell] = f"objective {obj!r} differs from lambda {ref!r}"
        for cell in self.cells:
            if cell not in bad and cell not in results:
                bad[cell] = "never solved"
        return bad


def _no_cell(_cell):
    return nullcontext()


def cell_times(samples):
    """Fastest solve per cell: other work on a shared machine only ever
    adds time to a deterministic solve, so the minimum is the steadiest
    estimate of its cost."""
    return {cell: min(ts) for cell, ts in samples.items()}


def scaled(raw, probes):
    """Each time in ``raw`` scaled to the probe's reference speed.

    ``probes[k]`` was taken just before ``raw[k]`` and ``probes[k + 1]``
    just after it.  Time ``k`` is multiplied by ``probe.REFERENCE_S`` over
    the median of the probes from two before it to three after it, which
    follows the machine's speed over a few calls but not one probe's
    noise.  ``None`` (a call that failed) stays ``None``.
    """
    import probe

    out = []
    for k, dt in enumerate(raw):
        if dt is None:
            out.append(None)
            continue
        speed = statistics.median(probes[max(0, k - 2):k + 4])
        out.append(dt * probe.REFERENCE_S / speed)
    return out


def cells_per_s(times):
    return len(times) / sum(times.values())


def end_to_end(bench, seconds, reference):
    """Untraced run: (metrics, failed cells, notes).

    Every time is scaled by the probe (see ``scaled``), and each cell's
    time is the median of its scaled solves.
    """
    import probe

    speed = probe.Probe()
    raw_setups, probes = [], []
    for _ in range(SETUP_REPS):
        probes.append(speed())
        raw_setups.append(bench.setup())
    probes.append(speed())
    bench.warm_up()
    samples, results = bench.solve_for(seconds, speed)
    bad = bench.check(results, reference)
    metrics = {
        "setup_s": statistics.median(scaled(raw_setups, probes)),
        "ipm_iterations": sum(r.iterations for r in results.values()),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"set-up: median of {SETUP_REPS}, unscaled "
             f"{statistics.median(raw_setups):.6g} s"]
    if not samples:
        return metrics, bad, notes + ["no cell was solved"]
    times = {cell: statistics.median(ts) for cell, ts in samples.items()}
    ms = [1000.0 * t for t in times.values()]
    metrics["cells_per_s"] = cells_per_s(times)
    metrics["cell_solve_p50_ms"] = percentile(ms, 0.5)
    metrics["cell_solve_p90_ms"] = percentile(ms, 0.9)
    counts = sorted(len(ts) for ts in samples.values())
    notes.append(f"cell times: median of {counts[0]} to {counts[-1]} "
                 f"solves for each of {len(times)} cells")
    notes.append(f"probe: median {1000.0 * statistics.median(probes):.4g} ms"
                 f" against the reference {1000.0 * probe.REFERENCE_S:.4g}"
                 f" ms; times below are scaled to the reference")
    return metrics, bad, notes


def per_layer(bench, seconds, reference, spans):
    """Traced run: (metrics, failed cells, notes).

    Every cell is solved untraced and then traced, back to back, round
    after round while another round fits in ``seconds``.  The per-layer
    metrics come from the traced set-up, the first traced round and the
    traced output checks; the tracing overhead compares the untraced and
    traced solves.
    """
    tracer = spans.Tracer()
    with tracer.install():
        bench.setup(tracer)
    bench.warm_up()
    untraced, traced, first = {}, {}, None
    round_tracer, last = tracer, 0.0
    start = time.perf_counter()
    while first is None or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        results = {}
        for cell in bench.live_cells():
            bench.sample(cell, untraced, {})
            with round_tracer.install():
                bench.sample(cell, traced, results, round_tracer)
        if first is None:
            first = results
        round_tracer = spans.Tracer()
        last = time.perf_counter() - round_start
    with tracer.install():
        bad = bench.check(first, reference, tracer)
    metrics = spans.layer_metrics(tracer, first)
    if untraced and traced:
        plain = cells_per_s(cell_times(untraced))
        with_trace = cells_per_s(cell_times(traced))
        metrics["trace.cells_per_s_untraced"] = plain
        metrics["trace.cells_per_s_traced"] = with_trace
        metrics["trace.overhead_frac"] = plain / with_trace - 1.0
    path = OUT / f"spans-{bench.workload}-seed{bench.seed}.jsonl"
    tracer.write(path, {"workload": bench.workload, "seed": bench.seed,
                        **environment()})
    notes = [f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}"]
    return metrics, bad, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "scale", "infeasible"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_program()
        spec = json.loads(SPEC.read_text())
    except (ProgramMissing, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import spans

    bench = Bench(args.workload, args.seed)
    reference = (json.loads(REFERENCE.read_text())
                 if args.workload == "grid" else None)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in environment().items()))
    if args.trace:
        values, bad, notes = per_layer(bench, args.seconds, reference, spans)
        declared = spec["per_layer"]
    else:
        values, bad, notes = end_to_end(bench, args.seconds, reference)
        declared = spec["end_to_end"]

    attempted = len(bench.cells)
    for note in notes:
        print(note)
    print(f"  {'failed_frac':<36} {len(bad) / attempted:>14.6g} "
          f"({len(bad)} of {attempted} cells)")
    metrics = {}
    for m in declared:
        if m["name"] in values:
            value = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<36} {value:>14.6g} {m['unit']}")
    absent = [m["name"] for m in declared if m["name"] not in values]
    if absent:
        print("absent: " + ", ".join(absent))
    for cell, reason in sorted(bad.items()):
        print(f"FAILED {cell_id(cell)}: {reason}")
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": len(bad), "metrics": metrics}))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
