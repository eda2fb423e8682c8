"""Outside-in tracing of the opfbench layers.

:class:`Tracer` replaces the public entry points of each layer with
wrappers that record one span per call: name, start, end, parent span and
the cell being worked on.  Spans stay in memory; :meth:`Tracer.write`
saves them when the benchmark ends.  Nothing inside the program is edited;
the wrappers sit on the module attributes the layers call each other
through, and are removed again when tracing stops.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from opfbench import formulations, ipm, netdata
from opfbench.kkt import FactorizationError
from opfbench.modelir import ModelIR, SolveStatus

from workloads import ENCODINGS, PF_KINDS

# (object, attribute, span name).  ``formulations.validate_network`` is the
# copy build_opf calls; both copies record as one layer.
SPAN_TARGETS = (
    (netdata, "parse_case", "netdata.parse"),
    (netdata, "validate_network", "netdata.validate"),
    (formulations, "validate_network", "netdata.validate"),
    (formulations, "preprocess", "pwlcost.preprocess"),
    (formulations, "build_opf", "formulations.build"),
    (ModelIR, "eval_raw_rows", "modelir.rows"),
    (ipm, "eval_jacobian", "modelir.jacobian"),
    (ipm, "eval_lagrangian_hessian", "modelir.hessian"),
    (ipm, "solve", "ipm.solve"),
    (ipm, "kkt_check", "ipm.kkt_check"),
)
FACTORIZE = (ipm, "factorize", "kkt.factorize")
# Counted, not spanned: barrier evaluations are line-search arithmetic and
# belong to the IPM's own time.
BARRIER = (ipm, "_barrier_value", "ipm.barrier")

# Span fields, in the order a span record holds them.
NAME, START, END, PARENT, CELL, TAG = range(6)


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.cell = None
        self.installed = set()
        self._stack = []

    def _wrap(self, name, fn, tag_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None,
                   self.cell, tag_of(args, kwargs) if tag_of else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def _wrap_factorize(self, name, fn):
        """Span per factorization, tagged dense or sparse and "-error" when
        it raises; the returned factor's ``solve`` records back-solves."""

        def dense_tag(args, kwargs):
            dense = kwargs.get("dense", args[1] if len(args) > 1 else False)
            return "dense" if dense else "sparse"

        inner = self._wrap(name, fn, dense_tag)
        spans = self.spans

        def traced(*args, **kwargs):
            idx = len(spans)
            try:
                factor = inner(*args, **kwargs)
            except FactorizationError:
                spans[idx][TAG] += "-error"
                raise
            try:
                factor.solve = self._wrap("kkt.backsolve", factor.solve)
            except AttributeError:
                pass  # a factor that cannot be wrapped leaves back-solves absent
            return factor

        return traced

    def _wrap_count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def install(self):
        """Wrap every layer entry point that exists, restoring on exit."""
        saved = []
        wrappers = [(obj, attr, name, self._wrap)
                    for obj, attr, name in SPAN_TARGETS]
        wrappers.append((*FACTORIZE, self._wrap_factorize))
        wrappers.append((*BARRIER, self._wrap_count))
        try:
            for obj, attr, name, make in wrappers:
                if not hasattr(obj, attr):
                    continue
                fn = getattr(obj, attr)
                saved.append((obj, attr, fn))
                setattr(obj, attr, make(name, fn))
                self.installed.add(name)
            yield self
        finally:
            for obj, attr, fn in reversed(saved):
                setattr(obj, attr, fn)

    @contextmanager
    def on_cell(self, cell):
        """Tag spans recorded inside the block with ``cell``."""
        previous, self.cell = self.cell, cell
        try:
            yield
        finally:
            self.cell = previous

    def write(self, path, header: dict):
        """Write a header line and then one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, cell, tag) in enumerate(
                    self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "cell": cell, "tag": tag,
                }) + "\n")


def self_times(spans, parent_name):
    """Per span named ``parent_name``: (duration, child time, self time).

    Child time is the total duration of the span's direct children; self
    time is the duration minus the part of it the children cover.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[rec[PARENT]].append(rec)
    out = []
    for i, rec in enumerate(spans):
        if rec[NAME] != parent_name:
            continue
        duration = rec[END] - rec[START]
        kids = sorted(children[i], key=lambda r: r[START])
        child = sum(r[END] - r[START] for r in kids)
        covered, reach = 0.0, rec[START]
        for r in kids:
            start, end = max(r[START], reach), min(r[END], rec[END])
            if end > start:
                covered += end - start
                reach = end
        out.append((duration, child, duration - covered))
    return out


def layer_metrics(tracer, results):
    """Per-layer metrics of one traced pass.

    ``results`` maps each cell solved in the pass to its SolveResult.
    Model and KKT calls count only inside ``ipm.solve``.  A metric whose
    span was never recorded is left out, which the report shows as absent.
    Sums over cells the workload does not have, such as the AC iterations
    of a DC-only workload, are zero.
    """
    spans = tracer.spans
    named = defaultdict(list)
    for rec in spans:
        named[rec[NAME]].append(rec)
    solve_ids = {i for i, rec in enumerate(spans) if rec[NAME] == "ipm.solve"}

    def in_solve(name):
        return [rec for rec in named[name] if rec[PARENT] in solve_ids]

    def seconds(recs):
        return float(sum(rec[END] - rec[START] for rec in recs))

    out = {}
    for name in ("netdata.parse", "netdata.validate", "pwlcost.preprocess",
                 "formulations.build"):
        if named[name]:
            out[f"{name}_s"] = seconds(named[name])
    for name in ("modelir.rows", "modelir.jacobian", "modelir.hessian",
                 "kkt.backsolve"):
        recs = in_solve(name)
        if recs:
            out[f"{name}_calls"] = len(recs)
            out[f"{name}_s"] = seconds(recs)
    iterations = sum(r.iterations for r in results.values())
    per_iter = max(iterations, 1)
    factorize = in_solve("kkt.factorize")
    if factorize:
        dense = [rec for rec in factorize if rec[TAG].startswith("dense")]
        out["kkt.factorize_calls"] = len(factorize)
        out["kkt.factorize_s"] = seconds(factorize)
        out["kkt.factorize_dense_calls"] = len(dense)
        out["kkt.factorize_dense_s"] = seconds(dense)
        out["kkt.factorize_errors"] = sum(
            rec[TAG].endswith("-error") for rec in factorize)
        out["kkt.factorizations_per_iter"] = len(factorize) / per_iter
    if named["ipm.solve"]:
        timing = self_times(spans, "ipm.solve")
        out["ipm.solve_s"] = sum(total for total, _, _ in timing)
        out["ipm.self_s"] = sum(own for _, _, own in timing)
        out["ipm.iterations"] = iterations
        out["ipm.ms_per_iter"] = 1000.0 * out["ipm.solve_s"] / per_iter
        by_encoding = defaultdict(float)
        for rec in named["ipm.solve"]:
            _, pf, ck = rec[CELL].split("/")
            by_encoding[pf, ck] += rec[END] - rec[START]
        iters = Counter()
        for (_, pf, ck), result in results.items():
            iters[pf, ck] += result.iterations
        for pf in PF_KINDS:
            for ck in ENCODINGS:
                out[f"ipm.iterations.{pf}.{ck}"] = iters[pf, ck]
                out[f"ipm.solve_s.{pf}.{ck}"] = by_encoding[pf, ck]
    # Each line search evaluates the barrier once at its start and once per
    # trial point, so trials beyond the first are calls minus two per
    # iteration: backtracks plus second-order-correction trials.
    if tracer.counts["ipm.barrier"]:
        out["ipm.merit_evals"] = tracer.counts["ipm.barrier"] - 2 * iterations
    # The benchmark calls kkt_check itself, once per optimal result, so it
    # is absent only when the program no longer has it.
    if "ipm.kkt_check" in tracer.installed:
        out["ipm.kkt_check_s"] = seconds(named["ipm.kkt_check"])
    statuses = Counter(r.status.value for r in results.values())
    for status in SolveStatus:
        out[f"ipm.status.{status.value}"] = statuses[status.value]
    return out
