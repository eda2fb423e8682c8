"""The benchmark's per-layer contract, checked on a small subset of each
workload: a traced set-up, one traced solve per cell and the traced output
checks must yield every ``per_layer`` metric that ``BENCHMARK.json`` names,
as strict JSON.  A metric goes missing when the program stops calling an
entry point the tracer wraps (``perfbench/spans.py``), such as the model
Hessian of an LP.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402

PER_LAYER = [m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if not m["name"].startswith("trace.")]


def traced_metrics(workload, case_name=None):
    """Per-layer metrics of one traced pass over the cells of one case
    (the first one when ``case_name`` is None)."""
    bench = run.Bench(workload, 1)
    case = next(c for c in bench.cases
                if case_name is None or c.name == case_name)
    bench.cases = [case]
    bench.cells = [c for c in bench.cells if c[0] == case.name]
    tracer = spans.Tracer()
    results = {}
    with tracer.install():
        bench.setup(tracer)
        for cell in bench.live_cells():
            bench.sample(cell, {}, results, tracer)
        bad = bench.check(results, None, tracer)
    return spans.layer_metrics(tracer, results), bad, len(bench.cells)


@pytest.mark.parametrize("workload, case_name, cells", [
    ("grid", "case9_loop", 12), ("scale", None, 12), ("infeasible", None, 4),
])
def test_traced_pass_yields_every_per_layer_metric(workload, case_name,
                                                   cells):
    metrics, bad, n = traced_metrics(workload, case_name)
    assert n == cells
    assert bad == {}
    assert [name for name in PER_LAYER if name not in metrics] == []
    json.dumps(metrics, allow_nan=False)
