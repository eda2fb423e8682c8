"""Tests for the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import pytest

import probe
import run
import spans
import workloads
from opfbench import ipm, netdata
from opfbench.modelir import SolveStatus

# Slack for self time plus child time against solve time: the two sides
# subtract the same clock readings in a different order, so they may differ
# by float rounding only.
SLACK_S = 1e-9

COUNT_METRICS = (
    "modelir.rows_calls", "modelir.jacobian_calls", "modelir.hessian_calls",
    "kkt.factorize_calls", "kkt.factorize_dense_calls",
    "kkt.factorize_errors", "kkt.backsolve_calls", "ipm.iterations",
    "ipm.merit_evals",
)


def test_scale_case_is_deterministic_and_valid():
    text = workloads.scale_case(7).text
    assert workloads.scale_case(7).text == text
    assert workloads.scale_case(8).text != text
    net = netdata.parse_case(text)
    assert [f for f in netdata.validate_network(net)
            if f.severity == "error"] == []
    assert len(net.buses) == 120
    assert sum(b.bus_type == 3 for b in net.buses) == 1


def test_infeasible_cases_are_deterministic_and_overloaded():
    texts = [c.text for c in workloads.infeasible_cases(3)]
    assert [c.text for c in workloads.infeasible_cases(3)] == texts
    assert [c.text for c in workloads.infeasible_cases(4)] != texts
    for text in texts:
        net = netdata.parse_case(text)
        demand = sum(b.demand.re for b in net.buses)
        assert demand > sum(g.pmax for g in net.generators)


def test_seed_orders_the_same_grid_cells():
    _, a = workloads.workload_cells("grid", 1)
    _, b = workloads.workload_cells("grid", 2)
    assert len(a) == 84 and a != b and sorted(a) == sorted(b)


@pytest.fixture(scope="module")
def traced_passes():
    """Two traced passes over the case9_loop cells of the grid."""
    bench = run.Bench("grid", 0)
    bench.cells = [c for c in bench.cells if c[0] == "case9_loop"]
    passes = []
    for _ in range(2):
        tracer = spans.Tracer()
        results = {}
        with tracer.install():
            bench.setup(tracer)
            for cell in bench.cells:
                bench.sample(cell, {}, results, tracer)
        passes.append((tracer, results))
    return passes


def test_tracer_restores_the_layers(traced_passes):
    assert ipm.solve.__name__ == "solve"
    assert ipm.factorize.__name__ == "factorize"


def test_self_plus_child_time_is_solve_time(traced_passes):
    tracer, results = traced_passes[0]
    timing = spans.self_times(tracer.spans, "ipm.solve")
    assert len(timing) == len(results) == 12
    for total, child, own in timing:
        assert 0.0 < child < total
        assert abs(own + child - total) <= SLACK_S
    m = spans.layer_metrics(tracer, results)
    children = sum(m[f"{name}_s"] for name in (
        "modelir.rows", "modelir.jacobian", "modelir.hessian",
        "kkt.factorize", "kkt.backsolve"))
    assert abs(m["ipm.self_s"] + children - m["ipm.solve_s"]) \
        <= SLACK_S * len(timing)


def test_counts_repeat_exactly(traced_passes):
    (t1, r1), (t2, r2) = traced_passes
    m1, m2 = spans.layer_metrics(t1, r1), spans.layer_metrics(t2, r2)
    for name in COUNT_METRICS:
        assert m1[name] == m2[name], name
    assert m1["kkt.factorize_calls"] >= m1["ipm.iterations"] > 0
    statuses = [k for k in m1 if k.startswith("ipm.status.")]
    assert [m1[k] for k in statuses] == [m2[k] for k in statuses]
    assert m1["ipm.status.optimal"] == 12


def test_metric_of_a_span_never_recorded_is_absent():
    bench = run.Bench("scale", 0)
    tracer = spans.Tracer()
    with tracer.install():
        bench.setup(tracer)
    m = spans.layer_metrics(tracer, {})
    assert m["formulations.build_s"] > 0.0
    assert "ipm.solve_s" not in m and "kkt.factorize_calls" not in m


class _Result:
    def __init__(self, status):
        self.status = status


def test_optimal_on_an_infeasible_cell_is_a_failure():
    bench = run.Bench("infeasible", 0)
    results = {cell: _Result(SolveStatus.INFEASIBLE) for cell in bench.cells}
    assert bench.check(results, None) == {}
    wrong = bench.cells[0]
    results[wrong] = _Result(SolveStatus.OPTIMAL)
    del results[bench.cells[1]]
    bad = bench.check(results, None)
    assert set(bad) == {wrong, bench.cells[1]}


def test_scaling_follows_the_probe():
    ref = probe.REFERENCE_S
    raw = [1.0, None, 2.0, 4.0]
    assert run.scaled(raw, [ref] * 5) == raw
    assert run.scaled(raw, [2.0 * ref] * 5) == [0.5, None, 1.0, 2.0]
    # One slow probe among the six around a call does not move its scale.
    assert run.scaled([1.0] * 3, [ref, ref, 9.0 * ref, ref])[1] == 1.0


def test_probe_is_deterministic_and_times_itself():
    a, b = probe.Probe(), probe.Probe()
    assert a._work() == b._work()
    assert a() > 0.0
