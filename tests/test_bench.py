import pytest

import opfbench.bench as bench_mod
from opfbench import formulations
from opfbench.bench import (
    BenchConfig,
    BenchReport,
    IncompleteCellError,
    render_report,
    run_suite,
    runtime_ratio,
)
from opfbench.formulations import CostKind, PowerFlowKind
from opfbench.ipm import SolverOptions

from helpers import counting_validations

PSI, LAM = CostKind.PSI, CostKind.LAMBDA
DEL, PHI = CostKind.DELTA, CostKind.PHI


class TestRuntimeRatio:
    def test_mixed_times(self):
        ratios = runtime_ratio({PSI: 10.0, LAM: 2.0, DEL: 2.0, PHI: 4.0})
        assert ratios == {PSI: 5.0, LAM: 1.0, DEL: 1.0, PHI: 2.0}

    def test_all_equal(self):
        ratios = runtime_ratio({PSI: 3.0, LAM: 3.0, DEL: 3.0, PHI: 3.0})
        assert all(r == 1.0 for r in ratios.values())

    def test_seventy_percent_worst_case(self):
        ratios = runtime_ratio({PSI: 1.0, LAM: 1.0, DEL: 1.0, PHI: 1.7})
        assert ratios[PHI] == pytest.approx(1.7)

    def test_missing_encoding(self):
        with pytest.raises(IncompleteCellError):
            runtime_ratio({PSI: 1.0, LAM: 1.0, DEL: 1.0})

    def test_nonpositive_time(self):
        with pytest.raises(ValueError):
            runtime_ratio({PSI: 1.0, LAM: 0.0, DEL: 1.0, PHI: 1.0})


class TestConfig:
    def test_trials_validated(self):
        with pytest.raises(ValueError):
            BenchConfig(case_paths=[], trials=0)

    @pytest.mark.parametrize("trials", [1.5, 2.0, "2"])
    def test_non_integer_trials_rejected(self, trials):
        # rejected when built, not by range() inside run_suite
        with pytest.raises(ValueError, match="integer"):
            BenchConfig(case_paths=[], trials=trials)


def test_run_suite_validates_each_network_once(case_paths, monkeypatch):
    calls = counting_validations(monkeypatch, bench_mod, formulations)
    report = run_suite(BenchConfig(case_paths=[case_paths["case1_micro"]],
                                   trials=1))
    assert len(report.rows) == 3
    assert all(c.status == "optimal" for row in report.rows
               for c in row.cells.values())
    # one case, 3 models x 4 encodings built from it
    assert len(calls) == 1


@pytest.fixture(scope="module")
def small_suite(case_paths):
    config = BenchConfig(
        case_paths=[case_paths["case1_micro"], case_paths["case3_cycle"]],
        pf_kinds=(PowerFlowKind.DC,),
        trials=2,
        solver_options=SolverOptions(tol=1e-8),
    )
    return run_suite(config)


class TestRunSuite:
    def test_all_cells_optimal_and_equivalent(self, small_suite):
        assert len(small_suite.rows) == 2
        for row in small_suite.rows:
            objs = [c.objective for c in row.cells.values()]
            assert all(o is not None for o in objs)
            ref = row.objective_reference()
            for o in objs:
                assert abs(o - ref) <= 1e-5 * max(1.0, abs(ref))

    def test_ratio_floor_and_unique_fastest(self, small_suite):
        for row in small_suite.rows:
            assert row.ratios is not None
            assert all(r >= 1.0 - 1e-12 for r in row.ratios.values())
            assert row.fastest is not None
            # designated fastest has ratio exactly 1
            assert row.ratios[row.fastest] == 1.0

    def test_single_bus_case_identical_across_grid(self, case_paths):
        config = BenchConfig(
            case_paths=[case_paths["case1_micro"]],
            trials=1,
            solver_options=SolverOptions(tol=1e-8),
        )
        report = run_suite(config)
        assert len(report.rows) == 3  # one per power-flow kind
        objs = [c.objective for row in report.rows
                for c in row.cells.values()]
        assert len(objs) == 12
        for o in objs:
            assert o == pytest.approx(1650.0, abs=1e-4)

    def test_soc_column_below_ac(self, case_paths):
        config = BenchConfig(
            case_paths=[case_paths["case3_cycle"]],
            pf_kinds=(PowerFlowKind.AC, PowerFlowKind.SOC),
            trials=1,
            solver_options=SolverOptions(tol=1e-8),
        )
        report = run_suite(config)
        by_pf = {row.pf_kind: row.objective_reference()
                 for row in report.rows}
        ac = by_pf[PowerFlowKind.AC]
        assert by_pf[PowerFlowKind.SOC] <= ac + 1e-6 * abs(ac)

    def test_determinism_of_results(self, case_paths):
        config = BenchConfig(
            case_paths=[case_paths["case3_cycle"]],
            pf_kinds=(PowerFlowKind.DC,),
            trials=1,
        )
        r1, r2 = run_suite(config), run_suite(config)
        for a, b in zip(r1.rows, r2.rows):
            for ck in a.cells:
                assert a.cells[ck].objective == b.cells[ck].objective
                assert a.cells[ck].status == b.cells[ck].status
                assert a.cells[ck].iterations == b.cells[ck].iterations

    def test_failed_case_recorded_not_raised(self, tmp_path):
        bad = tmp_path / "broken.m"
        bad.write_text("function mpc = broken\nmpc.baseMVA = 100;\n")
        config = BenchConfig(case_paths=[bad], pf_kinds=(PowerFlowKind.DC,),
                             trials=1)
        report = run_suite(config)
        assert len(report.rows) == 1
        for cell in report.rows[0].cells.values():
            assert cell.status.startswith("input-error")
        text = render_report(report, "csv")
        assert "input-error" in text


class TestRender:
    def test_empty_report_header_only(self):
        report = BenchReport(rows=[], trials=1)
        text = render_report(report, "csv")
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(lines) == 1
        assert lines[0].startswith("case,pf,n_bus,n_branch,obj_lambda")

    def test_csv_columns(self, small_suite):
        text = render_report(small_suite, "csv")
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == [
            "case", "pf", "n_bus", "n_branch", "obj_lambda",
            "delta_delta", "delta_phi", "delta_psi",
            "t_lambda", "t_delta", "t_phi", "t_psi",
            "ratio_lambda", "ratio_delta", "ratio_phi", "ratio_psi",
            "iters_lambda", "iters_delta", "iters_phi", "iters_psi",
        ]
        assert len(lines) == 1 + len(small_suite.rows)
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)

    def test_markdown_table(self, small_suite):
        text = render_report(small_suite, "md")
        assert text.startswith("| Case | PF |")
        assert "case3_cycle" in text

    def test_notes_mention_build_exclusion(self, small_suite):
        text = render_report(small_suite, "csv")
        assert "model build excluded" in text
        assert "statistic=median of 2 trial(s)" in text
