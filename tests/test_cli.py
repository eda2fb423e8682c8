import csv
from pathlib import Path

import pytest

from opfbench import cli
from opfbench.bench import BenchConfig
from opfbench.cli import main
from opfbench.errors import OptionError
from opfbench.ipm import SolverOptions

from helpers import counting_validations
from test_netdata import CASE2


def test_validate_clean_case(case_paths, capsys):
    code = main(["validate", case_paths["case3_cycle"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 error(s)" in out


def test_validate_missing_file(capsys):
    code = main(["validate", "/nonexistent/case.m"])
    assert code == 2


def test_validate_dangling_reference(tmp_path, capsys):
    text = CASE2.replace(
        "1	0	0	80	-40	1	100	1	200	20;",
        "99	0	0	80	-40	1	100	1	200	20;",
    )
    path = tmp_path / "dangling.m"
    path.write_text(text)
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "dangling-generator-bus" in out


def test_preprocess_reports_points(case_paths, capsys):
    code = main(["preprocess", case_paths["case14_mesh"]])
    out = capsys.readouterr().out
    assert code == 0
    # the colinear interior point of generator 2's curve is merged away
    assert "generator 2: 4 -> 3 points" in out


def test_solve_dc_lambda(case_paths, capsys, tmp_path):
    log_path = tmp_path / "iters.csv"
    code = main([
        "solve", case_paths["case3_cycle"], "--pf", "dc",
        "--cost", "lambda", "--log-iters", str(log_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "status:     optimal" in out
    assert "objective:  3185.00" in out
    log_text = log_path.read_text()
    assert log_text.startswith(
        "iter,mu,primal_inf,dual_inf,compl,alpha_primal,alpha_dual,reg"
    )
    assert len(log_text.splitlines()) > 2


def test_solve_ac_psi(case_paths, capsys):
    code = main([
        "solve", case_paths["case2_line"], "--pf", "ac", "--cost", "psi",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "gen 0 @bus 1" in out
    assert "bus 2: v=" in out


def test_solve_iteration_limited_exit_code(case_paths, capsys):
    code = main([
        "solve", case_paths["case9_loop"], "--pf", "ac", "--cost", "lambda",
        "--max-iter", "2",
    ])
    assert code == 1


def test_solve_validates_the_network_once(case_paths, capsys, monkeypatch):
    calls = counting_validations(monkeypatch)
    code = main(["solve", case_paths["case3_cycle"], "--pf", "dc",
                 "--cost", "lambda"])
    assert code == 0
    assert len(calls) == 1


def test_solve_reports_each_network_error(tmp_path, capsys):
    text = CASE2.replace(
        "1	0	0	80	-40	1	100	1	200	20;",
        "99	0	0	80	-40	1	100	1	200	20;",
    )
    path = tmp_path / "dangling.m"
    path.write_text(text)
    code = main(["solve", str(path), "--pf", "dc", "--cost", "lambda"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: [dangling-generator-bus] generator 0 "
                            "references missing bus 99\n")


def test_solve_rejects_unknown_pf(case_paths):
    with pytest.raises(SystemExit) as exc:
        main(["solve", case_paths["case2_line"], "--pf", "zz",
              "--cost", "lambda"])
    assert exc.value.code == 2


@pytest.mark.parametrize("options", [
    ["--tol", "-1"], ["--max-iter", "0"], ["--tol", "inf"],
], ids=["tol", "max-iter", "tol-inf"])
def test_solve_rejects_bad_numeric_option(case_paths, capsys, options):
    code = main(["solve", case_paths["case2_line"], "--pf", "dc",
                 "--cost", "psi", *options])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("options", [
    ["--trials", "0"], ["--tol", "0"], ["--tol", "inf"],
], ids=["trials", "tol", "tol-inf"])
def test_bench_rejects_bad_numeric_option(case_paths, capsys, options):
    code = main(["bench", "--cases", case_paths["case1_micro"], "--pf", "dc",
                 *options])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_writes_csv(case_paths, tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code = main([
        "bench", "--cases", case_paths["case3_cycle"], "--pf", "dc",
        "--cost", "psi,lambda,delta,phi", "--trials", "1",
        "--out", str(out_path),
    ])
    assert code == 0
    text = out_path.read_text()
    assert "case3_cycle" in text
    assert "ratio_psi" in text.splitlines()[1] or "ratio_psi" in text


def test_bench_markdown_to_stdout(case_paths, capsys):
    code = main([
        "bench", "--cases", case_paths["case1_micro"], "--pf", "dc",
        "--trials", "1", "--format", "md",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("| Case | PF |")


def test_bench_rejects_polynomial_cost(case_paths, capsys):
    # the report has one column per piecewise encoding and none for poly
    code = main(["bench", "--cases", case_paths["case1_micro"], "--pf", "dc",
                 "--cost", "lambda,poly", "--trials", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unknown kind 'poly'")


def test_bench_solves_a_repeated_kind_once(case_paths, capsys):
    code = main(["bench", "--cases", case_paths["case1_micro"],
                 "--pf", "dc,dc", "--cost", "lambda,lambda", "--trials", "1"])
    rows = capsys.readouterr().out.splitlines()[2:]  # note, header
    assert code == 0
    assert [row.split(",")[:2] for row in rows] == [["case1_micro", "dc"]]


def test_bench_no_match_is_input_error(capsys):
    code = main(["bench", "--cases", "/nonexistent/*.m"])
    assert code == 2


def never_called(*args, **kwargs):
    raise AssertionError("the work ran before its output path was opened")


def test_solve_unwritable_log_is_input_error(case_paths, tmp_path, capsys,
                                             monkeypatch):
    # the log's path is opened before the solve
    monkeypatch.setattr("opfbench.cli.solve", never_called)
    code = main(["solve", case_paths["case1_micro"], "--pf", "dc",
                 "--cost", "lambda",
                 "--log-iters", str(tmp_path / "missing" / "log.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_unwritable_out_is_input_error(case_paths, tmp_path, capsys,
                                             monkeypatch):
    # the report's path is opened before any cell is solved
    monkeypatch.setattr("opfbench.cli.run_suite", never_called)
    code = main(["bench", "--cases", case_paths["case1_micro"], "--pf", "dc",
                 "--trials", "1",
                 "--out", str(tmp_path / "missing" / "r.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_out_receives_the_printed_report(case_paths, tmp_path, capsys,
                                               monkeypatch):
    # one report, written to --out and printed without it: the same text
    run_suite, reports = cli.run_suite, []

    def run_once(config):
        if not reports:
            reports.append(run_suite(config))
        return reports[0]

    monkeypatch.setattr(cli, "run_suite", run_once)
    argv = ["bench", "--cases", case_paths["case3_cycle"], "--pf", "dc",
            "--trials", "1", "--format", "md"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out_path = tmp_path / "r.md"
    assert main(argv + ["--out", str(out_path)]) == 0
    assert capsys.readouterr().out == f"report written to {out_path}\n"
    assert out_path.read_text() == printed


def test_bench_directory_match_is_recorded_like_a_parse_error(tmp_path,
                                                              capsys):
    (tmp_path / "dir.m").mkdir()
    (tmp_path / "broken.m").write_text("function mpc = broken\n")
    code = main(["bench", "--cases", str(tmp_path / "*.m"), "--pf", "dc",
                 "--trials", "1"])
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[2:]  # note, header
    # nothing could be read: an input error, not a non-optimal solve
    assert code == 2
    assert captured.err.startswith("error: ")
    assert [row.split(",")[0] for row in rows] == ["broken", "dir"]
    assert all("input-error" in row for row in rows)


def test_bench_that_builds_no_cell_is_input_error(case_paths, tmp_path,
                                                  capsys):
    # quadratic costs: no piecewise encoding of any generator can be built
    lines = Path(case_paths["case9_loop"]).read_text().splitlines()
    lines[39:42] = ["\t2\t0\t0\t3\t0.11\t5\t150;"] * 3
    path = tmp_path / "c9poly.m"
    path.write_text("\n".join(lines) + "\n")
    code = main(["bench", "--cases", str(path), "--pf", "dc",
                 "--trials", "1"])
    captured = capsys.readouterr()
    rows = list(csv.reader(captured.out.splitlines()[2:]))  # note, header
    assert code == 2
    assert captured.err == "error: no cell could be built\n"
    assert len(rows) == 1
    assert all(field.startswith("build-error") for field in rows[0][4:8])


def test_bench_with_one_readable_case_is_not_an_input_error(case_paths,
                                                            tmp_path, capsys):
    (tmp_path / "broken.m").write_text("function mpc = broken\n")
    (tmp_path / "micro.m").write_text(
        Path(case_paths["case1_micro"]).read_text())
    code = main(["bench", "--cases", str(tmp_path / "*.m"), "--pf", "dc",
                 "--trials", "1"])
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[2:]
    assert code == 1
    assert captured.err == ""
    assert [row.split(",")[0] for row in rows] == ["broken", "micro"]
    assert "input-error" not in rows[1]


@pytest.mark.parametrize("command", [["validate"], ["preprocess"],
                                     ["solve", "--pf", "dc", "--cost", "psi"]])
def test_non_utf8_case_is_input_error(command, tmp_path, capsys):
    path = tmp_path / "latin1.m"
    path.write_bytes(CASE2.replace("mpc", "mpc % caf\xe9").encode("latin-1"))
    code = main([command[0], str(path), *command[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err


@pytest.mark.parametrize("command", [
    ["validate"], ["preprocess"], ["solve", "--pf", "dc", "--cost", "psi"],
    ["bench", "--pf", "dc", "--trials", "1"],
], ids=["validate", "preprocess", "solve", "bench"])
@pytest.mark.parametrize("row, bad_row, line", [
    # gencost NCOST, then MODEL
    ("\t1\t0\t0\t5\t30\t", "\t1\t0\t0\tnan\t30\t", 40),
    ("\t1\t0\t0\t5\t30\t", "\t1\t0\t0\tinf\t30\t", 40),
    ("\t1\t0\t0\t6\t20\t", "\t1.5\t0\t0\t6\t20\t", 41),
    # bus type, branch end, generator bus
    ("\t4\t1\t90\t", "\t4\tnan\t90\t", 10),
    ("\t1\t4\t0\t0.0576\t", "\t1\t-inf\t0\t0.0576\t", 27),
    ("\t2\t0\t0\t90\t-60\t", "\t2.5\t0\t0\t90\t-60\t", 21),
], ids=["ncost-nan", "ncost-inf", "model-fraction", "bus-type-nan",
        "branch-end-inf", "gen-bus-fraction"])
def test_non_integer_index_or_count_is_input_error(case_paths, tmp_path,
                                                   capsys, command, row,
                                                   bad_row, line):
    text = Path(case_paths["case9_loop"]).read_text()
    assert text.count(row) == 1
    path = tmp_path / "bad.m"
    path.write_text(text.replace(row, bad_row))
    if command[0] == "bench":
        args = ["bench", "--cases", str(path), *command[1:]]
    else:
        args = [command[0], str(path), *command[1:]]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert f"line {line}: " in captured.out + captured.err
    assert "must be an integer" in captured.out + captured.err


@pytest.mark.parametrize("command", [
    ["validate"], ["preprocess"], ["solve", "--pf", "dc", "--cost", "lambda"],
    ["bench", "--pf", "dc", "--trials", "1"],
], ids=["validate", "preprocess", "solve", "bench"])
@pytest.mark.parametrize("row, bad_row, line", [
    # generator pmax, bus demand, branch reactance, a cost point, baseMVA
    ("\t1\t100\t1\t260\t30;", "\t1\t100\t1\tnan\t30;", 20),
    ("\t4\t1\t90\t30\t", "\t4\t1\tNaN\t30\t", 10),
    ("\t5\t6\t0.039\t0.17\t", "\t5\t6\t0.039\tnan\t", 29),
    ("\t4\t20\t220\t66.7\t", "\t4\t20\tnan\t66.7\t", 42),
    ("mpc.baseMVA = 100;", "mpc.baseMVA = nan;", 3),
    # the same columns, infinite: bus demand, branch reactance, baseMVA,
    # and generator Qmax
    ("\t4\t1\t90\t30\t", "\t4\t1\tInf\t30\t", 10),
    ("\t5\t6\t0.039\t0.17\t", "\t5\t6\t0.039\tInf\t", 29),
    ("mpc.baseMVA = 100;", "mpc.baseMVA = Inf;", 3),
    ("\t1\t0\t0\t120\t-80\t", "\t1\t0\t0\tInf\t-80\t", 20),
], ids=["pmax", "demand", "reactance", "cost-point", "base-mva",
        "demand-inf", "reactance-inf", "base-mva-inf", "qmax-inf"])
def test_nan_in_a_numeric_column_is_input_error(case_paths, tmp_path, capsys,
                                                command, row, bad_row, line):
    # NaN compares false with every bound and an infinity passes one side
    # of every range, so only the parser can reject either
    text = Path(case_paths["case9_loop"]).read_text()
    assert text.count(row) == 1
    path = tmp_path / "nan.m"
    path.write_text(text.replace(row, bad_row))
    if command[0] == "bench":
        args = ["bench", "--cases", str(path), *command[1:]]
    else:
        args = [command[0], str(path), *command[1:]]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert f"line {line}: " in captured.out + captured.err
    assert "is not finite" in captured.out + captured.err
    assert "Traceback" not in captured.out + captured.err


def case9_with(case_paths, line, old, new, tmp_path):
    """case9_loop with ``old`` replaced by ``new`` on one line, saved."""
    lines = Path(case_paths["case9_loop"]).read_text().splitlines()
    assert lines[line - 1].count(old) == 1
    lines[line - 1] = lines[line - 1].replace(old, new)
    out = tmp_path / "edited.m"
    out.write_text("\n".join(lines) + "\n")
    return str(out)


@pytest.mark.parametrize("command", [
    ["validate"], ["solve", "--pf", "dc", "--cost", "lambda"],
], ids=["validate", "solve"])
@pytest.mark.parametrize("line, old, new, error", [
    (3, "100", "0", "line 3: baseMVA must be positive"),
    (10, "\t1.1\t0.9;", "\t1.1;", "line 10: bus row needs 13 columns"),
    (27, "\t-30\t30;", "\t-30;", "line 27: branch row needs 13 columns"),
    (20, "\t260\t30;", "\t260;", "line 20: gen row needs 10 columns"),
    (40, "\t0\t5\t30\t240", ";%", "line 40: gencost row too short"),
    (10, "\t4\t1\t90", "\t0\t1\t90", "line 10: bus id must be positive"),
    (11, "\t5\t1\t125", "\t4\t1\t125", "line 11: duplicate bus id 4"),
    (10, "\t1.1\t0.9;", "\t0.9\t1.1;",
     "line 10: bus 4 voltage bounds must satisfy 0 < vmin <= vmax"),
    (27, "\t1\t4\t0\t", "\t1\t1\t0\t",
     "line 27: branch connects bus 1 to itself"),
    (28, "\t0\t0\t0\t0\t1", "\t0\t0\t-1\t0\t1",
     "line 28: branch 4-5 has negative tap ratio"),
    (21, "\t200\t20;", "\t200\t220;",
     "line 21: generator at bus 2 has pmin > pmax"),
    (21, "\t90\t-60\t", "\t90\t95\t",
     "line 21: generator at bus 2 has qmin > qmax"),
    (40, "\t1\t0\t0\t5\t30\t240", "\t2\t0\t0\t4\t1\t1",
     "line 40: polynomial cost of degree 3 not supported"),
    (40, "\t1\t0\t0\t5\t30\t240\t87.5\t1160\t145\t2310\t202.5"
         "\t3690\t260\t5300", "\t2\t0\t0\t3\t1\t1",
     "line 40: gencost row declares 3 coefficients but has 2"),
    (40, "\t260\t5300;", ";",
     "line 40: gencost row declares 5 points but has 8 values"),
    # the table is named where it opens
    (43, "];", "", "line 39: table mpc.gencost is never closed"),
    # out-of-service elements and isolated buses are outside the subset
    (22, "\t100\t1\t160", "\t100\t0\t160",
     "line 22: generator at bus 3 is out of service (status 0)"),
    (27, "\t0\t1\t-30", "\t0\t0\t-30",
     "line 27: branch 1-4 is out of service (status 0)"),
    (10, "\t4\t1\t90", "\t4\t4\t90", "line 10: bus 4 is isolated (type 4)"),
    (10, "\t4\t1\t90", "\t4\t5\t90", "line 10: bus 4 has unknown type 5"),
    # a piecewise curve needs two points of strictly increasing power
    (42, "\t4\t20\t220\t66.7\t1246.7\t113.3\t2553.3\t160\t4140;",
     "\t1\t20\t220;", "line 42: gencost curve needs at least 2 points"),
    (42, "\t220\t66.7\t", "\t220\t20\t",
     "line 42: gencost power coordinates must strictly increase"),
], ids=["base-mva", "short-bus", "short-branch", "short-gen",
        "short-gencost", "bus-id", "duplicate-bus", "vmin-vmax",
        "self-loop", "negative-tap", "pmin-pmax", "qmin-qmax",
        "poly-degree", "poly-coefficients", "pwl-points", "unclosed-table",
        "gen-status", "branch-status", "bus-type-4", "bus-type-5",
        "pwl-one-point",
        "pwl-repeated-power"])
def test_parse_rejection_is_input_error_naming_the_line(
        case_paths, tmp_path, capsys, command, line, old, new, error):
    path = case9_with(case_paths, line, old, new, tmp_path)
    code = main([command[0], path, *command[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {error}")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", [
    ["validate"], ["solve", "--pf", "dc", "--cost", "lambda"],
], ids=["validate", "solve"])
def test_curve_that_preprocess_rejects_is_a_validation_error(
        case_paths, tmp_path, capsys, command):
    path = case9_with(case_paths, 40, "\t1160\t", "\t2000\t", tmp_path)
    code = main([command[0], path, *command[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert ("[unusable-cost-curve] generator 0 cost curve: slope decreases"
            in captured.out + captured.err)


def test_preprocess_names_the_generator_it_rejects(case_paths, tmp_path,
                                                   capsys):
    path = case9_with(case_paths, 40, "\t1160\t", "\t2000\t", tmp_path)
    code = main(["preprocess", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: generator 0: slope decreases")


def test_a_bug_is_not_an_input_error(case_paths, monkeypatch):
    # main turns input errors into exit 2, never a bare ValueError
    def broken_solve(model, opts):
        raise ValueError("a bug")
    monkeypatch.setattr("opfbench.cli.solve", broken_solve)
    with pytest.raises(ValueError, match="a bug"):
        main(["solve", case_paths["case1_micro"], "--pf", "dc",
              "--cost", "lambda"])


@pytest.mark.parametrize("make", [
    lambda: SolverOptions(tol=0),
    lambda: BenchConfig(case_paths=[], trials=0),
], ids=["solver-options", "bench-config"])
def test_bad_option_raises_an_option_error(make):
    with pytest.raises(OptionError) as exc:
        make()
    assert isinstance(exc.value, ValueError)
