from pathlib import Path

import pytest

import opfbench.cli as cli_mod
from opfbench import formulations
from opfbench.cli import main

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


@pytest.mark.parametrize("slope_tol", ["-1000", "inf", "nan"])
def test_preprocess_rejects_bad_slope_tol(case_paths, capsys, slope_tol):
    code = main(["preprocess", case_paths["case9_loop"],
                 "--slope-tol", slope_tol])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


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
    calls = counting_validations(monkeypatch, cli_mod, formulations)
    code = main(["solve", case_paths["case3_cycle"], "--pf", "dc",
                 "--cost", "lambda"])
    assert code == 0
    assert len(calls) == 1


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


def test_solve_unwritable_log_is_input_error(case_paths, tmp_path, capsys):
    code = main(["solve", case_paths["case1_micro"], "--pf", "dc",
                 "--cost", "lambda",
                 "--log-iters", str(tmp_path / "missing" / "log.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_unwritable_out_is_input_error(case_paths, tmp_path, capsys):
    code = main(["bench", "--cases", case_paths["case1_micro"], "--pf", "dc",
                 "--trials", "1",
                 "--out", str(tmp_path / "missing" / "r.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


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
], ids=["pmax", "demand", "reactance", "cost-point", "base-mva"])
def test_nan_in_a_numeric_column_is_input_error(case_paths, tmp_path, capsys,
                                                command, row, bad_row, line):
    # NaN compares false with every bound, so only the parser can reject it
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
    assert "NaN" in captured.out + captured.err
