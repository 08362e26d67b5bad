"""Command line behavior: exit codes, report JSON, trace CSV, demo output."""

import argparse
import io
import json
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import couplefix
from couplefix import cli
from couplefix.cli import main, render_trace_csv
from couplefix.solve import IterationTrace, TraceStep

SWAP_DOC = textwrap.dedent(
    """\
    problem_kind: coincidence
    space: "[0, 1]"
    subset_A: "[0, 1]"
    subset_B: "[0, 1]"
    map_F: "y"
    map_T: identity
    phi: {family: linear, slope: 1/2}
    solve:
      starts: [[0, 1]]
    """
)


DOCUMENTS = Path(__file__).parent


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestListAndErrors:
    def test_list_names_every_builtin(self, capsys):
        code, out, _ = run_cli(["list"], capsys)
        assert code == 0
        for name in ("banach-linear", "example-2.1.9", "example-2.2.3", "negative-midpoint"):
            assert name in out

    def test_unknown_source_exits_3(self, capsys):
        code, _, err = run_cli(["check", "no-such-problem"], capsys)
        assert code == 3
        assert "error" in err

    def test_unparsable_document_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(SWAP_DOC.replace('space: "[0, 1]"', "space: 17"), encoding="utf-8")
        code, _, err = run_cli(["check", str(bad)], capsys)
        assert code == 3
        assert "space" in err

    def test_directory_document_exits_3(self, tmp_path, capsys):
        folder = tmp_path / "folder.yaml"
        folder.mkdir()
        code, out, err = run_cli(["check", str(folder)], capsys)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot read document {folder}: ")

    def test_overdeep_expression_exits_3(self, tmp_path, capsys):
        deep = "(" * 600 + "y" + ")" * 600
        path = tmp_path / "deep.yaml"
        path.write_text(SWAP_DOC.replace('map_F: "y"', f'map_F: "{deep}"'), encoding="utf-8")
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 3
        assert "error:" in err and "nests deeper" in err

    def test_long_operator_chain_exits_3(self, tmp_path, capsys):
        chain = "y" + " + y" * 1199
        path = tmp_path / "chain.yaml"
        path.write_text(SWAP_DOC.replace('map_F: "y"', f'map_F: "{chain}"'), encoding="utf-8")
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 3
        assert err.startswith("error: map_F:") and "nests deeper" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line, message", [
        ('subset_A: "{ , }"', "subset_A: brace set must not be empty"),
        ('map_F: "x + é"', "map_F: unexpected character 'é' at line 1, column 5"),
        ('map_F: "piecewise { ' + " ".join(f"x <= {k}/3000 => y + {k} ;" for k in range(3000))
         + ' }"', "map_F: expression is too large for Python's compiler"),
    ], ids=["empty-brace-set", "non-ascii-letter", "3000-arm-piecewise"])
    def test_document_error_names_its_key_and_exits_3(self, line, message, tmp_path, capsys):
        key = line.split(":")[0]
        doc = "\n".join(line if row.startswith(key) else row for row in SWAP_DOC.splitlines())
        path = tmp_path / "doc.yaml"
        path.write_text(doc, encoding="utf-8")
        code, out, err = run_cli(["check", str(path), "--samples", "5"], capsys)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_internal_error_exits_5(self, monkeypatch, capsys):
        def broken(problem, settings):
            raise RuntimeError("boom")

        monkeypatch.setattr(couplefix.cli, "run_checks", broken)
        code, _, err = run_cli(["check", "banach-linear"], capsys)
        assert code == 5
        assert err == "internal error: RuntimeError: boom\n"

    def test_power_control_overflow_exits_3(self, tmp_path, capsys):
        doc = (
            SWAP_DOC.replace('"[0, 1]"', '"[0, 100]"')
            .replace("{family: linear, slope: 1/2}", "{family: power, exponent: 400}")
        )
        path = tmp_path / "power.yaml"
        path.write_text(doc, encoding="utf-8")
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 3
        assert err.startswith("error:") and "overflows" in err
        assert "Traceback" not in err

    def test_overflowing_coupling_exits_3(self, capsys):
        # F = x * 10**400 + y mixes a float with a constant beyond the float range
        path = Path(__file__).with_name("overflow-coupling.yaml")
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 3
        assert err == ("error: expression overflows the float range: "
                       "integer division result too large for a float\n")

    @pytest.mark.parametrize("name, t", [("overflow-control.yaml", "2.0"),
                                         ("overflow-control-expr.yaml", "0.4")])
    def test_overflowing_control_exits_3(self, name, t, capsys):
        # psi = 1e308 * t, or t * 10**400 as an expression, has a value
        # beyond the float range at the first grid point shown
        code, _, err = run_cli(["check", str(DOCUMENTS / name)], capsys)
        assert code == 3
        assert err == f"error: psi: control function overflows the float range at t={t}\n"

    def test_range_targets_outside_the_carrier_exit_3(self, capsys):
        # check.range_b = [3, 9] reaches past the carrier [0, 4]
        path = DOCUMENTS / "range-outside-carrier.yaml"
        code, out, err = run_cli(["check", str(path)], capsys)
        assert code == 3
        assert err == "error: check.range_b: not contained in the carrier\n"
        assert out == ""

    def test_unbound_map_variable_names_its_key(self, capsys):
        # map_F = x + t: coupling expressions take x and y only
        code, out, err = run_cli(["check", str(DOCUMENTS / "unbound-variable.yaml")], capsys)
        assert code == 3
        assert err == "error: map_F: coupling expressions may only use ['x', 'y']; found: t\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "banach-linear", "--samples", "1"], "--samples must be at least 2, got 1"),
            (["demo", "banach-linear", "--samples", "0"], "--samples must be at least 2, got 0"),
            # finite subsets on an interval carrier
            (["check", "example-2.2.3", "--samples", "1"], "--samples must be at least 2, got 1"),
            (["check", "banach-linear", "--jitter", "-1"], "--jitter must be nonnegative, got -1"),
            (["check", str(DOCUMENTS / "grid-count-one.yaml")],
             "check.grid_count: grid_count must be at least 2, got 1"),
        ],
    )
    def test_unusable_sampling_exits_3_before_the_header(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_negative_check_tol_exits_3(self, tmp_path, capsys):
        path = tmp_path / "negtol.yaml"
        path.write_text(SWAP_DOC + "check:\n  tol: -1\n", encoding="utf-8")
        code, out, err = run_cli(["check", str(path)], capsys)
        assert code == 3
        assert err.startswith("error: check.tol:")
        assert "Traceback" not in err and out == ""

    def test_solve_without_starts_exits_3(self, tmp_path, capsys):
        doc = SWAP_DOC.replace("solve:\n  starts: [[0, 1]]\n", "")
        path = tmp_path / "nostarts.yaml"
        path.write_text(doc, encoding="utf-8")
        code, _, err = run_cli(["solve", str(path)], capsys)
        assert code == 3
        assert "start" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "example-2.1.9", "--samples", "abc"], "invalid int value: 'abc'"),
            (["frob"], "invalid choice: 'frob'"),
            (["check"], "the following arguments are required: source"),
        ],
        ids=["bad-int", "unknown-command", "no-source"],
    )
    def test_usage_errors_print_usage_and_exit_3(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 3
        assert out == ""
        assert err.startswith("usage: couplefix") and message in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["check", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "doc, message",
        [
            (SWAP_DOC.replace("coincidence", "strong_coupled")
             .replace("map_T: identity", 'psi: "t"')
             .replace("{family: linear, slope: 1/2}", '"1 / t"'), "division by zero"),
            (SWAP_DOC.replace('map_F: "y"', 'map_F: "1 / (x - y)"'), "division by zero"),
            (SWAP_DOC.replace('space: "[0, 1]"', 'space: "[0, 4]"')
             .replace("map_T: identity", 'map_T: "piecewise { x < 1/2 => x ; }"'),
             "no piecewise arm matched and there is no else arm"),
        ],
        ids=["phi-one-over-t", "F-one-over-x-minus-y", "T-without-matching-arm"],
    )
    def test_expression_errors_exit_3(self, doc, message, tmp_path, capsys):
        path = tmp_path / "expr-error.yaml"
        path.write_text(doc, encoding="utf-8")
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == 3
        assert err == f"error: {message}\n"


class TestCheckCommand:
    def test_coincidence_check_order_and_pass(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["check", "example-2.1.9", "--json", str(report_path)], capsys
        )
        assert code == 0
        assert "all 6 checks passed" in out
        payload = read_json(report_path)
        assert payload["exit_code"] == 0
        assert payload["problem_name"] == "example-2.1.9"
        assert payload["tool_version"] == couplefix.__version__
        assert payload["solve"] is None
        names = [c["property_name"] for c in payload["checks"]]
        assert names == [
            "metric_axioms",
            "phi_class",
            "coupling",
            "scc_map",
            "range_compatibility",
            "phi_T_contraction",
        ]
        slots = [c["slot"] for c in payload["checks"]]
        assert slots == ["space", "phi", "coupling", "self_map", "range", "contraction"]
        assert all(c["verdict"] == "pass" for c in payload["checks"])
        contraction = payload["checks"][-1]
        assert contraction["details"]["total_quadruples"] == 741_321
        assert contraction["details"]["stride"] == 1

    def test_strong_check_order_and_failure(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["check", "negative-midpoint", "--json", str(report_path)], capsys
        )
        assert code == 1
        assert "[FAIL] phi_psi_contraction" in out
        payload = read_json(report_path)
        assert payload["exit_code"] == 1
        names = [c["property_name"] for c in payload["checks"]]
        assert names == [
            "metric_axioms",
            "altering_distance",
            "altering_distance",
            "coupling",
            "phi_psi_contraction",
        ]
        assert [c["slot"] for c in payload["checks"]] == [
            "space",
            "phi",
            "psi",
            "coupling",
            "contraction",
        ]
        verdicts = [c["verdict"] for c in payload["checks"]]
        assert verdicts == ["pass", "pass", "pass", "pass", "fail"]
        contraction = payload["checks"][-1]
        # JSON keeps only the worst few violations but the full count.
        assert len(contraction["violations"]) <= 5
        assert contraction["violation_count"] > 5
        worst = contraction["violations"][0]
        assert worst["witness"] == ["contraction", 0.0, 0.0, 1.0, 1.0]
        assert worst["lhs"] == pytest.approx(1.0, abs=1e-12)
        assert worst["rhs"] == pytest.approx(0.9, abs=1e-12)

    def test_one_sampled_point_gives_the_controls_t_max_1(self, tmp_path, capsys):
        path, report_path = tmp_path / "one.yaml", tmp_path / "report.json"
        path.write_text(textwrap.dedent(
            """\
            problem_kind: strong_coupled
            space: "[0, 2]"
            subset_A: [1]
            subset_B: [1]
            map_F: "min(x, y)"
            phi: {family: linear, slope: 1/2}
            psi: {family: identity}
            """), encoding="utf-8")
        code, _, _ = run_cli(["check", str(path), "--json", str(report_path)], capsys)
        assert code == 0
        controls = [c for c in read_json(report_path)["checks"] if c["slot"] in ("phi", "psi")]
        assert [c["details"]["t_max"] for c in controls] == [1.0, 1.0]

    def test_samples_flag_overrides_both_grids(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["check", "example-2.1.9", "--samples", "6", "--json", str(report_path)],
            capsys,
        )
        assert code == 0
        contraction = read_json(report_path)["checks"][-1]
        assert contraction["details"]["total_quadruples"] == 1296

    def test_document_file_source(self, tmp_path, capsys):
        path = tmp_path / "halfconst.yaml"
        path.write_text(
            SWAP_DOC.replace('map_F: "y"', 'map_F: "1/2"'), encoding="utf-8"
        )
        code, out, _ = run_cli(["check", str(path)], capsys)
        assert code == 0
        assert "halfconst" in out


class TestSolveCommand:
    def test_coincidence_converges_exit_0(self, capsys):
        code, out, _ = run_cli(["solve", "example-2.1.9"], capsys)
        assert code == 0
        assert "Converged" in out

    def test_preimage_failure_exit_4(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["solve", "example-2.1.9", "--start", "1", "3", "--json", str(report_path)],
            capsys,
        )
        assert code == 4
        assert "PreimageFailure" in out
        run = read_json(report_path)["solve"]["runs"][0]
        assert run["status"] == "PreimageFailure"
        assert run["failure"]["reason"] == "preimage"
        assert run["failure"]["step"] == 1
        assert run["failure"]["subset"] == "A"
        assert run["failure"]["target"] == pytest.approx(1 / 6, abs=1e-15)
        assert run["failure"]["min_distance"] == pytest.approx(11 / 6, abs=1e-12)

    def test_start_outside_a_subset_names_it(self, capsys):
        doc = str(DOCUMENTS / "inverse-coincidence.yaml")
        code, _, err = run_cli(["solve", doc, "--start", "1", "3"], capsys)
        assert (code, err) == (3, "error: start y0=3.0 is not in subset B\n")
        code, _, err = run_cli(["solve", doc, "--start", "2", "0"], capsys)
        assert (code, err) == (3, "error: start x0=2.0 is not in subset A\n")

    def test_target_outside_the_carrier_fails_on_both_preimage_paths(self, tmp_path, capsys):
        oracle = DOCUMENTS / "escaping-preimage.yaml"
        grid = tmp_path / "escaping-preimage.yaml"
        text = oracle.read_text(encoding="utf-8")
        grid.write_text(text.replace('map_T_inverse: "x / 8"\n', ""), encoding="utf-8")
        assert "map_T_inverse:" in text and "map_T_inverse:" not in grid.read_text(encoding="utf-8")
        runs = [run_cli(["solve", str(path)], capsys) for path in (oracle, grid)]
        for code, out, err in runs:
            assert code == 4 and err == ""
            assert out.endswith("  failure: reason=preimage, step=1, subset=A, target=5, "
                                "min_distance=3\n")
        assert runs[0] == runs[1]

    def test_max_iter_flag_exit_2(self, tmp_path, capsys):
        path = tmp_path / "swap.yaml"
        path.write_text(SWAP_DOC, encoding="utf-8")
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["solve", str(path), "--max-iter", "10", "--json", str(report_path)],
            capsys,
        )
        assert code == 2
        assert "MaxIterExceeded" in out
        run = read_json(report_path)["solve"]["runs"][0]
        assert run["iterations_used"] == 10
        assert run["failure"] == {"reason": "max_iter"}

    def test_multi_start_verdict_consistent(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["solve", "example-2.2.3", "--json", str(report_path)], capsys
        )
        assert code == 0
        solve = read_json(report_path)["solve"]
        assert solve["verdict"] == "consistent"
        assert [r["status"] for r in solve["runs"]] == ["Converged", "Converged"]
        assert [r["candidate"]["x"] for r in solve["runs"]] == [1.0, 1.0]
        assert "consistent" in out

    def test_start_flags_override_document_starts(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            [
                "solve",
                "example-2.2.3",
                "--start", "1", "2",
                "--json", str(report_path),
            ],
            capsys,
        )
        assert code == 0
        solve = read_json(report_path)["solve"]
        assert solve["verdict"] is None
        assert len(solve["runs"]) == 1
        assert solve["runs"][0]["iterations_used"] == 2


class TestTraceCsv:
    def test_render_exact_header_and_17_digits(self):
        trace = IterationTrace(
            "coincidence",
            [TraceStep(0, 1.0, 1.0, 2.0, 2.0, 0.0, 0.0)],
        )
        assert render_trace_csv(trace) == (
            "n,x_n,y_n,Tx_n,Ty_n,D_n,R_n,residual\n0,1,1,2,2,0,0,0\n"
        )
        third = IterationTrace(
            "strong_coupled",
            [TraceStep(0, 1 / 3, 2 / 3, None, None, 1 / 3, 1 / 3)],
        )
        line = render_trace_csv(third).splitlines()[1]
        assert line == (
            "0,0.33333333333333331,0.66666666666666663,,,"
            "0.33333333333333331,0.33333333333333331,0.33333333333333331"
        )

    def test_empty_trace_is_header_only(self):
        assert render_trace_csv(IterationTrace("coincidence", [])) == (
            "n,x_n,y_n,Tx_n,Ty_n,D_n,R_n,residual\n"
        )

    def test_solve_writes_coincidence_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            ["solve", "example-2.1.9", "--trace", str(trace_path)], capsys
        )
        assert code == 0
        assert trace_path.read_text(encoding="utf-8") == (
            "n,x_n,y_n,Tx_n,Ty_n,D_n,R_n,residual\n0,1,1,2,2,0,0,0\n"
        )

    def test_strong_trace_leaves_t_columns_empty(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            ["solve", "example-2.2.3", "--start", "1", "2", "--trace", str(trace_path)],
            capsys,
        )
        assert code == 0
        assert trace_path.read_text(encoding="utf-8") == (
            "n,x_n,y_n,Tx_n,Ty_n,D_n,R_n,residual\n"
            "0,1,2,,,1,1,1\n"
            "1,1,1,,,0,0,0\n"
        )

    def test_row_count_matches_iterations_used(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            [
                "solve",
                "banach-linear",
                "--trace", str(trace_path),
                "--json", str(report_path),
            ],
            capsys,
        )
        assert code == 0
        rows = trace_path.read_text(encoding="utf-8").splitlines()[1:]
        run = read_json(report_path)["solve"]["runs"][0]
        assert len(rows) == run["iterations_used"]


class TestJsonReport:
    def test_byte_identical_except_timing(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run_cli(
                ["solve", "example-2.2.3", "--json", str(p)], capsys
            )
            assert code == 0
        texts = []
        for p in paths:
            lines = p.read_text(encoding="utf-8").splitlines()
            texts.append("\n".join(l for l in lines if '"timing_ms"' not in l))
        assert texts[0] == texts[1]
        payload = read_json(paths[0])
        assert sorted(payload) == [
            "checks",
            "exit_code",
            "problem_name",
            "solve",
            "timing_ms",
            "tool_version",
        ]
        assert payload["timing_ms"] >= 0.0

    def test_dash_sends_json_to_stderr(self, capsys):
        code, out, err = run_cli(["solve", "example-2.2.3", "--json", "-"], capsys)
        assert code == 0
        payload = json.loads(err)
        assert payload["exit_code"] == 0
        assert "{" not in out  # human text only on stdout


class TestDemoCommand:
    def test_plateau_demo_reports_images_and_solution(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["demo", "example-2.1.9", "--json", str(report_path)], capsys
        )
        assert code == 0
        assert "self-map image of A: {2}" in out
        assert "self-map image of B: {2, 4}" in out
        assert "image intersection: {2}" in out
        assert "Converged" in out
        payload = read_json(report_path)
        assert payload["checks"] is not None and payload["solve"] is not None
        run = payload["solve"]["runs"][0]
        assert run["residuals"] == {
            "f_ab_ta": 0.0,
            "f_ba_tb": 0.0,
            "ta_tb": 0.0,
            "f_ab_f_ba": 0.0,
        }

    def test_min_demo_reports_intersection_and_fixed_point(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["demo", "example-2.2.3", "--json", str(report_path)], capsys
        )
        assert code == 0
        assert "intersection of A and B: {1}" in out
        assert "candidate: x = 1, y = 1" in out
        payload = read_json(report_path)
        assert payload["solve"]["verdict"] == "consistent"
        for run in payload["solve"]["runs"]:
            assert run["residuals"]["f_xx_x"] == 0.0

    def test_failing_checks_skip_the_solve(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["demo", "negative-midpoint", "--json", str(report_path)], capsys
        )
        assert code == 1
        assert "Converged" not in out
        payload = read_json(report_path)
        assert payload["exit_code"] == 1
        assert payload["solve"] is None

    def test_banach_demo_converges_to_midpoint(self, capsys):
        code, out, _ = run_cli(["demo", "banach-linear"], capsys)
        assert code == 0
        assert "candidate: x = 0.5, y = 0.5" in out


class TestOutputPaths:
    def test_unwritable_json_path_exits_3(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(["check", "banach-linear", "--json", str(dest)], capsys)
        assert code == 3
        assert "all 5 checks passed" in out
        assert err.startswith(f"error: cannot write the --json report to {dest}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not dest.exists()

    def test_unwritable_trace_path_exits_3(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "t.csv"
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(
            ["solve", "banach-linear", "--start", "0", "1", "--trace", str(dest),
             "--json", str(report_path)],
            capsys,
        )
        assert code == 3
        assert "status: Converged" in out
        assert err.startswith(f"error: cannot write the --trace CSV to {dest}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not report_path.exists()

    def test_directory_as_json_path_exits_3(self, tmp_path, capsys):
        code, _, err = run_cli(["check", "banach-linear", "--json", str(tmp_path)], capsys)
        assert code == 3
        assert err.startswith(f"error: cannot write the --json report to {tmp_path}: ")


class TestRunsPerStart:
    def test_each_start_iterates_once_with_trace(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = couplefix.solve.iterate_starts

        def counted(problem, starts, opts, record=True):
            calls.append(([(x0.value, y0.value) for x0, y0 in starts], record))
            return real(problem, starts, opts, record=record)

        monkeypatch.setattr(couplefix.cli, "iterate_starts", counted)
        monkeypatch.setattr(couplefix.solve, "iterate_starts", counted)
        trace_path = tmp_path / "t.csv"
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["solve", "banach-linear", "--start", "0", "1", "--start", "1", "1",
             "--start", "0.5", "0.25", "--trace", str(trace_path),
             "--json", str(report_path)],
            capsys,
        )
        assert code == 0
        # one batch, which holds each start once and records a trace
        assert calls == [([(0.0, 1.0), (1.0, 1.0), (0.5, 0.25)], True)]
        assert "multi-start verdict: consistent" in out
        runs = read_json(report_path)["solve"]["runs"]
        assert len(runs) == 3
        rows = trace_path.read_text(encoding="utf-8").splitlines()
        # the trace is the first start's run
        assert rows[1].startswith("0,0,1,")
        assert len(rows) - 1 == runs[0]["iterations_used"]

    def test_cli_verdict_matches_multi_start_verdict(self, tmp_path, capsys):
        from couplefix.documents import build_problem, builtin_registry
        from couplefix.metric import Point
        from couplefix.solve import SolveOptions, iterate_strong_coupled, multi_start_verdict

        problem = build_problem(builtin_registry("banach-linear"))
        starts = [(Point.real(0.0), Point.real(1.0)), (Point.real(0.25), Point.real(0.5))]
        reports = [iterate_strong_coupled(problem, sx, sy)[0] for sx, sy in starts]
        verdict = multi_start_verdict(problem, reports, SolveOptions())
        report_path = tmp_path / "report.json"
        run_cli(
            ["solve", "banach-linear", "--start", "0", "1", "--start", "0.25", "0.5",
             "--json", str(report_path)],
            capsys,
        )
        solve = read_json(report_path)["solve"]
        assert solve["verdict"] == verdict
        assert solve["runs"] == [r.to_dict() for r in reports]


def parse_outcome(argv):
    """The namespace ``build_parser`` makes of argv, or its exit code, with
    what it printed; floats through ``repr`` so a NaN equals itself."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = repr(sorted(vars(cli.build_parser().parse_args(argv)).items()))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def plain_argparse(monkeypatch):
    """Make the command line parser argparse's own, without the ``--start``
    run handling."""
    monkeypatch.setattr(cli._ArgumentParser, "parse_known_args",
                        argparse.ArgumentParser.parse_known_args)


START_VALUES = ["0", "1", "-2", "-.5", "0.25", "1_000", "nan", "inf", "-1e5", "-5.", "a", "",
                " 1", "-1 ", "--", "--start"]
START_TOKENS = st.sampled_from(
    ["--start", "--st", "--sta", "--star", "--s", "--start=1", "--json", "out.json",
     "--max-iter", "3", "--trace", "t.csv", "--tol", "--bogus", "--", "banach-linear", "x"]
    + START_VALUES)
WELL_FORMED_START = st.tuples(
    st.sampled_from(["--start", "--st", "--star"]),
    st.sampled_from(["0", "-1", "0.5", "nan"]),
    st.sampled_from(["1", "-.25", "2"]),
).map(list)
ANY_CHUNKS = st.lists(st.one_of(
    WELL_FORMED_START,
    st.tuples(st.sampled_from(["--start", "--st", "--star", "--s"]),
              st.sampled_from(START_VALUES), st.sampled_from(START_VALUES)).map(list),
    START_TOKENS.map(lambda t: [t]),
), max_size=14)
#: A source, then mostly runs of starts: command lines that parse.
USABLE_CHUNKS = st.lists(st.one_of(
    WELL_FORMED_START,
    st.sampled_from([["--max-iter", "3"], ["--json", "-"], ["--"], ["--tol", "0.5"]]),
), min_size=1, max_size=14).map(lambda chunks: [["x"]] + chunks)


class TestStartParsing:
    @given(
        command=st.sampled_from(["solve", "demo", "check"]),
        chunks=st.one_of(ANY_CHUNKS, USABLE_CHUNKS),
    )
    @example(command="solve", chunks=[["banach-linear"], ["--start", "1"]])
    @example(command="solve", chunks=[["banach-linear"], ["--start", "a", "b"]])
    @example(command="solve", chunks=[["--st", "0", "1"], ["--start", "2", "3"], ["--sta", "4", "5"],
                                      ["x"], ["--start", "6", "7"], ["--start", "8", "a"]])
    @example(command="solve", chunks=[["x"], ["--start", "1", "2"], ["--start", "3", "4"],
                                      ["--"], ["--start", "5", "6"], ["--start", "7", "8"]])
    @example(command="solve", chunks=[["x"], ["--start", "1", "2"], ["--start", "3", "4"],
                                      ["--", "y"]])
    @example(command="demo", chunks=[["x"], ["--json"], ["--start", "1", "2"],
                                     ["--start", "3", "4"], ["out.json"]])
    @example(command="solve", chunks=[["x"], ["--start", "-1 ", "2"], ["--start", "3", "4"],
                                      ["--start", "5", "6"]])
    @example(command="solve", chunks=[["x"], ["--start", "1", "2"], ["--s", "3", "4"]])
    @settings(max_examples=300, deadline=None)
    def test_namespace_and_errors_match_argparse(self, command, chunks):
        argv = [command] + [t for chunk in chunks for t in chunk]
        fixed = parse_outcome(argv)
        with pytest.MonkeyPatch.context() as monkeypatch:
            plain_argparse(monkeypatch)
            assert parse_outcome(argv) == fixed

    @pytest.mark.parametrize("starts", [["1"], ["a", "b"], ["1", "--json", "-"]])
    def test_malformed_start_prints_usage_and_exits_3(self, starts, capsys):
        argv = ["solve", "banach-linear", "--start", "0", "1", "--start", *starts]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 3 and out == ""
        assert err.startswith("usage: couplefix solve") and "argument --start: " in err

    def test_a_run_of_starts_reaches_argparse_as_one_option(self, monkeypatch):
        seen = []
        parse = argparse.ArgumentParser.parse_known_args

        def spy(self, args=None, namespace=None):
            seen.append(list(args))
            return parse(self, args, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        argv = ["solve", "banach-linear"]
        for k in range(600):
            argv += ["--start", str(k / 600), "-0.5"]
        ns = cli.build_parser().parse_args(argv)
        assert ns.start == [[k / 600, -0.5] for k in range(600)]
        assert seen[-1] == ["banach-linear", "--start", "0.0", "-0.5"]


class TestSamplingFlags:
    """--samples, --jitter and --seed set check sampling, so only the
    commands that run the checks take them."""

    @pytest.mark.parametrize("flag", ["--samples", "--jitter", "--seed"])
    def test_solve_rejects_them_with_the_usage(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "banach-linear", flag, "3"])
        out, err = capsys.readouterr()
        assert exc.value.code == 3 and out == ""
        assert err.startswith("usage: couplefix ")
        assert err.endswith(f"error: unrecognized arguments: {flag} 3\n")

    @pytest.mark.parametrize("command", ["check", "demo"])
    def test_check_and_demo_take_them(self, command, tmp_path, capsys):
        args = [command, "banach-linear", "--samples", "9", "--jitter", "1", "--seed", "2"]
        ns = cli.build_parser().parse_args(args)
        assert (ns.samples, ns.jitter, ns.seed) == (9, 1, 2)
        report = tmp_path / "report.json"
        code, _, _ = run_cli(args + ["--json", str(report)], capsys)
        assert code == 0
        axioms = read_json(report)["checks"][0]
        assert axioms["slot"] == "space"
        assert axioms["samples_tested"] == 10 ** 3 + 10 ** 2  # 9 grid + 1 jitter points

    def test_zero_budget_document_exits_3_at_once(self):
        env = dict(os.environ, PYTHONPATH=str(DOCUMENTS.parent / "src"))
        out = subprocess.run(
            [sys.executable, "-m", "couplefix.cli", "check", str(DOCUMENTS / "zero-budget.yaml")],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert out.returncode == 3 and out.stdout == ""
        assert out.stderr == "error: check.budget: budget must be at least 1, got 0\n"


class _Level(int):
    """An int subclass, which the report writer leaves to ``json.dumps``."""


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-320, 1e16, float("nan"), float("inf"), -float("inf")]),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=25,
)


@given(value=_JSON_VALUES, odd=st.sampled_from([None, _Level(3), {1: "int key"},
                                                {"a": 1, 2: "mixed keys"}]))
@example(value={"é": ["ü", "\x00", " ", "\ud800"], "": {}, "t": ()}, odd=None)
@settings(max_examples=300, deadline=None)
def test_report_json_is_what_json_dumps_writes(value, odd):
    """``--json`` text equals ``json.dumps(sort_keys=True, indent=2)`` on the
    report's types (NaN, infinities, text outside ASCII, empty containers,
    tuples) and on any value, which falls back to ``json.dumps`` and
    raises its error where it raises (keys of mixed types)."""
    for payload in (value, [value, odd], {"k": value, "odd": odd}):
        written = io.StringIO()
        try:
            want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        except TypeError as exc:
            with pytest.raises(TypeError) as got, redirect_stderr(written):
                cli._emit_json(payload, "-")
            assert str(got.value) == str(exc)
        else:
            with redirect_stderr(written):
                cli._emit_json(payload, "-")
            assert written.getvalue() == want
