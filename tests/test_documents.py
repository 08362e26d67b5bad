"""Problem documents: parsing, compilation, and the builtin registry."""

import copy
import json
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from couplefix import documents
from couplefix.cli import main
from couplefix.controls import ControlClass, eval_control
from couplefix.documents import (
    ProblemDocument,
    build_problem,
    builtin_mapping,
    builtin_registry,
    parse_problem,
    parse_problem_file,
    registry_names,
)
from couplefix.errors import DocumentError
from couplefix.metric import Interval, Point, sample_values
from couplefix.problems import CoincidenceProblem, StrongCoupledProblem
from couplefix.solve import SolveStatus, iterate_strong_coupled

STRONG_DOC = textwrap.dedent(
    """\
    problem_kind: strong_coupled
    space: "[0, 3]"
    subset_A: [1]
    subset_B: [1, 2]
    map_F: "min(x, y)"
    phi: {family: power, exponent: 2}
    psi: {family: identity}
    solve:
      starts: [[1, 2]]
    check:
      grid_count: 11
    """
)


class TestParseProblem:
    def test_strong_document_round_trip(self):
        doc = parse_problem(STRONG_DOC, name="mini")
        assert doc.name == "mini"
        assert doc.problem.kind == "strong_coupled"
        assert isinstance(doc.problem.space.carrier, Interval)
        assert (doc.problem.space.carrier.lo, doc.problem.space.carrier.hi) == (0.0, 3.0)
        assert list(doc.problem.subset_a.values) == [1.0]
        assert list(doc.problem.subset_b.values) == [1.0, 2.0]
        assert doc.problem.psi is not None
        assert doc.problem.phi.declared_class is ControlClass.ALTERING
        assert doc.starts == ((Point(1.0), Point(2.0)),)
        assert doc.check.plan.grid_count == 11
        assert doc.check.plan_b is None

    def test_brace_and_list_subset_forms_agree(self):
        alt = STRONG_DOC.replace("subset_A: [1]", 'subset_A: "{1}"').replace(
            "subset_B: [1, 2]", 'subset_B: "{1, 2}"'
        )
        doc = parse_problem(alt)
        assert list(doc.problem.subset_a.values) == [1.0]
        assert list(doc.problem.subset_b.values) == [1.0, 2.0]

    def test_open_interval_notation(self):
        doc = parse_problem(
            STRONG_DOC.replace('space: "[0, 3]"', 'space: "(-5, 5)"')
        )
        carrier = doc.problem.space.carrier
        assert (carrier.lo, carrier.hi) == (-5.0, 5.0)
        assert not carrier.lo_closed and not carrier.hi_closed

    def test_rational_endpoints(self):
        doc = parse_problem(
            STRONG_DOC.replace("subset_A: [1]", 'subset_A: "[1/2, 3/2]"')
        )
        iv = doc.problem.subset_a.intervals[0]
        assert (iv.lo, iv.hi) == (0.5, 1.5)

    def test_unknown_top_level_key_is_rejected(self):
        with pytest.raises(DocumentError, match="frobnicate"):
            parse_problem(STRONG_DOC + "frobnicate: 3\n")

    def test_missing_psi_for_strong_kind(self):
        bad = STRONG_DOC.replace("psi: {family: identity}\n", "")
        with pytest.raises(DocumentError, match="psi"):
            parse_problem(bad)

    def test_map_t_forbidden_for_strong_kind(self):
        with pytest.raises(DocumentError, match="map_T"):
            parse_problem(STRONG_DOC + 'map_T: "x"\n')

    def test_coincidence_requires_map_t(self):
        bad = STRONG_DOC.replace("strong_coupled", "coincidence").replace(
            "psi: {family: identity}\n", ""
        )
        with pytest.raises(DocumentError, match="map_T"):
            parse_problem(bad)

    def test_error_paths_are_dotted(self):
        missing_slope = STRONG_DOC.replace(
            "phi: {family: power, exponent: 2}", "phi: {family: linear}"
        )
        with pytest.raises(DocumentError, match="phi.slope"):
            parse_problem(missing_slope)
        bad_interval = STRONG_DOC.replace('space: "[0, 3]"', 'space: "0 to 3"')
        with pytest.raises(DocumentError, match="space"):
            parse_problem(bad_interval)
        bad_kind = STRONG_DOC.replace("strong_coupled", "weak_coupled")
        with pytest.raises(DocumentError, match="problem_kind"):
            parse_problem(bad_kind)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('space: "[0, 3]"', 'space: "[2, 1]"', "space"),
            ("subset_A: [1]", 'subset_A: "(1, 1)"', "subset_A"),
            ("subset_A: [1]", "subset_A: []", "subset_A"),
            ("grid_count: 11", 'grid_count: 11\n  range_b: "[3, 0]"', "check.range_b"),
        ],
    )
    def test_empty_intervals_name_their_key(self, old, new, key):
        with pytest.raises(DocumentError) as err:
            parse_problem(STRONG_DOC.replace(old, new))
        assert err.value.key == key
        assert str(err.value).startswith(f"{key}: ")

    @pytest.mark.parametrize(
        "tol",
        ["0", "-1", "-1.0e-9", ".nan", ".inf", "-.inf", "1.0e-400",
         pytest.param(str(10**400), id="10**400")],
    )
    def test_check_tol_must_be_positive_and_finite(self, tol):
        doc = STRONG_DOC.replace("grid_count: 11", f"grid_count: 11\n  tol: {tol}")
        with pytest.raises(DocumentError) as err:
            parse_problem(doc)
        assert err.value.key == "check.tol"

    def test_expression_errors_carry_key(self):
        bad = STRONG_DOC.replace('map_F: "min(x, y)"', 'map_F: "min(x,"')
        with pytest.raises(DocumentError, match="map_F"):
            parse_problem(bad)

    def test_not_yaml_at_all(self):
        with pytest.raises(DocumentError):
            parse_problem("]broken{:")
        with pytest.raises(DocumentError):
            parse_problem("- just\n- a\n- list\n")

    def test_parse_problem_file_uses_stem(self, tmp_path):
        path = tmp_path / "mini-strong.yaml"
        path.write_text(STRONG_DOC, encoding="utf-8")
        doc = parse_problem_file(path)
        assert doc.name == "mini-strong"
        assert doc.problem.kind == "strong_coupled"


class TestBuildProblem:
    def test_strong_document_builds_runnable_problem(self):
        problem = build_problem(parse_problem(STRONG_DOC))
        assert isinstance(problem, StrongCoupledProblem)
        report, _ = iterate_strong_coupled(problem, Point(1.0), Point(2.0))
        assert report.status is SolveStatus.CONVERGED
        assert report.candidate[0].value == 1.0

    def test_identity_self_map_and_inverse_wiring(self):
        doc_text = textwrap.dedent(
            """\
            problem_kind: coincidence
            space: "[0, 4]"
            subset_A: "[0, 2]"
            subset_B: "[0, 2]"
            map_F: "1/2"
            map_T: identity
            phi: {family: linear, slope: 1/2}
            """
        )
        problem = build_problem(parse_problem(doc_text))
        assert isinstance(problem, CoincidenceProblem)
        assert problem.self_map.preimage_fn is not None

        with_inverse = doc_text.replace(
            "map_T: identity", 'map_T: "x / 2"\nmap_T_inverse: "2 * x"'
        )
        problem2 = build_problem(parse_problem(with_inverse))
        assert problem2.self_map.preimage_fn is not None
        got = problem2.self_map.preimage_fn(0.8, problem2.subset_a, 1e-9)
        assert got == 1.6

    def test_identity_with_inverse_is_contradictory(self):
        doc_text = textwrap.dedent(
            """\
            problem_kind: coincidence
            space: "[0, 4]"
            subset_A: "[0, 2]"
            subset_B: "[0, 2]"
            map_F: "1/2"
            map_T: identity
            map_T_inverse: "x"
            phi: {family: linear, slope: 1/2}
            """
        )
        with pytest.raises(DocumentError, match="map_T_inverse"):
            parse_problem(doc_text)

    def test_subset_outside_carrier_is_a_document_error(self):
        bad = STRONG_DOC.replace('space: "[0, 3]"', 'space: "[0, 1/2]"')
        with pytest.raises(DocumentError, match="carrier") as err:
            build_problem(parse_problem(bad))
        assert err.value.key == "subset_A"


class TestRegistry:
    def test_names_are_stable(self):
        assert registry_names() == [
            "banach-linear",
            "example-2.1.9",
            "example-2.2.3",
            "negative-midpoint",
        ]

    def test_unknown_name_lists_the_entries(self):
        with pytest.raises(DocumentError, match="banach-linear"):
            builtin_registry("no-such-problem")

    def test_capped_coincidence_entry(self):
        doc = builtin_registry("example-2.1.9")
        assert doc.problem.kind == "coincidence"
        assert doc.check.plan.grid_count == 21
        assert doc.check.plan_b.grid_count == 41
        assert doc.check.range_b is not None
        problem = build_problem(doc)
        f = problem.coupling
        assert f.evaluate(Point(1.0), Point(1.0)).value == 2.0
        assert f.evaluate(Point(3.0), Point(1.0)).value == pytest.approx(1 / 6, abs=1e-15)
        t = problem.self_map
        assert t.evaluate(Point(1.0)).value == 2.0
        assert t.evaluate(Point(3.0)).value == 4.0
        assert eval_control(problem.phi, 2.0) == pytest.approx(float(Fraction(47, 24)), abs=1e-15)

    def test_min_entry_matches_hand_fixture(self):
        doc = builtin_registry("example-2.2.3")
        assert doc.problem.kind == "strong_coupled"
        assert list(doc.problem.subset_a.values) == [1.0]
        assert list(doc.problem.subset_b.values) == [1.0, 2.0]
        assert doc.starts == ((Point(1.0), Point(1.0)), (Point(1.0), Point(2.0)))
        problem = build_problem(doc)
        assert eval_control(problem.phi, 0.5) == 0.25
        assert eval_control(problem.psi, 0.5) == 0.5

    @pytest.mark.parametrize("name", registry_names())
    def test_problem_kind_matches_the_document(self, name):
        doc = builtin_registry(name)
        assert build_problem(doc).kind == builtin_mapping(name)["problem_kind"]

    def test_banach_linear_parameter(self):
        doc = builtin_registry("banach-linear", k="9/10")
        problem = build_problem(doc)
        f = problem.coupling
        assert f.evaluate(Point(1.0), Point(1.0)).value == pytest.approx(0.95, abs=1e-15)
        assert eval_control(problem.phi, 1.0) == pytest.approx(0.1, abs=1e-15)

    def test_banach_linear_default_converges_to_half(self):
        doc = builtin_registry("banach-linear")
        problem = build_problem(doc)
        (sx, sy) = doc.starts[0]
        report, _ = iterate_strong_coupled(problem, sx, sy, doc.solve)
        assert report.status is SolveStatus.CONVERGED
        assert report.candidate[0].value == pytest.approx(0.5, abs=1e-8)

    def test_banach_linear_rejects_out_of_range_k(self):
        with pytest.raises(DocumentError, match="k"):
            builtin_registry("banach-linear", k="3/2")

    def test_parameters_rejected_elsewhere(self):
        with pytest.raises(DocumentError, match="parameter"):
            builtin_registry("example-2.2.3", k="1/2")

    def test_negative_midpoint_is_well_formed_but_inadmissible(self):
        doc = builtin_registry("negative-midpoint")
        problem = build_problem(doc)
        assert isinstance(problem, StrongCoupledProblem)
        # The document parses and solves; only the contraction check rejects it.
        report, _ = iterate_strong_coupled(problem, *doc.starts[0])
        assert report.status is SolveStatus.CONVERGED

    @pytest.mark.parametrize("name", ["banach-linear", "example-2.1.9", "example-2.2.3", "negative-midpoint"])
    def test_every_entry_is_total_on_its_sampled_domain(self, name):
        doc = builtin_registry(name)
        problem = build_problem(doc)
        plan, plan_b = doc.check.plan, doc.check.plan_b or doc.check.plan
        a_pts = list(map(Point, sample_values(problem.subset_a, plan)))
        b_pts = list(map(Point, sample_values(problem.subset_b, plan_b)))
        for x in a_pts[:: max(1, len(a_pts) // 5)]:
            for y in b_pts[:: max(1, len(b_pts) // 5)]:
                problem.coupling.evaluate(x, y)
                problem.coupling.evaluate(y, x)
        for t in (0.0, 0.5, 1.0, 2.0):
            eval_control(problem.phi, t)
            if getattr(problem, "psi", None) is not None:
                eval_control(problem.psi, t)


class TestBuiltinsAsData:
    """Builtins are Python data and skip YAML; files still go through it."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def test_cli_and_every_builtin_load_no_yaml(self):
        code = textwrap.dedent(
            """\
            import sys
            import couplefix, couplefix.cli
            from couplefix.documents import registry_names
            for name in registry_names():
                couplefix.build_problem(couplefix.builtin_registry(name))
            couplefix.build_problem(couplefix.builtin_registry("banach-linear", k="9/10"))
            print("yaml" in sys.modules)
            doc = couplefix.cli.load_document(sys.argv[1])
            print(doc.name, "yaml" in sys.modules)
            """
        )
        capped = Path(__file__).with_name("expr-capped.yaml")
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        out = subprocess.run(
            [sys.executable, "-c", code, str(capped)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.splitlines() == ["False", "expr-capped True"]

    @pytest.mark.parametrize(
        "text, reason",
        [("tol: " + "9" * 5000, "Exceeds the limit (4300 digits)"),
         ("tol: 2020-13-45", "month must be in 1..12"),
         ("tol: " + "[" * 5000 + "]" * 5000, "maximum recursion depth exceeded")],
        ids=["long-int", "bad-date", "deep-nesting"],
    )
    def test_what_the_yaml_loader_cannot_build_exits_3(self, text, reason, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(STRONG_DOC.replace("solve:\n", f"solve:\n  {text}\n"), encoding="utf-8")
        with pytest.raises(DocumentError, match="not valid YAML") as err:
            parse_problem_file(bad)
        assert reason in str(err.value)
        assert main(["check", str(bad)]) == 3
        assert capsys.readouterr().err.startswith("error: document is not valid YAML: ")

    def test_invalid_yaml_file_still_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("]broken{:", encoding="utf-8")
        with pytest.raises(DocumentError, match="not valid YAML"):
            parse_problem_file(bad)
        assert main(["check", str(bad)]) == 3
        assert "not valid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("name", registry_names())
    @pytest.mark.parametrize("command", ["check", "demo"])
    def test_text_path_reports_equal_the_mapping_path(self, name, command, tmp_path, capsys):
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(builtin_mapping(name)), encoding="utf-8")
        runs = []
        for source in (name, str(path)):
            report = tmp_path / "report.json"
            capsys.readouterr()
            code = main([command, source, "--json", str(report)])
            payload = json.loads(report.read_text(encoding="utf-8"))
            payload.pop("timing_ms")
            runs.append((code, capsys.readouterr().out, payload))
        assert runs[0] == runs[1]

    def test_banach_linear_mapping_is_what_its_yaml_text_loads_to(self):
        text = textwrap.dedent(
            """\
            problem_kind: strong_coupled
            space: "[0, 1]"
            subset_A: "[0, 1]"
            subset_B: "[0, 1]"
            map_F: "9/20 * (x + y) + 1/20"
            phi: {family: linear, slope: 1/10}
            psi: {family: identity}
            solve:
              starts: [[0, 1]]
            """
        )
        assert builtin_mapping("banach-linear", k="9/10") == yaml.safe_load(text)

    def test_building_leaves_the_registry_unchanged(self):
        before = copy.deepcopy(documents._REGISTRY)
        for name in registry_names():
            doc = builtin_registry(name)
            build_problem(doc)
            main(["demo", name])
        assert documents._REGISTRY == before

    def test_builtin_errors_keep_their_messages(self):
        with pytest.raises(DocumentError) as exc:
            builtin_registry("no-such-problem")
        assert str(exc.value) == (
            "unknown builtin problem 'no-such-problem'; available: "
            "banach-linear, example-2.1.9, example-2.2.3, negative-midpoint"
        )
        with pytest.raises(DocumentError) as exc:
            builtin_registry("example-2.2.3", k="1/2")
        assert str(exc.value) == "example-2.2.3 accepts no parameter named ['k']"
        for k in ("0", "1", "3/2", -1):
            with pytest.raises(DocumentError) as exc:
                builtin_registry("banach-linear", k=k)
            assert exc.value.key == "k"
            assert str(exc.value) == f"k: must satisfy 0 < k < 1, got {k!r}"


_FAMILIES_ONE_OF = "['capped_linear', 'expr', 'identity', 'linear', 'power']"

#: (section, its value, key path, message) of one faulty setting each.
SETTING_ERRORS = [
    # every control family: a missing field, a value of the wrong type, an unknown key
    ("phi", {"family": "linear"}, "phi.slope", "required key is missing"),
    ("phi", {"family": "linear", "slope": "abc"}, "phi.slope", "expected a number, got 'abc'"),
    ("phi", {"family": "linear", "slope": "1/2", "bogus": 1}, "phi", "unknown keys ['bogus']"),
    ("phi", {"family": "power"}, "phi.exponent", "required key is missing"),
    ("phi", {"family": "power", "exponent": "abc"}, "phi.exponent",
     "expected a number, got 'abc'"),
    ("phi", {"family": "power", "exponent": 2, "bogus": 1}, "phi", "unknown keys ['bogus']"),
    ("phi", {"family": "capped_linear", "threshold": 1}, "phi.slope", "required key is missing"),
    ("phi", {"family": "capped_linear", "slope": "abc", "threshold": 1}, "phi.slope",
     "expected a number, got 'abc'"),
    ("phi", {"family": "capped_linear", "slope": "2/3"}, "phi.threshold",
     "required key is missing"),
    ("phi", {"family": "capped_linear", "slope": "2/3", "threshold": "abc"}, "phi.threshold",
     "expected a number, got 'abc'"),
    ("phi", {"family": "capped_linear", "slope": "2/3", "threshold": 1, "bogus": 1}, "phi",
     "unknown keys ['bogus']"),
    ("phi", {"family": "identity", "bogus": 1}, "phi", "unknown keys ['bogus']"),
    ("phi", {"family": "expr"}, "phi.text", "required key is missing"),
    ("phi", {"family": "expr", "text": 3}, "phi.text", "expected an expression string, got 3"),
    ("phi", {"family": "expr", "text": "t / 2", "bogus": 1}, "phi", "unknown keys ['bogus']"),
    # the control itself, its family, and values its constructor rejects
    ("phi", 5, "phi", "expected a mapping, got int"),
    ("phi", {"family": "bogus"}, "phi.family", f"expected one of {_FAMILIES_ONE_OF}, got 'bogus'"),
    ("phi", {"slope": 1}, "phi.family", f"expected one of {_FAMILIES_ONE_OF}, got None"),
    ("phi", {"family": "linear", "slope": -1}, "phi", "linear slope must be >= 0, got -1"),
    ("phi", {"family": "power", "exponent": 0}, "phi", "power exponent must be > 0, got 0.0"),
    ("phi", {"family": "capped_linear", "slope": 2, "threshold": 1}, "phi",
     "capped-linear slope must lie in (0, 1), got 2"),
    ("phi", {"family": "expr", "text": "t +"}, "phi",
     "unexpected end of input at line 1, column 4 "
     "(expected number, identifier, function call, (, -)"),
    # every solve key with a value of the wrong type
    ("solve", {"tol": "abc"}, "solve.tol", "expected a number, got 'abc'"),
    ("solve", {"max_iter": "abc"}, "solve.max_iter", "expected an integer, got 'abc'"),
    ("solve", {"max_iter": 2.5}, "solve.max_iter", "expected an integer, got 2.5"),
    ("solve", {"preimage_tol": [1]}, "solve.preimage_tol", "expected a number, got [1]"),
    ("solve", {"starts": "abc"}, "solve.starts", "expected a list of [x0, y0] pairs, got 'abc'"),
    ("solve", {"starts": [[1]]}, "solve.starts[0]", "expected a pair [x0, y0], got [1]"),
    ("solve", {"starts": [["a", 1]]}, "solve.starts[0]", "expected a number, got 'a'"),
    ("solve", 5, "solve", "expected a mapping, got int"),
    ("solve", {"max_iter": 0}, "solve.max_iter", "max_iter must be at least 1, got 0"),
    ("solve", {"bogus": 1}, "solve", "unknown keys ['bogus']"),
    # every check key with a value of the wrong type
    ("check", {"grid_count": "abc"}, "check.grid_count", "expected an integer, got 'abc'"),
    ("check", {"grid_count": True}, "check.grid_count", "expected an integer, got True"),
    ("check", {"grid_count_b": 1.5}, "check.grid_count_b", "expected an integer, got 1.5"),
    ("check", {"jitter_count": "2"}, "check.jitter_count", "expected an integer, got '2'"),
    ("check", {"seed": None}, "check.seed", "expected an integer, got None"),
    ("check", {"tol": "abc"}, "check.tol", "expected a number, got 'abc'"),
    ("check", {"budget": "abc"}, "check.budget", "expected an integer, got 'abc'"),
    ("check", {"budget": 1e6}, "check.budget", "expected an integer, got 1000000.0"),
    ("check", {"range_b": 5}, "check.range_b",
     "expected an interval string, a brace set, or a list of values, got 5"),
    ("check", {"range_b": []}, "check.range_b",
     "subset must have either points or intervals, and be nonempty"),
    ("check", [1], "check", "expected a mapping, got list"),
    ("check", {"grid_count": 0}, "check.grid_count", "grid_count must be at least 2, got 0"),
    ("check", {"grid_count_b": 0}, "check.grid_count_b",
     "grid_count_b must be at least 2, got 0"),
    ("check", {"jitter_count": -1}, "check.jitter_count",
     "jitter_count must be nonnegative, got -1"),
    ("check", {"tol": 0}, "check.tol", "tol must be a positive finite float, got 0.0"),
    ("check", {"bogus": 1}, "check", "unknown keys ['bogus']"),
    # a subset, or the range check's targets, outside the carrier [0, 3]
    ("check", {"range_b": "[2, 9]"}, "check.range_b", "not contained in the carrier"),
    ("check", {"range_b": [1, 4]}, "check.range_b", "not contained in the carrier"),
    ("subset_A", [5], "subset_A", "not contained in the carrier"),
    ("subset_B", "(2, 4)", "subset_B", "not contained in the carrier"),
    # a map that uses a variable outside its slot
    ("map_F", "x + t", "map_F", "coupling expressions may only use ['x', 'y']; found: t"),
    ("map_F", "min(x, (", "map_F",
     "unexpected end of input at line 1, column 9 "
     "(expected number, identifier, function call, (, -)"),
    # values that escaped as other exceptions before the parse campaign found them
    ("phi", {"family": [1]}, "phi.family", f"expected one of {_FAMILIES_ONE_OF}, got [1]"),
    ("solve", {"tol": "1e999999999"}, "solve.tol", "number is out of range"),
    ("solve", {"tol": "1e-999"}, "solve.tol", "number is out of range"),
    ("check", {"budget": -10**5000}, "check.budget", "number is out of range"),
    ("check", {"seed": 2**3000}, "check.seed", "number is out of range"),
    ("problem_kind", 10**5000, "problem_kind",
     "expected one of ['coincidence', 'strong_coupled'], got <int too long to show>"),
    ("map_F", [10**5000], "map_F", "expected an expression string, got <list too long to show>"),
    ("map_F", "x * " + "9" * 5000, "map_F",
     "numeric literal has too many digits near '99999999' at line 1, column 5"),
    ("solve", {1: 2, "a": 3}, "solve", "unknown keys ['a', 1]"),
    # one grid point cannot sample an interval, so a grid count is at least 2
    # even where the subsets are finite, as example-2.2.3's are
    ("check", {"grid_count": 1}, "check.grid_count", "grid_count must be at least 2, got 1"),
    ("check", {"grid_count_b": 1}, "check.grid_count_b",
     "grid_count_b must be at least 2, got 1"),
]

#: As SETTING_ERRORS, on the coincidence builtin example-2.1.9 with T = 2x.
COINCIDENCE_ERRORS = [
    ("map_T", "y", "map_T", "self-map expressions may only use ['x']; found: y"),
    ("map_T", 3, "map_T", "expected an expression string, got 3"),
    ("map_T_inverse", "t", "map_T_inverse", "inverse expressions may only use ['x']; found: t"),
    ("map_T_inverse", "x / (2 * y)", "map_T_inverse",
     "inverse expressions may only use ['x']; found: y"),
]


class TestSettingErrors:
    @pytest.mark.parametrize(
        "section, value, key, message", SETTING_ERRORS,
        ids=[f"{s}-{k}-{i}" for i, (s, _, k, _) in enumerate(SETTING_ERRORS)],
    )
    def test_message_and_key_path(self, section, value, key, message):
        doc = {**builtin_mapping("example-2.2.3"), section: value}
        with pytest.raises(DocumentError) as err:
            documents.parse_mapping(doc)
        assert err.value.key == key
        assert str(err.value) == f"{key}: {message}"

    @pytest.mark.parametrize(
        "section, value, key, message", COINCIDENCE_ERRORS,
        ids=[f"{s}-{i}" for i, (s, _, _, _) in enumerate(COINCIDENCE_ERRORS)],
    )
    def test_coincidence_maps(self, section, value, key, message):
        doc = {**builtin_mapping("example-2.1.9"), "map_T": "2 * x", section: value}
        with pytest.raises(DocumentError) as err:
            documents.parse_mapping(doc)
        assert err.value.key == key
        assert str(err.value) == f"{key}: {message}"


class TestSettingRules:
    def test_solve_seed_is_an_unknown_key(self):
        doc = {**builtin_mapping("example-2.2.3"), "solve": {"seed": 1}}
        with pytest.raises(DocumentError) as err:
            documents.parse_mapping(doc)
        assert err.value.key == "solve"
        assert str(err.value) == "solve: unknown keys ['seed']"

    @pytest.mark.parametrize(
        "section, value, key, message",
        [
            ("solve", {"tol": 0}, "solve.tol", "tol must be a positive finite float, got 0.0"),
            ("solve", {"tol": ".nan"}, "solve.tol", "expected a number, got '.nan'"),
            ("solve", {"preimage_tol": -1}, "solve.preimage_tol",
             "preimage_tol must be a positive finite float, got -1.0"),
            ("solve", {"preimage_tol": float("inf")}, "solve.preimage_tol",
             "expected a number, got inf"),
            ("check", {"tol": "-1/2"}, "check.tol",
             "tol must be a positive finite float, got -0.5"),
            ("check", {"budget": 0}, "check.budget", "budget must be at least 1, got 0"),
            ("check", {"budget": -5}, "check.budget", "budget must be at least 1, got -5"),
        ],
    )
    def test_positive_settings(self, section, value, key, message):
        doc = {**builtin_mapping("example-2.2.3"), section: value}
        with pytest.raises(DocumentError) as err:
            documents.parse_mapping(doc)
        assert err.value.key == key
        assert str(err.value) == f"{key}: {message}"

    def test_absent_keys_take_the_dataclass_defaults(self):
        doc = documents.parse_mapping({**builtin_mapping("example-2.2.3"), "solve": None})
        assert doc.solve == documents.SolveOptions()
        assert doc.starts == ()
        assert doc.check == documents.CheckSettings()

    def test_present_keys_reach_the_dataclasses(self):
        doc = documents.parse_mapping({
            **builtin_mapping("example-2.2.3"),
            "solve": {"tol": "1/1000", "max_iter": 7, "preimage_tol": 0.5},
            "check": {"grid_count": 5, "grid_count_b": 9, "jitter_count": 2, "seed": 4,
                      "tol": 1e-6, "budget": 1, "range_b": "[0, 1]"},
        })
        assert doc.solve == documents.SolveOptions(tol=0.001, max_iter=7, preimage_tol=0.5)
        assert doc.check.plan == documents.SamplePlan(5, 2, 4)
        assert doc.check.plan_b == documents.SamplePlan(9, 2, 4)
        assert (doc.check.tol, doc.check.budget) == (1e-6, 1)
        assert doc.check.range_b.intervals == (Interval(0.0, 1.0),)


#: Values a mutated entry takes: wrong types, empty containers, extreme
#: numbers, expressions nested past the limit, and variables outside a slot.
_WRONG_TYPES = [None, True, 3, -2.5, "abc", [1, 2], {"a": 1}, [[1, 2]], "identity",
                {"family": [1]}, {"family": "linear", "slope": [1]}, {"family": None}]
_EMPTY = [[], {}, "", " ", "{}", "[]", "()", "[,]", [[]]]
_EXTREME = [0, -1, 2**63, 10**400, -10**400, 10**5000, -10**5000, 1e308, -1e308, 5e-324,
            float("inf"), float("-inf"), float("nan"), "1e400", "-1e-400", "1e999999999",
            "9" * 5000, "1/3", "[0, 1e999999999]", "[-1e308, 1e308]", "{1e400}"]
_DEEP = ["(" * 120 + "x" + ")" * 120, "-" * 150 + "x", "abs(" * 101 + "x" + ")" * 101,
         " + ".join(["x"] * 120), "x * " + "9" * 5000, "x * " + "9" * 4000 + " * " + "9" * 4000,
         "piecewise { " + "x < 1 and " * 60 + "x < 2 => x ; }"]
_OUT_OF_SLOT = ["x + t", "y", "t", "x + y + t", "min(x, t)", "t * y"]
_MUTANTS = _WRONG_TYPES + _EMPTY + _EXTREME + _DEEP + _OUT_OF_SLOT
#: Keys YAML can give besides strings, for a second unknown key.
_ODD_KEYS = [1, None, 2.5, True, 10**5000, "zzz"]
_KEY_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*|\[\d+\])*")


def _paths(value, path=()):
    """The path of every entry under ``value``: dict keys and list indices."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for k, v in items:
        yield path + (k,)
        yield from _paths(v, path + (k,))


def _mutated(value, path, change):
    """A copy of ``value`` with ``change`` applied to the container that
    holds the entry at ``path``; ``value`` itself is not changed."""
    copy = dict(value) if isinstance(value, dict) else list(value)
    if len(path) == 1:
        change(copy, path[0])
    else:
        copy[path[0]] = _mutated(value[path[0]], path[1:], change)
    return copy


class TestParseCampaign:
    """One mutated entry of a builtin's mapping is a document or a keyed
    DocumentError, never another exception.  Nothing is checked or solved."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_one_mutation_is_a_document_or_a_keyed_error(self, data):
        name = data.draw(st.sampled_from(registry_names()))
        mapping = builtin_mapping(name)
        path = data.draw(st.sampled_from(list(_paths(mapping))))
        how = data.draw(st.sampled_from(["replace", "unknown keys", "remove"]))
        if how == "replace":
            new = data.draw(st.sampled_from(_MUTANTS))

            def change(holder, at):
                holder[at] = new
        elif how == "unknown keys":
            path = path[:-1] + ("bogus",)
            other = data.draw(st.sampled_from(_ODD_KEYS))

            def change(holder, at):
                if isinstance(holder, dict):
                    holder.update({at: 1, other: 2})
                else:
                    holder.append(1)
        else:
            def change(holder, at):
                del holder[at]
        try:
            doc = documents.parse_mapping(_mutated(mapping, path, change), name)
        except DocumentError as exc:
            assert exc.key and _KEY_PATH.fullmatch(exc.key), exc.key
            assert str(exc).startswith(f"{exc.key}: ")
        else:
            assert isinstance(doc, ProblemDocument)
            assert build_problem(doc) is doc.problem
