"""Problem documents: parsing, compilation, and the builtin registry."""

import copy
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

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
from couplefix.metric import Interval, Point, sample_points
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
        assert doc.problem_kind == "strong_coupled"
        assert isinstance(doc.space.carrier, Interval)
        assert (doc.space.carrier.lo, doc.space.carrier.hi) == (0.0, 3.0)
        assert [p.value for p in doc.subset_a.points] == [1.0]
        assert [p.value for p in doc.subset_b.points] == [1.0, 2.0]
        assert doc.psi is not None
        assert doc.phi.declared_class is ControlClass.ALTERING
        assert doc.starts == ((Point(1.0), Point(2.0)),)
        assert doc.check.plan.grid_count == 11
        assert doc.check.plan_b is None

    def test_brace_and_list_subset_forms_agree(self):
        alt = STRONG_DOC.replace("subset_A: [1]", 'subset_A: "{1}"').replace(
            "subset_B: [1, 2]", 'subset_B: "{1, 2}"'
        )
        doc = parse_problem(alt)
        assert [p.value for p in doc.subset_a.points] == [1.0]
        assert [p.value for p in doc.subset_b.points] == [1.0, 2.0]

    def test_open_interval_notation(self):
        doc = parse_problem(
            STRONG_DOC.replace('space: "[0, 3]"', 'space: "(-5, 5)"')
        )
        carrier = doc.space.carrier
        assert (carrier.lo, carrier.hi) == (-5.0, 5.0)
        assert not carrier.lo_closed and not carrier.hi_closed

    def test_rational_endpoints(self):
        doc = parse_problem(
            STRONG_DOC.replace("subset_A: [1]", 'subset_A: "[1/2, 3/2]"')
        )
        iv = doc.subset_a.intervals[0]
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
        assert doc.problem_kind == "strong_coupled"


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
        assert problem.self_map.has_preimage_oracle

        with_inverse = doc_text.replace(
            "map_T: identity", 'map_T: "x / 2"\nmap_T_inverse: "2 * x"'
        )
        problem2 = build_problem(parse_problem(with_inverse))
        assert problem2.self_map.has_preimage_oracle
        got = problem2.self_map.preimage(Point(0.8), problem2.subset_a, 1e-9)
        assert got == Point(1.6)

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
        with pytest.raises(DocumentError, match="carrier"):
            build_problem(parse_problem(bad))


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
        assert doc.problem_kind == "coincidence"
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
        assert doc.problem_kind == "strong_coupled"
        assert [p.value for p in doc.subset_a.points] == [1.0]
        assert [p.value for p in doc.subset_b.points] == [1.0, 2.0]
        assert doc.starts == ((Point(1.0), Point(1.0)), (Point(1.0), Point(2.0)))
        problem = build_problem(doc)
        assert eval_control(problem.phi, 0.5) == 0.25
        assert eval_control(problem.psi, 0.5) == 0.5

    @pytest.mark.parametrize("name", registry_names())
    def test_problem_kind_matches_the_document(self, name):
        doc = builtin_registry(name)
        assert build_problem(doc).kind == doc.problem_kind

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
        a_pts = sample_points(problem.subset_a, doc.check.plan)
        b_pts = sample_points(problem.subset_b, doc.check.plan_b or doc.check.plan)
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
