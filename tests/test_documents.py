"""Problem documents: parsing, compilation, and the builtin registry."""

import textwrap
from fractions import Fraction

import pytest

from couplefix.controls import ControlClass, eval_control
from couplefix.documents import (
    ProblemDocument,
    build_problem,
    builtin_registry,
    parse_problem,
    parse_problem_file,
    registry_names,
)
from couplefix.errors import DocumentError
from couplefix.metric import Point, RealLine, sample_points
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
        assert isinstance(doc.space.carrier, RealLine)
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
