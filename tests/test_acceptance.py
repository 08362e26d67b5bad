"""Acceptance gate: one test per release criterion, end to end.

Each test exercises the package the way a user would — through the CLI, the
document registry, or the public API — and pins the expected numbers with
the tolerances the criteria demand.  Every test ends with an explicit
``[PASS] criterion N`` line so a verbose run reads as a checklist.
"""

import json
import random
import textwrap
import time
from fractions import Fraction

import pytest

from control_matrix import MATRIX
from couplefix.checks import check_coupling, check_phi_psi_contraction
from couplefix.cli import main
from couplefix.controls import (
    ControlClass,
    check_altering,
    check_phi_class,
    eval_control,
    identity_control,
    make_linear,
    with_declared_class,
)
from couplefix.documents import build_problem, builtin_mapping, builtin_registry, parse_problem
from couplefix.expr import format_expression, parse_expression
from couplefix.metric import (
    MetricSpace,
    Point,
    SamplePlan,
    SubsetSpec,
)
from couplefix.problems import CouplingMap, StrongCoupledProblem
from couplefix.solve import (
    SolveOptions,
    SolveStatus,
    brute_force_search,
    iterate_coincidence,
    iterate_strong_coupled,
    multi_start_verdict,
    trace_diagnostics,
)
from expr_oracle import eval_expression


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_criterion_1_plateau_demo_full_checks_and_exact_solution(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    t0 = time.perf_counter()
    code, out, _ = run_cli(["demo", "example-2.1.9", "--json", str(report_path)], capsys)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 5.0

    payload = read_json(report_path)
    assert all(c["verdict"] == "pass" for c in payload["checks"])
    contraction = next(c for c in payload["checks"] if c["slot"] == "contraction")
    assert contraction["details"]["total_quadruples"] == 741_321
    assert contraction["samples_tested"] == 741_321
    assert contraction["samples_tested"] >= 100_000

    assert "self-map image of A: {2}" in out
    assert "self-map image of B: {2, 4}" in out
    assert "image intersection: {2}" in out

    run = payload["solve"]["runs"][0]
    assert run["status"] == "Converged"
    assert run["candidate"] == {"x": 1.0, "y": 1.0}
    assert run["residuals"] == {
        "f_ab_ta": 0.0,
        "f_ba_tb": 0.0,
        "ta_tb": 0.0,
        "f_ab_f_ba": 0.0,
    }
    print(f"[PASS] criterion 1: plateau demo, 741321 quadruples, {elapsed:.2f}s")


def test_criterion_2_min_demo_small_exhaustive_and_fixed_point(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    t0 = time.perf_counter()
    code, out, _ = run_cli(["demo", "example-2.2.3", "--json", str(report_path)], capsys)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 1.0

    payload = read_json(report_path)
    contraction = next(c for c in payload["checks"] if c["slot"] == "contraction")
    assert contraction["samples_tested"] == 4
    assert contraction["violation_count"] == 0
    assert all(c["verdict"] == "pass" for c in payload["checks"])

    assert "intersection of A and B: {1}" in out
    for run in payload["solve"]["runs"]:
        assert run["status"] == "Converged"
        assert run["iterations_used"] <= 3
        assert run["candidate"] == {"x": 1.0, "y": 1.0}
    assert payload["solve"]["verdict"] == "consistent"

    problem = build_problem(builtin_registry("example-2.2.3"))
    one = Point.real(1.0)
    image = problem.coupling.evaluate(one, one)
    assert problem.space.metric(image.value, one.value) == 0.0
    print(f"[PASS] criterion 2: min demo, 4 quadruples, fixed point 1, {elapsed:.2f}s")


def test_criterion_3_negative_cases_fail_with_recheckable_witnesses(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["check", "negative-midpoint", "--json", str(report_path)], capsys
    )
    assert code == 1
    contraction = next(
        c for c in read_json(report_path)["checks"] if c["slot"] == "contraction"
    )
    assert contraction["verdict"] == "fail"
    worst = contraction["violations"][0]
    tag, x, y, v, u = worst["witness"]
    assert tag == "contraction"
    assert (x, y) == (0.0, 0.0) and (u, v) == (1.0, 1.0)
    assert worst["lhs"] == pytest.approx(1.0, abs=1e-12)
    assert worst["rhs"] == pytest.approx(0.9, abs=1e-12)

    # Re-derive both sides of the worst violation from its witness alone.
    problem = build_problem(builtin_registry("negative-midpoint"))
    f_xy = problem.coupling.evaluate(Point.real(x), Point.real(y))
    f_vu = problem.coupling.evaluate(Point.real(v), Point.real(u))
    d = problem.space.metric
    lhs = eval_control(problem.psi, d(f_xy.value, f_vu.value))
    m = max(d(x, v), d(u, y))
    rhs = eval_control(problem.psi, m) - eval_control(problem.phi, m)
    assert lhs == pytest.approx(worst["lhs"], abs=1e-12)
    assert rhs == pytest.approx(worst["rhs"], abs=1e-12)
    assert lhs > rhs

    projection_doc = textwrap.dedent(
        """\
        problem_kind: coincidence
        space: "(-5, 5)"
        subset_A: "[0, 2]"
        subset_B: "[0, 4]"
        map_F: "x"
        map_T: "piecewise { 0 <= x and x <= 2 => 2 ; 2 < x and x <= 4 => 4 ; }"
        phi: {family: capped_linear, slope: 2/3, threshold: 47/24}
        check:
          grid_count: 21
          grid_count_b: 41
        """
    )
    path = tmp_path / "projection.yaml"
    path.write_text(projection_doc, encoding="utf-8")
    report2 = tmp_path / "report2.json"
    code2, _, _ = run_cli(["check", str(path), "--json", str(report2)], capsys)
    assert code2 == 1
    coupling = next(c for c in read_json(report2)["checks"] if c["slot"] == "coupling")
    assert coupling["verdict"] == "fail"
    print("[PASS] criterion 3: both negative cases exit 1 with verified witnesses")


def test_criterion_4_unreachable_preimage_reports_nearest_distance(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["solve", "example-2.1.9", "--start", "1", "3", "--json", str(report_path)],
        capsys,
    )
    assert code == 4
    run = read_json(report_path)["solve"]["runs"][0]
    assert run["status"] == "PreimageFailure"
    failure = run["failure"]
    assert failure["reason"] == "preimage"
    assert failure["step"] == 1
    assert failure["subset"] == "A"
    assert failure["target"] == pytest.approx(1 / 6, abs=1e-12)
    assert failure["min_distance"] == pytest.approx(11 / 6, abs=1e-12)
    print("[PASS] criterion 4: preimage failure at step 1, nearest distance 11/6")


def _finite_case(seed: int):
    """A seeded strong problem on a discrete label space.

    Even seeds build constant couplings into the shared element (the
    admissible family on a discrete metric); odd seeds draw arbitrary
    subset-respecting tables, which are usually not contractions.
    """
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    labels = [f"p{i}" for i in range(n)]
    space = MetricSpace.finite(labels)
    shared = rng.choice(labels)
    a_labels = sorted({shared, *rng.sample(labels, rng.randint(1, n))})
    b_labels = sorted({shared, *rng.sample(labels, rng.randint(1, n))})
    subset_a = SubsetSpec.from_values(a_labels)
    subset_b = SubsetSpec.from_values(b_labels)
    if seed % 2 == 0:
        coupling = CouplingMap.from_function(lambda u, v, c=shared: c)
    else:
        # Total on all label pairs (residuals probe the diagonal), with the
        # coupling rectangles A x B and B x A overwritten subset-respectingly.
        table = {(u, v): rng.choice(labels) for u in labels for v in labels}
        for av in a_labels:
            for bv in b_labels:
                table[(av, bv)] = rng.choice(b_labels)
                table[(bv, av)] = rng.choice(a_labels)
        coupling = CouplingMap.from_function(lambda u, v, t=table: t[(u, v)])
    phi = with_declared_class(
        make_linear(Fraction(rng.randint(1, 9), 10)), ControlClass.ALTERING
    )
    problem = StrongCoupledProblem(
        space, subset_a, subset_b, coupling, phi, identity_control()
    )
    return problem, shared, seed % 2 == 0


def test_criterion_5_finite_spaces_agree_with_brute_force():
    plan = SamplePlan(grid_count=2)  # finite subsets enumerate their members
    opts = SolveOptions(tol=1e-9, max_iter=200)
    rng = random.Random(99)
    converged_runs = 0
    admissible_cases = 0
    for seed in range(50):
        problem, shared, is_constant = _finite_case(seed)
        coupling_ok = check_coupling(
            problem.coupling, problem.subset_a, problem.subset_b, plan
        ).passed
        contraction_ok = check_phi_psi_contraction(problem, plan).passed
        found = brute_force_search(problem, plan, tol=opts.tol)
        found_values = {p.value for p in found}

        if is_constant:
            assert coupling_ok and contraction_ok
            assert found_values == {shared}

        pairs = [
            (a, b)
            for a in map(Point, problem.subset_a.values)
            for b in map(Point, problem.subset_b.values)
        ]
        if len(pairs) > 36:
            pairs = rng.sample(pairs, 36)
        for start in pairs:
            report, _ = iterate_strong_coupled(problem, start[0], start[1], opts)
            if report.status is SolveStatus.CONVERGED:
                converged_runs += 1
                cx, cy = report.candidate
                # Discrete distances are 0 or 1, so tolerance means equality.
                assert cx.value == cy.value
                assert cx.value in found_values
                assert report.residuals == {"f_xx_x": 0.0, "x_y": 0.0}
        if coupling_ok and contraction_ok:
            admissible_cases += 1
            reports = [iterate_strong_coupled(problem, sx, sy, opts)[0] for sx, sy in pairs]
            verdict = multi_start_verdict(problem, reports, opts)
            assert verdict == "consistent"
    assert admissible_cases >= 25  # every constant case passes its checks
    assert converged_runs > 100
    print(
        f"[PASS] criterion 5: 50 finite spaces, {converged_runs} converged runs "
        f"all in brute-force output, {admissible_cases} admissible cases consistent"
    )


def test_criterion_6_linear_family_orbits_decay_monotonically():
    for i in range(100):
        k = Fraction((i % 9) + 1, 10)
        doc = builtin_registry("banach-linear", k=k)
        problem = build_problem(doc)
        rng = random.Random(1000 + i)
        x0 = Point.real(rng.uniform(0.0, 1.0))
        y0 = Point.real(rng.uniform(0.0, 1.0))
        report, trace = iterate_strong_coupled(problem, x0, y0, doc.solve)
        assert report.status is SolveStatus.CONVERGED, (i, k)
        assert report.iterations_used <= doc.solve.max_iter
        diagnostics = trace_diagnostics(trace, doc.solve.tol)
        assert diagnostics.passed, (i, k)
        assert diagnostics.details["first_violation_index"] is None
        assert diagnostics.details["final_D"] < 1e-9
        assert diagnostics.details["final_R"] < 1e-9
    print("[PASS] criterion 6: 100 seeded linear-family runs, D/R monotone to < 1e-9")


def test_criterion_7_identity_self_map_reduces_to_strong_problem():
    doc = parse_problem(
        textwrap.dedent(
            """\
            problem_kind: coincidence
            space: "[0, 1]"
            subset_A: "[0, 1]"
            subset_B: "[0, 1]"
            map_F: "1/4 * (x + y) + 1/4"
            map_T: identity
            phi: {family: linear, slope: 1/2}
            solve:
              starts: [[0, 1]]
            """
        ),
        name="identity-reduction",
    )
    problem = build_problem(doc)
    tol = doc.solve.tol
    report, _ = iterate_coincidence(problem, *doc.starts[0], doc.solve)
    assert report.status is SolveStatus.CONVERGED
    a, b = report.candidate
    assert abs(a.value - b.value) <= 2 * tol
    f_aa = problem.coupling.evaluate(a, a)
    assert problem.space.metric(f_aa.value, a.value) <= 4 * tol
    print("[PASS] criterion 7: identity self-map candidate is a strong coupled point")


def test_criterion_8_control_matrix_verdicts_are_100_percent():
    correct = 0
    for label, func, t_max, expect_phi, expect_altering in MATRIX:
        got_phi = check_phi_class(func, t_max).passed
        got_altering = check_altering(func, t_max).passed
        assert (got_phi, got_altering) == (expect_phi, expect_altering), label
        correct += 1
    assert correct == 30
    print("[PASS] criterion 8: 30/30 control classifications correct")


PLATEAU_F_POINTS = [
    ((0.0, 0.0), 2.0),
    ((2.0, 2.0), 2.0),
    ((1.0, 1.5), 2.0),
    ((1.0, 3.0), 1 / 6),
    ((3.0, 1.0), 1 / 6),
    ((2.5, 2.5), 5 / 24),
    ((0.0, 4.0), 1 / 6),
    ((-1.0, 1.0), 0.0),
]
PLATEAU_T_POINTS = [(0.0, 2.0), (2.0, 2.0), (2.5, 4.0), (4.0, 4.0)]
CAPPED_PHI_POINTS = [(0.0, 0.0), (1.0, 2 / 3), (1.5, 1.0), (3.0, 47 / 24)]
MIN_F_POINTS = [((1.0, 2.0), 1.0), ((2.5, 0.25), 0.25)]
POWER_PHI_POINTS = [(0.5, 0.25), (3.0, 9.0)]


def test_criterion_9_named_expressions_match_hand_reference():
    map_a = builtin_mapping("example-2.1.9")
    map_b = builtin_mapping("example-2.2.3")
    prob_a = build_problem(builtin_registry("example-2.1.9"))
    prob_b = build_problem(builtin_registry("example-2.2.3"))

    checked = 0
    for (x, y), want in PLATEAU_F_POINTS:
        got = prob_a.coupling.evaluate(Point.real(x), Point.real(y)).value
        assert got == pytest.approx(want, abs=1e-15), (x, y)
        checked += 1
    for x, want in PLATEAU_T_POINTS:
        assert prob_a.self_map.evaluate(Point.real(x)).value == pytest.approx(
            want, abs=1e-15
        ), x
        checked += 1
    for t, want in CAPPED_PHI_POINTS:
        assert eval_control(prob_a.phi, t) == pytest.approx(want, abs=1e-15), t
        checked += 1
    for (x, y), want in MIN_F_POINTS:
        got = prob_b.coupling.evaluate(Point.real(x), Point.real(y)).value
        assert got == pytest.approx(want, abs=1e-15), (x, y)
        checked += 1
    for t, want in POWER_PHI_POINTS:
        assert eval_control(prob_b.phi, t) == pytest.approx(want, abs=1e-15), t
        checked += 1
    assert checked == 20

    # Formatting then reparsing must not change a single evaluation.
    two_arg = [(x, y) for (x, y), _ in PLATEAU_F_POINTS + MIN_F_POINTS]
    one_arg = [x for x, _ in PLATEAU_T_POINTS]
    for text, envs in (
        (map_a["map_F"], [{"x": x, "y": y} for x, y in two_arg]),
        (map_b["map_F"], [{"x": x, "y": y} for x, y in two_arg]),
        (map_a["map_T"], [{"x": x} for x in one_arg]),
    ):
        ast = parse_expression(text)
        again = parse_expression(format_expression(ast))
        for env in envs:
            assert eval_expression(again, env) == eval_expression(ast, env)
    print("[PASS] criterion 9: 20 hand-reference points within 1e-15, round-trips stable")
