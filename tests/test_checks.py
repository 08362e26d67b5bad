"""Sampled hypothesis checkers: frozen examples plus sampling invariants."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplefix.checks import (
    check_coupling,
    check_phi_psi_contraction,
    check_phi_T_contraction,
    check_range_compatibility,
    check_scc_map,
)
from couplefix.controls import (
    ControlClass,
    eval_control,
    identity_control,
    make_linear,
    make_power,
    with_declared_class,
)
from couplefix.errors import DomainError, ParameterError
from couplefix.expr import parse_expression
from couplefix.metric import MetricSpace, Point, SamplePlan, SubsetSpec
from couplefix.problems import (
    CoincidenceProblem,
    CouplingMap,
    SelfMap,
    StrongCoupledProblem,
)

from problem_fixtures import (
    PLAN_21,
    PLAN_41,
    averaging_problem,
    interval_subset,
    midpoint_problem,
    min_problem,
    plateau_problem,
)


class TestCheckCoupling:
    def test_min_coupling_passes_exhaustively(self):
        p = min_problem()
        report = check_coupling(p.coupling, p.subset_a, p.subset_b, PLAN_21)
        assert report.passed
        assert report.samples_tested == 2  # |A| * |B| pairs, both directions each
        assert report.violations == []

    def test_plateau_coupling_passes(self):
        p = plateau_problem()
        report = check_coupling(p.coupling, p.subset_a, p.subset_b, PLAN_21, plan_b=PLAN_41)
        assert report.passed
        assert report.samples_tested == 21 * 41

    def test_projection_fails_with_membership_witness(self):
        f = CouplingMap.from_expression(parse_expression("x"))
        a = interval_subset(0.0, 2.0)
        b = interval_subset(3.0, 4.0)
        report = check_coupling(f, a, b, PLAN_21)
        assert not report.passed
        first = report.violations[0]
        assert first.witness[0] == "image_in_B"
        assert first.witness[1] == 0.0  # the low corner of A is already a witness
        assert first.witness[3] == 0.0  # the image that landed outside B
        assert first.lhs == 1.0 and first.rhs == 0.0

    @given(
        a_vals=st.sets(st.integers(0, 5), min_size=1, max_size=4),
        b_vals=st.sets(st.integers(0, 5), min_size=1, max_size=4),
        c=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_constant_coupling_exhaustive_on_finite_sets(self, a_vals, b_vals, c):
        space = MetricSpace.real_line(-1.0, 6.0)
        a = SubsetSpec.from_values(sorted(float(v) for v in a_vals))
        b = SubsetSpec.from_values(sorted(float(v) for v in b_vals))
        f = CouplingMap.from_function(lambda x, y: float(c))
        report = check_coupling(f, a, b, PLAN_21)
        assert report.samples_tested == len(a_vals) * len(b_vals)
        should_pass = float(c) in {float(v) for v in a_vals} and float(c) in {
            float(v) for v in b_vals
        }
        assert report.passed == should_pass


class TestCheckSccMap:
    def test_plateau_self_map_images_and_closedness(self):
        p = plateau_problem()
        report = check_scc_map(p.self_map, p.subset_a, p.subset_b, PLAN_21, plan_b=PLAN_41)
        assert report.passed
        assert report.details["image_A_values"] == [2.0]
        assert report.details["image_B_values"] == [2.0, 4.0]
        assert report.details["image_intersection_values"] == [2.0]
        assert report.details["intersection_nonempty"] is True
        assert report.details["closedness_A"] == "closed"
        assert report.details["closedness_B"] == "closed"

    def test_identity_passes_on_closed_intervals(self):
        t = SelfMap.identity()
        report = check_scc_map(t, interval_subset(0.0, 2.0), interval_subset(0.0, 4.0), PLAN_21)
        assert report.passed
        assert report.details["closedness_A"] == "closed"

    def test_identity_on_open_interval_is_inconclusive_but_passes(self):
        t = SelfMap.identity()
        a = interval_subset(0.0, 2.0, lo_closed=False, hi_closed=False)
        report = check_scc_map(t, a, interval_subset(0.0, 4.0), PLAN_21)
        assert report.passed
        assert report.details["closedness_A"] == "inconclusive"

    def test_shift_map_fails_invariance(self):
        t = SelfMap.from_expression(parse_expression("x + 3"))
        report = check_scc_map(t, interval_subset(0.0, 2.0), interval_subset(0.0, 4.0), PLAN_21)
        assert not report.passed
        first = report.violations[0]
        assert first.witness[0] == "invariance_A"
        assert first.witness[1] == 0.0
        assert first.witness[2] == 3.0

    def test_finite_sets_are_exactly_closed(self):
        p = min_problem()
        t = SelfMap.identity()
        report = check_scc_map(t, p.subset_a, p.subset_b, PLAN_21)
        assert report.passed
        assert report.details["closedness_A"] == "closed"
        assert report.details["image_A_values"] == [1.0]
        assert report.details["image_B_values"] == [1.0, 2.0]


class TestPhiTContraction:
    def test_plateau_fine_grid_zero_violations(self):
        p = plateau_problem()
        report = check_phi_T_contraction(p, PLAN_21, plan_b=PLAN_41)
        assert report.passed
        assert report.samples_tested == 21 * 41 * 41 * 21
        assert report.violations == []
        assert report.max_margin == 0.0  # diagonal quadruples are exactly tight

    def test_hand_quadruple_values(self):
        # x = v = 1 in A, y = 1, u = 3 in B: the two mixed corner images are
        # 2 and 4/24, so the left side is 11/6 while the control allows 47/24.
        p = plateau_problem()
        fab = p.coupling.evaluate(Point.real(1.0), Point.real(1.0)).value
        fba = p.coupling.evaluate(Point.real(3.0), Point.real(1.0)).value
        lhs = abs(fab - fba)
        assert abs(lhs - 11 / 6) < 1e-12
        t1 = p.self_map.evaluate(Point.real(1.0)).value
        t3 = p.self_map.evaluate(Point.real(3.0)).value
        m = max(abs(t1 - t3), 0.0)
        rhs = eval_control(p.phi, m)
        assert abs(rhs - float(Fraction(47, 24))) < 1e-15
        assert lhs <= rhs

    def test_singleton_pair_subsets_enumerate_four_quadruples(self):
        p = plateau_problem()
        tiny = CoincidenceProblem(
            space=p.space,
            subset_a=SubsetSpec.from_values([1.0]),
            subset_b=SubsetSpec.from_values([1.0, 3.0]),
            coupling=p.coupling,
            self_map=p.self_map,
            phi=p.phi,
        )
        report = check_phi_T_contraction(tiny, PLAN_21)
        assert report.passed
        assert report.samples_tested == 4
        assert report.max_margin == pytest.approx(0.0, abs=1e-15)

    def test_stride_subsample_respects_budget(self):
        p = plateau_problem()
        report = check_phi_T_contraction(p, PLAN_21, plan_b=PLAN_41, budget=10_000)
        assert report.passed
        assert report.details["total_quadruples"] == 741_321
        assert report.details["stride"] == 3
        assert report.samples_tested == 7 * 14 * 14 * 7

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_a_parameter_error(self, budget):
        with pytest.raises(ParameterError, match=f"budget must be at least 1, got {budget}"):
            check_phi_T_contraction(plateau_problem(), PLAN_21, budget=budget)
        with pytest.raises(ParameterError, match=f"budget must be at least 1, got {budget}"):
            check_phi_psi_contraction(min_problem(), PLAN_21, budget=budget)

    def test_budget_of_one_thins_to_one_quadruple(self):
        report = check_phi_T_contraction(plateau_problem(), PLAN_21, budget=1)
        assert report.details["stride"] == 21
        assert report.samples_tested == 1

    def test_deterministic_reports(self):
        p = plateau_problem()
        plan = SamplePlan(grid_count=7, jitter_count=3, seed=11)
        r1 = check_phi_T_contraction(p, plan)
        r2 = check_phi_T_contraction(p, plan)
        assert r1.to_dict() == r2.to_dict()


class TestPhiPsiContraction:
    def test_min_problem_enumerates_exactly_four_quadruples(self):
        p = min_problem()
        report = check_phi_psi_contraction(p, PLAN_21)
        assert report.passed
        assert report.samples_tested == 4
        assert report.violations == []
        assert report.max_margin == pytest.approx(0.0, abs=1e-15)

    def test_midpoint_fails_at_opposite_corners(self):
        p = midpoint_problem()
        report = check_phi_psi_contraction(p, PLAN_21)
        assert not report.passed
        worst = max(report.violations, key=lambda v: v.residual)
        assert worst.witness == ("contraction", 0.0, 0.0, 1.0, 1.0)
        assert worst.lhs == pytest.approx(1.0, abs=1e-12)
        assert worst.rhs == pytest.approx(0.9, abs=1e-12)

    def test_recorded_violations_reevaluate_exactly(self):
        p = midpoint_problem()
        report = check_phi_psi_contraction(p, SamplePlan(grid_count=9))
        assert not report.passed
        d = p.space.metric
        for v in report.violations[:200]:
            _, x, y, u, w = v.witness
            lhs = eval_control(p.psi, d(
                p.coupling.evaluate(Point.real(x), Point.real(y)).value,
                p.coupling.evaluate(Point.real(u), Point.real(w)).value,
            ))
            m = max(d(x, u), d(y, w))
            rhs = eval_control(p.psi, m) - eval_control(p.phi, m)
            assert abs(lhs - v.lhs) <= 1e-12
            assert abs(rhs - v.rhs) <= 1e-12

    @given(g=st.integers(min_value=4, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_failures_survive_grid_refinement(self, g):
        p = midpoint_problem()
        coarse = check_phi_psi_contraction(p, SamplePlan(grid_count=g))
        fine = check_phi_psi_contraction(p, SamplePlan(grid_count=2 * g - 1))
        assert not coarse.passed
        assert not fine.passed  # a superset grid can never flip fail to pass

    def test_averaging_family_is_tight_but_passes(self):
        p = averaging_problem(Fraction(1, 2))
        report = check_phi_psi_contraction(p, SamplePlan(grid_count=9))
        assert report.passed
        assert report.max_margin >= -1e-12

    @given(
        a_vals=st.sets(st.integers(0, 3), min_size=1, max_size=3),
        b_vals=st.sets(st.integers(0, 3), min_size=1, max_size=3),
        num=st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_finite_counts_agree_with_naive_loop(self, a_vals, b_vals, num):
        space = MetricSpace.real_line(-1.0, 5.0)
        a = SubsetSpec.from_values(sorted(float(v) for v in a_vals))
        b = SubsetSpec.from_values(sorted(float(v) for v in b_vals))
        k = num / 4.0
        f = CouplingMap.from_function(lambda x, y: k * min(x, y))
        problem = StrongCoupledProblem(
            space=space, subset_a=a, subset_b=b, coupling=f,
            phi=make_power(2), psi=identity_control(),
        )
        report = check_phi_psi_contraction(problem, PLAN_21, tol=1e-9)
        av = sorted(float(v) for v in a_vals)
        bv = sorted(float(v) for v in b_vals)
        naive = 0
        for x in av:
            for y in bv:
                for u in bv:
                    for w in av:
                        lhs = abs(k * min(x, y) - k * min(u, w))
                        m = max(abs(x - u), abs(y - w))
                        if lhs > (m - m * m) + 1e-9:
                            naive += 1
        assert report.samples_tested == len(av) * len(bv) * len(bv) * len(av)
        assert len(report.violations) == naive


class TestRangeCompatibility:
    def test_plateau_restricted_targets_pass(self):
        p = plateau_problem()
        report = check_range_compatibility(
            p.coupling, p.self_map, p.subset_a, p.subset_b, PLAN_21,
            targets_b=interval_subset(0.0, 2.0),
        )
        assert report.passed
        assert report.samples_tested == 2 * 21 * 21

    def test_far_target_fails_with_distance(self):
        p = plateau_problem()
        report = check_range_compatibility(
            p.coupling, p.self_map,
            SubsetSpec.from_values([1.0]), p.subset_b, PLAN_21,
            targets_b=SubsetSpec.from_values([3.0]),
        )
        assert not report.passed
        first = report.violations[0]
        assert first.witness[0] == "target_in_T_A"
        assert first.witness[1] == 3.0 and first.witness[2] == 1.0
        assert first.witness[3] == pytest.approx(1 / 6, abs=1e-15)
        assert first.lhs == pytest.approx(11 / 6, abs=1e-12)

    def test_identity_map_always_passes_for_couplings(self):
        p = plateau_problem()
        report = check_range_compatibility(
            p.coupling, SelfMap.identity(), p.subset_a, p.subset_b, PLAN_21, plan_b=PLAN_41,
        )
        assert report.passed


class TestProblemValidation:
    def test_coincidence_requires_comparison_phi(self):
        p = plateau_problem()
        with pytest.raises(ParameterError, match="phi"):
            CoincidenceProblem(
                space=p.space, subset_a=p.subset_a, subset_b=p.subset_b,
                coupling=p.coupling, self_map=p.self_map, phi=identity_control(),
            )

    def test_strong_requires_altering_pair(self):
        p = min_problem()
        bad = plateau_problem().phi  # declared comparison-class
        with pytest.raises(ParameterError, match="psi"):
            StrongCoupledProblem(
                space=p.space, subset_a=p.subset_a, subset_b=p.subset_b,
                coupling=p.coupling, phi=p.phi, psi=bad,
            )

    def test_subset_must_sit_inside_carrier(self):
        p = min_problem()
        with pytest.raises(DomainError, match="carrier"):
            StrongCoupledProblem(
                space=MetricSpace.real_line(0.0, 1.0),
                subset_a=p.subset_a, subset_b=p.subset_b,
                coupling=p.coupling, phi=p.phi, psi=p.psi,
            )

    def test_expression_variable_hygiene(self):
        with pytest.raises(ParameterError, match="found: t"):
            CouplingMap.from_expression(parse_expression("x + t"))
        with pytest.raises(ParameterError, match="found: y"):
            SelfMap.from_expression(parse_expression("x + y"))

    def test_identity_preimage_is_membership_gated(self):
        t = SelfMap.identity()
        a = interval_subset(0.0, 2.0)
        assert t.preimage(1.0, a, 1e-9) == 1.0
        assert t.preimage(3.0, a, 1e-9) is None

    def test_inverse_expression_preimage_verifies_round_trip(self):
        space = MetricSpace.real_line(0.0, 4.0)
        halve = SelfMap.from_expression(parse_expression("x / 2"))
        with_inv = halve.with_inverse(parse_expression("2 * x"), space)
        a = interval_subset(0.0, 2.0)
        assert with_inv.preimage(0.8, a, 1e-9) == 1.6
        assert with_inv.preimage(1.5, a, 1e-9) is None  # 3.0 is outside A

    def test_self_map_without_oracle_rejects_preimage_calls(self):
        t = SelfMap.from_expression(parse_expression("x / 2"))
        assert not t.has_preimage_oracle
        with pytest.raises(ParameterError, match="oracle"):
            t.preimage(1.0, interval_subset(0.0, 2.0), 1e-9)


class TestContractionKernel:
    def test_asymmetric_metric_is_read_as_d_of_y_and_v(self):
        # one quadruple (x, y, u, v) = (a, b, b, a): F(a, b) = a, F(b, a) = b,
        # M = max(d(a, b), d(b, a)) = 3, so psi(1) = 1 <= psi(3) - phi(3) = 1.5
        space = MetricSpace.finite(["a", "b"], {("a", "b"): 1.0, ("b", "a"): 3.0})
        problem = StrongCoupledProblem(
            space=space,
            subset_a=SubsetSpec.from_values(["a"]),
            subset_b=SubsetSpec.from_values(["b"]),
            coupling=CouplingMap.from_function(lambda x, y: "a" if x == "a" else "b"),
            phi=with_declared_class(make_linear(Fraction(1, 2)), ControlClass.ALTERING),
            psi=identity_control(),
        )
        report = check_phi_psi_contraction(problem, PLAN_21)
        assert report.passed
        assert report.samples_tested == 1
        assert report.max_margin == 0.5

    @given(
        a_vals=st.sets(st.integers(0, 3), min_size=1, max_size=3),
        b_vals=st.sets(st.integers(0, 3), min_size=1, max_size=3),
        num=st.integers(0, 4),
        slope=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_phi_T_finite_report_agrees_with_naive_loop(self, a_vals, b_vals, num, slope):
        space = MetricSpace.real_line(-1.0, 5.0)
        av = sorted(float(v) for v in a_vals)
        bv = sorted(float(v) for v in b_vals)
        k = num / 4.0

        def t(x):
            return x / 2 if x < 2 else x - 1

        phi = make_linear(Fraction(slope, 4))
        problem = CoincidenceProblem(
            space=space,
            subset_a=SubsetSpec.from_values(av),
            subset_b=SubsetSpec.from_values(bv),
            coupling=CouplingMap.from_function(lambda x, y: k * min(x, y)),
            self_map=SelfMap.from_function(t),
            phi=phi,
        )
        report = check_phi_T_contraction(problem, PLAN_21, tol=1e-9)
        margins, expected = [], []
        for x in av:
            for y in bv:
                for u in bv:
                    for v in av:
                        lhs = abs(k * min(x, y) - k * min(u, v))
                        rhs = eval_control(phi, max(abs(t(x) - t(u)), abs(t(y) - t(v))))
                        margins.append(rhs - lhs)
                        if lhs > rhs + 1e-9:
                            expected.append((("contraction", x, y, u, v), lhs, rhs))
        assert report.samples_tested == len(margins)
        assert report.max_margin == min(margins)
        assert [(v.witness, v.lhs, v.rhs) for v in report.violations] == expected


def test_checks_registry_of_names_is_stable():
    p = plateau_problem()
    names = {
        check_coupling(p.coupling, p.subset_a, p.subset_b, SamplePlan(grid_count=3)).property_name,
        check_scc_map(p.self_map, p.subset_a, p.subset_b, SamplePlan(grid_count=3)).property_name,
        check_phi_T_contraction(p, SamplePlan(grid_count=3)).property_name,
        check_range_compatibility(
            p.coupling, p.self_map, p.subset_a, p.subset_b, SamplePlan(grid_count=3),
            targets_b=interval_subset(0.0, 2.0),
        ).property_name,
        check_phi_psi_contraction(min_problem(), SamplePlan(grid_count=3)).property_name,
    }
    assert names == {
        "coupling",
        "scc_map",
        "phi_T_contraction",
        "range_compatibility",
        "phi_psi_contraction",
    }


def _identity_t_problem(calls):
    """A coincidence problem on disjoint A = [0, 1] and B = [2, 3] whose self
    map is a counted identity; F(x, y) = y puts every range target on a
    sampled T image, so the range check never needs its own-target fallback."""

    def t(v):
        calls[v] += 1
        return v

    return CoincidenceProblem(
        space=MetricSpace.real_line(0.0, 3.0),
        subset_a=interval_subset(0.0, 1.0),
        subset_b=interval_subset(2.0, 3.0),
        coupling=CouplingMap.from_function(lambda x, y: y),
        self_map=SelfMap.from_function(t),
        phi=make_linear(Fraction(1, 2)),
    )


def test_checks_and_brute_force_share_one_t_table():
    from collections import Counter

    from couplefix.metric import sample_values
    from couplefix.solve import brute_force_search

    calls = Counter()
    p = _identity_t_problem(calls)
    a, b, t = p.subset_a, p.subset_b, p.self_map
    plan = SamplePlan(grid_count=9, jitter_count=2, seed=4)
    refined = SamplePlan(2 * plan.grid_count - 1, plan.jitter_count, plan.seed)
    check_scc_map(t, a, b, plan)
    check_range_compatibility(p.coupling, t, a, b, plan)
    check_phi_T_contraction(p, plan)
    brute_force_search(p, plan)
    # one T call per distinct value of the sampled tables: the plan's grids
    # of A and B, and the refined grids of the closedness test, which hold
    # the plan's grid points again
    expected = Counter(
        {v for s in (a, b) for pl in (plan, refined) for v in sample_values(s, pl)}
    )
    assert calls == expected


def test_standalone_phi_T_contraction_evaluates_t_on_the_full_sample():
    from collections import Counter

    from couplefix.metric import sample_values

    calls = Counter()
    p = _identity_t_problem(calls)
    plan = SamplePlan(grid_count=21)
    report = check_phi_T_contraction(p, plan, budget=20_000)
    assert report.details["stride"] == 2
    expected = Counter(v for s in (p.subset_a, p.subset_b) for v in sample_values(s, plan))
    assert calls == expected


def test_thinning_runs_flat_across_interval_boundaries():
    """A = [0, 1] u [2, 3] with one jitter point per interval: 10 sample
    values, thinned by stride 2 to positions 0, 2, 4, 6, 8 of the flat
    sample.  The picks hold the first interval's jitter point and the
    second interval's second grid point, and drop the far end 1.0 of the
    first interval; the T images are thinned by the same positions."""
    from couplefix.metric import Interval, sample_values

    a = SubsetSpec.from_intervals([Interval(0.0, 1.0), Interval(2.0, 3.0)])
    p = CoincidenceProblem(
        space=MetricSpace.real_line(-10.0, 10.0),
        subset_a=a,
        subset_b=a,
        coupling=CouplingMap.from_expression(parse_expression("x + y")),
        self_map=SelfMap.from_expression(parse_expression("x / 2")),
        phi=make_linear(Fraction(1, 2)),
    )
    plan = SamplePlan(grid_count=4, jitter_count=1, seed=7)
    report = check_phi_T_contraction(p, plan, budget=1_000)
    stride = report.details["stride"]
    assert stride == 2 and report.samples_tested == 5 ** 4
    values = sample_values(a, plan)
    thinned = values[::stride]
    assert thinned == [0.0, values[2], values[4], values[6], 3.0]
    assert 1.0 not in thinned and values[4] not in values[:4]  # the jitter point
    assert report.violations
    for pos in (1, 3):  # x and u
        assert {v.witness[pos] for v in report.violations} == set(thinned)
    # phi(max(d(Tx, Tu), d(Ty, Tv))) reads the thinned T table
    for v in report.violations:
        _, x, y, u, w = v.witness
        assert v.rhs == max(abs(x / 2 - u / 2), abs(y / 2 - w / 2)) / 2


def test_check_evaluates_t_once_per_distinct_sample_value(monkeypatch, capsys):
    """``check example-2.1.9`` samples T on the grids of A = [0, 2] (21
    points) and B = [0, 4] (41), and on their refined grids (41 and 81) for
    the closedness evidence: 184 sample points with 81 distinct values."""
    import dataclasses
    from collections import Counter

    from couplefix import cli

    calls = Counter()
    build = cli.build_problem

    def counting(doc):
        problem = build(doc)
        t = problem.self_map

        def fn(x):
            calls[repr(x)] += 1  # repr keeps 0.0 and -0.0 apart
            return t.fn(x)

        return dataclasses.replace(problem, self_map=SelfMap(fn, t.preimage_fn, t.source))

    monkeypatch.setattr(cli, "build_problem", counting)
    assert cli.main(["check", "example-2.1.9"]) == 0
    assert "all 6 checks passed" in capsys.readouterr().out
    assert len(calls) == 81
    assert set(calls.values()) == {1}


def test_violation_is_an_immutable_record():
    from couplefix.report import Violation

    v = Violation(("contraction", 0.0, 1.0), 2.0, 0.5, 1.5)
    assert repr(v) == (
        "Violation(witness=('contraction', 0.0, 1.0), lhs=2.0, rhs=0.5, residual=1.5)"
    )
    assert v.to_dict() == {
        "witness": ["contraction", 0.0, 1.0], "lhs": 2.0, "rhs": 0.5, "residual": 1.5,
    }
    with pytest.raises(AttributeError):
        v.lhs = 0.0


def _counting_phi_problems():
    """A phi-T and a phi-psi problem with A and B of different lengths."""
    a, b = interval_subset(0.0, 1.0), interval_subset(0.0, 3.0)
    space = MetricSpace.real_line(0.0, 9.0)
    phi = make_linear(Fraction(1, 3))
    yield CoincidenceProblem(
        space=space, subset_a=a, subset_b=b,
        coupling=CouplingMap.from_expression(parse_expression("(x * x + y) / 9")),
        self_map=SelfMap.from_expression(parse_expression("x * x")),
        phi=phi,
    )
    yield StrongCoupledProblem(
        space=space, subset_a=a, subset_b=b,
        coupling=CouplingMap.from_expression(parse_expression("(x + y) / 9")),
        phi=with_declared_class(phi, ControlClass.ALTERING),
        psi=identity_control(),
    )


@pytest.mark.parametrize("problem", list(_counting_phi_problems()), ids=["phi_T", "phi_psi"])
def test_contraction_evaluates_phi_once_per_qualifying_distance_in_order(problem):
    """phi is evaluated at each distinct distance that is the larger one in
    some M, in order of first appearance: the d(Ix, Iu) in (x, u) order,
    then the d(Iy, Iv) in (y, v) order."""
    import dataclasses

    from couplefix.controls import ControlFunction
    from couplefix.metric import sample_values

    calls = []
    phi = problem.phi

    def counted(t):
        calls.append(t)
        return phi.ratio(t)

    problem = dataclasses.replace(problem, phi=ControlFunction(phi.fn, phi.declared_class, counted))
    check = check_phi_psi_contraction if problem.kind == "strong_coupled" else check_phi_T_contraction
    report = check(problem, PLAN_21)
    assert report.details["stride"] == 1
    xv, yv = sample_values(problem.subset_a, PLAN_21), sample_values(problem.subset_b, PLAN_21)
    t = getattr(problem, "self_map", None)
    ix, iy = (xv, yv) if t is None else (list(map(t.fn, xv)), list(map(t.fn, yv)))
    d_xu = [abs(a - b) for a in ix for b in iy]
    d_yv = [abs(b - a) for b in iy for a in ix]
    expected = [m for m in d_xu if m >= min(d_yv)] + [m for m in d_yv if m > min(d_xu)]
    assert calls == list(dict.fromkeys(expected))
