"""Iteration engines, trace diagnostics, and the brute-force oracle."""

import gc
import json
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplefix import cli
from couplefix.cli import TRACE_HEADER
from couplefix.controls import ControlClass, identity_control, make_linear, with_declared_class
from couplefix.documents import build_problem, builtin_registry
from couplefix.errors import BudgetError, DomainError, ParameterError
from couplefix.expr import parse_expression
from couplefix.metric import MetricSpace, Point, SamplePlan, SubsetSpec, sample_values
from couplefix.problems import (
    CoincidenceProblem,
    CouplingMap,
    SelfMap,
    StrongCoupledProblem,
)
from couplefix.solve import (
    PREIMAGE_GRID_COUNT,
    SolveOptions,
    SolveStatus,
    TraceStep,
    brute_force_search,
    grid_preimage,
    iterate_coincidence,
    iterate_strong_coupled,
    multi_start_verdict,
    trace_diagnostics,
)

from problem_fixtures import (
    averaging_problem,
    interval_subset,
    midpoint_problem,
    min_problem,
    plateau_problem,
)


def _pt(v: float) -> Point:
    return Point.real(v)


def _strong(space, a, b, f_text) -> StrongCoupledProblem:
    return StrongCoupledProblem(
        space=space,
        subset_a=a,
        subset_b=b,
        coupling=CouplingMap.from_expression(parse_expression(f_text)),
        phi=with_declared_class(make_linear(Fraction(1, 10)), ControlClass.ALTERING),
        psi=identity_control(),
    )


EXPANDING_F = "piecewise { 2*y - x < 0 => 0 ; 2*y - x > 1 => 1 ; else => 2*y - x ; }"


class TestSolveOptions:
    def test_defaults(self):
        opts = SolveOptions()
        assert opts.tol == 1e-9
        assert opts.max_iter == 10_000
        assert opts.preimage_tol == 1e-9

    def test_validation(self):
        with pytest.raises(ParameterError):
            SolveOptions(tol=0.0)
        with pytest.raises(ParameterError):
            SolveOptions(max_iter=0)
        with pytest.raises(ParameterError):
            SolveOptions(preimage_tol=-1.0)


class TestIterateCoincidence:
    def test_plateau_equal_starts_converge_with_exact_residuals(self):
        report, trace = iterate_coincidence(plateau_problem(), _pt(1.0), _pt(1.0))
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations_used == 1
        a, b = report.candidate
        assert (a.value, b.value) == (1.0, 1.0)
        assert report.residuals == {
            "f_ab_ta": 0.0,
            "f_ba_tb": 0.0,
            "ta_tb": 0.0,
            "f_ab_f_ba": 0.0,
        }
        step = trace.steps[0]
        assert (step.n, step.x, step.y, step.tx, step.ty) == (0, 1.0, 1.0, 2.0, 2.0)
        assert (step.d, step.r) == (0.0, 0.0)

    def test_far_start_fails_preimage_at_step_one(self):
        report, trace = iterate_coincidence(plateau_problem(), _pt(1.0), _pt(3.0))
        assert report.status is SolveStatus.PREIMAGE_FAILURE
        assert report.iterations_used == 0
        assert trace.steps == []
        f = report.failure
        assert f["step"] == 1
        assert f["subset"] == "A"
        assert f["target"] == pytest.approx(1 / 6, abs=1e-15)
        assert f["min_distance"] == pytest.approx(11 / 6, abs=1e-12)

    def test_constant_coupling_with_identity_map_converges_fast(self):
        unit = interval_subset(0.0, 1.0)
        problem = CoincidenceProblem(
            space=MetricSpace.real_line(0.0, 1.0),
            subset_a=unit,
            subset_b=unit,
            coupling=CouplingMap.from_expression(parse_expression("1/2")),
            self_map=SelfMap.identity(),
            phi=make_linear(Fraction(1, 2)),
        )
        report, trace = iterate_coincidence(problem, _pt(0.0), _pt(1.0))
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations_used <= 2
        assert report.candidate[0].value == 0.5
        assert len(trace.steps) == report.iterations_used

    def test_starts_must_belong_to_subsets(self):
        with pytest.raises(DomainError):
            iterate_coincidence(plateau_problem(), _pt(3.0), _pt(1.0))
        with pytest.raises(DomainError):
            iterate_coincidence(plateau_problem(), _pt(1.0), _pt(4.5))

    def test_stationary_swap_orbit_exhausts_iterations(self):
        unit = interval_subset(0.0, 1.0)
        problem = CoincidenceProblem(
            space=MetricSpace.real_line(0.0, 1.0),
            subset_a=unit,
            subset_b=unit,
            coupling=CouplingMap.from_expression(parse_expression("y")),
            self_map=SelfMap.identity(),
            phi=make_linear(Fraction(1, 2)),
        )
        report, trace = iterate_coincidence(problem, _pt(0.0), _pt(1.0), SolveOptions(max_iter=50))
        assert report.status is SolveStatus.MAX_ITER_EXCEEDED
        assert report.iterations_used == 50
        assert len(trace.steps) == 50

    def test_expanding_map_triggers_diagnostic_violation(self):
        unit = interval_subset(0.0, 1.0)
        problem = CoincidenceProblem(
            space=MetricSpace.real_line(0.0, 1.0),
            subset_a=unit,
            subset_b=unit,
            coupling=CouplingMap.from_expression(parse_expression(EXPANDING_F)),
            self_map=SelfMap.identity(),
            phi=make_linear(Fraction(1, 2)),
        )
        report, trace = iterate_coincidence(problem, _pt(0.5), _pt(0.6))
        assert report.status is SolveStatus.DIAGNOSTIC_VIOLATION
        assert report.failure["reason"] == "D_increase"
        assert report.failure["index"] == 1
        assert trace.steps[0].d == pytest.approx(0.2, abs=1e-12)
        assert trace.steps[1].d == pytest.approx(0.6, abs=1e-12)

    def test_default_grid_preimage_resolves_halving_map(self):
        space = MetricSpace.real_line(0.0, 2.0)
        a = interval_subset(0.0, 2.0)
        problem = CoincidenceProblem(
            space=space,
            subset_a=a,
            subset_b=a,
            coupling=CouplingMap.from_expression(parse_expression("7/10")),
            self_map=SelfMap.from_expression(parse_expression("x / 2")),
            phi=make_linear(Fraction(1, 2)),
        )
        report, _ = iterate_coincidence(problem, _pt(0.0), _pt(0.0))
        assert report.status is SolveStatus.CONVERGED
        assert report.candidate[0].value == pytest.approx(1.4, abs=1e-6)


class TestIterateStrongCoupled:
    def test_min_problem_from_mixed_start(self):
        report, trace = iterate_strong_coupled(min_problem(), _pt(1.0), _pt(2.0))
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations_used == 2
        assert report.candidate[0].value == 1.0
        assert report.residuals == {"f_xx_x": 0.0, "x_y": 0.0}
        first, second = trace.steps
        assert (first.n, first.x, first.y, first.d, first.r) == (0, 1.0, 2.0, 1.0, 1.0)
        assert (second.n, second.x, second.y, second.d, second.r) == (1, 1.0, 1.0, 0.0, 0.0)
        assert first.tx is None and first.ty is None

    def test_min_problem_from_diagonal_is_immediate(self):
        report, _ = iterate_strong_coupled(min_problem(), _pt(1.0), _pt(1.0))
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations_used == 1

    def test_singleton_subsets_converge_in_one_step(self):
        space = MetricSpace.real_line(0.0, 1.0)
        single = SubsetSpec.from_values([0.25])
        problem = _strong(space, single, single, "1/4")
        report, _ = iterate_strong_coupled(problem, _pt(0.25), _pt(0.25))
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations_used == 1

    def test_quarter_sum_drains_to_zero(self):
        space = MetricSpace.real_line(0.0, 1.0)
        unit = interval_subset(0.0, 1.0)
        problem = StrongCoupledProblem(
            space=space,
            subset_a=unit,
            subset_b=unit,
            coupling=CouplingMap.from_expression(parse_expression("(x + y) / 4")),
            phi=with_declared_class(make_linear(Fraction(1, 2)), ControlClass.ALTERING),
            psi=identity_control(),
        )
        report, _ = iterate_strong_coupled(problem, _pt(1.0), _pt(1.0))
        assert report.status is SolveStatus.CONVERGED
        assert report.candidate[0].value == pytest.approx(0.0, abs=1e-8)

    def test_orbit_leaving_subset_is_a_diagnostic_violation(self):
        space = MetricSpace.real_line(0.0, 2.0)
        problem = _strong(space, interval_subset(0.0, 0.5), interval_subset(0.0, 1.0), "x + y")
        report, trace = iterate_strong_coupled(problem, _pt(0.5), _pt(1.0))
        assert report.status is SolveStatus.DIAGNOSTIC_VIOLATION
        assert report.failure["reason"] == "orbit_left_subset"
        assert report.failure["subset"] == "A"
        assert report.failure["step"] == 1
        assert report.failure["value"] == 1.5
        assert len(trace.steps) == report.iterations_used == 1

    def test_report_serializes_to_json(self):
        report, _ = iterate_strong_coupled(min_problem(), _pt(1.0), _pt(2.0))
        blob = json.dumps(report.to_dict(), sort_keys=True)
        assert '"status": "Converged"' in blob


class TestMultiStart:
    @staticmethod
    def run_starts(problem, starts):
        """The verdict and the reports of one iteration per start."""
        reports = [iterate_strong_coupled(problem, sx, sy)[0] for sx, sy in starts]
        return multi_start_verdict(problem, reports, SolveOptions()), reports

    def test_averaging_starts_agree(self):
        problem = averaging_problem(Fraction(1, 2))
        starts = [(_pt(0.0), _pt(1.0)), (_pt(1.0), _pt(0.0)), (_pt(0.25), _pt(0.75))]
        verdict, reports = self.run_starts(problem, starts)
        assert verdict == "consistent"
        assert [r.status for r in reports] == [SolveStatus.CONVERGED] * 3
        for r in reports:
            assert r.candidate[0].value == pytest.approx(0.5, abs=1e-8)

    def test_two_basins_are_flagged_inconsistent(self):
        space = MetricSpace.real_line(0.0, 1.0)
        unit = interval_subset(0.0, 1.0)
        problem = _strong(space, unit, unit, "piecewise { x + y < 1 => 0 ; else => 1 ; }")
        starts = [(_pt(0.0), _pt(0.0)), (_pt(1.0), _pt(1.0))]
        verdict, reports = self.run_starts(problem, starts)
        assert verdict == "inconsistent"
        values = sorted(r.candidate[0].value for r in reports)
        assert values == [0.0, 1.0]

    def test_failed_starts_do_not_poison_the_verdict(self):
        space = MetricSpace.real_line(0.0, 1.0)
        unit = interval_subset(0.0, 1.0)
        problem = _strong(space, unit, unit, EXPANDING_F)
        starts = [(_pt(0.5), _pt(0.6)), (_pt(0.6), _pt(0.5))]
        verdict, reports = self.run_starts(problem, starts)
        assert verdict == "consistent"  # vacuous: nothing converged
        assert {r.status for r in reports} == {SolveStatus.DIAGNOSTIC_VIOLATION}


class TestTraceDiagnostics:
    def test_clean_run_passes_with_empirical_limits(self):
        _, trace = iterate_strong_coupled(averaging_problem(Fraction(1, 2)), _pt(0.0), _pt(1.0))
        report = trace_diagnostics(trace, 1e-9)
        assert report.passed
        assert report.details["first_violation_index"] is None
        assert report.details["final_D"] <= 1e-9

    def test_expanding_trace_reports_first_index(self):
        space = MetricSpace.real_line(0.0, 1.0)
        unit = interval_subset(0.0, 1.0)
        problem = _strong(space, unit, unit, EXPANDING_F)
        _, trace = iterate_strong_coupled(problem, _pt(0.5), _pt(0.6))
        report = trace_diagnostics(trace, 1e-9)
        assert not report.passed
        assert report.details["first_violation_index"] == 1
        worst = report.violations[0]
        assert worst.witness == ("D", 1)
        assert worst.lhs == pytest.approx(0.6, abs=1e-12)
        assert worst.rhs == pytest.approx(0.2, abs=1e-12)

    def test_empty_trace_is_rejected(self):
        from couplefix.solve import IterationTrace

        with pytest.raises(ParameterError):
            trace_diagnostics(IterationTrace("strong_coupled"), 1e-9)


class TestTraceStep:
    def test_fields_follow_the_trace_csv_columns(self):
        columns = [c.split("_")[0].lower() for c in TRACE_HEADER.split(",")]
        assert list(TraceStep._fields) == ["n", "x", "y", "tx", "ty", "d", "r"]
        assert columns == [*TraceStep._fields, "residual"]

    def test_is_read_only(self):
        step = TraceStep(0, 0.0, 1.0, None, None, 0.5, 0.5)
        with pytest.raises(AttributeError):
            step.d = 0.0
        with pytest.raises(AttributeError):
            step.residual = 0.0

    @pytest.mark.parametrize(
        "d, r, residual",
        [(0.5, 0.25, 0.5), (0.25, 0.5, 0.5), (0.5, 0.5, 0.5),
         (math.nan, 0.5, 0.5), (0.5, math.nan, math.nan), (math.inf, 0.5, math.inf)],
    )
    def test_residual_is_d_unless_r_is_larger(self, d, r, residual):
        # ``d if d >= r else r``: a NaN d gives r, a NaN r gives NaN.
        got = TraceStep(3, 0.0, 1.0, 2.0, 2.0, d, r).residual
        assert got == residual or (math.isnan(got) and math.isnan(residual))


class TestBruteForce:
    def test_plateau_half_step_pairs(self):
        pairs = brute_force_search(
            plateau_problem(), SamplePlan(grid_count=5), plan_b=SamplePlan(grid_count=9)
        )
        assert len(pairs) == 25
        for a, b in pairs:
            assert b.value <= 2.0
        assert sorted({a.value for a, _ in pairs}) == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_min_problem_scan_is_the_shared_point(self):
        out = brute_force_search(min_problem(), SamplePlan(grid_count=5))
        assert [p.value for p in out] == [1.0]

    def test_disjoint_subsets_give_no_strong_candidates(self):
        space = MetricSpace.real_line(0.0, 1.0)
        problem = _strong(
            space, interval_subset(0.0, 0.4), interval_subset(0.6, 1.0), "min(x, y)"
        )
        assert brute_force_search(problem, SamplePlan(grid_count=5)) == []

    def test_budget_is_enforced(self):
        with pytest.raises(BudgetError):
            brute_force_search(plateau_problem(), SamplePlan(grid_count=21), budget=100)

    def test_strong_budget_is_enforced(self):
        with pytest.raises(BudgetError, match="^5 candidate points exceed budget 4$"):
            brute_force_search(midpoint_problem(), SamplePlan(grid_count=5), budget=4)


class TestGridPreimage:
    def test_lowest_index_tie_break(self):
        space = MetricSpace.real_line(0.0, 2.0)
        t = SelfMap.from_expression(
            parse_expression("piecewise { x <= 1 => 0 ; else => x - 1 ; }")
        )
        found, dist = grid_preimage(space, t, interval_subset(0.0, 2.0), 0.0, 1e-9)
        assert found == 0.0
        assert dist == 0.0

    def test_unreachable_target_reports_nearest(self):
        space = MetricSpace.real_line(-5.0, 5.0, lo_closed=False, hi_closed=False)
        p = plateau_problem()
        found, dist = grid_preimage(
            space, p.self_map, p.subset_a, 1 / 6, 1e-9
        )
        assert found is None
        assert dist == pytest.approx(11 / 6, abs=1e-12)


def _reference_preimage(space, t, subset, target, tol):
    """The uncached scan: evaluate T on every sampled point, keep the first best."""
    best, best_dist = None, math.inf
    for p in map(Point, sample_values(subset, SamplePlan(grid_count=PREIMAGE_GRID_COUNT))):
        dist = space.metric(t.evaluate(p).value, target)
        if dist < best_dist:
            best, best_dist = p.value, dist
    return (best, best_dist) if best_dist <= tol else (None, best_dist)


class TestPreimageTable:
    def test_t_is_evaluated_once_per_grid_point_per_subset(self):
        calls = []

        def square(v):
            calls.append(v)
            return v * v

        t = SelfMap.from_function(square)
        space = MetricSpace.real_line(-5.0, 5.0)
        a, b = interval_subset(0.0, 1.0), interval_subset(1.0, 2.0)
        for target in (0.25, 0.5, 4.0, 9.0):
            grid_preimage(space, t, a, target, 1e-9)
            grid_preimage(space, t, b, target, 1e-9)
        # 1.0 ends the grid of A and starts the grid of B: one call for both
        assert len(calls) == 2 * PREIMAGE_GRID_COUNT - 1
        assert calls[:PREIMAGE_GRID_COUNT] == sample_values(
            a, SamplePlan(grid_count=PREIMAGE_GRID_COUNT)
        )
        # another map instance has its own table
        grid_preimage(space, SelfMap.from_function(square), a, 0.25, 1e-9)
        assert len(calls) == 3 * PREIMAGE_GRID_COUNT - 1

    @pytest.mark.parametrize(
        "target, tol",
        [
            (0.0, 1e-9),  # every x <= 1 maps to 0: the tie keeps x = 0
            (0.5, 1e-9),
            (1 / 3, 1e-9),  # between grid images: nearest only
            (1 / 3, 1e-3),
            (1.0, 1e-9),
            (-1.0, 1e-9),  # unreachable
        ],
    )
    def test_cached_scan_matches_uncached_reference(self, target, tol):
        space = MetricSpace.real_line(-2.0, 2.0)
        t = SelfMap.from_expression(
            parse_expression("piecewise { x <= 1 => 0 ; else => x - 1 ; }")
        )
        subset = interval_subset(0.0, 2.0)
        grid_preimage(space, t, subset, 0.75, 1e-9)  # builds the table
        got = grid_preimage(space, t, subset, target, tol)
        assert got == _reference_preimage(space, t, subset, target, tol)

    def test_built_problem_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            problem = build_problem(builtin_registry("example-2.1.9"))
            report, _ = iterate_coincidence(problem, _pt(1.0), _pt(3.0))
            assert report.status is SolveStatus.PREIMAGE_FAILURE  # ran the grid search
            problem_ref, map_ref = weakref.ref(problem), weakref.ref(problem.self_map)
            del problem
            assert problem_ref() is None
            assert map_ref() is None
        finally:
            gc.enable()


class TestIdentityReduction:
    def test_identity_self_map_recovers_strong_behaviour(self):
        strong = averaging_problem(Fraction(1, 2))
        problem = CoincidenceProblem(
            space=strong.space,
            subset_a=strong.subset_a,
            subset_b=strong.subset_b,
            coupling=strong.coupling,
            self_map=SelfMap.identity(),
            phi=make_linear(Fraction(1, 2)),
        )
        opts = SolveOptions()
        report, _ = iterate_coincidence(problem, _pt(0.0), _pt(1.0), opts)
        assert report.status is SolveStatus.CONVERGED
        a, b = report.candidate
        assert abs(a.value - b.value) <= 2 * opts.tol
        faa = problem.coupling.evaluate(a, a)
        assert abs(faa.value - a.value) <= 4 * opts.tol


@given(
    num=st.integers(min_value=1, max_value=9),
    x0=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    y0=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_averaging_orbits_converge_monotonically(num, x0, y0):
    problem = averaging_problem(Fraction(num, 10))
    report, trace = iterate_strong_coupled(problem, _pt(x0), _pt(y0))
    assert report.status is SolveStatus.CONVERGED
    assert report.candidate[0].value == pytest.approx(0.5, abs=1e-7)
    diag = trace_diagnostics(trace, 1e-9)
    assert diag.passed
    assert diag.details["final_D"] <= 1e-9


@given(
    shared=st.integers(min_value=0, max_value=5),
    extra_a=st.sets(st.integers(min_value=0, max_value=5), max_size=3),
    extra_b=st.sets(st.integers(min_value=0, max_value=5), max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_constant_couplings_land_in_brute_force_output(shared, extra_a, extra_b):
    a_vals = sorted({float(shared)} | {float(v) for v in extra_a})
    b_vals = sorted({float(shared)} | {float(v) for v in extra_b})
    space = MetricSpace.real_line(-1.0, 6.0)
    problem = _strong(
        space,
        SubsetSpec.from_values(a_vals),
        SubsetSpec.from_values(b_vals),
        str(shared),
    )
    oracle = {p.value for p in brute_force_search(problem, SamplePlan(grid_count=5))}
    for sx in a_vals:
        for sy in b_vals:
            report, _ = iterate_strong_coupled(problem, _pt(sx), _pt(sy))
            if report.status is SolveStatus.CONVERGED:
                assert report.candidate[0].value in oracle


def _usual_and_general(make):
    """``make(space)`` on [-4, 4] with the usual metric, and with the same
    distance as a plain function, which takes the general-metric paths."""
    return (make(MetricSpace.real_line(-4.0, 4.0)),
            make(MetricSpace.real_line(-4.0, 4.0, metric=lambda a, b: abs(a - b))))


_coefficients = st.fractions(min_value=-1, max_value=1, max_denominator=4)
_unit_starts = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(a=_coefficients, b=_coefficients, c=_coefficients, x0=_unit_starts, y0=_unit_starts,
       scan_tol=st.sampled_from([1e-9, 0.1, 0.5]))
@settings(max_examples=40, deadline=None)
def test_usual_metric_matches_the_general_path(a, b, c, x0, y0, scan_tol):
    """Strong runs, coincidence runs and the coincidence scan of an affine F
    give equal reports, traces and pairs on the usual metric and on the
    same distance called as a function.  A loose scan tolerance makes the
    scan find pairs for most F."""
    f = f"({a}) * x + ({b}) * y + ({c})"
    unit = interval_subset(0.0, 1.0)
    t = SelfMap.from_expression(parse_expression("2 * x"))
    opts = SolveOptions(max_iter=40)
    strong = _usual_and_general(lambda space: _strong(space, unit, unit, f))
    coincidence = _usual_and_general(lambda space: CoincidenceProblem(
        space=space, subset_a=unit, subset_b=unit,
        coupling=CouplingMap.from_expression(parse_expression(f)), self_map=t,
        phi=make_linear(Fraction(1, 2))))
    for iterate, (usual, general) in ((iterate_strong_coupled, strong),
                                      (iterate_coincidence, coincidence)):
        assert iterate(usual, _pt(x0), _pt(y0), opts) == iterate(general, _pt(x0), _pt(y0), opts)
    usual, general = coincidence
    plan = SamplePlan(grid_count=21)
    assert brute_force_search(usual, plan, scan_tol) == brute_force_search(general, plan, scan_tol)


def _terminal_runs():
    """(status, failure reason, engine, problem, start, opts) reaching each
    way a run can end."""
    unit = interval_subset(0.0, 1.0)
    wide = MetricSpace.real_line(-4.0, 4.0)
    identity_coincidence = CoincidenceProblem(
        space=MetricSpace.real_line(0.0, 1.0), subset_a=unit, subset_b=unit,
        coupling=CouplingMap.from_expression(parse_expression(EXPANDING_F)),
        self_map=SelfMap.identity(), phi=make_linear(Fraction(1, 2)))
    return [
        (SolveStatus.CONVERGED, None, iterate_strong_coupled,
         averaging_problem(Fraction(1, 2)), (0.0, 1.0), SolveOptions()),
        # F(x, y) = x swaps the pair: D is 0 at once, but x != y
        (SolveStatus.EARLY_COINCIDENCE, None, iterate_strong_coupled,
         _strong(wide, unit, unit, "x"), (0.0, 1.0), SolveOptions()),
        (SolveStatus.MAX_ITER_EXCEEDED, "max_iter", iterate_strong_coupled,
         averaging_problem(Fraction(1, 2)), (1.0, 1.0), SolveOptions(max_iter=3)),
        (SolveStatus.DIAGNOSTIC_VIOLATION, "D_increase", iterate_coincidence,
         identity_coincidence, (0.5, 0.6), SolveOptions()),
        # D: 1.0 then 0.75, R: 1.0 then 1.5
        (SolveStatus.DIAGNOSTIC_VIOLATION, "R_increase", iterate_strong_coupled,
         _strong(wide, interval_subset(-4.0, 4.0), interval_subset(-4.0, 4.0), "x / 2 - y"),
         (0.0, 1.0), SolveOptions()),
        (SolveStatus.DIAGNOSTIC_VIOLATION, "orbit_left_subset", iterate_strong_coupled,
         _strong(wide, unit, unit, "x + y"), (0.5, 0.5), SolveOptions()),
        (SolveStatus.PREIMAGE_FAILURE, "preimage", iterate_coincidence,
         plateau_problem(), (1.0, 3.0), SolveOptions()),
    ]


class TestRecord:
    @pytest.mark.parametrize("status, reason, iterate, problem, start, opts", _terminal_runs())
    def test_unrecorded_run_reports_what_a_recorded_one_does(
            self, status, reason, iterate, problem, start, opts):
        x0, y0 = map(_pt, start)
        report, trace = iterate(problem, x0, y0, opts, record=True)
        assert report.status is status
        assert (report.failure or {}).get("reason") == reason
        assert report.iterations_used == len(trace.steps)
        bare, empty = iterate(problem, x0, y0, opts, record=False)
        assert bare == report
        assert empty.kind == trace.kind and empty.steps == []

    @pytest.mark.parametrize("source", ["banach-linear", "example-2.1.9"])
    @pytest.mark.parametrize("traced", [False, True])
    def test_command_line_records_only_the_first_traced_start(
            self, source, traced, tmp_path, monkeypatch, capsys):
        recorded = []
        for name in ("iterate_coincidence", "iterate_strong_coupled"):
            real = getattr(cli, name)

            def spy(problem, x0, y0, opts, record=True, real=real):
                recorded.append(record)
                return real(problem, x0, y0, opts, record=record)

            monkeypatch.setattr(cli, name, spy)
        trace_args = ["--trace", str(tmp_path / "t.csv")] if traced else []
        cli.main(["solve", source, "--start", "1", "1", "--start", "0.5", "0.5",
                  "--start", "1", "1", *trace_args])
        capsys.readouterr()
        assert recorded == [traced, False, False]
