"""Coupling and self maps: one raw-value path per map, evaluated once.

Every map has ``value_fn``, the map on raw values that every scan calls.
Its result must equal ``evaluate(...).value`` or raise what ``evaluate``
raises, whichever constructor built the map.  And since the values follow
the Point rules where they are made, a failing pair raises where it is met:
no check and no scan evaluates F or T again after an error.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from couplefix import solve
from couplefix.checks import (
    check_coupling,
    check_phi_T_contraction,
    check_range_compatibility,
)
from couplefix.controls import ControlClass, make_linear, with_declared_class
from couplefix.errors import DomainError, ExprEvalError
from couplefix.expr import parse_expression
from couplefix.metric import (
    Interval,
    MetricSpace,
    Point,
    SamplePlan,
    SubsetSpec,
    sample_values,
)
from couplefix.problems import CoincidenceProblem, CouplingMap, SelfMap, StrongCoupledProblem

HUGE = "1" + "0" * 400  # beyond the float range
SPACE = MetricSpace.real_line(-10.0, 10.0)


def _outcome(call):
    """``("value", repr(result))``, or the type and message of the error."""
    try:
        return "value", repr(call())
    except Exception as exc:  # noqa: BLE001 - any error is an outcome to compare
        return type(exc), str(exc)


def _same_path(m, *values):
    """``m.value_fn(*values)`` and ``m.evaluate(*points).value`` agree."""
    got = _outcome(lambda: m.value_fn(*values))
    assert got == _outcome(lambda: m.evaluate(*map(Point, values)).value)
    return got


# (expression, arguments, outcome of the map rule)
EXPRESSION_CASES = [
    ("x + y", (1.0, 2.0), ("value", "3.0")),
    ("x * y", (1e308, 10.0), (DomainError, "real point must be finite, got inf")),
    ("-x * y", (1e308, 10.0), (DomainError, "real point must be finite, got -inf")),
    ("x * y - x * y", (1e308, 10.0), (ExprEvalError, "expression evaluated to NaN")),
    ("x + y", (1, 2), ("value", "3.0")),
    ("x + y", (Fraction(1, 3), 1), ("value", repr(4 / 3))),
    ("x * y", (Fraction(10**200), 10**200),
     (DomainError, "expression overflows the float range: "
                   "integer division result too large for a float")),
    ("x * y", (Fraction(10**200), 1e200), (DomainError, "real point must be finite, got inf")),
    (f"x * {HUGE} + y", (1.0, 2.0),
     (DomainError, "expression overflows the float range: "
                   "integer division result too large for a float")),
    (f"x * {HUGE} + y", (1, 2),
     (DomainError, "expression overflows the float range: "
                   "integer division result too large for a float")),
    ("x / (y - y)", (1.0, 2.0), (ExprEvalError, "division by zero")),
]


@pytest.mark.parametrize("source, args, expected", EXPRESSION_CASES,
                         ids=[f"case{i}" for i in range(len(EXPRESSION_CASES))])
def test_expression_maps_apply_the_map_rule_on_one_path(source, args, expected):
    ast = parse_expression(source)
    assert _same_path(CouplingMap.from_expression(ast), *args) == expected
    self_ast = parse_expression(source.replace("y", "x"))
    t = SelfMap.from_expression(self_ast)
    _same_path(t, args[0])
    _same_path(t.with_inverse(parse_expression("x"), SPACE), args[0])


# what F returns, and the outcome of ``from_function`` with it
FUNCTION_RESULTS = [
    (1.5, ("value", "1.5")),
    (math.inf, (DomainError, "real point must be finite, got inf")),
    (-math.inf, (DomainError, "real point must be finite, got -inf")),
    (math.nan, (DomainError, "real point must be finite, got nan")),
    (3, ("value", "3.0")),
    (Fraction(1, 3), ("value", repr(1 / 3))),
    ("a", ("value", "'a'")),
    (10**400, (DomainError, "real point must be finite, got int beyond the float range")),
    (Fraction(10**400),
     (DomainError, "real point must be finite, got Fraction beyond the float range")),
]
RESULT_IDS = ["float", "inf", "-inf", "nan", "int", "fraction", "label", "huge-int", "huge-fraction"]


@pytest.mark.parametrize("result, expected", FUNCTION_RESULTS, ids=RESULT_IDS)
def test_function_maps_apply_the_map_rule_on_one_path(result, expected):
    assert _same_path(CouplingMap.from_function(lambda x, y: result), 0.5, 1.0) == expected
    t = SelfMap.from_function(lambda x: result)
    assert _same_path(t, 0.5) == expected
    assert _same_path(t.with_inverse(parse_expression("x"), SPACE), 0.5) == expected


@pytest.mark.parametrize("result", [r for r, _ in FUNCTION_RESULTS], ids=RESULT_IDS)
def test_point_maps_are_wrapped_once_on_one_path(result):
    f = CouplingMap(lambda p, q: Point(result))
    assert _same_path(f, 0.5, 1.0) == ("value", repr(result))
    t = SelfMap(lambda p: Point(result))
    assert _same_path(t, 0.5) == ("value", repr(result))
    assert _same_path(t.with_inverse(parse_expression("x"), SPACE), 0.5) == ("value", repr(result))
    # a Point map that raises raises the same error on raw values
    strict = CouplingMap(lambda p, q: Point.real(result))
    _same_path(strict, 0.5, 1.0)


@pytest.mark.parametrize("value", [0.5, -0.0, math.inf, math.nan, 3, Fraction(1, 3), "a"])
def test_identity_is_one_path(value):
    t = SelfMap.identity()
    assert _same_path(t, value) == ("value", repr(value))
    assert _same_path(t.with_inverse(parse_expression("x"), SPACE), value) == ("value", repr(value))


# ---------------------------------------------------------------------------
# nothing is evaluated again after an error


class Stop(Exception):
    """The error of the failing pair."""


def _counting_coupling(k, point_fn):
    """F(x, y) = x, which raises at its k-th call and at every later call
    of that pair, with the list of argument pairs it was called with."""
    calls, failing = [], []

    def f(x, y):
        calls.append((x, y))
        if len(calls) == k or (x, y) in failing:
            failing.append((x, y))
            raise Stop(f"F{(x, y)}")
        return x

    fm = CouplingMap.from_function(f)
    return (CouplingMap(fm.fn) if point_fn else fm), calls


A = SubsetSpec.from_intervals([Interval(0.0, 1.0)])
B = SubsetSpec.from_intervals([Interval(2.0, 3.0)])
PLAN = SamplePlan(4, 1, 2)
HALF = make_linear(Fraction(1, 2))
# every pair of A x B and B x A is distinct, and the checks call F on all
# of them: 5 x 5 sampled points each way
PAIRS = 2 * 5 * 5


def _coincidence(fm):
    return CoincidenceProblem(SPACE, A, B, fm, SelfMap.identity(), HALF)


SCANS = {
    "coupling": lambda fm: check_coupling(fm, A, B, PLAN),
    "range": lambda fm: check_range_compatibility(fm, SelfMap.identity(), A, B, PLAN),
    "contraction": lambda fm: check_phi_T_contraction(_coincidence(fm), PLAN),
    # F(a, b) = a = T(a) and F(b, a) = b = T(b): every pair is evaluated both ways
    "brute_coincidence": lambda fm: solve.brute_force_search(_coincidence(fm), PLAN),
}


def test_the_scans_call_f_on_every_pair_once():
    assert len(sample_values(A, PLAN)) == len(sample_values(B, PLAN)) == 5
    for name, run in SCANS.items():
        fm, calls = _counting_coupling(0, False)
        run(fm)
        assert len(calls) == len(set(calls)) == PAIRS, name


@pytest.mark.parametrize("point_fn", [False, True])
@pytest.mark.parametrize("k", [1, 2, 7, 26, PAIRS])
@pytest.mark.parametrize("scan", sorted(SCANS))
def test_no_scan_calls_f_again_after_a_failing_pair(scan, k, point_fn):
    fm, calls = _counting_coupling(k, point_fn)
    with pytest.raises(Stop) as got:
        SCANS[scan](fm)
    assert len(calls) == len(set(calls)) == k
    assert str(got.value) == f"F{calls[-1]}"


@pytest.mark.parametrize("point_fn", [False, True])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_strong_brute_force_calls_f_once_per_point_up_to_the_failing_one(k, point_fn):
    fm, calls = _counting_coupling(k, point_fn)
    altering = with_declared_class(HALF, ControlClass.ALTERING)
    problem = StrongCoupledProblem(SPACE, A, A, fm, altering, altering)
    with pytest.raises(Stop):
        solve.brute_force_search(problem, PLAN)
    assert len(calls) == len(set(calls)) == k
    assert all(x == y for x, y in calls)


@pytest.mark.parametrize("point_fn", [False, True])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_image_table_calls_t_once_per_value_up_to_the_failing_one(k, point_fn):
    calls = []

    def t(x):
        calls.append(x)
        if len(calls) == k or calls.count(x) > 1:
            raise Stop(f"T({x})")
        return x

    tm = SelfMap.from_function(t)
    if point_fn:
        tm = SelfMap(tm.fn)
    with pytest.raises(Stop):
        tm.image_table(A, PLAN)
    assert len(calls) == len(set(calls)) == k
    assert calls == list(sample_values(A, PLAN))[:k]


# ---------------------------------------------------------------------------
# the solve layer and the range check read value_fn only


def _no_point_path(*points):
    raise AssertionError(f"the Point path was evaluated at {points}")


UNIT = SubsetSpec.from_intervals([Interval(0.0, 1.0)])
SPACE_0_4 = MetricSpace.real_line(0.0, 4.0)


def _one_path_pair(oracle):
    """Coincidence problems with F = (x + y) / 2 and T = 2x, the first built
    with ``from_function`` and the second with maps whose Point ``fn``
    raises; with ``oracle``, T gets the inverse x / 2."""

    def build(f, t):
        if oracle:
            t = t.with_inverse(parse_expression("x / 2"), SPACE_0_4)
        return CoincidenceProblem(SPACE_0_4, UNIT, UNIT, f, t, HALF)

    def g(x, y):
        return (x + y) / 2

    def t(x):
        return 2 * x

    return (build(CouplingMap.from_function(g), SelfMap.from_function(t)),
            build(CouplingMap(_no_point_path, value_fn=g), SelfMap(_no_point_path, value_fn=t)))


def _runs(iterate, problem, starts):
    out = []
    for x0, y0 in starts:
        report, trace = iterate(problem, Point(x0), Point(y0))
        out.append((report.to_dict(), trace.steps))
    return out


# the grid search fails on every orbit but the fixed pair (0, 0), once its
# targets halve below the grid step; the oracle converges from each start
COINCIDENCE_STARTS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.25), (0.3, 0.7)]


@pytest.mark.parametrize("oracle", [False, True])
def test_coincidence_iteration_and_residuals_read_value_fn_only(oracle):
    reference, one_path = _one_path_pair(oracle)
    assert one_path.self_map.has_preimage_oracle is oracle
    want = _runs(solve.iterate_coincidence, reference, COINCIDENCE_STARTS)
    assert _runs(solve.iterate_coincidence, one_path, COINCIDENCE_STARTS) == want
    statuses = {run["status"] for run, _ in want}
    assert statuses == ({"Converged"} if oracle else {"Converged", "PreimageFailure"})


def test_the_inverse_oracle_reads_value_fn_only():
    reference, one_path = _one_path_pair(True)
    for target in (0.0, 0.5, 1.0, 1.5, 3.0):
        for tol in (0.0, 1e-9):
            want = reference.self_map.preimage(target, UNIT, tol)
            assert one_path.self_map.preimage(target, UNIT, tol) == want
    assert one_path.self_map.preimage(0.5, UNIT, 1e-9) == 0.25
    assert one_path.self_map.preimage(3.0, UNIT, 1e-9) is None


def test_the_range_check_reads_value_fn_only():
    reference, one_path = _one_path_pair(False)
    targets = SubsetSpec.from_intervals([Interval(0.0, 0.5)])
    for targets_b in (None, targets):
        want = check_range_compatibility(reference.coupling, reference.self_map, UNIT, UNIT,
                                         PLAN, targets_b=targets_b)
        got = check_range_compatibility(one_path.coupling, one_path.self_map, UNIT, UNIT,
                                        PLAN, targets_b=targets_b)
        assert repr(got) == repr(want)


def test_strong_iteration_and_residuals_read_value_fn_only():
    altering = with_declared_class(HALF, ControlClass.ALTERING)

    def g(x, y):
        return (x + y) / 4 + 0.5 * (x > 0.9)  # leaves [0, 1] from (1, 1)

    problems = [StrongCoupledProblem(SPACE, UNIT, UNIT, f, altering, altering)
                for f in (CouplingMap.from_function(g), CouplingMap(_no_point_path, value_fn=g))]
    starts = [(0.0, 1.0), (0.5, 0.5), (1.0, 1.0)]
    want = _runs(solve.iterate_strong_coupled, problems[0], starts)
    assert _runs(solve.iterate_strong_coupled, problems[1], starts) == want
    assert {run["status"] for run, _ in want} == {"Converged", "DiagnosticViolation"}
