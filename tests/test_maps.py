"""Coupling and self maps: one raw-value function per map, evaluated once.

Every map is ``fn``, the map on raw values that every scan calls, and
``evaluate`` is ``Point(fn(...))``: both give the same value or raise the
same error, whichever constructor built the map.  The constructors apply
the Point rules where the value is made and the bare constructor passes
values through, so a failing pair raises where it is met: no check and no
scan evaluates F or T again after an error.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplefix import build_problem, builtin_registry, checks, solve
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
    member_test,
    sample_values,
    separation,
)
from couplefix.problems import CoincidenceProblem, CouplingMap, SelfMap, StrongCoupledProblem
from couplefix.report import ReportBuilder

HUGE = "1" + "0" * 400  # beyond the float range
SPACE = MetricSpace.real_line(-10.0, 10.0)


def _outcome(call):
    """``("value", repr(result))``, or the type and message of the error."""
    try:
        return "value", repr(call())
    except Exception as exc:  # noqa: BLE001 - any error is an outcome to compare
        return type(exc), str(exc)


def _same_path(m, *values):
    """``m.fn(*values)`` and ``m.evaluate(*points).value`` agree."""
    got = _outcome(lambda: m.fn(*values))
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
    # a map whose whole value is a constant beyond the float range
    (HUGE, (1.0, 2.0),
     (DomainError, "expression overflows the float range: "
                   "integer division result too large for a float")),
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
def test_bare_maps_pass_values_through_on_fn_and_evaluate(result):
    f = CouplingMap(lambda x, y: result)
    assert _same_path(f, 0.5, 1.0) == ("value", repr(result))
    t = SelfMap(lambda x: result)
    assert _same_path(t, 0.5) == ("value", repr(result))
    assert _same_path(t.with_inverse(parse_expression("x"), SPACE), 0.5) == ("value", repr(result))
    # a bare map that raises raises the same error through evaluate
    strict = CouplingMap(lambda x, y: Point.real(result).value)
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


def _counting_coupling(k, bare=False):
    """F(x, y) = x, which raises at its k-th call and at every later call
    of that pair, with the list of argument pairs it was called with; with
    ``bare``, the map is built by the bare constructor, without the map
    rule of ``from_function``."""
    calls, failing = [], []

    def f(x, y):
        calls.append((x, y))
        if len(calls) == k or (x, y) in failing:
            failing.append((x, y))
            raise Stop(f"F{(x, y)}")
        return x

    return (CouplingMap(f) if bare else CouplingMap.from_function(f)), calls


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
        fm, calls = _counting_coupling(0)
        run(fm)
        assert len(calls) == len(set(calls)) == PAIRS, name


@pytest.mark.parametrize("bare", [False, True])
@pytest.mark.parametrize("k", [1, 2, 7, 26, PAIRS])
@pytest.mark.parametrize("scan", sorted(SCANS))
def test_no_scan_calls_f_again_after_a_failing_pair(scan, k, bare):
    fm, calls = _counting_coupling(k, bare)
    with pytest.raises(Stop) as got:
        SCANS[scan](fm)
    assert len(calls) == len(set(calls)) == k
    assert str(got.value) == f"F{calls[-1]}"


# one sample: A against itself, where the coupling and range scans meet
# each pair of A's 5 x 5 twice, F(x, y) and F(y, x), the diagonal included,
# and call F at each meeting
ONE_SAMPLE_SCANS = {
    "coupling": lambda fm: check_coupling(fm, A, A, PLAN),
    # the targets are B's sample, A's here
    "range": lambda fm: check_range_compatibility(fm, SelfMap.identity(), A, A, PLAN),
}
ONE_SAMPLE_CALLS = 2 * 5 * 5


def _interleaved_scan(first, second):
    """The argument pairs of a plain interleaved scan, which calls F(f, s)
    then F(s, f) for each f of ``first`` and s of ``second``, repeats
    included."""
    return [p for f in first for s in second for p in ((f, s), (s, f))]


def test_one_sample_scans_call_f_in_the_plain_interleaved_order():
    xs = sample_values(A, PLAN)
    scan = _interleaved_scan(xs, xs)
    assert len(scan) == ONE_SAMPLE_CALLS and len(set(scan)) == 5 * 5
    for name, run in ONE_SAMPLE_SCANS.items():
        fm, calls = _counting_coupling(0)
        run(fm)
        assert calls == scan, name


@pytest.mark.parametrize("bare", [False, True])
@pytest.mark.parametrize("k", [1, 2, 6, 7, 13, 25, ONE_SAMPLE_CALLS])
@pytest.mark.parametrize("scan", sorted(ONE_SAMPLE_SCANS))
def test_one_sample_scans_stop_at_the_first_failing_pair(scan, k, bare):
    xs = sample_values(A, PLAN)
    fm, calls = _counting_coupling(k, bare)
    with pytest.raises(Stop) as got:
        ONE_SAMPLE_SCANS[scan](fm)
    assert calls == _interleaved_scan(xs, xs)[:k]
    assert str(got.value) == f"F{calls[-1]}"


def test_one_sample_range_check_refines_the_rows_targets_before_the_failing_pair(monkeypatch):
    # One row of targets per block.  Row y = 0.5 of the one-sample scan
    # meets F(0.5, 0) = 0.25 and F(0, 0.5), then F(0.5, 0.5), which fails.
    # 0.25 lies in A, away from t(A), so T refines it in row 0 and again
    # where row 0.5 meets it, before the failing pair: T fails on that
    # second call.
    monkeypatch.setattr(checks, "RANGE_BLOCK_TARGETS", 1)
    plan = SamplePlan(3)
    assert sample_values(A, plan) == [0.0, 0.5, 1.0]

    def f(x, y):
        if (x, y) == (0.5, 0.5):
            raise Stop("F(0.5, 0.5)")
        return 0.25 if (x, y) == (0.5, 0.0) else 1.0

    refined = []

    def t(x):
        if x in refined and x == 0.25:
            raise Stop("T(0.25) again")
        refined.append(x)
        return x / 8 + 0.5

    with pytest.raises(Stop) as got:
        check_range_compatibility(CouplingMap(f), SelfMap(t), A, A, plan)
    assert str(got.value) == "T(0.25) again"


@pytest.mark.parametrize("bare", [False, True])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_strong_brute_force_calls_f_once_per_point_up_to_the_failing_one(k, bare):
    fm, calls = _counting_coupling(k, bare)
    altering = with_declared_class(HALF, ControlClass.ALTERING)
    problem = StrongCoupledProblem(SPACE, A, A, fm, altering, altering)
    with pytest.raises(Stop):
        solve.brute_force_search(problem, PLAN)
    assert len(calls) == len(set(calls)) == k
    assert all(x == y for x, y in calls)


@pytest.mark.parametrize("bare", [False, True])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_image_table_calls_t_once_per_value_up_to_the_failing_one(k, bare):
    calls = []

    def t(x):
        calls.append(x)
        if len(calls) == k or calls.count(x) > 1:
            raise Stop(f"T({x})")
        return x

    tm = SelfMap(t) if bare else SelfMap.from_function(t)
    with pytest.raises(Stop):
        tm.image_table(A, PLAN)
    assert len(calls) == len(set(calls)) == k
    assert calls == list(sample_values(A, PLAN))[:k]


# ---------------------------------------------------------------------------
# the solve layer and the range check: a bare map against from_function


UNIT = SubsetSpec.from_intervals([Interval(0.0, 1.0)])
SPACE_0_4 = MetricSpace.real_line(0.0, 4.0)


def _bare_pair(oracle):
    """Coincidence problems with F = (x + y) / 2 and T = 2x, the first built
    with ``from_function`` and the second with the bare constructors; with
    ``oracle``, T gets the inverse x / 2."""

    def build(f, t):
        if oracle:
            t = t.with_inverse(parse_expression("x / 2"), SPACE_0_4)
        return CoincidenceProblem(SPACE_0_4, UNIT, UNIT, f, t, HALF)

    def g(x, y):
        return (x + y) / 2

    def t(x):
        return 2 * x

    return (build(CouplingMap.from_function(g), SelfMap.from_function(t)),
            build(CouplingMap(g), SelfMap(t)))


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
def test_coincidence_iteration_and_residuals_agree_on_bare_maps(oracle):
    reference, bare = _bare_pair(oracle)
    assert (bare.self_map.preimage_fn is not None) is oracle
    want = _runs(solve.iterate_coincidence, reference, COINCIDENCE_STARTS)
    assert _runs(solve.iterate_coincidence, bare, COINCIDENCE_STARTS) == want
    statuses = {run["status"] for run, _ in want}
    assert statuses == ({"Converged"} if oracle else {"Converged", "PreimageFailure"})


def test_the_inverse_oracle_agrees_on_bare_maps():
    reference, bare = _bare_pair(True)
    for target in (0.0, 0.5, 1.0, 1.5, 3.0):
        for tol in (0.0, 1e-9):
            want = reference.self_map.preimage_fn(target, UNIT, tol)
            assert bare.self_map.preimage_fn(target, UNIT, tol) == want
    assert bare.self_map.preimage_fn(0.5, UNIT, 1e-9) == 0.25
    assert bare.self_map.preimage_fn(3.0, UNIT, 1e-9) is None


def test_the_range_check_agrees_on_bare_maps():
    reference, bare = _bare_pair(False)
    targets = SubsetSpec.from_intervals([Interval(0.0, 0.5)])
    for targets_b in (None, targets):
        want = check_range_compatibility(reference.coupling, reference.self_map, UNIT, UNIT,
                                         PLAN, targets_b=targets_b)
        got = check_range_compatibility(bare.coupling, bare.self_map, UNIT, UNIT,
                                        PLAN, targets_b=targets_b)
        assert repr(got) == repr(want)


def test_strong_iteration_and_residuals_agree_on_bare_maps():
    altering = with_declared_class(HALF, ControlClass.ALTERING)

    def g(x, y):
        return (x + y) / 4 + 0.5 * (x > 0.9)  # leaves [0, 1] from (1, 1)

    problems = [StrongCoupledProblem(SPACE, UNIT, UNIT, f, altering, altering)
                for f in (CouplingMap.from_function(g), CouplingMap(g))]
    starts = [(0.0, 1.0), (0.5, 0.5), (1.0, 1.0)]
    want = _runs(solve.iterate_strong_coupled, problems[0], starts)
    assert _runs(solve.iterate_strong_coupled, problems[1], starts) == want
    assert {run["status"] for run, _ in want} == {"Converged", "DiagnosticViolation"}


# ---------------------------------------------------------------------------
# equality


def test_maps_are_equal_by_callable_and_source_not_by_memo():
    def g(x, y):
        return x

    def t(x):
        return x

    assert CouplingMap(g, "g") == CouplingMap(g, "g")
    assert CouplingMap(g, "g") != CouplingMap(g, "h")
    assert CouplingMap(g) != CouplingMap(lambda x, y: x)
    base = SelfMap(t, source="t")
    inverse = base.with_inverse(parse_expression("x"), SPACE)
    assert inverse.fn is base.fn and inverse != base
    used = SelfMap(t, source="t")
    used.image_table(A, PLAN)
    assert used == base and hash(used) == hash(base)


# ---------------------------------------------------------------------------
# the coupling and range checks against a plain interleaved pair loop


def plain_coupling(f, a, b, plan, plan_b=None):
    """The coupling report from a plain loop: F(x, y) then F(y, x) for each
    pair, each image tested for membership on its own."""
    xs, ys = sample_values(a, plan), sample_values(b, plan_b or plan)
    in_a, in_b = member_test(a), member_test(b)
    rb = ReportBuilder("coupling", 0.0)
    for x in xs:
        for y in ys:
            v, w = f.fn(x, y), f.fn(y, x)
            if not in_b(v):
                rb.add_violation(("image_in_B", x, y, v), 1.0, 0.0)
            if not in_a(w):
                rb.add_violation(("image_in_A", y, x, w), 1.0, 0.0)
    rb.samples = len(xs) * len(ys)
    return rb.build({"pairs": len(xs) * len(ys)})


def plain_range(f, t, a, b, plan, tol, plan_b=None, targets_b=None):
    """The range report from a plain loop: F(y, x) against t(A), then
    F(x, y) against t(B), for each target y and each x of A, a target in
    its own subset also its own candidate."""
    b_plan = plan_b or plan
    xs, bs = sample_values(a, plan), sample_values(b, b_plan)
    tgt = bs if targets_b is None else sample_values(targets_b, b_plan)
    t_a, t_b = [t.fn(v) for v in xs], [t.fn(v) for v in bs]
    rb = ReportBuilder("range_compatibility", tol)
    for y in tgt:
        for x in xs:
            for tag, p, q, pool, subset in (("target_in_T_A", y, x, t_a, a),
                                            ("target_in_T_B", x, y, t_b, b)):
                tv = f.fn(p, q)
                best = min(separation(v, tv) for v in pool)
                if best > tol and member_test(subset)(tv):
                    best = min(best, separation(t.fn(tv), tv))
                rb.observe(best, 0.0, (tag, p, q, tv))
    return rb.build({"pairs": len(tgt) * len(xs)})


# values a bare map may return at some pairs: the extremes test must reject
# a row that holds a NaN or a label, and may clear one with ints or zeros
SPECIAL_VALUES = [math.nan, 0.0, -0.0, 0, 1, 3, "a", math.inf, -math.inf]
UNIT_SUBSETS = [
    SubsetSpec.from_intervals([Interval(0.0, 1.0)]),
    SubsetSpec.from_intervals([Interval(0.0, 1.0, lo_closed=False)]),
    SubsetSpec.from_intervals([Interval(-1.0, 1.0, hi_closed=False)]),
    SubsetSpec.from_intervals([Interval(0.0, 0.25), Interval(0.5, 1.0)]),
    SubsetSpec.from_values([0.0, 0.5, 1.0]),
]
BASES = {
    "mid": lambda x, y: (x + y) / 2,
    "first": lambda x, y: x,
    "escaping": lambda x, y: x + y / 2,
}
SMALL_PLANS = st.builds(SamplePlan, st.integers(2, 5), st.integers(0, 2), st.integers(0, 3))


@st.composite
def pair_plans(draw):
    """(a, b, plan, plan_b): one sample (A = B, one plan) or two."""
    a, plan = draw(st.sampled_from(UNIT_SUBSETS)), draw(SMALL_PLANS)
    if draw(st.booleans()):
        return a, a, plan, None
    return a, draw(st.sampled_from(UNIT_SUBSETS)), plan, draw(st.one_of(st.none(), SMALL_PLANS))


@given(
    plans=pair_plans(),
    base=st.sampled_from(sorted(BASES)),
    # (first index, second index, value): F at those sample pairs, by index
    # into the union of both samples
    specials=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20),
                                st.sampled_from(SPECIAL_VALUES)), max_size=4),
    targets_b=st.one_of(st.none(), st.sampled_from(UNIT_SUBSETS)),
    tol=st.sampled_from([0.0, 1e-9, 0.1]),
)
@settings(max_examples=300, deadline=None)
def test_coupling_and_range_reports_match_a_plain_pair_loop(plans, base, specials, targets_b, tol):
    a, b, plan, plan_b = plans
    values = sorted(set(sample_values(a, plan)) | set(sample_values(b, plan_b or plan)))
    at = {(values[i % len(values)], values[j % len(values)]): v for i, j, v in specials}
    fn = BASES[base]
    f = CouplingMap(lambda x, y: at.get((x, y), fn(x, y)))
    t = SelfMap(lambda x: x / 2)
    assert repr(check_coupling(f, a, b, plan, plan_b)) == repr(plain_coupling(f, a, b, plan, plan_b))
    got = check_range_compatibility(f, t, a, b, plan, tol, plan_b, targets_b)
    assert repr(got) == repr(plain_range(f, t, a, b, plan, tol, plan_b, targets_b))


# ---------------------------------------------------------------------------
# memory


def test_one_sample_coupling_check_keeps_little_beside_its_rows():
    """The coupling check keeps one row of F's values at a time: a table of
    Python floats would take about 1.6 MB at grid 201."""
    problem = build_problem(builtin_registry("banach-linear"))
    a, b, plan = problem.subset_a, problem.subset_b, SamplePlan(201)
    assert sample_values(a, plan) == sample_values(b, plan)
    check_coupling(problem.coupling, a, b, plan)  # compiles and caches what it can first
    tracemalloc.start()
    try:
        got = check_coupling(problem.coupling, a, b, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.passed and got.samples_tested == 201 * 201
    assert peak <= 100_000


def test_a_failing_table_keeps_the_images_made_before_it():
    """T fails at its third distinct value; the two images made before it
    stay in the memo, so a later table does not evaluate them again."""
    calls = []

    def t(x):
        calls.append(x)
        if x == 0.5:
            raise Stop(f"T({x})")
        return x

    m = SelfMap.from_function(t)
    with pytest.raises(Stop):
        m.image_table(A, SamplePlan(5))
    assert calls == [0.0, 0.25, 0.5]
    assert m.image_table(A, SamplePlan(2)) == ((0.0, 1.0),) * 2
    assert calls == [0.0, 0.25, 0.5, 1.0]


# ---------------------------------------------------------------------------
# row kernels: compiled by the first table that asks, and kept


def _compiled_sources(monkeypatch, fails: str = "", error: type = RecursionError) -> list[str]:
    """The sources ``couplefix.expr`` compiles from now on; compiling one
    that starts with ``fails``, if given, raises ``error``, as a source too
    large for Python's compiler does."""
    import builtins

    import couplefix.expr

    sources = []
    couplefix.expr._kernel_code.cache_clear()  # maps of one text share a compiled kernel

    def spy(source, *args):
        sources.append(source)
        if fails and source.startswith(fails):
            raise error("maximum recursion depth exceeded during compilation")
        return builtins.compile(source, *args)

    monkeypatch.setattr(couplefix.expr, "compile", spy, raising=False)
    return sources


def _kernels(sources: list[str]) -> list[str]:
    return [s for s in sources if s.startswith("def _fill(")]


def test_no_kernel_is_compiled_before_a_table_asks_for_one(monkeypatch, capsys):
    from couplefix.cli import main
    from couplefix.documents import registry_names

    sources = _compiled_sources(monkeypatch)
    problems = [build_problem(builtin_registry(name)) for name in registry_names()]
    assert sources and not _kernels(sources)
    for problem in problems:
        assert isinstance(problem.coupling.fn._fill, str)
    # solving fills F's columns: one kernel for the problem the command builds
    assert main(["solve", "banach-linear", "--start", "0.2", "0.9"]) == 0
    assert "Converged" in capsys.readouterr().out
    assert len(_kernels(sources)) == 1
    assert all(isinstance(problem.coupling.fn._fill, str) for problem in problems)

    f = problems[0].coupling
    f.tables((0.5, 1.0), (0.25,))
    kernel = f.fn._fill
    f.tables((0.0,), (1.0,))
    assert len(_kernels(sources)) == 1 and f.fn._fill is kernel
    # a table with a value that is not a float compiles none and calls fn
    g = problems[1].coupling
    assert g.tables((1,), (0.5,)) == g.tables((1.0,), (0.5,))
    assert len(_kernels(sources)) == 2


def _per_call(problem):
    """``problem`` with each map rebuilt by the bare constructor around its
    ``fn``, so it has no row kernel."""
    import dataclasses

    f = problem.coupling
    changes = {"coupling": CouplingMap(lambda x, y: f.fn(x, y), f.source)}
    if problem.kind == "coincidence":
        t = problem.self_map
        changes["self_map"] = SelfMap(lambda x: t.fn(x), t.preimage_fn, t.source)
    return dataclasses.replace(problem, **changes)


@pytest.mark.parametrize("compiles", [True, False])
def test_a_piecewise_of_hundreds_of_arms_checks_as_its_per_call_wrapper_does(
        compiles, monkeypatch):
    """F and T are piecewise maps of 300 arms.  Their row kernels compile,
    or, where compiling one raises (a source that nests too deep for
    Python's compiler), the maps keep the per-call path."""
    from couplefix.cli import run_checks
    from couplefix.documents import CheckSettings, parse_problem

    f_arms = " ".join(f"x < {k}/300 and y <= {k}/300 or x == {k}/300 => (x + y) / {k + 2} ;"
                      for k in range(1, 301))
    t_arms = " ".join(f"x <= {k}/300 => x / {k + 1} ;" for k in range(1, 301))
    doc = parse_problem("\n".join([
        "problem_kind: coincidence", 'space: "[0, 2]"', 'subset_A: "[0, 1]"',
        'subset_B: "[0, 1]"', f'map_F: "piecewise {{ {f_arms} else => x ; }}"',
        f'map_T: "piecewise {{ {t_arms} }}"', "phi:", "  family: linear", "  slope: 1/2"]))
    sources = _compiled_sources(monkeypatch, "" if compiles else "def _fill(")
    problem = build_problem(doc)
    settings = CheckSettings(SamplePlan(21, 1, 3), None, doc.check.tol, doc.check.budget)
    got = [(slot, r.to_dict(keep=5)) for slot, r in run_checks(problem, settings)]
    want = [(slot, r.to_dict(keep=5)) for slot, r in run_checks(_per_call(problem), settings)]
    assert got == want
    assert got[-1][0] == "contraction" and got[-1][1]["samples_tested"] > 0
    assert len(_kernels(sources)) == 2
    for m in (problem.coupling, problem.self_map):
        assert callable(m.fn._fill) if compiles else m.fn._fill is None


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
@pytest.mark.parametrize("key, fails", [("map_F", "def _lowered(x, y)"),
                                        ("phi", "def _lowered(t)")])
def test_a_map_too_large_to_compile_is_a_document_error_at_its_key(key, fails, error,
                                                                    monkeypatch):
    from couplefix.documents import parse_problem
    from couplefix.errors import DocumentError

    text = "\n".join([
        "problem_kind: coincidence", 'space: "[0, 2]"', 'subset_A: "[0, 1]"',
        'subset_B: "[0, 1]"', 'map_F: "(x + y) / 2"', "map_T: identity",
        'phi: "piecewise { t <= 1 => t / 2 ; else => t / 3 ; }"'])
    sources = _compiled_sources(monkeypatch, fails, error)
    with pytest.raises(DocumentError) as err:
        parse_problem(text)
    assert err.value.key == key
    assert str(err.value) == f"{key}: expression is too large for Python's compiler"
    assert sources[-1].startswith(fails)


def test_a_row_kernel_evaluates_the_functions_own_expression(monkeypatch):
    sources = _compiled_sources(monkeypatch)
    f = CouplingMap.from_expression(
        parse_expression("piecewise { x < 1/3 => x + y ; y > 2 => min(x, 1/2) ; }"))
    (lowered,) = sources
    line = f.fn._fill.splitlines()[-1]
    assert line.startswith("        app(") and line.endswith(")")
    expression = line[len("        app("):-1]
    assert ("        r = _rounded(x, y) if type(x) is not _float or type(y) is not _float"
            f" else {expression}\n") in lowered
    assert expression.endswith(" else _no_arm()") and "elif" not in lowered
