"""The table-driven scans against naive per-sample loops.

Each oracle below is the straightforward loop the scan replaces: one
inequality per sample, margins folded in sample order, violations recorded
as they are met.  The whole report must match: violation list and order,
lhs/rhs, ``samples_tested`` and ``max_margin`` (compared through ``repr``,
so the sign of a zero and a NaN count too), or both sides raise the same
exception type.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from collections import Counter
from operator import ge, le
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from couplefix import checks, levelset, metric, report, solve
from couplefix.checks import (
    DEFAULT_QUADRUPLE_BUDGET,
    check_coupling,
    check_phi_psi_contraction,
    check_phi_T_contraction,
    check_range_compatibility,
    check_scc_map,
)
from couplefix.cli import MAX_JSON_VIOLATIONS, main, run_checks
from couplefix.documents import build_problem, builtin_registry, parse_problem, registry_names
from couplefix.errors import DomainError
from couplefix.expr import parse_expression
from couplefix.controls import (
    ControlClass,
    eval_control,
    identity_control,
    make_linear,
    make_power,
    with_declared_class,
)
from couplefix.metric import (
    Interval,
    MetricSpace,
    Point,
    SamplePlan,
    SubsetSpec,
    _usual_real,
    check_metric_axioms,
    contains_values,
    member_test,
    sample_values,
    separation,
    subset_intersection,
    subset_within_carrier,
)
from couplefix.problems import CoincidenceProblem, CouplingMap, SelfMap, StrongCoupledProblem
from couplefix.report import CheckReport, ReportBuilder, Violation
from couplefix.solve import SolveOptions, SolveReport, SolveStatus
from metric_oracle import (
    between_k_triangle,
    contains,
    finite_intersection,
    finite_within_carrier,
    pair_axioms,
)
from test_report import k_largest

TOLS = st.sampled_from([1e-9, 0.0, 0.25, -0.1])


def _key(report) -> list[str]:
    head = (report.property_name, report.samples_tested, report.max_margin,
            report.verdict, report.details)
    return [repr(head)] + [repr((v.witness, v.lhs, v.rhs, v.residual)) for v in report.violations]


def _same_outcome(fast, naive) -> None:
    """Run both; equal reports, or the same exception type from each."""
    try:
        want = _key(naive())
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        with pytest.raises(type(exc)):
            fast()
        return
    got = _key(fast())
    # a plain bool keeps pytest from diffing thousands of lines on failure
    same = got == want
    first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert same, f"{len(got)} vs {len(want)} lines, first difference at {first}"


# ---------------------------------------------------------------------------
# metric axioms


def naive_metric_axioms(space, plan, tol):
    c = space.carrier
    if isinstance(c, Interval):
        vals = metric.sample_values(SubsetSpec.from_intervals([c]), plan)
    else:
        vals = list(c.labels)
    d = space.metric
    n = len(vals)
    dm = [[float(d(vals[i], vals[j])) for j in range(n)] for i in range(n)]
    rb = ReportBuilder("metric_axioms", tol)
    pair_axioms(rb, vals, dm, tol)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rb.observe(dm[i][j], dm[i][k] + dm[k][j], ("triangle", vals[i], vals[j], vals[k]))
    return rb.build()


REAL_METRICS = {
    "usual": None,
    "squared": lambda a, b: (a - b) ** 2,
    "signed": lambda a, b: a - b,
    "nan_far": lambda a, b: math.nan if abs(a - b) > 1.5 else abs(a - b),
    "inf_far": lambda a, b: math.inf if abs(a - b) > 1.5 else abs(a - b),
}
PLANS = st.builds(
    SamplePlan,
    grid_count=st.integers(2, 9),
    jitter_count=st.integers(0, 3),
    seed=st.integers(0, 50),
)


@given(
    metric=st.sampled_from(sorted(REAL_METRICS)),
    lo=st.sampled_from([-1.0, 0.0, 0.3]),
    width=st.sampled_from([1.0, 2.0, 3.7]),
    plan=PLANS,
    tol=TOLS,
)
@settings(max_examples=120, deadline=None)
def test_triangle_scan_matches_naive_loop_on_real_lines(metric, lo, width, plan, tol):
    space = MetricSpace.real_line(lo, lo + width, metric=REAL_METRICS[metric])
    _same_outcome(
        lambda: check_metric_axioms(space, plan, tol),
        lambda: naive_metric_axioms(space, plan, tol),
    )


LABELS = ["a", "b", "c", "d"]
TABLE_VALUES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -1.0, 0.1 + 0.2, 0.3])


@given(
    n=st.integers(1, 4),
    values=st.lists(TABLE_VALUES, min_size=12, max_size=12),
    tol=TOLS,
)
@settings(max_examples=120, deadline=None)
def test_triangle_scan_matches_naive_loop_on_asymmetric_tables(n, values, tol):
    labels = LABELS[:n]
    pairs = [(a, b) for a in labels for b in labels if a != b]
    space = MetricSpace.finite(labels, dict(zip(pairs, values)))
    plan = SamplePlan()
    _same_outcome(
        lambda: check_metric_axioms(space, plan, tol),
        lambda: naive_metric_axioms(space, plan, tol),
    )


@given(
    bounds=st.tuples(
        st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
        st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
    ).map(lambda lw: (lw[0], lw[0] + lw[1])),
    ends=st.tuples(st.booleans(), st.booleans()),
    plan=st.builds(
        SamplePlan,
        grid_count=st.integers(2, 40),
        jitter_count=st.integers(0, 3),
        seed=st.integers(0, 50),
    ),
    tol=st.sampled_from([0.0, 1e-17, 1e-9]),
)
@example(bounds=(0.0, 0.35), ends=(True, True), plan=SamplePlan(36, 3, 4), tol=0.0)
@example(bounds=(0.15, 2.25), ends=(True, True), plan=SamplePlan(29, 2, 4), tol=1e-17)
@example(bounds=(0.15, 2.25), ends=(False, True), plan=SamplePlan(40, 3, 7), tol=0.0)
@example(bounds=(-1.5e308, 1.5e308), ends=(True, True), plan=SamplePlan(9, 2, 1), tol=0.0)
@example(bounds=(-1.5e308, 1.5e308), ends=(True, False), plan=SamplePlan(5, 0, 0), tol=1e-9)
@example(bounds=(-5.0, 5.0), ends=(False, False), plan=SamplePlan(41, 2, 3), tol=1e-9)
@example(bounds=(0.0, 1.0), ends=(True, True), plan=SamplePlan(40, 3, 5), tol=1e-17)
@example(bounds=(-1.0, 3.0), ends=(True, False), plan=SamplePlan(33, 2, 12), tol=0.0)
@example(bounds=(0.0, 1e-300), ends=(True, True), plan=SamplePlan(30, 2, 3), tol=0.0)
@example(bounds=(0.0, 1e-310), ends=(False, True), plan=SamplePlan(30, 2, 3), tol=0.0)
@example(bounds=(0.1, 0.7), ends=(True, True), plan=SamplePlan(31, 3, 9), tol=0.0)
@settings(max_examples=40, deadline=None)
def test_between_k_triangle_scan_matches_naive_loop_on_the_usual_metric(bounds, ends, plan, tol):
    """Grids up to 40 with unsorted jitter, rounding-level violations at the
    tiny tolerances, and an interval whose width overflows, which is
    scanned in full.  The examples reach both sides of the exactness
    argument: a dyadic step whose jitter rows alone round, a unit interval
    where a quarter of the differences round, a mixed-sign carrier, a
    carrier 1e-300 wide, a subnormal one, and a tol of 0 with rounding
    violations."""
    lo, hi = bounds
    space = MetricSpace.real_line(lo, hi, *(ends if lo < hi else (True, True)))
    _same_outcome(
        lambda: check_metric_axioms(space, plan, tol),
        lambda: naive_metric_axioms(space, plan, tol),
    )


@pytest.mark.parametrize("name", registry_names())
@pytest.mark.parametrize("seed", [3, 5, 12345])
@pytest.mark.parametrize("tol", [None, 0.0, 1e-17])
def test_axiom_check_matches_between_k_oracle_on_builtin_carriers(name, seed, tol):
    """Each builtin's carrier at the benchmark's grid (81 points, 2 jitter),
    at the document's tol and at rounding-level ones."""
    doc = builtin_registry(name)
    tol = doc.check.tol if tol is None else tol
    space, plan = build_problem(doc).space, SamplePlan(81, 2, seed)
    _same_outcome(
        lambda: check_metric_axioms(space, plan, tol),
        lambda: between_k_triangle(space, plan, tol),
    )


@pytest.mark.parametrize("lo, hi, ends", [(0.0, 1.0, (True, True)), (-5.0, 5.0, (False, False))])
def test_axiom_check_matches_between_k_oracle_at_grid_201(lo, hi, ends):
    space, plan = MetricSpace.real_line(lo, hi, *ends), SamplePlan(201, 2, 7)
    for tol in (1e-9, 0.0):
        _same_outcome(
            lambda: check_metric_axioms(space, plan, tol),
            lambda: between_k_triangle(space, plan, tol),
        )


SPAN_FLOATS = st.one_of(
    st.floats(-1e307, 1e307, allow_nan=False, allow_infinity=False),
    st.integers(-400, 400).map(lambda k: k / 80),
    st.integers(-400, 400).map(lambda k: k / 64),
    st.integers(-400, 400).map(lambda k: k * 5e-324),
)


@given(x=SPAN_FLOATS, ys=st.lists(SPAN_FLOATS, max_size=12), first=st.integers(0, 5))
@example(x=0.1, ys=[0.7, 0.1, 0.2, 0.15], first=0)
@settings(max_examples=400, deadline=None)
def test_rounding_marks_match_exact_differences(x, ys, first):
    """A difference is marked exactly when the float difference is not the
    real one."""
    diffs, marks = metric._differences(x, ys, first)
    assert diffs == [y - x for y in ys]
    exact = Fraction(x)
    assert marks == [first + m for m, y in enumerate(ys) if Fraction(y) - exact != Fraction(y - x)]


def _rounding_marks(lo, hi, ends, plan) -> int:
    srt = sorted(sample_values(SubsetSpec.from_intervals([Interval(lo, hi, *ends)]), plan))
    return sum(len(metric._differences(x, srt[a:])[1]) for a, x in enumerate(srt))


def test_dyadic_grids_without_jitter_mark_no_rounding_difference():
    """Every triangle triple of these samples is decided: the scan sums
    none.  On the unit grid some differences round."""
    assert _rounding_marks(1.0, 1.9, (True, True), SamplePlan(81)) == 0
    assert _rounding_marks(-5.0, 5.0, (False, False), SamplePlan(81)) == 0
    assert _rounding_marks(-5.0, 5.0, (False, False), SamplePlan(81, 2, 3)) > 0
    assert _rounding_marks(0.0, 1.0, (True, True), SamplePlan(81)) > 0


def _count_full_triangle_scans(monkeypatch) -> list:
    """Record each call of the every-k triangle loop, which still runs."""
    calls = []
    full_scan = metric._triangle_rows

    def counted(*args):
        calls.append(args)
        return full_scan(*args)

    monkeypatch.setattr(metric, "_triangle_rows", counted)
    return calls


@pytest.mark.parametrize("values", [[1.5e308, -1.5e308, 0.0], [0.5, 1e308, -1e308, 1.0]])
@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_finite_samples_whose_span_overflows_take_the_full_scan(values, tol, monkeypatch):
    monkeypatch.setattr(metric, "sample_values", lambda subset, plan: list(values))
    calls = _count_full_triangle_scans(monkeypatch)
    space = MetricSpace.real_line(-1.5e308, 1.5e308)
    _same_outcome(
        lambda: check_metric_axioms(space, SamplePlan(), tol),
        lambda: naive_metric_axioms(space, SamplePlan(), tol),
    )
    assert len(calls) == 1


def test_rounding_violations_are_reported_in_scan_order():
    """The rounding-level examples above do produce triangle violations,
    from a sample whose jitter points are out of order."""
    space = MetricSpace.real_line(0.15, 2.25)
    plan = SamplePlan(29, 2, 4)
    vals = sample_values(SubsetSpec.from_intervals([space.carrier]), plan)
    assert vals != sorted(vals)
    got = check_metric_axioms(space, plan, 1e-17)
    assert got.violations and {v.witness[0] for v in got.violations} == {"triangle"}
    index = {v: i for i, v in enumerate(vals)}
    order = [tuple(index[w] for w in v.witness[1:]) for v in got.violations]
    assert order == sorted(order) and len(set(order)) == len(order)
    assert check_metric_axioms(MetricSpace.real_line(0.0, 0.35), SamplePlan(36, 3, 4), 0.0).violations
    assert check_metric_axioms(MetricSpace.real_line(0.1, 0.7), SamplePlan(31, 3, 9), 0.0).violations


@pytest.mark.parametrize("name", registry_names())
def test_builtins_at_grid_81_take_the_between_k_triangle_scan(name, monkeypatch, capsys):
    calls = _count_full_triangle_scans(monkeypatch)
    main(["check", name, "--samples", "81", "--jitter", "2", "--seed", "5"])
    assert calls == [] and "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("space, tol", [
    (MetricSpace.finite(["a", "b", "c"]), 1e-9),
    (MetricSpace.real_line(0.0, 1.0, metric=lambda a, b: abs(a - b)), 1e-9),
    (MetricSpace.real_line(0.0, 1.0), -0.1),
    (MetricSpace.real_line(-1.5e308, 1.5e308), 1e-9),
])
def test_other_spaces_take_the_full_triangle_scan(space, tol, monkeypatch):
    calls = _count_full_triangle_scans(monkeypatch)
    check_metric_axioms(space, SamplePlan(5), tol)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# range compatibility


def naive_range(f, t, a, b, plan, tol, plan_b=None, targets_b=None):
    a_pts = list(map(Point, sample_values(a, plan)))
    b_plan = plan_b or plan
    b_pts = list(map(Point, sample_values(b, b_plan)))
    tgt_pts = b_pts if targets_b is None else list(map(Point, sample_values(targets_b, b_plan)))
    ta_vals = [t.evaluate(p).value for p in a_pts]
    tb_vals = [t.evaluate(q).value for q in b_pts]
    rb = ReportBuilder("range_compatibility", tol)
    for yq in tgt_pts:
        for xp in a_pts:
            for tag, p, q, pool, subset in (
                ("target_in_T_A", yq, xp, ta_vals, a),
                ("target_in_T_B", xp, yq, tb_vals, b),
            ):
                tgt = f.evaluate(p, q)
                tv = tgt.value
                best = min(separation(v, tv) for v in pool)
                if best > tol and contains(subset, tgt):
                    best = min(best, separation(t.evaluate(tgt).value, tv))
                rb.observe(best, 0.0, (tag, p.value, q.value, tv))
    return rb.build({"pairs": len(tgt_pts) * len(a_pts)})


GRID_VALUES = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 0.1 + 0.2, 0.3]
SELF_MAPS = {
    "identity": lambda x: x,
    "half": lambda x: x / 2,
    "step": lambda x: 0.5 if x < 1 else 1.5,
    "clip": lambda x: min(x, 1.0),
    "shift": lambda x: x + 0.25,
}
COUPLINGS = {
    "mid": lambda x, y: (x + y) / 2,
    "min": min,
    "first": lambda x, y: x,
    "quarter_sum": lambda x, y: (x + y) / 4,
    "on_pool": lambda x, y: 0.5 if x < y else 1.5,
}
REAL_SUBSETS = st.one_of(
    st.lists(st.sampled_from(GRID_VALUES), min_size=1, max_size=5).map(SubsetSpec.from_values),
    st.sampled_from([(0.0, 1.0), (0.0, 2.0), (0.5, 1.5)]).map(
        lambda iv: SubsetSpec.from_intervals([Interval(*iv)])
    ),
)


@given(
    a=REAL_SUBSETS,
    b=REAL_SUBSETS,
    targets=st.one_of(st.none(), REAL_SUBSETS),
    t=st.sampled_from(sorted(SELF_MAPS) + ["nan_above_1"]),
    f=st.sampled_from(sorted(COUPLINGS)),
    plan=PLANS,
    tol=TOLS,
)
@settings(max_examples=200, deadline=None)
def test_range_search_matches_naive_loop_on_real_pools(a, b, targets, t, f, plan, tol):
    fm = CouplingMap.from_function(COUPLINGS[f])
    if t == "nan_above_1":  # a bare map skips the finiteness check of Point.real
        tm = SelfMap(lambda x: math.nan if x > 1 else x)
    else:
        tm = SelfMap.from_function(SELF_MAPS[t])
    _same_outcome(
        lambda: check_range_compatibility(fm, tm, a, b, plan, tol, targets_b=targets),
        lambda: naive_range(fm, tm, a, b, plan, tol, targets_b=targets),
    )


#: Self maps whose sorted image index merges entries (repeated images, 0.0
#: beside -0.0) or gives up (int images of a bare map, which skips
#: Point.real), so the range check bisects the merged index or scans every
#: image; each builds a new map, with an empty image memo.
MERGED_SELF_MAPS = {
    "signed_zeros": lambda: SelfMap.from_function(
        lambda x: -0.0 if x < 0.5 else 0.0 if x < 1 else x),
    "zeros_positive_first": lambda: SelfMap.from_function(
        lambda x: 0.0 if x < 0.5 else -0.0 if x < 1 else x),
    "plateaus": lambda: SelfMap.from_function(lambda x: math.floor(2 * x) / 2),
    "ints": lambda: SelfMap(lambda x: round(2 * x)),
    # T(-0.0) = -0.0 but T(0.0) = 0.25: a zero target's own image depends on its sign
    "sign_of_zero": lambda: SelfMap.from_function(
        lambda x: x if math.copysign(1.0, x) < 0 else x + 0.25),
}
MERGED_COUPLINGS = {
    "mid": lambda: CouplingMap.from_function(COUPLINGS["mid"]),
    "signed_zeros": lambda: CouplingMap.from_function(lambda x, y: -0.0 if x <= y else 0.0),
    "ints": lambda: CouplingMap(lambda x, y: round(x + y)),
    # one target per side in every block, as F = 2 in example-2.1.9
    "constant": lambda: CouplingMap.from_function(lambda x, y: 2.0),
    # a few targets, each repeated across a block
    "quantised": lambda: CouplingMap.from_function(lambda x, y: math.floor(2 * (x + y)) / 4),
}


@given(
    a=REAL_SUBSETS,
    b=REAL_SUBSETS,
    targets=st.one_of(st.none(), REAL_SUBSETS),
    t=st.sampled_from(sorted(MERGED_SELF_MAPS)),
    f=st.sampled_from(sorted(MERGED_COUPLINGS)),
    plan=PLANS,
    tol=TOLS,
)
@example(a=SubsetSpec.from_intervals([Interval(0.0, 2.0)]),
         b=SubsetSpec.from_values([0.0, 0.25, 0.75]), targets=None, t="signed_zeros",
         f="signed_zeros", plan=SamplePlan(9), tol=0.0)
@settings(max_examples=200, deadline=None)
def test_range_search_matches_naive_loop_on_merged_and_int_images(a, b, targets, t, f, plan, tol):
    fm, tm = MERGED_COUPLINGS[f](), MERGED_SELF_MAPS[t]()
    _same_outcome(
        lambda: check_range_compatibility(fm, tm, a, b, plan, tol, targets_b=targets),
        lambda: naive_range(fm, tm, a, b, plan, tol, targets_b=targets),
    )
    assert (tm.image_index(a, plan) is None) == (t == "ints")


def _nan_at(x0, y0, f):
    """F, but NaN at (x0, y0); a bare map skips the finiteness check of Point.real."""
    return lambda: CouplingMap(lambda x, y: math.nan if (x, y) == (x0, y0) else f(x, y))


UNIT = SubsetSpec.from_intervals([Interval(0.0, 1.0)])
HALF_UP = SubsetSpec.from_intervals([Interval(0.5, 1.5)])
FIRST = COUPLINGS["first"]
IDENTITY = lambda: SelfMap.from_function(SELF_MAPS["identity"])  # noqa: E731
#: T(A) is B's sample, so F(y, x) = y always passes, and F(x, y) = x fails below 0.75
SHIFT_HALF = lambda: SelfMap.from_function(lambda x: x + 0.5)  # noqa: E731
#: (F, T, A, B) whose blocks repeat targets or hold a NaN.  At SamplePlan(5) UNIT
#: samples 0, 0.25, ..., 1 and HALF_UP 0.5, 0.75, ..., 1.5.  The first target of a
#: block is F(y_0, x_0) on side 0 and F(x_0, y_0) on side 1: F(0.5, 0.0) and
#: F(0.0, 0.5) when A = UNIT and B = HALF_UP, F(0.0, 0.0) for both when A = B = UNIT.
#: Under SHIFT_HALF side 0 passes and side 1 fails in every block, so a block
#: cleared past its NaN loses violations; under the identity every block passes.
DEDUP_CASES = {
    "constant": (MERGED_COUPLINGS["constant"], MERGED_SELF_MAPS["plateaus"], UNIT, HALF_UP),
    "quantised": (MERGED_COUPLINGS["quantised"], MERGED_SELF_MAPS["plateaus"], UNIT, HALF_UP),
    "nan_first_side_0": (_nan_at(0.5, 0.0, FIRST), SHIFT_HALF, UNIT, HALF_UP),
    "nan_first_side_1": (_nan_at(0.0, 0.5, FIRST), SHIFT_HALF, UNIT, HALF_UP),
    "nan_later": (_nan_at(1.0, 0.25, FIRST), SHIFT_HALF, UNIT, HALF_UP),
    "nan_first_passing": (_nan_at(0.0, 0.0, FIRST), IDENTITY, UNIT, UNIT),
    "nan_later_passing": (_nan_at(1.0, 0.25, FIRST), IDENTITY, UNIT, UNIT),
    # an int pool is at an int distance from 3 and at a float one from 3.0
    "int_and_float": (lambda: CouplingMap(
        lambda x, y: round(x + y) if x < y else float(round(x + y))),
        MERGED_SELF_MAPS["ints"], UNIT, HALF_UP),
    # 0.0 and -0.0 are one key of a block's distinct targets, but only -0.0 is its
    # own T image: at tol = 0 the 0.0 targets fail and the -0.0 targets pass
    "signed_zeros": (MERGED_COUPLINGS["signed_zeros"], MERGED_SELF_MAPS["sign_of_zero"],
                     SubsetSpec.from_values([0.0, 1.0]), SubsetSpec.from_values([0.0, 0.5])),
}


@pytest.mark.parametrize("case", sorted(DEDUP_CASES))
@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.25, -0.1])
@pytest.mark.parametrize("block", [1, 24, checks.RANGE_BLOCK_TARGETS])
def test_range_repeated_and_nan_targets_match_naive_loop(case, tol, block, monkeypatch):
    f, t, a, b = DEDUP_CASES[case]
    plan = SamplePlan(5)
    monkeypatch.setattr(checks, "RANGE_BLOCK_TARGETS", block)
    _same_result(
        lambda: check_range_compatibility(f(), t(), a, b, plan, tol),
        lambda: naive_range(f(), t(), a, b, plan, tol),
    )


def test_signed_zero_targets_are_refined_one_by_one():
    f, t, a, b = DEDUP_CASES["signed_zeros"]
    got = check_range_compatibility(f(), t(), a, b, SamplePlan(5), 0.0)
    failed = {math.copysign(1.0, v.witness[3]) for v in got.violations}
    assert got.violation_count and failed == {1.0}


def _count_range_work(monkeypatch, problem, plan, targets_b):
    """F calls and values bisected by one range check of ``problem``."""
    calls = Counter()

    def fn(x, y):
        calls["F"] += 1
        return problem.coupling.fn(x, y)

    def bisect_left(*args):
        calls["bisected"] += 1
        return bisect.bisect_left(*args)

    monkeypatch.setattr(checks, "bisect_left", bisect_left)
    check_range_compatibility(CouplingMap(fn), problem.self_map, problem.subset_a,
                              problem.subset_b, plan, targets_b=targets_b,
                              keep=MAX_JSON_VIOLATIONS)
    return calls


def _distinct_per_block(f, xs, ys, rows):
    """The distinct targets of each side, summed over blocks of ``rows`` y rows."""
    total = 0
    for start in range(0, len(ys), rows):
        block = ys[start:start + rows]
        total += len({f(y, x) for y in block for x in xs})
        total += len({f(x, y) for y in block for x in xs})
    return total


@pytest.mark.parametrize("source", ["example-2.1.9", "escaping-one-sample"])
def test_range_searches_each_distinct_target_once(source, monkeypatch):
    if source in registry_names():
        doc = builtin_registry(source)
    else:
        doc = parse_problem(Path(__file__).with_name(f"{source}.yaml").read_text(encoding="utf-8"))
    problem, targets_b = build_problem(doc), doc.check.range_b
    plan = SamplePlan(81, 2, 3)  # what --samples 81 --jitter 2 --seed 3 checks, on both axes
    xs = sample_values(problem.subset_a, plan)
    ys = sample_values(problem.subset_b if targets_b is None else targets_b, plan)
    rows = checks.RANGE_BLOCK_TARGETS // (2 * len(xs))
    blocks = -(-len(ys) // rows)
    calls = _count_range_work(monkeypatch, problem, plan, targets_b)
    assert calls["F"] == 2 * len(xs) * len(ys) == 13778
    want = _distinct_per_block(problem.coupling.fn, xs, ys, rows)
    assert calls["bisected"] == want
    if source == "example-2.1.9":  # F = 2: one value per side per block
        assert want == 2 * blocks == 14
    else:  # one block: the sample's distinct targets, 727 on each side
        monkeypatch.setattr(checks, "RANGE_BLOCK_TARGETS", 2 * len(xs) * len(ys))
        assert _count_range_work(monkeypatch, problem, plan, targets_b)["bisected"] == 2 * 727


@given(
    a=st.lists(st.sampled_from(LABELS), min_size=1, max_size=4),
    b=st.lists(st.sampled_from(LABELS), min_size=1, max_size=4),
    t_table=st.lists(st.sampled_from(LABELS), min_size=4, max_size=4),
    pick_second=st.booleans(),
    tol=TOLS,
)
@settings(max_examples=100, deadline=None)
def test_range_search_matches_naive_loop_on_label_pools(a, b, t_table, pick_second, tol):
    tm = SelfMap.from_function(lambda v: t_table[LABELS.index(v)])
    fm = CouplingMap.from_function(lambda x, y: y if pick_second else x)
    sa, sb = SubsetSpec.from_values(a), SubsetSpec.from_values(b)
    plan = SamplePlan()
    _same_outcome(
        lambda: check_range_compatibility(fm, tm, sa, sb, plan, tol),
        lambda: naive_range(fm, tm, sa, sb, plan, tol),
    )


# ---------------------------------------------------------------------------
# contraction kernel


def naive_contraction(name, problem, image, left, right, plan, tol, plan_b=None):
    xs = list(map(Point, sample_values(problem.subset_a, plan)))
    ys = list(map(Point, sample_values(problem.subset_b, plan_b or plan)))
    d, f = problem.space.metric, problem.coupling
    rb = ReportBuilder(name, tol)
    min_margin = math.inf
    for x in xs:
        for y in ys:
            fxy = f.evaluate(x, y).value
            for u in ys:
                for v in xs:
                    lhs = left(d(fxy, f.evaluate(u, v).value))
                    d1 = d(image(x).value, image(u).value)
                    d2 = d(image(y).value, image(v).value)
                    rhs = right(d1 if d1 >= d2 else d2)
                    margin = rhs - lhs
                    if margin < min_margin:
                        min_margin = margin
                    if lhs > rhs + tol:
                        rb.add_violation(
                            ("contraction", x.value, y.value, u.value, v.value), lhs, rhs
                        )
    total = len(xs) ** 2 * len(ys) ** 2
    rb.samples = total
    rb.min_margin = min_margin
    return rb.build(
        {"total_quadruples": total, "stride": 1, "budget": DEFAULT_QUADRUPLE_BUDGET}
    )


PSIS = {
    "identity": identity_control(),
    "linear": with_declared_class(make_linear(Fraction(3, 2)), ControlClass.ALTERING),
    "square": make_power(2),
}
SMALL_SUBSETS = st.one_of(
    st.lists(st.sampled_from(GRID_VALUES), min_size=1, max_size=4).map(SubsetSpec.from_values),
    st.sampled_from([(0.0, 1.0), (0.0, 2.0)]).map(
        lambda iv: SubsetSpec.from_intervals([Interval(*iv)])
    ),
)
SMALL_PLANS = st.builds(
    SamplePlan,
    grid_count=st.integers(2, 4),
    jitter_count=st.integers(0, 1),
    seed=st.integers(0, 50),
)


@given(
    metric=st.sampled_from(sorted(REAL_METRICS)),
    psi=st.sampled_from(sorted(PSIS)),
    phi_slope=st.sampled_from([Fraction(1, 2), Fraction(1, 10), Fraction(1)]),
    a=SMALL_SUBSETS,
    b=st.one_of(st.none(), SMALL_SUBSETS),  # None: B is A
    f=st.sampled_from(sorted(COUPLINGS)),
    plan=SMALL_PLANS,
    tol=TOLS,
)
# a negative distance between F values while every M >= 0: only psi raises
@example(
    metric="signed", psi="identity", phi_slope=Fraction(1, 2),
    a=SubsetSpec.from_values([0.0, 1.0]), b=SubsetSpec.from_values([0.0]),
    f="mid", plan=SamplePlan(2), tol=1e-9,
)
# a power psi and a symmetric F on one jittered sample: the comprehension
# mirrors planes, failing ones included
@example(
    metric="usual", psi="square", phi_slope=Fraction(1, 2),
    a=SubsetSpec.from_intervals([Interval(0.0, 2.0)]), b=None,
    f="mid", plan=SamplePlan(4, 1, 3), tol=1e-9,
)
@settings(max_examples=200, deadline=None)
def test_phi_psi_kernel_matches_naive_loop(metric, psi, phi_slope, a, b, f, plan, tol):
    phi = with_declared_class(make_linear(phi_slope), ControlClass.ALTERING)
    psi_fn = PSIS[psi]
    problem = StrongCoupledProblem(
        space=MetricSpace.real_line(-1.0, 3.0, metric=REAL_METRICS[metric]),
        subset_a=a,
        subset_b=a if b is None else b,
        coupling=CouplingMap.from_function(COUPLINGS[f]),
        phi=phi,
        psi=psi_fn,
    )
    _same_outcome(
        lambda: check_phi_psi_contraction(problem, plan, tol),
        lambda: naive_contraction(
            "phi_psi_contraction", problem, lambda p: p,
            lambda t: eval_control(psi_fn, t),
            lambda m: eval_control(psi_fn, m) - eval_control(phi, m),
            plan, tol,
        ),
    )


@given(
    metric=st.sampled_from(sorted(REAL_METRICS)),
    slope=st.integers(1, 3),
    a=SMALL_SUBSETS,
    b=SMALL_SUBSETS,
    f=st.sampled_from(sorted(COUPLINGS)),
    t=st.sampled_from(sorted(SELF_MAPS)),
    plan=SMALL_PLANS,
    tol=TOLS,
)
@settings(max_examples=150, deadline=None)
def test_phi_T_kernel_matches_naive_loop(metric, slope, a, b, f, t, plan, tol):
    phi = make_linear(Fraction(slope, 4))
    problem = CoincidenceProblem(
        space=MetricSpace.real_line(-1.0, 3.0, metric=REAL_METRICS[metric]),
        subset_a=a,
        subset_b=b,
        coupling=CouplingMap.from_function(COUPLINGS[f]),
        self_map=SelfMap.from_function(SELF_MAPS[t]),
        phi=phi,
    )
    _same_outcome(
        lambda: check_phi_T_contraction(problem, plan, tol),
        lambda: naive_contraction(
            "phi_T_contraction", problem, problem.self_map.evaluate,
            lambda t: t, lambda m: eval_control(phi, m), plan, tol,
        ),
    )


# ---------------------------------------------------------------------------
# level-set contraction path


@contextmanager
def level_set_spy():
    """Count what the contraction kernel does with its planes: how often
    the level-set path is built, how many planes it evaluates, how many
    the comprehension evaluates and how many a symmetric scan mirrors from
    an earlier plane.  Also how many planes report a violation, on how
    many of those some are only counted, and for each plane in scan order
    how many violations it lists and how many it holds in all.  Each
    plane's listed keys must strictly increase: scan order, no cell
    recorded twice."""
    calls = {"built": 0, "planes": 0, "comprehended": 0, "mirrored": 0,
             "violating": 0, "counted": 0, "listed": [], "held": []}
    real, real_comprehension, real_mirrored = (levelset.plane_evaluator,
                                               checks._plane_comprehension, checks._mirrored)

    def listed(result):  # (margin, unlisted, keys, lhs, rhs)
        unlisted, keys = result[1], list(result[2])
        assert keys == sorted(set(keys)) and unlisted >= 0
        assert len(result[3]) == len(result[4]) == len(keys)
        calls["violating"] += bool(keys or unlisted)
        calls["counted"] += bool(unlisted)
        calls["listed"].append(len(keys))
        calls["held"].append(unlisted + len(keys))
        return result

    def spy(*args):
        calls["built"] += 1
        plane = real(*args)

        def counted(i, j, fab, floor=None):
            calls["planes"] += 1
            result = plane(i, j, fab, floor)
            assert floor is not None or not result[1]
            return listed(result)

        return counted

    def comprehension(*args):
        plane = real_comprehension(*args)

        def counted(i, j, fab, floor=None):
            calls["comprehended"] += 1
            result = plane(i, j, fab, floor)
            assert not result[1]
            return listed(result)

        return counted

    def mirrored(*args):
        result = real_mirrored(*args)
        calls["mirrored"] += 1
        return listed(result)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(levelset, "plane_evaluator", spy)
        mp.setattr(checks, "_plane_comprehension", comprehension)
        mp.setattr(checks, "_mirrored", mirrored)
        yield calls


def _mirrors(problem, plan, plan_b) -> bool:
    """Whether the kernel should mirror planes: one sample on both axes,
    bit for bit, the usual metric and an F table of floats equal to its
    transpose (a NaN cell equals nothing).  The cases drawn here have no
    NaN distance."""
    xv = sample_values(problem.subset_a, plan)
    yv = sample_values(problem.subset_b, plan_b or plan)
    if problem.space.metric is not _usual_real or list(map(repr, xv)) != list(map(repr, yv)):
        return False
    f = problem.coupling.fn
    cells = [(f(x, y), f(y, x)) for x in xv for y in xv]
    return all(type(w) is float and w == w_t for w, w_t in cells)


def _assert_plane_counts(calls, problem, plan, plan_b) -> None:
    """Every plane is evaluated once or mirrored.  A mirrored scan of n
    points per axis evaluates the n(n + 1)/2 planes (i, j) with j >= i and
    mirrors the other n(n - 1)/2; any other scan evaluates all n_a * n_b
    planes."""
    na = len(sample_values(problem.subset_a, plan))
    nb = len(sample_values(problem.subset_b, plan_b or plan))
    evaluated = calls["planes"] + calls["comprehended"]
    if _mirrors(problem, plan, plan_b):
        assert calls["mirrored"] == na * (na - 1) // 2
        assert evaluated == na * (na + 1) // 2
    else:
        assert calls["mirrored"] == 0
        assert evaluated == na * nb


@contextmanager
def level_set_forbidden():
    def refuse(*args):
        raise AssertionError("the level-set path was taken")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(levelset, "plane_evaluator", refuse)
        yield


LEVEL_COUPLINGS = {
    **COUPLINGS,
    "plateau": lambda x, y: min(max(x + y, 0.5), 1.5),
    "negative_zero": lambda x, y: -0.0 * x if x < 1 else 0.5,
    "steep": lambda x, y: 3 * x - y,
    # not monotone along the rows and columns of a strong problem's sorted grid
    "tent": lambda x, y: abs(x - y) / 2 + 0.25,
    # 0.0 and -0.0 side by side on lines that are monotone all the same;
    # equal to its transpose under ==, so a scan on one sample mirrors it
    "signed_zeros": lambda x, y: (-0.0 if x < y else 0.0) if x + y < 1 else x + y - 1,
    # symmetric except at (0, 1)
    "one_cell": lambda x, y: (x + y) / 2 + (0.25 if x == 0.0 and y == 1.0 else 0.0),
}
LEVEL_SELF_MAPS = {
    **SELF_MAPS,
    "constant": lambda x: 0.5,
    "two_valued": lambda x: 2.0 if x < 1 else 0.0,
}
LEVEL_SUBSETS = st.one_of(
    st.lists(st.sampled_from(GRID_VALUES), min_size=1, max_size=6).map(SubsetSpec.from_values),
    st.sampled_from([(0.0, 1.0), (0.0, 2.0), (0.5, 1.5)]).map(
        lambda iv: SubsetSpec.from_intervals([Interval(*iv)])
    ),
)
PLANS_A = st.builds(SamplePlan, grid_count=st.integers(2, 11), jitter_count=st.integers(0, 1),
                    seed=st.integers(0, 50))
PLANS_B = st.builds(SamplePlan, grid_count=st.integers(2, 6), jitter_count=st.integers(0, 1),
                    seed=st.integers(0, 50))


def _assert_level_path_used(calls, problem, plan, plan_b):
    assert problem.space.metric is _usual_real
    na = len(sample_values(problem.subset_a, plan))
    nb = len(sample_values(problem.subset_b, plan_b or plan))
    assert calls["built"] == 1
    assert 1 <= calls["planes"] <= na * nb
    assert calls["comprehended"] == 0
    _assert_plane_counts(calls, problem, plan, plan_b)


@given(
    slope=st.integers(1, 3),
    a=LEVEL_SUBSETS,
    b=st.one_of(st.none(), LEVEL_SUBSETS),  # None: B is A
    f=st.sampled_from(sorted(LEVEL_COUPLINGS)),
    t=st.sampled_from(sorted(LEVEL_SELF_MAPS)),
    plan=PLANS_A,
    plan_b=st.one_of(st.none(), PLANS_B),
    tol=TOLS,
)
@settings(max_examples=150, deadline=None)
def test_phi_T_level_set_path_matches_naive_loop(slope, a, b, f, t, plan, plan_b, tol):
    phi = make_linear(Fraction(slope, 4))
    problem = CoincidenceProblem(
        space=MetricSpace.real_line(-1.0, 3.0),
        subset_a=a,
        subset_b=a if b is None else b,
        coupling=CouplingMap.from_function(LEVEL_COUPLINGS[f]),
        self_map=SelfMap.from_function(LEVEL_SELF_MAPS[t]),
        phi=phi,
    )
    with level_set_spy() as calls:
        _same_outcome(
            lambda: check_phi_T_contraction(problem, plan, tol, plan_b),
            lambda: naive_contraction(
                "phi_T_contraction", problem, problem.self_map.evaluate,
                lambda t: t, lambda m: eval_control(phi, m), plan, tol, plan_b,
            ),
        )
    _assert_level_path_used(calls, problem, plan, plan_b)


@given(
    phi_slope=st.sampled_from([Fraction(1, 2), Fraction(1, 10), Fraction(1)]),
    a=LEVEL_SUBSETS,
    b=st.one_of(st.none(), LEVEL_SUBSETS),  # None: B is A
    f=st.sampled_from(sorted(LEVEL_COUPLINGS)),
    plan=PLANS_A,
    plan_b=st.one_of(st.none(), PLANS_B),
    tol=TOLS,
)
# rows such as [0.0, -0.0, -0.0, -0.0, 0.0]: monotone, so the extremes of a
# strip are read from its end cells, and either zero may stand for both;
# F equals its transpose under == only, and its planes are mirrored
@example(phi_slope=Fraction(1, 2), a=SubsetSpec.from_intervals([Interval(0.0, 1.0)]),
         b=SubsetSpec.from_intervals([Interval(0.0, 1.0)]), f="signed_zeros",
         plan=SamplePlan(5), plan_b=SamplePlan(5), tol=0.0)
# the same with a jittered sample, on which the kernel fails
@example(phi_slope=Fraction(1, 10), a=SubsetSpec.from_intervals([Interval(0.0, 1.0)]),
         b=None, f="signed_zeros", plan=SamplePlan(6, 1, 3), plan_b=None, tol=1e-9)
# one sample whose two axes are built from different subsets
@example(phi_slope=Fraction(1, 10), a=SubsetSpec.from_values([0.0, 0.5, 1.0]),
         b=SubsetSpec.from_intervals([Interval(0.0, 1.0)]), f="mid",
         plan=SamplePlan(3), plan_b=None, tol=1e-9)
@settings(max_examples=150, deadline=None)
def test_phi_psi_level_set_path_matches_naive_loop(phi_slope, a, b, f, plan, plan_b, tol):
    phi = with_declared_class(make_linear(phi_slope), ControlClass.ALTERING)
    psi = identity_control()
    problem = _strong_problem(MetricSpace.real_line(-1.0, 3.0), a, a if b is None else b,
                              CouplingMap.from_function(LEVEL_COUPLINGS[f]), phi, psi)
    with level_set_spy() as calls:
        _same_outcome(
            lambda: check_phi_psi_contraction(problem, plan, tol, plan_b),
            lambda: _naive_phi_psi(problem, plan, tol, plan_b),
        )
    _assert_level_path_used(calls, problem, plan, plan_b)


def _strong_problem(space, a, b, coupling, phi, psi):
    return StrongCoupledProblem(
        space=space, subset_a=a, subset_b=b, coupling=coupling, phi=phi, psi=psi
    )


def _naive_phi_psi(problem, plan, tol, plan_b=None):
    phi, psi = problem.phi, problem.psi
    return naive_contraction(
        "phi_psi_contraction", problem, lambda p: p,
        lambda t: eval_control(psi, t),
        lambda m: eval_control(psi, m) - eval_control(phi, m),
        plan, tol, plan_b,
    )


def _coincidence_problem(coupling):
    return CoincidenceProblem(
        space=MetricSpace.real_line(-1.0, 3.0), subset_a=UNIT, subset_b=UNIT,
        coupling=coupling, self_map=SelfMap.from_function(lambda x: x / 2),
        phi=make_linear(Fraction(1, 2)),
    )


HALF = with_declared_class(make_linear(Fraction(1, 2)), ControlClass.ALTERING)
UNIT = SubsetSpec.from_intervals([Interval(0.0, 1.0)])
MID = CouplingMap.from_function(lambda x, y: (x + y) / 2)
FALLBACKS = {
    "custom_metric": lambda: _strong_problem(
        MetricSpace.real_line(-1.0, 3.0, metric=lambda a, b: (a - b) ** 2),
        UNIT, UNIT, MID, HALF, identity_control(),
    ),
    "label_space": lambda: _strong_problem(
        MetricSpace.finite(["a", "b", "c"]),
        SubsetSpec.from_values(["a", "b"]), SubsetSpec.from_values(["b", "c"]),
        CouplingMap.from_function(lambda x, y: "b" if x == y else "a"),
        HALF, identity_control(),
    ),
    "non_identity_psi": lambda: _strong_problem(
        MetricSpace.real_line(-1.0, 3.0), UNIT, UNIT, MID, HALF,
        with_declared_class(make_linear(Fraction(3, 2)), ControlClass.ALTERING),
    ),
    # phi-T, since the oracle's identity psi raises at a NaN or infinite
    # distance; a bare map skips the finiteness check of Point.real
    "nan_in_table": lambda: _coincidence_problem(
        CouplingMap(lambda x, y: math.nan if x > 0.5 else x),
    ),
    "inf_in_table": lambda: _coincidence_problem(
        CouplingMap(lambda x, y: math.inf if y > 0.5 else y),
    ),
    # psi(M) - phi(M) = M - M**2 falls for M > 1/2, which [0, 2] samples
    "non_monotone_right": lambda: _strong_problem(
        MetricSpace.real_line(-1.0, 3.0), UNIT,
        SubsetSpec.from_intervals([Interval(0.0, 2.0)]), MID,
        with_declared_class(make_power(2), ControlClass.ALTERING), identity_control(),
    ),
    # a symmetric F on one sample: the comprehension mirrors planes
    "power_psi": lambda: _strong_problem(
        MetricSpace.real_line(-1.0, 3.0), UNIT, UNIT, MID, HALF,
        with_declared_class(make_power(2), ControlClass.ALTERING),
    ),
    # an identity psi on a table of ints, whose distances are ints: psi
    # makes each lhs a float, as the naive loop's, so it is not skipped
    "int_cells_psi": lambda: _strong_problem(
        MetricSpace.real_line(-1.0, 3.0), UNIT, UNIT,
        CouplingMap(lambda x, y: int(x + y >= 1) if x < y else float(x + y >= 1)),
        HALF, identity_control(),
    ),
    # symmetric but for a NaN on the diagonal, which equals nothing: no mirror
    "nan_cell": lambda: _coincidence_problem(
        CouplingMap(lambda x, y: math.nan if x == y == 0.5 else (x + y) / 2),
    ),
}


@pytest.mark.parametrize("tol", [1e-9, -0.1])
@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_contraction_falls_back_to_the_plane_comprehension(case, tol):
    problem = FALLBACKS[case]()
    plan = SamplePlan(5, 1, 3)
    if problem.kind == "coincidence":
        fast = lambda: check_phi_T_contraction(problem, plan, tol)  # noqa: E731
        naive = lambda: naive_contraction(  # noqa: E731
            "phi_T_contraction", problem, problem.self_map.evaluate,
            lambda t: t, lambda m: eval_control(problem.phi, m), plan, tol,
        )
    else:
        fast = lambda: check_phi_psi_contraction(problem, plan, tol)  # noqa: E731
        naive = lambda: _naive_phi_psi(problem, plan, tol)  # noqa: E731
    with level_set_spy() as calls, level_set_forbidden():
        _same_outcome(fast, naive)
    assert calls["planes"] == 0
    _assert_plane_counts(calls, problem, plan, None)


def test_banach_linear_check_at_grid_81_sends_no_plane_to_the_comprehension(tmp_path, capsys):
    argv = ["check", "banach-linear", "--samples", "81", "--jitter", "2",
            "--json", str(tmp_path / "report.json")]
    with level_set_spy() as calls:
        assert main(argv) == 0
    capsys.readouterr()
    assert calls["built"] == 1
    # stride 3 keeps 28 of 83 points per axis, and F is symmetric: the 406
    # planes (i, j) with j >= i are swept and the other 378 mirrored
    assert calls["planes"] == 28 * 29 // 2
    assert calls["mirrored"] == 28 * 27 // 2
    assert calls["comprehended"] == 0
    assert calls["violating"] == 0


# ---------------------------------------------------------------------------
# failing planes on the level-set path


def _contraction_checks(problem, plan, tol, plan_b):
    """The kernel's check of ``problem`` and the naive loop it must equal."""
    if problem.kind == "coincidence":
        return (
            lambda: check_phi_T_contraction(problem, plan, tol, plan_b),
            lambda: naive_contraction(
                "phi_T_contraction", problem, problem.self_map.evaluate,
                lambda t: t, lambda m: eval_control(problem.phi, m), plan, tol, plan_b,
            ),
        )
    return (lambda: check_phi_psi_contraction(problem, plan, tol, plan_b),
            lambda: _naive_phi_psi(problem, plan, tol, plan_b))


def _failing_problem(strong, f, t, slope, a, b=None):
    """A problem on the usual metric whose contraction check the level-set
    path takes, with a small phi slope so that violations abound.  B is A
    when ``b`` is None."""
    space = MetricSpace.real_line(-1.0, 3.0)
    b = a if b is None else b
    coupling = CouplingMap.from_function(LEVEL_COUPLINGS[f])
    if strong:
        phi = with_declared_class(make_linear(slope), ControlClass.ALTERING)
        return _strong_problem(space, a, b, coupling, phi, identity_control())
    return CoincidenceProblem(space=space, subset_a=a, subset_b=b, coupling=coupling,
                              self_map=SelfMap.from_function(LEVEL_SELF_MAPS[t]),
                              phi=make_linear(slope))


FAILING_PROBLEMS = st.builds(
    _failing_problem,
    strong=st.booleans(),
    f=st.sampled_from(sorted(LEVEL_COUPLINGS)),
    t=st.sampled_from(sorted(LEVEL_SELF_MAPS)),
    slope=st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]),
    a=LEVEL_SUBSETS,
    b=st.one_of(st.none(), LEVEL_SUBSETS),
)


@given(
    problem=FAILING_PROBLEMS,
    plan=PLANS_A,
    plan_b=st.one_of(st.none(), PLANS_B),
    tol=TOLS,
    cap=st.sampled_from([0, 1, 7]),
)
@example(problem=build_problem(builtin_registry("negative-midpoint")), plan=SamplePlan(21),
         plan_b=None, tol=1e-9, cap=7)
@example(problem=build_problem(builtin_registry("example-2.1.9")), plan=SamplePlan(11),
         plan_b=SamplePlan(21), tol=-0.01, cap=7)
# hits that are not symmetric in (i2, j2), to tell the scan index j2 * n_a + i2 apart
@example(problem=_failing_problem(False, "first", "clip", Fraction(1, 10), UNIT, UNIT),
         plan=SamplePlan(2), plan_b=None, tol=1e-9, cap=0)
# a monotone line whose failing strip of two cells is all hits: the first
# walk reaches the strip's end and the second has nothing left to test
@example(problem=_failing_problem(True, "steep", "clip", Fraction(1, 10), UNIT, UNIT),
         plan=SamplePlan(2), plan_b=None, tol=1e-9, cap=7)
# right + tol < 0 at small distances, and strips whose two walks meet at
# their one passing cell
@example(problem=_failing_problem(True, "first", "clip", Fraction(1, 10), UNIT, UNIT),
         plan=SamplePlan(3), plan_b=None, tol=-0.1, cap=7)
# lines that are not monotone: failing strips are scanned whole
@example(problem=_failing_problem(True, "tent", "clip", Fraction(1, 10), UNIT, UNIT),
         plan=SamplePlan(5), plan_b=None, tol=1e-9, cap=7)
# on negative-midpoint at grid 7, plane (0, 1) holds violations 8-13 and
# its mirror (1, 0) violations 24-29: a cap inside the first, whose mirror
# is then swept again to be counted, and a cap inside the mirror
@example(problem=build_problem(builtin_registry("negative-midpoint")), plan=SamplePlan(7),
         plan_b=None, tol=1e-9, cap=10)
@example(problem=build_problem(builtin_registry("negative-midpoint")), plan=SamplePlan(7),
         plan_b=None, tol=1e-9, cap=27)
# F symmetric except one cell: every plane is swept
@example(problem=_failing_problem(True, "one_cell", "clip", Fraction(1, 10), UNIT, UNIT),
         plan=SamplePlan(5), plan_b=None, tol=1e-9, cap=7)
# mirrored planes on a jittered sample, read back from the log below the cap
@example(problem=_failing_problem(False, "mid", "half", Fraction(1, 10), UNIT),
         plan=SamplePlan(6, 1, 4), plan_b=None, tol=1e-9, cap=100_000)
# counted planes: signed zeros on monotone lines, and kept profiles of a
# two-valued T, whose failing planes are swept again to be counted
@example(problem=_failing_problem(True, "signed_zeros", "clip", Fraction(1, 10), UNIT, UNIT),
         plan=SamplePlan(9), plan_b=None, tol=0.0, cap=0)
@example(problem=_failing_problem(False, "steep", "two_valued", Fraction(1, 4), UNIT,
                                  SubsetSpec.from_intervals([Interval(0.0, 2.0)])),
         plan=SamplePlan(7), plan_b=SamplePlan(6), tol=1e-9, cap=1)
@settings(max_examples=150, deadline=None)
def test_failing_level_set_planes_match_naive_loop(problem, plan, plan_b, tol, cap):
    """Every plane takes the level-set path, failing ones included, and the
    report equals the naive loop's under a small recording cap."""
    fast, naive = _contraction_checks(problem, plan, tol, plan_b)
    with level_set_spy() as calls, pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "MAX_RECORDED_VIOLATIONS", cap)
        _same_outcome(fast, naive)
    assert calls["built"] == 1
    assert calls["comprehended"] == 0
    _assert_plane_counts(calls, problem, plan, plan_b)


def test_negative_midpoint_check_at_grid_81_sends_no_plane_to_the_comprehension(tmp_path, capsys):
    argv = ["check", "negative-midpoint", "--samples", "81", "--jitter", "2",
            "--json", str(tmp_path / "report.json")]
    with level_set_spy() as calls:
        assert main(argv) == 1
    capsys.readouterr()
    assert calls["built"] == 1
    # as for banach-linear: 406 planes swept and 378 mirrored, each mirror
    # from what its source listed.  The check lists only what the output
    # reads, so once the first plane has listed its 153 violations every
    # other failing plane is counted, and they list 58 more in all.
    assert calls["planes"] == 28 * 29 // 2
    assert calls["mirrored"] == 28 * 27 // 2
    assert calls["comprehended"] == 0
    assert (calls["violating"], calls["counted"]) == (782, 781)
    assert sum(calls["held"]) == 42964
    assert calls["listed"][0] == 153 and sum(calls["listed"]) == 211


@pytest.mark.parametrize("cap", [3, 7, 100])
@pytest.mark.parametrize("name", ["negative-midpoint", "tent-strong.yaml"])
def test_failing_level_set_planes_past_the_cap_are_counted(name, cap):
    """Once the report holds the cap's largest violations, planes are
    counted instead of listed: no floor is set before, so the plane that
    straddles the cap is listed whole, and the report equals the naive
    loop's.  tent-strong's lines are not monotone."""
    if name.endswith(".yaml"):
        doc = parse_problem((Path(__file__).parent / name).read_text(), name)
    else:
        doc = builtin_registry(name)
    fast, naive = _contraction_checks(build_problem(doc), SamplePlan(9), 1e-9, None)
    with level_set_spy() as calls, pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "MAX_RECORDED_VIOLATIONS", cap)
        _same_outcome(fast, naive)
    held, listed = calls["held"], calls["listed"]
    before = [sum(held[:k]) for k in range(len(held))]
    assert any(b < max(cap, 1) < b + n == b + m for b, n, m in zip(before, held, listed))
    assert calls["counted"] > 0
    # both maps are symmetric: a failing mirror past the cap takes its
    # source's count and listed violations, and is not swept
    _assert_plane_counts(calls, build_problem(doc), SamplePlan(9), None)


def _document_problem(name):
    if name.endswith(".yaml"):
        return build_problem(parse_problem((Path(__file__).parent / name).read_text(), name))
    return build_problem(builtin_registry(name))


@pytest.mark.parametrize("name, mirrored", [
    ("banach-linear", True), ("negative-midpoint", True), ("tent-strong.yaml", True),
    ("inverse-coincidence.yaml", True), ("example-2.1.9", False), ("expr-minmax.yaml", False),
])
def test_symmetric_maps_on_one_sample_mirror_their_planes(name, mirrored):
    """F is symmetric and A = B in the first four documents: of the 21 * 21
    planes at grid 21, the 231 with j >= i are evaluated and the other 210
    mirrored.  example-2.1.9 has two subsets, and expr-minmax's F is not
    symmetric: every plane is evaluated (expr-minmax's expression psi takes
    the comprehension)."""
    problem = _document_problem(name)
    fast, _ = _contraction_checks(problem, SamplePlan(21), 1e-9, None)
    with level_set_spy() as calls:
        fast()
    evaluated = calls["planes"] + calls["comprehended"]
    if mirrored:
        assert (evaluated, calls["mirrored"]) == (21 * 22 // 2, 21 * 20 // 2)
    else:
        nb = len(sample_values(problem.subset_b, SamplePlan(21)))
        assert (evaluated, calls["mirrored"]) == (21 * nb, 0)
    assert calls["comprehended"] == (evaluated if name == "expr-minmax.yaml" else 0)


NOT_MIRRORED = {
    # A = {0.0, 1.0} and B = {-0.0, 1.0} are equal under ==, not bit for bit
    "signed_zero_sample": lambda: _strong_problem(
        MetricSpace.real_line(-1.0, 3.0), SubsetSpec.from_values([0.0, 0.5, 1.0]),
        SubsetSpec.from_values([-0.0, 0.5, 1.0]), MID, HALF, identity_control(),
    ),
    # F(x, y) == F(y, x), but an int on one side and a float on the other,
    # so a lhs of 0 would be recorded as 0.0 on the mirrored side (phi-T;
    # FALLBACKS["int_cells_psi"] is the phi-psi case)
    "int_cells": lambda: _coincidence_problem(
        CouplingMap(lambda x, y: int(x + y >= 1) if x < y else float(x + y >= 1)),
    ),
}


@pytest.mark.parametrize("tol", [1e-9, -0.1])
@pytest.mark.parametrize("case", sorted(NOT_MIRRORED))
def test_maps_symmetric_only_under_equality_are_not_mirrored(case, tol):
    problem = NOT_MIRRORED[case]()
    plan = SamplePlan(5)
    fast, naive = _contraction_checks(problem, plan, tol, None)
    with level_set_spy() as calls:
        _same_outcome(fast, naive)
    assert calls["mirrored"] == 0
    assert calls["planes"] + calls["comprehended"] == (9 if case == "signed_zero_sample" else 25)


def test_nan_distances_are_not_mirrored():
    """With a NaN distance, which of d1 and d2 counts as M depends on their
    order (NaN >= m and m >= NaN are both false), so a plane and its mirror
    differ.  The checks' controls raise at NaN, so the kernel is entered
    with a right that takes it."""
    problem = CoincidenceProblem(
        space=MetricSpace.real_line(-1.0, 3.0), subset_a=UNIT, subset_b=UNIT, coupling=MID,
        self_map=SelfMap(lambda x: math.nan if x == 0.5 else x), phi=make_linear(Fraction(1, 2)),
    )

    def right(m):
        return 0.0 if m != m else m / 2

    plan = SamplePlan(5)
    with level_set_spy() as calls:
        _same_outcome(
            lambda: checks._contraction_scan("phi_T_contraction", problem, problem.self_map,
                                             None, right, plan, 1e-9, None,
                                             DEFAULT_QUADRUPLE_BUDGET),
            lambda: naive_contraction("phi_T_contraction", problem, problem.self_map.evaluate,
                                      lambda t: t, right, plan, 1e-9),
        )
    assert calls["mirrored"] == 0
    assert calls["comprehended"] == 25


MIRRORED_CAP_PROBLEMS = {
    "negative-midpoint": lambda: _document_problem("negative-midpoint"),
    "tent-strong.yaml": lambda: _document_problem("tent-strong.yaml"),
    "power_psi": FALLBACKS["power_psi"],
}


def _cap_inside(problem, plan, inside: str) -> int:
    """A recording cap strictly inside the violations of the first plane
    (i, j) that holds two or more, with j > i for a ``source`` plane and
    j < i for a ``mirrored`` one."""
    at = {v: k for k, v in enumerate(sample_values(problem.subset_a, plan))}
    # the violating planes (i, j) of the uncapped log, in scan order
    planes = Counter((at[v.witness[1]], at[v.witness[2]])
                     for v in _contraction_checks(problem, plan, 1e-9, None)[1]().violations)
    before = 0
    for (i, j), n in planes.items():
        if n >= 2 and (j > i if inside == "source" else j < i):
            return before + 1
        before += n
    raise AssertionError("no such plane")


@pytest.mark.parametrize("inside", ["source", "mirrored"])
@pytest.mark.parametrize("name", sorted(MIRRORED_CAP_PROBLEMS))
def test_a_cap_inside_a_source_or_a_mirrored_plane_matches_naive_loop(name, inside):
    """A recording cap that falls strictly inside the violations of a plane
    (i, j) with j > i or inside those of its mirror (j, i): the report
    equals the naive loop's, on both level-set kinds of line and on the
    comprehension (a power psi).  A mirror takes what its source listed,
    so no mirror is swept."""
    problem = MIRRORED_CAP_PROBLEMS[name]()
    plan = SamplePlan(7)
    fast, naive = _contraction_checks(problem, plan, 1e-9, None)
    with level_set_spy() as calls, pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "MAX_RECORDED_VIOLATIONS", _cap_inside(problem, plan, inside))
        _same_outcome(fast, naive)
    _assert_plane_counts(calls, problem, plan, None)


@pytest.mark.parametrize("keep", [1, 5])
@pytest.mark.parametrize("inside", ["source", "mirrored"])
@pytest.mark.parametrize("name", sorted(MIRRORED_CAP_PROBLEMS))
def test_a_cap_inside_a_plane_lists_the_full_logs_worst(name, inside, keep):
    """The same caps for a check that lists only its ``keep`` worst, on
    both level-set kinds of line and on the comprehension: no mirror is
    swept, and no plane is swept twice."""
    problem = MIRRORED_CAP_PROBLEMS[name]()
    plan = SamplePlan(7)
    cap = _cap_inside(problem, plan, inside)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "MAX_RECORDED_VIOLATIONS", cap)
        outcomes = _full_and_kept(problem, plan, 1e-9, None, keep)
    _assert_lists_the_worst(*outcomes[:3], keep, cap)
    _assert_plane_counts(outcomes[3], problem, plan, None)


def _full_and_kept(problem, plan, tol, plan_b, keep) -> tuple:
    """The contraction check of ``problem`` listing every violation (a cap
    of 10**9), then without ``keep``, then, under a ``level_set_spy``, with
    ``keep``, and the spy's counts of the last.  A check that raises gives
    the exception's type."""
    check = check_phi_T_contraction if problem.kind == "coincidence" else check_phi_psi_contraction

    def outcome(**kw):
        try:
            return check(problem, plan, tol, plan_b, **kw)
        except Exception as exc:  # noqa: BLE001 - the type is what is compared
            return type(exc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "MAX_RECORDED_VIOLATIONS", 10**9)
        complete = outcome()
    full = outcome()
    with level_set_spy() as calls:
        kept = outcome(keep=keep)
    return complete, full, kept, calls


def _assert_lists_the_worst(complete, full, kept, keep, cap) -> None:
    """The check without ``keep`` lists the ``max(cap, 1)`` largest of
    every violation, and with it the ``keep`` largest, ties in scan order
    (``k_largest``), or all three raise the same exception type.  Both
    keep the exact count, margin, samples and details, with the
    violations past the cap counted as dropped, and list what
    ``to_dict(keep)`` of every violation lists."""
    if isinstance(complete, type):
        assert full is kept is complete
        return
    every = list(complete.violations)
    assert "violations_dropped" not in complete.details
    dropped = len(every) - max(cap, 1)
    details = {**complete.details, **({"violations_dropped": dropped} if dropped > 0 else {})}
    for got, k in ((full, max(cap, 1)), (kept, keep)):
        assert repr(list(got.violations)) == repr(k_largest(every, k))
        assert (got.violation_count, repr(got.max_margin), got.samples_tested) == (
            len(every), repr(complete.max_margin), complete.samples_tested)
        assert repr(got.details) == repr(details)
    assert repr(kept.violations.largest(keep)) == repr(complete.violations.largest(keep))
    assert repr(kept.violations.largest(1)) == repr(complete.violations.largest(1))


@given(
    problem=FAILING_PROBLEMS,
    plan=PLANS_A,
    plan_b=st.one_of(st.none(), PLANS_B),
    tol=TOLS,
    cap=st.sampled_from([0, 1, 3, 7, 100_000]),
    keep=st.sampled_from([1, 2, 5]),
)
@example(problem=build_problem(builtin_registry("negative-midpoint")), plan=SamplePlan(21),
         plan_b=None, tol=1e-9, cap=7, keep=5)
@example(problem=_failing_problem(True, "tent", "clip", Fraction(1, 10), UNIT, UNIT),
         plan=SamplePlan(5), plan_b=None, tol=1e-9, cap=3, keep=2)
# caps inside plane (0, 1) and inside its mirror (1, 0), as above
@example(problem=build_problem(builtin_registry("negative-midpoint")), plan=SamplePlan(7),
         plan_b=None, tol=1e-9, cap=10, keep=1)
@example(problem=build_problem(builtin_registry("negative-midpoint")), plan=SamplePlan(7),
         plan_b=None, tol=1e-9, cap=27, keep=2)
# kept profiles of a two-valued T, swept again when they fail
@example(problem=_failing_problem(False, "steep", "two_valued", Fraction(1, 4), UNIT,
                                  SubsetSpec.from_intervals([Interval(0.0, 2.0)])),
         plan=SamplePlan(7), plan_b=SamplePlan(6), tol=1e-9, cap=1, keep=5)
@settings(max_examples=150, deadline=None)
def test_keep_mode_lists_the_full_logs_worst(problem, plan, plan_b, tol, cap, keep):
    """Every level-set problem of the failing differentials, with a check
    that lists only its ``keep`` worst violations, under small caps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "MAX_RECORDED_VIOLATIONS", cap)
        *outcomes, calls = _full_and_kept(problem, plan, tol, plan_b, keep)
    _assert_lists_the_worst(*outcomes, keep, cap)
    assert calls["comprehended"] == 0
    _assert_plane_counts(calls, problem, plan, plan_b)


@pytest.mark.parametrize("cap", [0, 1, 3, 7, 100_000])
@pytest.mark.parametrize("name", [*registry_names(), "tent-strong.yaml"])
def test_documents_list_the_full_logs_worst(name, cap):
    """Each builtin and tests/tent-strong.yaml at grid 21 (stride 1) and
    grid 81 (stride 3, with jitter), listing its worst 1, 2 or 5."""
    problem = _document_problem(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "MAX_RECORDED_VIOLATIONS", cap)
        for plan, keep in ((SamplePlan(21), 1), (SamplePlan(21), 2), (SamplePlan(81, 2, 5), 5)):
            _assert_lists_the_worst(*_full_and_kept(problem, plan, 1e-9, None, keep)[:3], keep,
                                    cap)


@pytest.mark.parametrize("name, built", [
    ("example-2.1.9", 42), ("tent-strong.yaml", 52), ("banach-linear", 0),
    ("negative-midpoint", 0),
])
def test_sparse_tables_are_built_for_lines_that_are_not_monotone(name, built, tmp_path,
                                                                 capsys):
    """A monotone line reads a strip's extremes off its end cells, so only
    the other lines of the 28 + 28 get sparse tables, each once."""
    real, lines = levelset._sparse_tables, []

    def spy(values):
        lines.append(values)
        return real(values)

    doc = str(Path(__file__).parent / name) if name.endswith(".yaml") else name
    argv = ["check", doc, "--samples", "81", "--jitter", "2",
            "--json", str(tmp_path / "report.json")]
    with level_set_spy() as calls, pytest.MonkeyPatch.context() as mp:
        mp.setattr(levelset, "_sparse_tables", spy)
        main(argv)
    capsys.readouterr()
    assert calls["built"] == 1
    assert len(lines) == built
    assert len({id(line) for line in lines}) == built
    for line in lines:
        assert not all(map(le, line, line[1:])) and not all(map(ge, line, line[1:]))


def test_failing_contraction_report_stays_compact():
    """The report of a check with tens of thousands of violations keeps
    them in arrays, not as tuples."""
    problem = build_problem(builtin_registry("negative-midpoint"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = check_phi_psi_contraction(problem, SamplePlan(81, 2, 3))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert got.violation_count == len(got.violations) == 43132
    assert held < 2_000_000


def test_command_line_contraction_report_holds_five_violations():
    """The command line reads five violations of a check, and its
    contraction check holds no more."""
    problem = build_problem(builtin_registry("negative-midpoint"))
    settings = dataclasses.replace(builtin_registry("negative-midpoint").check,
                                   plan=SamplePlan(81, 2, 3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = dict(run_checks(problem, settings))["contraction"]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert got.violation_count == 43132
    assert len(got.violations) == MAX_JSON_VIOLATIONS == 5
    assert held < 50_000


def test_command_line_checks_hold_five_violations_each():
    """Every check of the command line holds the five violations it prints,
    with the exact count: at grid 201 the coupling, self-map and range
    checks of escaping-coupling.yaml see 43,677, 251 and 74,008."""
    doc = parse_problem(Path(__file__).with_name("escaping-coupling.yaml").read_text(),
                        "escaping-coupling.yaml")
    settings = dataclasses.replace(doc.check, plan=SamplePlan(201, 1, 3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = dict(run_checks(build_problem(doc), settings))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    counts = {slot: r.violation_count for slot, r in got.items()}
    assert counts == {"space": 0, "phi": 0, "coupling": 43677, "self_map": 251,
                      "range": 74008, "contraction": 0}
    assert all(len(r.violations) == min(counts[slot], 5) for slot, r in got.items())
    # the reports, and the image tables the problem's T keeps
    assert held < 1_000_000


# ---------------------------------------------------------------------------
# bulk violation recording


RESIDUAL_VALUES = st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0, math.inf, -math.inf, 0.1 + 0.2])


def naive_recording(batches, cap):
    """The report of one recording step per violation: every violation is
    counted, and the ``max(cap, 1)`` largest are listed in scan order
    (``k_largest``), those past the cap counted as dropped."""
    every = [Violation(("w", b, k), lhs, rhs, lhs - rhs)
             for b, batch in enumerate(batches) for k, (lhs, rhs) in enumerate(batch)]
    dropped = len(every) - max(cap, 1)
    details = {"violations_dropped": dropped} if dropped > 0 else {}
    return CheckReport("bulk", len(every), k_largest(every, max(cap, 1)), None,
                       "fail" if every else "pass", details)


@given(
    batches=st.lists(
        st.lists(st.tuples(RESIDUAL_VALUES, RESIDUAL_VALUES), max_size=6), max_size=6
    ),
    cap=st.sampled_from([None, 1, 3, 7]),
)
# a NaN residual (inf - inf) ahead of the worst one in its batch
@example(batches=[[(1.0, 0.0)], [(math.inf, math.inf), (2.0, 0.0)]], cap=1)
@settings(max_examples=200, deadline=None)
def test_bulk_recording_matches_one_call_per_violation(batches, cap):
    def built(bulk):
        rb = ReportBuilder("bulk", 0.0)
        for b, batch in enumerate(batches):
            witnesses = [("w", b, k) for k in range(len(batch))]
            lhs = [l for l, _ in batch]
            rhs = [r for _, r in batch]
            if bulk:
                rb.add_violations(witnesses, lhs, rhs)
            else:
                for w, l, r in zip(witnesses, lhs, rhs):
                    rb.add_violation(w, l, r)
        return rb.build()

    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(report, "MAX_RECORDED_VIOLATIONS", cap)
        want = repr(naive_recording(batches, report.MAX_RECORDED_VIOLATIONS))
        assert repr(built(True)) == want
        assert repr(built(False)) == want


def test_first_of_tied_worst_violations_survives_truncation():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "MAX_RECORDED_VIOLATIONS", 1)
        rb = ReportBuilder("ties", 0.0)
        rb.add_violations([("a",), ("b",), ("c",)], [1.0, 3.0, 3.0], [0.0, 0.0, 0.0])
        rb.add_violations([("d",)], [3.0], [0.0])
        built = rb.build()
    assert [v.witness for v in built.violations] == [("b",)]
    assert built.details["violations_dropped"] == 3
    assert built.samples_tested == 4


# ---------------------------------------------------------------------------
# multi-start verdict


@given(
    candidates=st.lists(
        st.one_of(
            st.sampled_from([0.5, 0.5 + 1e-8, 0.5 - 1e-8, 0.5 + 5e-9, 1.0, 1e-300]),
            st.floats(-2.0, 2.0),
        ),
        max_size=6,
    ),
    failed=st.integers(0, 2),
)
@example(candidates=[5e-9, 0.0, 10 * 1e-9], failed=1)  # widest pair exactly 10 * tol
@settings(max_examples=200, deadline=None)
def test_multi_start_verdict_matches_pairwise_rule(candidates, failed):
    opts = SolveOptions()
    runs = [
        SolveReport(SolveStatus.CONVERGED, (Point(c), Point(c)), {}, 1) for c in candidates
    ] + [SolveReport(SolveStatus.MAX_ITER_EXCEEDED, None, {}, 1)] * failed
    problem = StrongCoupledProblem(
        space=MetricSpace.real_line(-3.0, 3.0),
        subset_a=SubsetSpec.from_values([0.0]),
        subset_b=SubsetSpec.from_values([0.0]),
        coupling=CouplingMap.from_function(min),
        phi=with_declared_class(make_linear(Fraction(1, 2)), ControlClass.ALTERING),
        psi=identity_control(),
    )
    queue = list(runs)
    saved = solve.iterate_strong_coupled
    solve.iterate_strong_coupled = lambda *args: (queue.pop(0), None)
    try:
        reports = [
            solve.iterate_strong_coupled(problem, sx, sy, opts)[0]
            for sx, sy in [(Point(0.0), Point(0.0))] * len(runs)
        ]
    finally:
        solve.iterate_strong_coupled = saved
    verdict = solve.multi_start_verdict(problem, reports, opts)
    pairwise = all(
        abs(a - b) <= 10 * opts.tol for i, a in enumerate(candidates) for b in candidates[i + 1:]
    )
    assert verdict == ("consistent" if pairwise else "inconsistent")
    assert reports == runs


# ---------------------------------------------------------------------------
# import cost


def test_cli_import_pulls_in_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, couplefix.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# coupling, range and membership tables


def naive_coupling(f, a, b, plan, plan_b=None):
    xs = list(map(Point, sample_values(a, plan)))
    ys = list(map(Point, sample_values(b, plan_b or plan)))
    rb = ReportBuilder("coupling", 0.0)
    for x in xs:
        for y in ys:
            for tag, subset, p, q in (("image_in_B", b, x, y), ("image_in_A", a, y, x)):
                img = f.evaluate(p, q)
                if not contains(subset, img):
                    rb.add_violation((tag, p.value, q.value, img.value), 1.0, 0.0)
    rb.samples = len(xs) * len(ys)
    return rb.build({"pairs": len(xs) * len(ys)})


def _same_result(fast, naive) -> None:
    """``_same_outcome``, with an error's message compared as well."""
    try:
        want = _key(naive())
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        with pytest.raises(type(exc)) as got:
            fast()
        assert str(got.value) == str(exc)
        return
    assert _key(fast()) == want


def _interval(bounds, ends):
    return Interval(*bounds, *ends)


ENDS = st.tuples(st.booleans(), st.booleans())
INTERVAL_SUBSETS = st.one_of(
    st.builds(
        lambda bounds, ends: SubsetSpec.from_intervals([_interval(bounds, ends)]),
        st.sampled_from([(0.0, 1.0), (0.0, 2.0), (0.5, 1.5), (0.25, 0.75)]),
        ENDS,
    ),
    st.builds(
        lambda e1, e2: SubsetSpec.from_intervals(
            [_interval((0.0, 0.5), e1), _interval((1.0, 2.0), e2)]
        ),
        ENDS,
        ENDS,
    ),
)
# finite lists may repeat a value, so candidate pools hold duplicates and ties
TABLE_SUBSETS = st.one_of(
    INTERVAL_SUBSETS,
    st.lists(st.sampled_from(GRID_VALUES), min_size=1, max_size=5).map(SubsetSpec.from_values),
)
TABLE_COUPLINGS = {
    **{name: CouplingMap.from_function(fn) for name, fn in COUPLINGS.items()},
    # compiled min/max with a constant return a Fraction
    "expr_fraction": CouplingMap.from_expression(parse_expression("max(x, 1/3)")),
    "expr_sum": CouplingMap.from_expression(parse_expression("min(y, 5/4) + x / 2")),
    "fraction": CouplingMap.from_function(lambda x, y: Fraction(1, 3) if x < y else y),
    "label_above_1": CouplingMap.from_function(lambda x, y: "a" if x > 1 else y),
    "bare_mid": CouplingMap(lambda x, y: (x + y) / 2),
    # a bare map skips the finiteness check of Point.real
    "bare_nan": CouplingMap(lambda x, y: math.nan if x > 1 else y),
    # non-finite at some pairs: the error of the first one in scan order
    "inf_far": CouplingMap.from_function(
        lambda x, y: math.inf if x > 1.5 else -math.inf if y < 0.1 else x
    ),
}
TABLE_SELF_MAPS = {
    **{name: SelfMap.from_function(fn) for name, fn in SELF_MAPS.items()},
    "nan_above_1": SelfMap(lambda x: math.nan if x > 1 else x),
    # finite on quarter points only, so a target between them can raise
    "quarters_only": SelfMap.from_function(lambda x: x if (4 * x).is_integer() else math.inf),
}


@given(
    a=TABLE_SUBSETS,
    b=TABLE_SUBSETS,
    f=st.sampled_from(sorted(TABLE_COUPLINGS)),
    plan=PLANS,
    plan_b=st.one_of(st.none(), PLANS),
)
@settings(max_examples=200, deadline=None)
def test_coupling_tables_match_naive_loop(a, b, f, plan, plan_b):
    fm = TABLE_COUPLINGS[f]
    _same_result(
        lambda: check_coupling(fm, a, b, plan, plan_b),
        lambda: naive_coupling(fm, a, b, plan, plan_b),
    )


@given(
    a=TABLE_SUBSETS,
    b=TABLE_SUBSETS,
    targets=st.one_of(st.none(), TABLE_SUBSETS),
    t=st.sampled_from(sorted(TABLE_SELF_MAPS)),
    f=st.sampled_from(sorted(TABLE_COUPLINGS)),
    plan=PLANS,
    plan_b=st.one_of(st.none(), PLANS),
    tol=TOLS,
    block=st.sampled_from([1, 24, checks.RANGE_BLOCK_TARGETS]),
)
@settings(max_examples=250, deadline=None)
def test_range_tables_match_naive_loop(a, b, targets, t, f, plan, plan_b, tol, block):
    fm, tm = TABLE_COUPLINGS[f], TABLE_SELF_MAPS[t]
    with pytest.MonkeyPatch.context() as mp:  # one row, a few rows or all rows per block
        mp.setattr(checks, "RANGE_BLOCK_TARGETS", block)
        _same_result(
            lambda: check_range_compatibility(fm, tm, a, b, plan, tol, plan_b, targets),
            lambda: naive_range(fm, tm, a, b, plan, tol, plan_b, targets),
        )


@given(
    a=st.lists(st.sampled_from(LABELS), min_size=1, max_size=4),
    b=st.lists(st.sampled_from(LABELS), min_size=1, max_size=4),
    table=st.lists(st.sampled_from(LABELS), min_size=16, max_size=16),
    t_table=st.lists(st.sampled_from(LABELS), min_size=4, max_size=4),
    tol=TOLS,
)
@settings(max_examples=100, deadline=None)
def test_coupling_and_range_tables_match_naive_loop_on_labels(a, b, table, t_table, tol):
    fm = CouplingMap.from_function(lambda x, y: table[4 * LABELS.index(x) + LABELS.index(y)])
    tm = SelfMap.from_function(lambda v: t_table[LABELS.index(v)])
    sa, sb = SubsetSpec.from_values(a), SubsetSpec.from_values(b)
    plan = SamplePlan()
    _same_result(
        lambda: check_coupling(fm, sa, sb, plan),
        lambda: naive_coupling(fm, sa, sb, plan),
    )
    _same_result(
        lambda: check_range_compatibility(fm, tm, sa, sb, plan, tol),
        lambda: naive_range(fm, tm, sa, sb, plan, tol),
    )


def naive_invariance(t, a, b, plan):
    rb = ReportBuilder("scc_map", 0.0)
    examined = 0
    for name, subset in (("A", a), ("B", b)):
        for p in map(Point, sample_values(subset, plan)):
            v = t.evaluate(p).value
            if not contains(subset, Point(v)):
                rb.add_violation((f"invariance_{name}", p.value, v), 1.0, 0.0)
            examined += 1
    rb.samples = examined
    return rb.build()


@given(
    a=TABLE_SUBSETS,
    b=TABLE_SUBSETS,
    # quarters_only is left out: the closedness evidence evaluates T on a
    # refined grid, which this invariance-only oracle does not model
    t=st.sampled_from(sorted(set(TABLE_SELF_MAPS) - {"quarters_only"}) + ["label_above_1"]),
    plan=PLANS,
)
@settings(max_examples=150, deadline=None)
def test_self_map_invariance_matches_naive_loop(a, b, t, plan):
    if t == "label_above_1":
        tm = SelfMap.from_function(lambda x: "a" if x > 1 else x)
    else:
        tm = TABLE_SELF_MAPS[t]
    got = check_scc_map(tm, a, b, plan)
    want = naive_invariance(tm, a, b, plan)
    assert repr(got.violations) == repr(want.violations)
    assert got.samples_tested == want.samples_tested
    assert got.verdict == want.verdict


MEMBER_VALUES = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 0.1 + 0.2, 0.3,
                         1.0 + 1e-13, math.nan, math.inf, -math.inf, Fraction(1, 2)]),
        st.floats(-1.0, 3.0),
        st.sampled_from(LABELS),
    ),
    max_size=8,
)


@given(
    subset=st.one_of(
        TABLE_SUBSETS,
        st.lists(st.sampled_from(LABELS + [0.5, 1.0]), min_size=1, max_size=4).map(
            SubsetSpec.from_values
        ),
    ),
    values=MEMBER_VALUES,
    # a finite mixed label/real subset for the subset algebra
    members=st.lists(st.sampled_from(LABELS[:2] + [0.5, 1.0 + 1e-13, 2.0]), min_size=1,
                     max_size=4).map(SubsetSpec.from_values),
    space=st.sampled_from([MetricSpace.real_line(0.0, 2.0, hi_closed=False),
                           MetricSpace.finite(LABELS[:2])]),
)
@settings(max_examples=300, deadline=None)
def test_bulk_membership_matches_contains(subset, values, members, space):
    assert contains_values(subset, values) == [contains(subset, Point(v)) for v in values]
    assert subset_intersection(members, subset) == finite_intersection(members, subset)
    assert subset_intersection(subset, members) == finite_intersection(subset, members)
    assert subset_within_carrier(space, members) == finite_within_carrier(space, members)


OBSERVED = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 1e-10, math.nan, math.inf, -math.inf,
                            0.1 + 0.2, 0.3])


@given(
    batches=st.lists(st.lists(st.tuples(OBSERVED, OBSERVED), max_size=6), max_size=5),
    tol=TOLS,
)
# a NaN first margin, and equal zeros of both signs
@example(batches=[[(math.nan, 0.0), (1.0, 0.0)]], tol=0.0)
@example(batches=[[(0.0, 0.0)], [(0.0, -0.0), (-0.0, -0.0)]], tol=1e-9)
@example(batches=[[(-0.0, 0.0), (0.0, 0.0)]], tol=0.0)
@settings(max_examples=300, deadline=None)
def test_observe_matches_a_running_minimum(batches, tol):
    min_margin, samples, violations = None, 0, []
    one, bulk = ReportBuilder("observe", tol), ReportBuilder("observe", tol)
    for b, batch in enumerate(batches):
        for k, (lhs, rhs) in enumerate(batch):
            samples += 1
            margin = rhs - lhs
            if min_margin is None or margin < min_margin:
                min_margin = margin
            violated = lhs > rhs + tol
            if violated:
                violations.append(Violation(("w", b, k), lhs, rhs, lhs - rhs))
            assert one.observe(lhs, rhs, ("w", b, k)) == violated
        bulk.observe_all([l for l, _ in batch], [r for _, r in batch], lambda k: ("w", b, k))
    want = CheckReport("observe", samples, violations, min_margin,
                       "fail" if violations else "pass", {})
    assert repr(one.build()) == repr(want)
    assert repr(bulk.build()) == repr(want)


def _two_non_finite(first, later):
    """F that is +inf at ``first`` and -inf at ``later``, x + y elsewhere."""
    def fn(x, y):
        if (x, y) == first:
            return math.inf
        if (x, y) == later:
            return -math.inf
        return x + y
    return fn


NON_FINITE_A = SubsetSpec.from_values([0.0, 1.0])
NON_FINITE_B = SubsetSpec.from_values([2.0, 3.0])
# Each case puts the +inf pair first in the check's own order, and the -inf
# pair first in the other order (row by row F(x, y), then F(y, x)).
NON_FINITE = {
    # coupling scans F(0, 2), F(2, 0), F(0, 3), ...
    "coupling": ((2.0, 0.0), (0.0, 3.0), lambda fm: check_coupling(
        fm, NON_FINITE_A, NON_FINITE_B, SamplePlan())),
    # range scans F(2, 0), F(0, 2), F(2, 1), ...
    "range": ((0.0, 2.0), (2.0, 1.0), lambda fm: check_range_compatibility(
        fm, SelfMap.identity(), NON_FINITE_A, NON_FINITE_B, SamplePlan())),
    # the contraction kernel evaluates every F(x, y) before any F(y, x)
    "contraction": ((0.0, 3.0), (2.0, 0.0), lambda fm: check_phi_T_contraction(
        CoincidenceProblem(MetricSpace.real_line(-1.0, 4.0), NON_FINITE_A, NON_FINITE_B,
                           fm, SelfMap.identity(), make_linear(Fraction(1, 2))),
        SamplePlan())),
}


def _bare_strict(fn):
    """A bare map that applies the finiteness rule of ``Point.real`` itself."""
    return CouplingMap(lambda x, y: Point.real(fn(x, y)).value)


@pytest.mark.parametrize("bare", [False, True])
@pytest.mark.parametrize("check", sorted(NON_FINITE))
def test_first_non_finite_pair_in_scan_order_raises(check, bare):
    first, later, run = NON_FINITE[check]
    fn = _two_non_finite(first, later)
    fm = _bare_strict(fn) if bare else CouplingMap.from_function(fn)
    with pytest.raises(DomainError) as got:
        run(fm)
    assert str(got.value) == "real point must be finite, got inf"


def test_range_check_raises_a_failing_t_met_before_a_non_finite_f():
    a = SubsetSpec.from_intervals([Interval(0.0, 1.0)])
    b = SubsetSpec.from_values([2.0, 3.0])
    # The scan meets F(2, 0) = 0.5 first: it lies in A, away from t(A) =
    # {0, 1}, so T(0.5) is evaluated; F(3, 1) = -inf comes later.
    fm = CouplingMap.from_function(
        lambda x, y: 0.5 if (x, y) == (2.0, 0.0) else -math.inf if (x, y) == (3.0, 1.0) else x
    )
    tm = SelfMap.from_function(lambda x: math.nan if x == 0.5 else x)
    with pytest.raises(DomainError) as got:
        check_range_compatibility(fm, tm, a, b, SamplePlan(2))
    assert str(got.value) == "real point must be finite, got nan"


def test_range_check_raises_a_failing_t_met_in_an_earlier_block(monkeypatch):
    # one row of y per block: T(0.5) fails in the first block, before the
    # second block evaluates F(3, 1)
    monkeypatch.setattr(checks, "RANGE_BLOCK_TARGETS", 1)
    test_range_check_raises_a_failing_t_met_before_a_non_finite_f()


def _counted_map():
    seen = Counter()

    def fn(x, y):
        seen[x, y] += 1
        return (x + y) / 2

    return CouplingMap(fn), seen


COUNT_A = SubsetSpec.from_intervals([Interval(0.0, 1.0)])
COUNT_B = SubsetSpec.from_intervals([Interval(2.0, 3.0)])
COUNT_PLAN = SamplePlan(5, 1, 2)


@pytest.mark.parametrize("check", ["coupling", "range", "contraction"])
def test_point_map_is_evaluated_once_per_sampled_pair(check):
    fm, seen = _counted_map()
    xs = sample_values(COUNT_A, COUNT_PLAN)
    ys = sample_values(COUNT_B, COUNT_PLAN)
    if check == "coupling":
        check_coupling(fm, COUNT_A, COUNT_B, COUNT_PLAN)
    elif check == "range":
        check_range_compatibility(fm, SelfMap.identity(), COUNT_A, COUNT_B, COUNT_PLAN)
    else:
        problem = CoincidenceProblem(MetricSpace.real_line(-1.0, 4.0), COUNT_A, COUNT_B, fm,
                                     SelfMap.identity(), make_linear(Fraction(1, 2)))
        check_phi_T_contraction(problem, COUNT_PLAN)
    pairs = [(x, y) for x in xs for y in ys] + [(y, x) for x in xs for y in ys]
    assert seen == Counter(pairs)


@pytest.mark.parametrize("cap", [0, 1])
def test_worst_violation_is_kept_at_a_cap_of_zero_or_one(cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "MAX_RECORDED_VIOLATIONS", cap)
        rb = ReportBuilder("cap", 0.0)
        rb.add_violations([("a",), ("b",)], [1.0, 3.0], [0.0, 0.0])
        rb.observe(2.0, 0.0, ("c",))
        built = rb.build()
        single = ReportBuilder("cap", 0.0)
        single.add_violation(("only",), 1.0, 0.0)
        alone = single.build()
    assert [v.witness for v in built.violations] == [("b",)]
    assert built.violation_count == 3
    assert built.details["violations_dropped"] == 2
    assert built.verdict == "fail"
    assert [v.witness for v in alone.violations] == [("only",)]
    assert alone.violation_count == 1
    assert alone.verdict == "fail"


# ---------------------------------------------------------------------------
# solve layer: brute force, grid preimage, strong iteration


def _same_return(fast, naive) -> None:
    """Equal results through ``repr`` (so the sign of a zero counts), or the
    same exception type and message from each."""
    try:
        want = repr(naive())
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        with pytest.raises(type(exc)) as got:
            fast()
        assert str(got.value) == str(exc)
        return
    assert repr(fast()) == want


def naive_brute(problem, plan, tol, plan_b=None):
    d, f = problem.space.metric, problem.coupling
    if problem.kind == "coincidence":
        a_pts = list(map(Point, sample_values(problem.subset_a, plan)))
        b_pts = list(map(Point, sample_values(problem.subset_b, plan_b or plan)))
        ta = [problem.self_map.evaluate(p).value for p in a_pts]
        tb = [problem.self_map.evaluate(q).value for q in b_pts]
        out = []
        for i, a in enumerate(a_pts):
            for j, b in enumerate(b_pts):
                if (d(f.evaluate(a, b).value, ta[i]) <= tol
                        and d(f.evaluate(b, a).value, tb[j]) <= tol):
                    out.append((a, b))
        return out
    inter = subset_intersection(problem.subset_a, problem.subset_b)
    if inter is None:
        return []
    pts = map(Point, sample_values(inter, plan))
    return [p for p in pts if d(f.evaluate(p, p).value, p.value) <= tol]


def _raising(x, y):
    if x == y:
        raise ZeroDivisionError("F is undefined on the diagonal")
    return (x + y) / 2


BRUTE_COUPLINGS = {
    **TABLE_COUPLINGS,
    "raises_on_diagonal": CouplingMap.from_function(_raising),
    "raises_bare": CouplingMap(_raising),
    # F(x, y) = T(x) = x/2 on x <= y, and +inf on x > y: a pair with a < b
    # meets +inf in F(b, a), a pair with a > b already in F(a, b)
    "inf_below": CouplingMap.from_function(lambda x, y: x / 2 if x <= y else math.inf),
    "half_first": CouplingMap.from_function(lambda x, y: x / 2),
}
BRUTE_SELF_MAPS = {**TABLE_SELF_MAPS, "half": SelfMap.from_function(lambda x: x / 2)}
BRUTE_METRICS = {"usual": None, "squared": lambda a, b: (a - b) ** 2}


@given(
    a=TABLE_SUBSETS,
    b=TABLE_SUBSETS,
    f=st.sampled_from(sorted(BRUTE_COUPLINGS)),
    t=st.sampled_from(sorted(BRUTE_SELF_MAPS)),
    metric=st.sampled_from(sorted(BRUTE_METRICS)),
    plan=PLANS,
    plan_b=st.one_of(st.none(), PLANS),
    tol=TOLS,
)
@settings(max_examples=300, deadline=None)
def test_coincidence_brute_force_matches_the_pair_by_pair_loop(a, b, f, t, metric, plan,
                                                               plan_b, tol):
    problem = CoincidenceProblem(
        MetricSpace.real_line(-1.0, 3.0, metric=BRUTE_METRICS[metric]), a, b,
        BRUTE_COUPLINGS[f], BRUTE_SELF_MAPS[t], make_linear(Fraction(1, 2)),
    )
    _same_return(
        lambda: solve.brute_force_search(problem, plan, tol, plan_b),
        lambda: naive_brute(problem, plan, tol, plan_b),
    )


@given(
    a=TABLE_SUBSETS,
    b=TABLE_SUBSETS,
    f=st.sampled_from(sorted(BRUTE_COUPLINGS)),
    metric=st.sampled_from(sorted(BRUTE_METRICS)),
    plan=PLANS,
    tol=TOLS,
)
@settings(max_examples=200, deadline=None)
def test_strong_brute_force_matches_the_point_by_point_loop(a, b, f, metric, plan, tol):
    problem = _strong_problem(MetricSpace.real_line(-1.0, 3.0, metric=BRUTE_METRICS[metric]),
                              a, b, BRUTE_COUPLINGS[f], HALF, identity_control())
    _same_return(
        lambda: solve.brute_force_search(problem, plan, tol),
        lambda: naive_brute(problem, plan, tol),
    )


def _back_fails(x, y):
    """F(0, 1) = T(0) = 0, so the pair (0, 1) goes on to F(1, 0), which
    raises KeyError; the row of 0 raises ValueError later, at F(0, 2)."""
    if (x, y) == (1.0, 0.0):
        raise KeyError("F(1, 0)")
    if (x, y) == (0.0, 2.0):
        raise ValueError("F(0, 2)")
    return x / 2 if (x, y) == (0.0, 1.0) else 5.0


A0, A01 = SubsetSpec.from_values([0.0]), SubsetSpec.from_values([0.0, 1.0])
B1, B12 = SubsetSpec.from_values([1.0]), SubsetSpec.from_values([1.0, 2.0])
# (F, A, B, the error the pair-by-pair loop raises or None); T(x) = x / 2
BRUTE_ERRORS = {
    # the first pair whose F(b, a) is evaluated raises, before a later F(a, b)
    "back_fails": (_back_fails, A0, B12, KeyError),
    # F(1, 0) = +inf, but the first residual of (0, 1) fails: F(0, 1) = 5
    # is far from T(0) = 0, so the scan never evaluates F(1, 0)
    "inf_behind_a_failing_residual": (lambda x, y: math.inf if x > y else 5.0, A01, B1, None),
    # F(1, 1) = +inf in the row of a = 1
    "inf_in_the_row": (lambda x, y: math.inf if x == y else x / 2, A01, B1, DomainError),
}


@pytest.mark.parametrize("bare", [False, True])
@pytest.mark.parametrize("case", sorted(BRUTE_ERRORS))
def test_brute_force_raises_what_the_pair_by_pair_loop_meets_first(case, bare):
    fn, a, b, expected = BRUTE_ERRORS[case]
    fm = _bare_strict(fn) if bare else CouplingMap.from_function(fn)
    problem = CoincidenceProblem(MetricSpace.real_line(-1.0, 3.0), a, b, fm,
                                 SelfMap.from_function(lambda x: x / 2),
                                 make_linear(Fraction(1, 2)))
    plan = SamplePlan()
    _same_return(lambda: solve.brute_force_search(problem, plan),
                 lambda: naive_brute(problem, plan, 1e-9))
    if expected is None:
        assert solve.brute_force_search(problem, plan) == []
    else:
        with pytest.raises(expected):
            solve.brute_force_search(problem, plan)


def naive_preimage(space, t, subset, target, tol, grid_count):
    """The linear scan: the first sampled value with the least distance."""
    best, best_dist = None, math.inf
    for p in map(Point, sample_values(subset, SamplePlan(grid_count=grid_count))):
        dist = space.metric(t.evaluate(p).value, target)
        if dist < best_dist:
            best, best_dist = p.value, dist
    return (best, best_dist) if best is not None and best_dist <= tol else (None, best_dist)


PREIMAGE_MAPS = {
    **{name: SelfMap.from_function(fn) for name, fn in SELF_MAPS.items()},
    # many points share an image, and every target between two images ties
    "quarters": SelfMap.from_function(lambda x: math.floor(4 * x) / 4),
    "fold": SelfMap.from_function(lambda x: abs(x - 1)),
    "constant": SelfMap.from_function(lambda x: 0.75),
    "neg_zero": SelfMap.from_function(lambda x: -0.0 if x < 1 else 0.0),
    # not searched by bisection: a NaN image, a label image
    "nan_above_1": TABLE_SELF_MAPS["nan_above_1"],
    "label_above_1": SelfMap.from_function(lambda x: "a" if x > 1 else x),
    "inf_above_1": SelfMap(lambda x: math.inf if x > 1 else x),
}
PREIMAGE_GOALS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.125, 0.375, 0.625, 0.5, 0.75, 1.0, 1.25, 0.3,
                     -5.0, 10.0, 1e300, -1e300, 2.0 ** -1074]),
    st.floats(-3.0, 3.0),
)


@given(
    subset=TABLE_SUBSETS,
    t=st.sampled_from(sorted(PREIMAGE_MAPS)),
    goals=st.lists(PREIMAGE_GOALS, min_size=1, max_size=4),
    tol=st.sampled_from([1e-9, 0.0, 0.2, math.inf]),
    grid=st.sampled_from([2, 5, 9, 21]),
    metric=st.sampled_from(["usual", "squared"]),
)
@settings(max_examples=300, deadline=None)
def test_grid_preimage_bisection_matches_the_linear_scan(subset, t, goals, tol, grid, metric):
    space = MetricSpace.real_line(-1.0, 3.0, metric=BRUTE_METRICS[metric])
    tm = PREIMAGE_MAPS[t]
    for goal in goals:  # later goals read the table and index the first one built
        _same_return(
            lambda: solve.grid_preimage(space, tm, subset, goal, tol, grid),
            lambda: naive_preimage(space, tm, subset, goal, tol, grid),
        )


def test_preimage_bisection_walks_a_run_of_equal_rounded_distances():
    # From -1, both images lie 2**53 away after rounding: 2**53 - 1 + 1 is
    # exact and 2**53 + 1 rounds to even.  The larger image belongs to the
    # earlier sample point, so the scan keeps that one although the smaller
    # image is the sorted neighbour of the target.
    big = 2.0 ** 53
    t = SelfMap.from_function(lambda x: big if x == 0.0 else big - 1)
    space, subset = MetricSpace.real_line(-1.0, 3.0), SubsetSpec.from_values([0.0, 1.0])
    assert abs((big - 1) - -1.0) == abs(big - -1.0) == big
    got = solve.grid_preimage(space, t, subset, -1.0, math.inf)
    assert got == naive_preimage(space, t, subset, -1.0, math.inf, 2)
    assert got == (0.0, big)


def test_member_test_matches_contains_on_every_subset_shape():
    shapes = [
        SubsetSpec.from_intervals([Interval(0.0, 1.0, False, True)]),
        SubsetSpec.from_intervals([Interval(0.0, 0.5), Interval(1.0, 2.0, True, False)]),
        SubsetSpec.from_values([0.5, 1.0]),
        SubsetSpec.from_values(["a", 0.5]),
    ]
    values = [0.0, -0.0, 0.5, 0.5 + 1e-13, 1.0, 2.0, 1.5, math.nan, math.inf, -math.inf,
              Fraction(1, 2), 1, "a", "b"]
    for subset in shapes:
        test = member_test(subset)
        assert [test(v) for v in values] == [contains(subset, Point(v)) for v in values]


def naive_strong_iteration(problem, x0, y0, opts):
    """The strong coupled iteration one Point step at a time."""
    d, f = problem.space.metric, problem.coupling
    a, b, tol = problem.subset_a, problem.subset_b, opts.tol
    for p, label in ((x0, "x0"), (y0, "y0")):
        if not contains(a if label == "x0" else b, p):
            raise DomainError(f"start {label}={p.value!r} is not in subset "
                              f"{'A' if label == 'x0' else 'B'}")
    trace = solve.IterationTrace("strong_coupled")

    def report(status, x, y, failure=None):
        fxx = f.evaluate(x, x).value
        values = {"f_xx_x": d(fxx, x.value), "x_y": d(x.value, y.value)}
        if status is None:
            converged = all(v <= tol for v in values.values())
            status = SolveStatus.CONVERGED if converged else SolveStatus.EARLY_COINCIDENCE
        return SolveReport(status, (x, y), values, len(trace.steps), failure), trace

    x, y, prev = x0, y0, None
    for n in range(opts.max_iter):
        x1 = f.evaluate(y, x)
        y1 = f.evaluate(x, y)
        done = solve.TraceStep(n, x.value, y.value, None, None,
                               max(d(x1.value, y.value), d(y1.value, x.value)),
                               d(x.value, y.value))
        trace.steps.append(done)
        for label, subset, p in (("A", a, x1), ("B", b, y1)):
            if not contains(subset, p):
                return report(SolveStatus.DIAGNOSTIC_VIOLATION, x, y, {
                    "reason": "orbit_left_subset", "subset": label, "step": n + 1,
                    "value": p.value})
        if prev is not None:
            if prev.d > tol and done.d > prev.d + tol:
                return report(SolveStatus.DIAGNOSTIC_VIOLATION, x, y,
                              {"reason": "D_increase", "index": n})
            if prev.r > tol and done.r > prev.r + tol:
                return report(SolveStatus.DIAGNOSTIC_VIOLATION, x, y,
                              {"reason": "R_increase", "index": n})
        if done.d <= tol:
            return report(None, x, y)
        prev, x, y = done, x1, y1
    return report(SolveStatus.MAX_ITER_EXCEEDED, x, y, {"reason": "max_iter"})


STRONG_COUPLINGS = {
    **BRUTE_COUPLINGS,
    "escapes": CouplingMap.from_function(lambda x, y: x + 0.75),
    "expands": CouplingMap.from_function(lambda x, y: 2 * x - y),
    "swap": CouplingMap.from_function(lambda x, y: y),
    # near a finite member, within REAL_EQ_TOL
    "near_half": CouplingMap.from_function(lambda x, y: 0.5 + 1e-13),
}


@given(
    a=TABLE_SUBSETS,
    b=TABLE_SUBSETS,
    f=st.sampled_from(sorted(STRONG_COUPLINGS)),
    metric=st.sampled_from(sorted(BRUTE_METRICS)),
    starts=st.tuples(st.integers(0, 20), st.integers(0, 20)),
    outside=st.booleans(),
    max_iter=st.sampled_from([1, 3, 40]),
    tol=st.sampled_from([1e-9, 1e-3]),
)
# the orbit stays in a finite subset within REAL_EQ_TOL of a member
@example(a=SubsetSpec.from_values([0.5]), b=SubsetSpec.from_values([1.0, 0.5]), f="near_half",
         metric="usual", starts=(0, 1), outside=False, max_iter=3, tol=1e-9)
@settings(max_examples=300, deadline=None)
def test_value_level_strong_iteration_matches_the_point_step(a, b, f, metric, starts, outside,
                                                             max_iter, tol):
    problem = _strong_problem(MetricSpace.real_line(-1.0, 3.0, metric=BRUTE_METRICS[metric]),
                              a, b, STRONG_COUPLINGS[f], HALF, identity_control())
    xs = list(map(Point, sample_values(a, SamplePlan(5))))
    ys = list(map(Point, sample_values(b, SamplePlan(5))))
    x0, y0 = xs[starts[0] % len(xs)], ys[starts[1] % len(ys)]
    if outside:  # a start outside its subset is rejected by both
        y0 = Point(2.75)
    opts = SolveOptions(tol=tol, max_iter=max_iter)
    _same_return(
        lambda: solve.iterate_strong_coupled(problem, x0, y0, opts),
        lambda: naive_strong_iteration(problem, x0, y0, opts),
    )


@given(
    a=st.lists(st.sampled_from(LABELS), min_size=1, max_size=4),
    b=st.lists(st.sampled_from(LABELS), min_size=1, max_size=4),
    table=st.lists(st.sampled_from(LABELS), min_size=16, max_size=16),
    distances=st.lists(TABLE_VALUES.filter(lambda v: v > 0), min_size=12, max_size=12),
    use_table=st.booleans(),
    starts=st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
@settings(max_examples=150, deadline=None)
def test_value_level_strong_iteration_matches_the_point_step_on_labels(a, b, table, distances,
                                                                       use_table, starts):
    pairs = [(p, q) for p in LABELS for q in LABELS if p != q]
    space = MetricSpace.finite(LABELS, dict(zip(pairs, distances)) if use_table else None)
    fm = CouplingMap.from_function(lambda x, y: table[4 * LABELS.index(x) + LABELS.index(y)])
    problem = _strong_problem(space, SubsetSpec.from_values(a), SubsetSpec.from_values(b),
                              fm, HALF, identity_control())
    x0, y0 = Point(a[starts[0] % len(a)]), Point(b[starts[1] % len(b)])
    opts = SolveOptions(max_iter=20)
    _same_return(
        lambda: solve.iterate_strong_coupled(problem, x0, y0, opts),
        lambda: naive_strong_iteration(problem, x0, y0, opts),
    )
