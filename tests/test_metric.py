"""Metric spaces, subsets, sampling, and the metric-axiom checker."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplefix.checks import _quadruple_stride
from couplefix.errors import DomainError, ParameterError
from couplefix.metric import (
    Interval,
    MetricSpace,
    Point,
    SamplePlan,
    SubsetSpec,
    check_metric_axioms,
    member_test,
    sample_values,
    sampled_diameter,
    subset_intersection,
    subset_within_carrier,
    thinned_positions,
)


# ---------------------------------------------------------------------------
# points and distances


def test_point_real_rejects_non_finite():
    with pytest.raises(DomainError):
        Point.real(math.inf)
    with pytest.raises(DomainError):
        Point.real(math.nan)


def test_distance_usual_real_line():
    space = MetricSpace.real_line(-5.0, 5.0, lo_closed=False, hi_closed=False)
    assert space.metric(1.0, 3.0) == 2.0
    assert space.metric(-4.5, 4.5) == 9.0


def test_finite_space_defaults_to_discrete_metric():
    space = MetricSpace.finite(["a", "b", "c"])
    assert space.metric("a", "a") == 0.0
    assert space.metric("a", "b") == 1.0


def test_finite_space_accepts_distance_table():
    table = {
        ("a", "b"): 2.0, ("b", "a"): 2.0,
        ("a", "c"): 1.0, ("c", "a"): 1.0,
        ("b", "c"): 1.5, ("c", "b"): 1.5,
    }
    space = MetricSpace.finite(["a", "b", "c"], table=table)
    assert space.metric("b", "c") == 1.5
    assert space.metric("b", "b") == 0.0


# ---------------------------------------------------------------------------
# subset membership


def test_interval_membership_respects_bounds_exactly():
    a = SubsetSpec.from_intervals([Interval(0.0, 2.0)])
    assert member_test(a)(2.0)
    assert not member_test(a)(2.0000001)
    assert member_test(a)(0.0)

    open_a = SubsetSpec.from_intervals([Interval(0.0, 2.0, lo_closed=False, hi_closed=False)])
    assert not member_test(open_a)(0.0)
    assert not member_test(open_a)(2.0)
    assert member_test(open_a)(1.0)


def test_finite_subset_membership_uses_equality_tolerance():
    b = SubsetSpec.from_values([1.0, 2.0])
    assert member_test(b)(1.0)
    assert member_test(b)(1.0 + 1e-13)
    assert not member_test(b)(1.1)


def test_interval_union_must_be_sorted_and_disjoint():
    with pytest.raises(ParameterError):
        SubsetSpec.from_intervals([Interval(0.0, 2.0), Interval(1.0, 3.0)])
    with pytest.raises(ParameterError):
        SubsetSpec.from_intervals([Interval(2.0, 3.0), Interval(0.0, 1.0)])
    # touching endpoints are disjoint only if at most one side is closed
    with pytest.raises(ParameterError):
        SubsetSpec.from_intervals([Interval(0.0, 1.0), Interval(1.0, 2.0)])
    ok = SubsetSpec.from_intervals([Interval(0.0, 1.0), Interval(1.0, 2.0, lo_closed=False)])
    assert len(ok.intervals) == 2


def test_subset_must_be_nonempty():
    with pytest.raises(ParameterError):
        SubsetSpec.from_values([])
    with pytest.raises(ParameterError):
        SubsetSpec.from_intervals([])
    with pytest.raises(ParameterError):
        Interval(2.0, 1.0)
    with pytest.raises(ParameterError):
        # degenerate interval with an open end is empty
        Interval(1.0, 1.0, lo_closed=False)


# ---------------------------------------------------------------------------
# sampling


def test_open_interval_grid_shifts_endpoints_inward():
    # (0, 2) with a 3-point grid: step 1, endpoints pulled in by step/2
    a = SubsetSpec.from_intervals([Interval(0.0, 2.0, lo_closed=False, hi_closed=False)])
    got = sample_values(a, SamplePlan(grid_count=3))
    assert got == [0.5, 1.0, 1.5]


def test_closed_interval_grid_keeps_endpoints():
    a = SubsetSpec.from_intervals([Interval(0.0, 2.0)])
    assert sample_values(a, SamplePlan(grid_count=3)) == [0.0, 1.0, 2.0]
    b = SubsetSpec.from_intervals([Interval(0.0, 4.0)])
    vals = sample_values(b, SamplePlan(grid_count=5))
    assert vals[0] == 0.0 and vals[-1] == 4.0


def test_half_open_interval_shifts_only_open_side():
    a = SubsetSpec.from_intervals([Interval(0.0, 2.0, lo_closed=False)])
    assert sample_values(a, SamplePlan(grid_count=3)) == [0.5, 1.0, 2.0]


def test_finite_subset_sampling_returns_members_in_order():
    b = SubsetSpec.from_values([1.0, 2.0])
    assert sample_values(b, SamplePlan(grid_count=7, jitter_count=3, seed=1)) == [1.0, 2.0]


def test_grid_count_below_two_rejected_for_intervals():
    a = SubsetSpec.from_intervals([Interval(0.0, 2.0)])
    with pytest.raises(ParameterError):
        sample_values(a, SamplePlan(grid_count=1))


def test_sampling_is_deterministic():
    a = SubsetSpec.from_intervals([Interval(0.0, 2.0, lo_closed=False, hi_closed=False)])
    plan = SamplePlan(grid_count=5, jitter_count=4, seed=42)
    first = sample_values(a, plan)
    second = sample_values(a, plan)
    assert first == second
    assert len(first) == 5 + 4


def test_union_samples_every_interval():
    u = SubsetSpec.from_intervals([Interval(0.0, 1.0), Interval(2.0, 3.0)])
    vals = sample_values(u, SamplePlan(grid_count=3))
    assert vals == [0.0, 0.5, 1.0, 2.0, 2.5, 3.0]


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(min_value=-50, max_value=50, allow_nan=False),
    width=st.floats(min_value=1e-3, max_value=100, allow_nan=False),
    lo_closed=st.booleans(),
    hi_closed=st.booleans(),
    grid=st.integers(min_value=2, max_value=25),
    jitter=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_sampled_points_always_lie_in_their_subset(lo, width, lo_closed, hi_closed, grid, jitter, seed):
    """Every sampled point satisfies membership, open bounds included."""
    spec = SubsetSpec.from_intervals(
        [Interval(lo, lo + width, lo_closed=lo_closed, hi_closed=hi_closed)]
    )
    for v in sample_values(spec, SamplePlan(grid_count=grid, jitter_count=jitter, seed=seed)):
        assert member_test(spec)(v)


@st.composite
def sampled_subsets(draw):
    """1-3 sorted disjoint intervals with open or closed ends, some of them
    one point (lo == hi, closed), or a finite subset."""
    if draw(st.booleans()):
        return SubsetSpec.from_values(draw(st.lists(
            st.one_of(st.floats(-100, 100), st.sampled_from(["a", "b"])), min_size=1, max_size=8)))
    k = draw(st.integers(1, 3))
    ends = sorted(draw(st.lists(st.floats(-100, 100), min_size=2 * k, max_size=2 * k, unique=True)))
    intervals = []
    for lo, hi in zip(ends[0::2], ends[1::2]):
        if draw(st.booleans()):
            intervals.append(Interval(lo, lo))
        else:
            intervals.append(Interval(lo, hi, draw(st.booleans()), draw(st.booleans())))
    return SubsetSpec.from_intervals(intervals)


SAMPLE_PLANS = st.builds(SamplePlan, st.integers(2, 60), st.integers(0, 4), st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(subset=sampled_subsets(), plan=SAMPLE_PLANS, data=st.data())
def test_thinning_keeps_every_stride_th_point_of_the_flat_sample(subset, plan, data):
    """Today's thinning: every stride-th position of the flat sample, from
    the first, across interval boundaries and over grid and jitter points
    alike (the picks of a [::stride] slice)."""
    values = sample_values(subset, plan)
    n = len(values)
    stride = data.draw(st.integers(1, n + 1), label="stride")
    kept = thinned_positions(n, stride)
    assert list(kept) == list(range(0, n, stride))
    assert [values[k] for k in kept] == values[::stride]


def _ceil_stride(na, nb, budget):
    """The stride search as it was written before the thinning function."""
    stride = 1
    while math.ceil(na / stride) * math.ceil(nb / stride) ** 2 * math.ceil(na / stride) > budget:
        stride += 1
    return stride


@settings(max_examples=200, deadline=None)
@given(a=sampled_subsets(), b=sampled_subsets(), plan=SAMPLE_PLANS,
       budget=st.one_of(st.just(1), st.integers(1, 10**4), st.integers(1, 10**9)))
def test_stride_search_counts_points_as_the_ceil_loop(a, b, plan, budget):
    na, nb = len(sample_values(a, plan)), len(sample_values(b, plan))
    assert _quadruple_stride(na, nb, budget) == _ceil_stride(na, nb, budget)


# ---------------------------------------------------------------------------
# metric-axiom checking


def test_usual_metric_passes_axioms():
    space = MetricSpace.real_line(-5.0, 5.0, lo_closed=False, hi_closed=False)
    report = check_metric_axioms(space, SamplePlan(grid_count=9))
    assert report.verdict == "pass"
    assert report.violations == []
    assert report.max_margin is not None and report.max_margin >= 0.0


def test_signed_difference_fails_symmetry():
    space = MetricSpace.real_line(0.0, 3.0, metric=lambda a, b: a - b)
    report = check_metric_axioms(space, SamplePlan(grid_count=4))
    assert report.verdict == "fail"
    assert any(v.witness[0] in ("symmetry", "nonnegativity") for v in report.violations)


def test_squared_difference_fails_triangle_with_worst_witness():
    # d(p, q) = (p - q)^2 on [0, 3]: with grid {0, 1.5, 3} the triangle
    # inequality fails at p=0, r=1.5, q=3 since 9 > 2.25 + 2.25.
    space = MetricSpace.real_line(0.0, 3.0, metric=lambda a, b: (a - b) ** 2)
    report = check_metric_axioms(space, SamplePlan(grid_count=3))
    assert report.verdict == "fail"
    triangle = [v for v in report.violations if v.witness[0] == "triangle"]
    assert triangle, "expected a triangle violation"
    worst = max(triangle, key=lambda v: v.residual)
    assert worst.lhs == 9.0
    assert worst.rhs == 4.5
    assert set(worst.witness[1:]) == {0.0, 3.0, 1.5}
    assert report.max_margin == -4.5


def test_axiom_witnesses_reproduce_their_inequality():
    space = MetricSpace.real_line(0.0, 3.0, metric=lambda a, b: (a - b) ** 2)
    tol = 1e-9
    report = check_metric_axioms(space, SamplePlan(grid_count=5), tol=tol)
    for v in report.violations:
        assert v.lhs > v.rhs + tol
        if v.witness[0] == "triangle":
            _, p, q, r = v.witness
            d = space.metric
            assert abs(v.lhs - d(p, q)) <= 1e-12
            assert abs(v.rhs - (d(p, r) + d(r, q))) <= 1e-12


def test_discrete_metric_passes_axioms():
    space = MetricSpace.finite(["a", "b", "c", "d"])
    report = check_metric_axioms(space, SamplePlan(grid_count=2))
    assert report.verdict == "pass"


def test_pseudo_metric_fails_identity_of_indiscernibles():
    # distance that collapses two distinct labels to zero
    table = {}
    labels = ["a", "b", "c"]
    for x in labels:
        for y in labels:
            if x == y or {x, y} == {"a", "b"}:
                table[(x, y)] = 0.0
            else:
                table[(x, y)] = 1.0
    space = MetricSpace.finite(labels, table=table)
    report = check_metric_axioms(space, SamplePlan(grid_count=2))
    assert report.verdict == "fail"
    assert any(v.witness[0] == "identity_of_indiscernibles" for v in report.violations)
    # n² pair samples and n³ triangle samples; the identity test adds none
    assert report.samples_tested == 3 ** 2 + 3 ** 3


# ---------------------------------------------------------------------------
# diameter helper


def test_sampled_diameter_covers_subset_union():
    space = MetricSpace.real_line(-5.0, 5.0, lo_closed=False, hi_closed=False)
    a = SubsetSpec.from_intervals([Interval(0.0, 2.0)])
    b = SubsetSpec.from_intervals([Interval(0.0, 4.0)])
    assert sampled_diameter(space, [a, b], SamplePlan(grid_count=5)) == 4.0


def _pairwise_diameter(space, subsets, plan):
    """The one-metric-call-per-pair loop the usual metric skips."""
    vals = [v for s in subsets for v in sample_values(s, plan)]
    best = 0.0
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            dist = space.metric(a, b)
            if dist > best:
                best = dist
    return best


DIAMETER_VALUES = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.30000000000000004, 2.0 ** 53, 1e308, -1e308]),
)
DIAMETER_SUBSETS = st.one_of(
    st.lists(DIAMETER_VALUES, min_size=1, max_size=6).map(SubsetSpec.from_values),
    st.tuples(DIAMETER_VALUES, DIAMETER_VALUES).map(
        lambda ends: SubsetSpec.from_intervals([Interval(min(ends), max(ends))])
    ),
    # hand-built values skip the finiteness check of Point.real
    st.lists(st.sampled_from([math.inf, -math.inf, math.nan, 1.0, 3]), min_size=1,
             max_size=4).map(lambda vs: SubsetSpec(values=tuple(vs))),
)


@given(
    subsets=st.lists(DIAMETER_SUBSETS, max_size=3),
    grid=st.integers(2, 6),
    jitter=st.integers(0, 2),
    usual=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_sampled_diameter_matches_the_pairwise_loop(subsets, grid, jitter, usual):
    space = MetricSpace.real_line(-1.0, 1.0, metric=None if usual else lambda a, b: abs(b - a))
    plan = SamplePlan(grid_count=grid, jitter_count=jitter, seed=3)
    got = sampled_diameter(space, subsets, plan)
    want = _pairwise_diameter(space, subsets, plan)
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# subset algebra


def test_subset_within_carrier_respects_open_bounds():
    open_space = MetricSpace.real_line(-5.0, 5.0, lo_closed=False, hi_closed=False)
    inside = SubsetSpec.from_intervals([Interval(0.0, 4.0)])
    assert subset_within_carrier(open_space, inside)
    touching = SubsetSpec.from_intervals([Interval(0.0, 5.0)])
    assert not subset_within_carrier(open_space, touching)  # closed end vs open carrier
    tangent_open = SubsetSpec.from_intervals([Interval(0.0, 5.0, hi_closed=False)])
    assert subset_within_carrier(open_space, tangent_open)
    assert subset_within_carrier(open_space, SubsetSpec.from_values([4.9]))
    assert not subset_within_carrier(open_space, SubsetSpec.from_values([5.0]))


def test_subset_intersection_finite_wins():
    a = SubsetSpec.from_values([1.0])
    b = SubsetSpec.from_values([1.0, 2.0])
    inter = subset_intersection(a, b)
    assert inter is not None and list(inter.values) == [1.0]
    assert subset_intersection(b, a).values == (1.0, 2.0)[:1]


def test_subset_intersection_interval_overlap():
    a = SubsetSpec.from_intervals([Interval(0.0, 2.0)])
    b = SubsetSpec.from_intervals([Interval(1.0, 4.0, lo_closed=False)])
    inter = subset_intersection(a, b)
    assert inter is not None
    iv = inter.intervals[0]
    assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (1.0, 2.0, False, True)


def test_subset_intersection_empty_is_none():
    a = SubsetSpec.from_intervals([Interval(0.0, 1.0)])
    b = SubsetSpec.from_intervals([Interval(2.0, 3.0)])
    assert subset_intersection(a, b) is None
    assert subset_intersection(SubsetSpec.from_values([0.0]), b) is None


def test_subset_intersection_mixed_kinds():
    pts = SubsetSpec.from_values([0.5, 2.5])
    iv = SubsetSpec.from_intervals([Interval(0.0, 1.0)])
    inter = subset_intersection(iv, pts)
    assert inter is not None and list(inter.values) == [0.5]
