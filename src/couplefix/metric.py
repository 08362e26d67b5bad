"""Metric spaces over a bounded real line or a finite label set.

Everything downstream (hypothesis checks, iteration engines, brute-force
search) works on finite samples drawn from subsets of a carrier, so this
module owns the three load-bearing pieces: membership semantics for subset
descriptions, deterministic sampling, and the metric-axiom spot check.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import chain, compress, count, repeat
from operator import add, gt, sub
from typing import Callable, Iterable, Sequence

from .errors import DomainError, ParameterError
from .records import Frozen
from .report import CheckReport, ReportBuilder

#: Tolerance for treating two real values as the same point.
REAL_EQ_TOL = 1e-12

Value = float | str


class Point(Frozen):
    """A carrier element: a finite real number or a label."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: Value):
        object.__setattr__(self, "value", value)

    @staticmethod
    def real(x: float) -> "Point":
        try:
            x = float(x)
        except OverflowError:
            raise DomainError(f"real point must be finite, got {type(x).__name__} "
                              "beyond the float range") from None
        if not math.isfinite(x):
            raise DomainError(f"real point must be finite, got {x!r}")
        return Point(x)

    @staticmethod
    def label(name: str) -> "Point":
        return Point(str(name))


class Interval(Frozen):
    """One real interval with independently open or closed ends."""

    __slots__ = _fields = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: float, hi: float, lo_closed: bool = True, hi_closed: bool = True):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ParameterError("interval bounds must be finite")
        if lo > hi:
            raise ParameterError(f"interval has lo > hi: [{lo}, {hi}]")
        if lo == hi and not (lo_closed and hi_closed):
            raise ParameterError("degenerate interval must be closed on both ends")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_closed", lo_closed)
        object.__setattr__(self, "hi_closed", hi_closed)

    def contains_value(self, v: float) -> bool:
        above = v > self.lo or (self.lo_closed and v == self.lo)
        below = v < self.hi or (self.hi_closed and v == self.hi)
        return above and below


class LabelSet(Frozen):
    """A finite carrier of distinct labels."""

    __slots__ = _fields = ("labels",)

    def __init__(self, labels: tuple[str, ...]):
        if not labels:
            raise ParameterError("label carrier must be nonempty")
        if len(set(labels)) != len(labels):
            raise ParameterError("labels must be distinct")
        object.__setattr__(self, "labels", labels)


def _usual_real(a: float, b: float) -> float:
    return abs(a - b)


def _discrete(a: Value, b: Value) -> float:
    return 0.0 if a == b else 1.0


def separation(a: Value, b: Value) -> float:
    """How far apart two raw values are regardless of any metric: the
    discrete distance if either is a label, else ``|a - b|``."""
    if isinstance(a, str) or isinstance(b, str):
        return _discrete(a, b)
    return abs(a - b)


class MetricSpace(Frozen):
    """A carrier plus a distance function on raw carrier values."""

    __slots__ = _fields = ("carrier", "metric")

    def __init__(self, carrier: Interval | LabelSet, metric: Callable[[Value, Value], float]):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "metric", metric)

    @staticmethod
    def real_line(
        lo: float,
        hi: float,
        lo_closed: bool = True,
        hi_closed: bool = True,
        metric: Callable[[float, float], float] | None = None,
    ) -> "MetricSpace":
        return MetricSpace(Interval(float(lo), float(hi), lo_closed, hi_closed), metric or _usual_real)

    @staticmethod
    def finite(
        labels: Sequence[str],
        table: dict[tuple[str, str], float] | None = None,
    ) -> "MetricSpace":
        carrier = LabelSet(tuple(labels))
        if table is None:
            return MetricSpace(carrier, _discrete)

        def from_table(a: Value, b: Value) -> float:
            if a == b:
                return 0.0
            try:
                return table[(a, b)]  # type: ignore[index]
            except KeyError:
                raise DomainError(f"distance table has no entry for ({a!r}, {b!r})") from None

        return MetricSpace(carrier, from_table)


# ---------------------------------------------------------------------------
# subsets


class SubsetSpec(Frozen):
    """A representable subset: finite value list or sorted disjoint intervals."""

    __slots__ = _fields = ("values", "intervals")

    def __init__(self, values: tuple[Value, ...] = (), intervals: tuple[Interval, ...] = ()):
        if bool(values) == bool(intervals):
            raise ParameterError("subset must have either points or intervals, and be nonempty")
        for left, right in zip(intervals, intervals[1:]):
            touching_ok = left.hi == right.lo and not (left.hi_closed and right.lo_closed)
            if not (left.hi < right.lo or touching_ok):
                raise ParameterError(
                    f"intervals must be sorted and pairwise disjoint: "
                    f"{(left.lo, left.hi)} then {(right.lo, right.hi)}"
                )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "intervals", intervals)

    @staticmethod
    def from_values(values: Iterable[Value]) -> "SubsetSpec":
        """Labels as they are; numbers as floats, which must be finite
        (``Point.real``)."""
        return SubsetSpec(tuple(v if isinstance(v, str) else Point.real(v).value for v in values))

    @staticmethod
    def from_intervals(intervals: Iterable[Interval]) -> "SubsetSpec":
        return SubsetSpec(intervals=tuple(intervals))

    @property
    def is_finite(self) -> bool:
        return bool(self.values)


def member_test(subset: SubsetSpec) -> Callable[[Value], bool]:
    """Subset membership of a raw value: finite real members match within
    ``REAL_EQ_TOL``, labels match exactly, and intervals hold reals only."""
    if subset.is_finite:
        labels = tuple(m for m in subset.values if isinstance(m, str))
        reals = tuple(m for m in subset.values if not isinstance(m, str))
        return lambda v: (v in labels if isinstance(v, str)
                          else any(abs(m - v) <= REAL_EQ_TOL for m in reals))
    if len(subset.intervals) == 1:  # Interval.contains_value on local bounds
        (iv,) = subset.intervals
        lo, hi, lc, hc = iv.lo, iv.hi, iv.lo_closed, iv.hi_closed
        return lambda v: (not isinstance(v, str) and (v > lo or lc and v == lo)
                          and (v < hi or hc and v == hi))
    tests = [iv.contains_value for iv in subset.intervals]
    return lambda v: not isinstance(v, str) and any(t(v) for t in tests)


def contains_values(subset: SubsetSpec, values: Sequence[Value]) -> list[bool]:
    """``list(map(member_test(subset), values))``; on a one-interval subset,
    all inside when the values hold no NaN (their ``sum`` is not NaN) and
    no label (``sum``, ``min`` and ``max`` raise no TypeError) and their min
    and max lie inside, else one comprehension that inlines
    ``Interval.contains_value``."""
    if len(subset.intervals) == 1:
        (iv,) = subset.intervals
        lo, hi, lc, hc = iv.lo, iv.hi, iv.lo_closed, iv.hi_closed
        try:
            if values and (total := sum(values)) == total:
                low, high = min(values), max(values)
                if (low > lo or lc and low == lo) and (high < hi or hc and high == hi):
                    return [True] * len(values)
            return [(v > lo or lc and v == lo) and (v < hi or hc and v == hi) for v in values]
        except (TypeError, OverflowError):  # a label (outside) or an int past the float range
            pass
    return list(map(member_test(subset), values))


def _carrier_subset(space: MetricSpace) -> SubsetSpec:
    """The whole carrier as a subset: its labels, or its interval."""
    c = space.carrier
    return SubsetSpec(c.labels) if isinstance(c, LabelSet) else SubsetSpec.from_intervals([c])


def subset_within_carrier(space: MetricSpace, subset: SubsetSpec) -> bool:
    """Whether every subset value (or interval, end to end) lies in the carrier."""
    if subset.is_finite:
        return all(map(member_test(_carrier_subset(space)), subset.values))
    c = space.carrier
    return isinstance(c, Interval) and all(_overlap(iv, c) == iv for iv in subset.intervals)


def _overlap(a: Interval, b: Interval) -> Interval | None:
    if a.lo > b.lo or (a.lo == b.lo and b.lo_closed):
        lo, lo_closed = a.lo, a.lo_closed and b.contains_value(a.lo)
    else:
        lo, lo_closed = b.lo, b.lo_closed and a.contains_value(b.lo)
    if a.hi < b.hi or (a.hi == b.hi and b.hi_closed):
        hi, hi_closed = a.hi, a.hi_closed and b.contains_value(a.hi)
    else:
        hi, hi_closed = b.hi, b.hi_closed and a.contains_value(b.hi)
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def subset_intersection(a: SubsetSpec, b: SubsetSpec) -> SubsetSpec | None:
    """Intersection of two subsets, or ``None`` when it is empty.

    A finite side wins: the result lists its members that ``b`` (resp. ``a``)
    contains, in declared order.  Two interval subsets intersect pairwise.
    """
    if a.is_finite or b.is_finite:
        finite, other = (a, b) if a.is_finite else (b, a)
        kept = tuple(filter(member_test(other), finite.values))
        return SubsetSpec(kept) if kept else None
    ivs = []
    for left in a.intervals:
        for right in b.intervals:
            got = _overlap(left, right)
            if got is not None:
                ivs.append(got)
    return SubsetSpec(intervals=tuple(ivs)) if ivs else None


def subset_values(subset: SubsetSpec) -> list[Value]:
    """Member values of a finite subset, or interval endpoints for display."""
    if subset.is_finite:
        return list(subset.values)
    return [v for iv in subset.intervals for v in (iv.lo, iv.hi)]


# ---------------------------------------------------------------------------
# sampling


#: Default cap on contraction quadruples per check.
DEFAULT_QUADRUPLE_BUDGET = 1_000_000


def thinned_positions(n: int, stride: int) -> range:
    """The positions of an n-point sample that a scan thinned by ``stride``
    keeps (every ``stride``-th, from the first): the one thinning rule."""
    return range(0, n, stride)


class SamplePlan(Frozen):
    """Deterministic sampling recipe: an even grid per interval plus
    optional seeded interior jitter points."""

    __slots__ = _fields = ("grid_count", "jitter_count", "seed")

    def __init__(self, grid_count: int = 21, jitter_count: int = 0, seed: int = 0):
        if grid_count < 1:
            raise ParameterError("grid_count must be positive")
        if jitter_count < 0:
            raise ParameterError("jitter_count must be nonnegative")
        object.__setattr__(self, "grid_count", grid_count)
        object.__setattr__(self, "jitter_count", jitter_count)
        object.__setattr__(self, "seed", seed)


def _interval_grid(iv: Interval, grid_count: int) -> list[float]:
    if grid_count < 2:
        raise ParameterError("grid_count must be at least 2 for interval sampling")
    if iv.lo == iv.hi:
        return [iv.lo]
    step = (iv.hi - iv.lo) / (grid_count - 1)
    pts = [iv.lo + i * step for i in range(grid_count)]
    pts[-1] = iv.hi  # avoid accumulated round-off at the far end
    # open endpoints are shifted inward by half a grid step
    if not iv.lo_closed:
        pts[0] = iv.lo + step / 2.0
    if not iv.hi_closed:
        pts[-1] = iv.hi - step / 2.0
    out: list[float] = []
    for v in pts:
        if not out or v != out[-1]:
            out.append(v)
    return out


def _interval_jitter(iv: Interval, count: int, rng: random.Random) -> list[float]:
    if iv.lo == iv.hi:
        return []
    out = []
    for _ in range(count):
        v = iv.lo + rng.random() * (iv.hi - iv.lo)
        tries = 0
        while not (iv.lo < v < iv.hi) and tries < 64:
            v = iv.lo + rng.random() * (iv.hi - iv.lo)
            tries += 1
        if not (iv.lo < v < iv.hi):
            v = (iv.lo + iv.hi) / 2.0
        out.append(v)
    return out


def sample_values(subset: SubsetSpec, plan: SamplePlan) -> list[Value]:
    """Deterministic sample of a subset.

    Finite subsets return their members in declared order and ignore the
    plan.  Interval subsets get ``grid_count`` evenly spaced points per
    interval (closed endpoints included, open endpoints shifted inward by
    half a step) followed by ``jitter_count`` seeded interior points.
    """
    if subset.is_finite:
        return list(subset.values)
    rng = random.Random(plan.seed)
    values: list[Value] = []
    for iv in subset.intervals:
        values.extend(_interval_grid(iv, plan.grid_count))
        values.extend(_interval_jitter(iv, plan.jitter_count, rng))
    return values


def _finite_floats(vals: Sequence[Value]) -> bool:
    """Whether there are values, all of type float, with a finite sum (so
    none is infinite or NaN)."""
    return bool(vals) and set(map(type, vals)) == {float} and math.isfinite(sum(vals))


def sampled_diameter(space: MetricSpace, subsets: Sequence[SubsetSpec], plan: SamplePlan) -> float:
    """Largest pairwise distance among sampled points of the given subsets.

    On the usual metric with finite float samples that is max - min: fl(b - a)
    is monotone in b and in -a, so no pair is wider.
    """
    vals: list[Value] = []
    for s in subsets:
        vals.extend(sample_values(s, plan))
    d = space.metric
    if d is _usual_real and _finite_floats(vals):
        return max(vals) - min(vals)
    best = 0.0
    for i, a in enumerate(vals):
        for b in vals[i + 1:]:
            dist = d(a, b)
            if dist > best:
                best = dist
    return best


# ---------------------------------------------------------------------------
# axiom checking


def check_metric_axioms(space: MetricSpace, plan: SamplePlan, tol: float = 1e-9) -> CheckReport:
    """Spot-check the metric axioms on a carrier sample.

    Violations are data, not errors; each one records the axiom name first
    in its witness tuple so it can be re-evaluated independently.  The
    worst margin over every comparison lands in ``max_margin``.

    The pair axioms are tested on all n² pairs and the triangle inequality
    ``d(i, j) <= d(i, k) + d(k, j)`` on all n³ triples, and
    ``samples_tested`` counts them all.  On the usual metric, with
    ``tol >= 0`` and float samples whose ``max - min`` is finite, the pair
    axioms hold (``abs`` is never negative, fl(a - b) = -fl(b - a), d(i, i)
    = 0.0, and the separation of two values is their distance), and only
    the k whose value lies between vi and vj can lower a triangle margin:
    for vk >= vj >= vi, fl(vk - vi) >= fl(vj - vi) because rounding is
    monotone, and adding fl(vk - vj) >= 0 cannot round below that (the
    other side is the mirror image).  Of those, a k whose two differences
    are exact sums to exactly vj - vi, which rounds to the lhs, as k = i
    does; only the k where a difference rounds are summed.  The triples
    (i, j, k) and (j, i, k) add the same two floats, and their violations
    are sorted back into (i, j, k) order.  Labels, distance tables, other
    metrics, ``tol < 0`` and non-finite samples scan every pair and k.
    """
    vals = sample_values(_carrier_subset(space), plan)
    n = len(vals)
    rb = ReportBuilder("metric_axioms", tol)
    if (space.metric is _usual_real and tol >= 0 and _finite_floats(vals)
            and math.isfinite(max(vals) - min(vals))):
        # n² passing pair samples; the first margin, -d(0, 0) = -0.0, is the
        # running minimum, since no later one (0.0 or d(i, j)) is below it
        rb.min_margin = -0.0
        _triangle_between(rb, vals, sorted(range(n), key=vals.__getitem__), tol)
    else:
        d = space.metric
        dm = [[float(d(a, b)) for b in vals] for a in vals]
        cols = list(zip(*dm))
        rows = ((row[i], row[i + 1:], col[i + 1:]) for i, (row, col) in enumerate(zip(dm, cols)))
        _observe_pairs(rb, vals, rows, tol)
        _triangle_rows(rb, vals, dm, cols, tol)
    rb.samples = n * n + n * n * n
    return rb.build()


def _observe_pairs(rb: ReportBuilder, vals: list[Value], rows, tol: float) -> None:
    """Self-distance, nonnegativity, symmetry and identity of indiscernibles,
    one row ``(d(i, i), [d(i, j) for j > i], [d(j, i) for j > i])`` at a time.

    Row i observes nonnegativity then symmetry for each pair (i, j > i), as
    lhs[2m] and lhs[2m + 1] with j = i + 1 + m.  Identity of indiscernibles
    can fail only where d(i, j) <= tol; the row's batch is cut after such a
    pair, so its violation keeps its place in the order.  It is not a sample
    of its own: the caller counts the n² samples above.
    """
    for i, (d_ii, d_ij, d_ji) in enumerate(rows):
        vi = vals[i]
        if d_ii > tol:
            rb.add_violation(("identity_self", vi), d_ii, 0.0)
        else:
            rb.count_sample(-d_ii)
        lhs = list(chain.from_iterable(zip([-v for v in d_ij], map(abs, map(sub, d_ij, d_ji)))))

        def observe_pairs(lo: int, hi: int) -> None:
            rb.observe_all(lhs[2 * lo:2 * hi], [0.0] * (2 * (hi - lo)), lambda k: (
                ("nonnegativity", "symmetry")[k % 2], vi, vals[i + 1 + lo + k // 2]))

        start = 0
        for m in [m for m, v in enumerate(d_ij) if v <= tol]:
            vj = vals[i + 1 + m]
            sep = separation(vi, vj)
            if sep > max(REAL_EQ_TOL, d_ij[m] + tol):
                observe_pairs(start, m + 1)
                rb.add_violation(("identity_of_indiscernibles", vi, vj), sep, d_ij[m])
                start = m + 1
        observe_pairs(start, len(d_ij))


def _triangle_rows(rb: ReportBuilder, vals: list[Value], dm: list[list[float]],
                   cols: list[tuple[float, ...]], tol: float) -> None:
    """The triangle inequality for every (i, j, k), one (i, j) row of k at a
    time.

    Subtracting lhs and adding tol round monotonically, so min(sums) - lhs
    is the row's smallest margin, and the row holds a violation exactly
    when lhs > min(sums) + tol.  A NaN minimum, or no margin yet, takes the
    per-k path.
    """
    n = len(vals)
    for i, row_i in enumerate(dm):
        vi = vals[i]
        for j, col_j in enumerate(cols):
            lhs = row_i[j]
            sums = list(map(add, row_i, col_j))
            least = min(sums)
            margin = least - lhs
            if margin != margin or rb.min_margin is None:
                rb.observe_all([lhs] * n, sums, lambda k: ("triangle", vi, vals[j], vals[k]))
                continue
            if margin < rb.min_margin:
                rb.min_margin = margin
            if lhs > least + tol:
                hits = [k for k, s in enumerate(sums) if lhs > s + tol]
                vj = vals[j]
                rb.add_violations(
                    [("triangle", vi, vj, vals[k]) for k in hits],
                    [lhs] * len(hits),
                    [sums[k] for k in hits],
                )


def _differences(x: float, ys: list[float], first: int = 0) -> tuple[list[float], list[int]]:
    """``[y - x for y in ys]`` and the positions, counted from ``first``,
    of those that round: where the TwoSum error (y - (s - z)) - (x + z) of
    s = fl(y - x), with z = s - y, is not 0.  It is exact for finite floats."""
    diffs = list(map(sub, ys, repeat(x)))
    zs = list(map(sub, diffs, ys))
    errs = map(sub, map(sub, ys, map(sub, diffs, zs)), map(add, repeat(x), zs))
    return diffs, list(compress(count(first), errs))


def _triangle_between(rb: ReportBuilder, vals: list[float], order: list[int], tol: float) -> None:
    """The triangle inequality on the usual metric, summing only the k
    between i and j where a difference rounds (see
    :func:`check_metric_axioms`).

    ``rows[a][m]`` is the distance from the a-th smallest sample to the
    (a + m)-th.  For sorted positions a < c, one fold sums d(a, c) + d(c, b)
    over the b from ``start``: every b > c when d(a, c) rounds, else from
    the first b where d(c, b) rounds, so each triple is in one fold at most,
    and an exact triple folded on adds a margin of 0.  fl(s - lhs) is
    monotone in s, so the folds' smallest margin is the pairs'.  A fold is
    searched for hits only when that margin is negative and not above
    -tol: fl(s - lhs) > -tol means s - lhs >= -tol, so lhs <= fl(s + tol).
    The hits of (i, j) and (j, i) are recorded at the end, in (i, j, k)
    order.
    """
    srt = [vals[k] for k in order]
    n = len(srt)
    rows, inexact = zip(*(_differences(x, srt[a:], a) for a, x in enumerate(srt)))
    first = [r[0] if r else n for r in inexact]
    rounding_rows = [c for c, f in enumerate(first) if f < n]
    least_margin = rb.min_margin
    hits = []
    for a, row_a in enumerate(rows):
        in_row = set(inexact[a])
        for c in in_row.union(rounding_rows[bisect_right(rounding_rows, a):]):
            start = c + 1 if c in in_row else first[c]
            d_ac, lhs_b, row_c = row_a[c - a], row_a[start - a:], rows[c][start - c:]
            low = min(map(sub, map(add, repeat(d_ac), row_c), lhs_b), default=0.0)
            if low < least_margin:
                least_margin = low
            if low < 0 and low <= -tol:
                i, k = order[a], order[c]
                rhs = map(add, map(add, repeat(d_ac), row_c), repeat(tol))
                for m in compress(count(), map(gt, lhs_b, rhs)):
                    j, lhs, s = order[start + m], lhs_b[m], d_ac + row_c[m]
                    hits += [(i, j, k, lhs, s), (j, i, k, lhs, s)]
    rb.min_margin = least_margin
    hits.sort()
    rb.add_violations([("triangle", vals[i], vals[j], vals[k]) for i, j, k, _, _ in hits],
                      [h[3] for h in hits], [h[4] for h in hits])
