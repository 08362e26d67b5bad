"""Reference rules kept beside the package's faster ones.

``contains`` and ``carrier_contains`` are the per-Point membership tests the
package used before it tested raw values only (``metric.member_test``).  The
tests compare the package's raw membership, subset intersection and
carrier test with these, so the rule they implement stays pinned: finite
real members match within ``REAL_EQ_TOL``, labels match exactly, and
intervals hold reals only.

``pair_axioms`` and ``between_k_triangle`` are the metric-axiom scans the
package used before it decided the pair axioms and the exact triangle
triples of the usual metric: one pair at a time, and every k between i and
j.  ``between_k_triangle`` is fast enough for samples of a few hundred
points, where the n³ loop is not.
"""

from __future__ import annotations

from operator import add

from couplefix.metric import (
    REAL_EQ_TOL,
    Interval,
    MetricSpace,
    Point,
    SubsetSpec,
    sample_values,
    separation,
)
from couplefix.report import CheckReport, ReportBuilder


def _is_real(p: Point) -> bool:
    return not isinstance(p.value, str)


def contains(subset: SubsetSpec, p: Point) -> bool:
    """Subset membership; finite real members match within ``REAL_EQ_TOL``."""
    if subset.is_finite:
        for member in map(Point, subset.values):
            if _is_real(member) and _is_real(p):
                if abs(member.value - p.value) <= REAL_EQ_TOL:
                    return True
            elif member.value == p.value:
                return True
        return False
    if not _is_real(p):
        return False
    return any(iv.contains_value(p.value) for iv in subset.intervals)


def carrier_contains(space: MetricSpace, p: Point) -> bool:
    c = space.carrier
    if isinstance(c, Interval):
        return _is_real(p) and c.contains_value(p.value)
    return (not _is_real(p)) and p.value in c.labels


def finite_within_carrier(space: MetricSpace, subset: SubsetSpec) -> bool:
    """Whether every member of a finite subset lies in the carrier."""
    return all(carrier_contains(space, p) for p in map(Point, subset.values))


def finite_intersection(a: SubsetSpec, b: SubsetSpec) -> SubsetSpec | None:
    """The intersection when a side is finite: the members of the first
    finite side that the other contains, in declared order."""
    finite, other = (a, b) if a.is_finite else (b, a)
    kept = [p for p in map(Point, finite.values) if contains(other, p)]
    return SubsetSpec(tuple(p.value for p in kept)) if kept else None


def pair_axioms(rb: ReportBuilder, vals: list, dm: list[list[float]], tol: float) -> None:
    """Self-distance, then nonnegativity, symmetry and identity of
    indiscernibles for each pair (i, j > i), one sample at a time."""
    n = len(vals)
    for i in range(n):
        if dm[i][i] > tol:
            rb.add_violation(("identity_self", vals[i]), dm[i][i], 0.0)
        else:
            rb.count_sample(-dm[i][i])
        for j in range(i + 1, n):
            rb.observe(-dm[i][j], 0.0, ("nonnegativity", vals[i], vals[j]))
            rb.observe(abs(dm[i][j] - dm[j][i]), 0.0, ("symmetry", vals[i], vals[j]))
            sep = separation(vals[i], vals[j])
            if dm[i][j] <= tol and sep > max(REAL_EQ_TOL, dm[i][j] + tol):
                rb.add_violation(("identity_of_indiscernibles", vals[i], vals[j]), sep, dm[i][j])


def between_k_triangle(space: MetricSpace, plan, tol: float) -> CheckReport:
    """The metric-axiom report of a real line with the usual metric, for
    ``tol >= 0`` and a finite span: the pair axioms one pair at a time,
    then the triangle inequality summed over every k whose value lies
    between vi and vj.  Each (i, j) pair is summed once in a value-sorted
    distance table, and its violations are recorded for (i, j) and (j, i)
    and sorted into (i, j, k) order."""
    vals = sample_values(SubsetSpec.from_intervals([space.carrier]), plan)
    n = len(vals)
    rb = ReportBuilder("metric_axioms", tol)
    pair_axioms(rb, vals, [[abs(a - b) for b in vals] for a in vals], tol)
    samples = rb.samples + n * n * n
    order = sorted(range(n), key=vals.__getitem__)
    table = [[abs(vals[p] - vals[q]) for q in order] for p in order]
    hits = []
    for a, row_a in enumerate(table):
        for b in range(a + 1, n):
            lhs = row_a[b]
            sums = list(map(add, row_a[a:b + 1], table[b][a:b + 1]))
            margin = min(sums) - lhs
            if margin < rb.min_margin:
                rb.min_margin = margin
            for c, s in enumerate(sums, a):
                if lhs > s + tol:
                    i, j = order[a], order[b]
                    hits += [(i, j, order[c], lhs, s), (j, i, order[c], lhs, s)]
    hits.sort()
    rb.add_violations([("triangle", vals[i], vals[j], vals[k]) for i, j, k, _, _ in hits],
                      [h[3] for h in hits], [h[4] for h in hits])
    rb.samples = samples
    return rb.build()
