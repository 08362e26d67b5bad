"""Reference membership rules on Points, kept beside the raw-value ones.

``contains`` and ``carrier_contains`` are the per-Point membership tests the
package used before it tested raw values only (``metric.member_test``).  The
tests compare the package's raw membership, subset intersection and
carrier test with these, so the rule they implement stays pinned: finite
real members match within ``REAL_EQ_TOL``, labels match exactly, and
intervals hold reals only.
"""

from __future__ import annotations

from couplefix.metric import REAL_EQ_TOL, Interval, MetricSpace, Point, SubsetSpec


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
