"""Problem bundles: coupling maps, self maps, and the two solvable shapes.

A coupling map takes one point from each subset; a self map sends each
subset into itself.  The two problem dataclasses name their shape in
``kind`` (``"coincidence"`` or ``"strong_coupled"``) and validate, at
construction time, the structural facts every checker and solver relies on:
subsets live inside the carrier, and the control functions carry the
declared class the problem shape calls for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Sequence

from .controls import ControlClass, ControlFunction
from .errors import DomainError, ParameterError
from .expr import Expr, bind_function, format_expression, free_variables
from .metric import (
    MetricSpace,
    Point,
    SamplePlan,
    SubsetSpec,
    Value,
    contains,
    distance,
    sample_points,
    subset_within_carrier,
)


def _as_point(value: Value) -> Point:
    return Point.label(value) if isinstance(value, str) else Point.real(float(value))


def _require_vars(ast: Expr, allowed: set[str], what: str) -> None:
    extra = free_variables(ast) - allowed
    if extra:
        names = ", ".join(sorted(extra))
        raise ParameterError(f"{what} may only use {sorted(allowed)}; found: {names}")


def _values(row: list) -> list[Value]:
    """``[_as_point(v).value for v in row]``; a row of finite floats is
    returned as it is."""
    # a NaN or an infinity makes the sum NaN or infinite
    if set(map(type, row)) == {float} and math.isfinite(sum(row)):
        return row
    return [_as_point(v).value for v in row]


@dataclass(frozen=True)
class CouplingMap:
    """A two-argument map evaluated on (first-subset, second-subset) points.

    Like a self map, ``fn`` is treated as a pure function.  ``value_fn`` is
    the same map on raw values, set by the two constructors.
    """

    fn: Callable[[Point, Point], Point]
    source: Optional[str] = None
    value_fn: Optional[Callable[[Value, Value], Value]] = field(
        default=None, compare=False, repr=False
    )

    def evaluate(self, p: Point, q: Point) -> Point:
        return self.fn(p, q)

    def tables(
        self, xs: Sequence[Point], ys: Sequence[Point]
    ) -> tuple[list[list[Value]], list[list[Value]]]:
        """``(f_ab, f_ba)``: ``f_ab[i][j] = F(xs[i], ys[j]).value`` and
        ``f_ba[j][i] = F(ys[j], xs[i]).value``, not kept after the call.

        ``value_fn`` is called on raw values, under the rules of ``evaluate``;
        without one, ``fn`` is called once per pair.  An error is the one
        ``evaluate`` raises at the first failing pair of ``f_ab``, then
        ``f_ba``, row by row.
        """
        g = self.value_fn
        if g is not None:
            xv, yv = [p.value for p in xs], [q.value for q in ys]
            try:
                return ([_values([g(x, y) for y in yv]) for x in xv],
                        [_values([g(y, x) for x in xv]) for y in yv])
            except Exception:
                pass  # evaluated again pair by pair, so the first failing pair raises
        fn = self.fn
        return ([[fn(p, q).value for q in ys] for p in xs],
                [[fn(q, p).value for p in xs] for q in ys])

    @staticmethod
    def from_expression(ast: Expr) -> "CouplingMap":
        _require_vars(ast, {"x", "y"}, "coupling expressions")
        f = bind_function(ast, ("x", "y"))

        def fn(p: Point, q: Point) -> Point:
            return Point.real(f(p.value, q.value))

        # f returns numbers, for which _as_point, and so tables, is Point.real
        return CouplingMap(fn, format_expression(ast), f)

    @staticmethod
    def from_function(f: Callable[[Value, Value], Value]) -> "CouplingMap":
        return CouplingMap(lambda p, q: _as_point(f(p.value, q.value)), value_fn=f)


PreimageFn = Callable[[Point, SubsetSpec, float], Optional[Point]]


@dataclass(frozen=True)
class SelfMap:
    """A one-argument map, optionally with its own preimage oracle.

    ``preimage_fn(target, subset, tol)`` returns a subset point ``p`` with
    ``d(T(p), target) <= tol`` or ``None``.  Maps without an oracle fall back
    to the solver's grid search.

    ``fn`` is treated as a pure function: :meth:`sample_images` computes the
    images of a sampled subset once and keeps them on this instance, so the
    grid search does not evaluate the map again on every step, and the
    self-map, range and contraction checks and the brute-force scan share
    one table per grid.  The table
    holds sample points and image values only, never the map, so it is freed
    together with the map.
    """

    fn: Callable[[Point], Point]
    preimage_fn: Optional[PreimageFn] = None
    source: Optional[str] = None
    _images: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def evaluate(self, p: Point) -> Point:
        return self.fn(p)

    def sample_images(
        self, subset: SubsetSpec, plan: SamplePlan
    ) -> tuple[tuple[Point, ...], tuple[Value, ...]]:
        """The sampled points of ``subset`` and the values of their images,
        in sample order; computed on the first call for each (subset, plan)."""
        key = (subset, plan)
        table = self._images.get(key)
        if table is None:
            points = tuple(sample_points(subset, plan))
            table = (points, tuple(self.evaluate(p).value for p in points))
            self._images[key] = table
        return table

    @property
    def has_preimage_oracle(self) -> bool:
        return self.preimage_fn is not None

    def preimage(self, target: Point, subset: SubsetSpec, tol: float) -> Optional[Point]:
        if self.preimage_fn is None:
            raise ParameterError("this self map has no preimage oracle")
        return self.preimage_fn(target, subset, tol)

    @staticmethod
    def identity() -> "SelfMap":
        def pre(target: Point, subset: SubsetSpec, tol: float) -> Optional[Point]:
            return target if contains(subset, target) else None

        return SelfMap(lambda p: p, preimage_fn=pre, source="identity")

    @staticmethod
    def from_expression(ast: Expr) -> "SelfMap":
        _require_vars(ast, {"x"}, "self-map expressions")
        f = bind_function(ast, ("x",))

        def fn(p: Point) -> Point:
            return Point.real(f(p.value))

        return SelfMap(fn, source=format_expression(ast))

    @staticmethod
    def from_function(f: Callable[[Value], Value]) -> "SelfMap":
        return SelfMap(lambda p: _as_point(f(p.value)))

    def with_inverse(self, inverse_ast: Expr, space: MetricSpace) -> "SelfMap":
        """Attach an inverse expression as the preimage oracle.

        The candidate ``inverse(target)`` is trusted only after checking it
        lands in the subset and actually maps back within tolerance.
        """
        _require_vars(inverse_ast, {"x"}, "inverse expressions")
        inverse = bind_function(inverse_ast, ("x",))

        def pre(target: Point, subset: SubsetSpec, tol: float) -> Optional[Point]:
            candidate = Point.real(inverse(target.value))
            if not contains(subset, candidate):
                return None
            if distance(space, self.evaluate(candidate), target) > tol:
                return None
            return candidate

        return SelfMap(self.fn, preimage_fn=pre, source=self.source)


def _validate(problem, **classes: ControlClass) -> None:
    """Both subsets lie in the carrier, and each named control slot holds a
    function declared with the given class."""
    for label, subset in (("A", problem.subset_a), ("B", problem.subset_b)):
        if not subset_within_carrier(problem.space, subset):
            raise DomainError(f"subset {label} is not contained in the carrier")
    for slot, wanted in classes.items():
        declared = getattr(problem, slot).declared_class
        if declared is not wanted:
            raise ParameterError(f"{slot} must be declared {wanted.value}; got {declared.value}")


@dataclass(frozen=True)
class CoincidenceProblem:
    """Coupling plus self map, tied together by one comparison control."""

    kind: ClassVar[str] = "coincidence"
    space: MetricSpace
    subset_a: SubsetSpec
    subset_b: SubsetSpec
    coupling: CouplingMap
    self_map: SelfMap
    phi: ControlFunction

    def __post_init__(self):
        _validate(self, phi=ControlClass.PHI)


@dataclass(frozen=True)
class StrongCoupledProblem:
    """Coupling alone, controlled by an altering pair (phi, psi)."""

    kind: ClassVar[str] = "strong_coupled"
    space: MetricSpace
    subset_a: SubsetSpec
    subset_b: SubsetSpec
    coupling: CouplingMap
    phi: ControlFunction
    psi: ControlFunction

    def __post_init__(self):
        _validate(self, phi=ControlClass.ALTERING, psi=ControlClass.ALTERING)
