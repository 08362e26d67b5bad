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
from .expr import Expr, bind_function, format_expression
from .metric import (
    MetricSpace,
    Point,
    SamplePlan,
    SubsetSpec,
    Value,
    contains,
    sample_values,
    subset_within_carrier,
)


def _bind(ast: Expr, params: tuple[str, ...], what: str) -> Callable[..., float]:
    """``bind_function(ast, params)``: the map on raw values, whose
    results follow ``Point.real``.  A variable outside ``params`` is a
    ParameterError.  The variables come from the lowering, so a hand-built
    tree too tall to lower raises its ExprEvalError, not RecursionError."""

    def check(free: set[str]) -> None:
        extra = free - set(params)
        if extra:
            names = ", ".join(sorted(extra))
            raise ParameterError(f"{what} may only use {sorted(params)}; found: {names}")

    return bind_function(ast, params, check)


def _value(v: Value) -> Value:
    """The value of the Point a map result ``v`` makes: a label stays a
    label, and a number becomes a float, which must be finite
    (``Point.real``).  A finite float is returned as it is."""
    if type(v) is float and math.isfinite(v):
        return v
    return Point.label(v).value if isinstance(v, str) else Point.real(v).value


def _on_points(fn: Callable[..., Point]) -> Callable[..., Value]:
    """``fn``, a map on Points, as a map on raw values."""
    return lambda *values: fn(*map(Point, values)).value


def _image_key(v: Value):
    """The key of ``v`` in a memo of images: ``v`` itself for a nonzero
    float; any other value is tagged with its type and ``repr``, so 0.0 and
    -0.0 (or 1 and 1.0) get entries of their own."""
    return v if type(v) is float and v else (type(v), repr(v))


@dataclass(frozen=True)
class CouplingMap:
    """A two-argument map evaluated on (first-subset, second-subset) points.

    Like a self map, ``fn`` is treated as a pure function.  ``value_fn`` is
    the same map on raw values, the one path every scan evaluates: its
    result is ``evaluate(Point(x), Point(y)).value``, or the error
    ``evaluate`` raises.  The constructors build it where the value is
    made, so a label stays a label, a number becomes a float and a
    non-finite number raises as ``Point.real`` does; a map given only
    ``fn`` gets ``fn`` on Points (``_on_points``).
    """

    fn: Callable[[Point, Point], Point]
    source: Optional[str] = None
    value_fn: Optional[Callable[[Value, Value], Value]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if self.value_fn is None:
            object.__setattr__(self, "value_fn", _on_points(self.fn))

    def evaluate(self, p: Point, q: Point) -> Point:
        return self.fn(p, q)

    def tables(
        self, xv: Sequence[Value], yv: Sequence[Value]
    ) -> tuple[list[list[Value]], list[list[Value]]]:
        """``(f_ab, f_ba)``: ``f_ab[i][j] = F(xv[i], yv[j])`` and
        ``f_ba[j][i] = F(yv[j], xv[i])``, not kept after the call.  F is
        called once per pair, through ``value_fn``, on every row of ``f_ab``
        and then of ``f_ba``; the first failing pair of that order raises."""
        g = self.value_fn
        return [[g(x, y) for y in yv] for x in xv], [[g(y, x) for x in xv] for y in yv]

    @staticmethod
    def from_expression(ast: Expr) -> "CouplingMap":
        f = _bind(ast, ("x", "y"), "coupling expressions")
        return CouplingMap(lambda p, q: Point(f(p.value, q.value)), format_expression(ast), f)

    @staticmethod
    def from_function(f: Callable[[Value, Value], Value]) -> "CouplingMap":
        def g(x: Value, y: Value) -> Value:
            return _value(f(x, y))

        return CouplingMap(lambda p, q: Point(g(p.value, q.value)), value_fn=g)


PreimageFn = Callable[[Point, SubsetSpec, float], Optional[Point]]


@dataclass(frozen=True)
class SelfMap:
    """A one-argument map, optionally with its own preimage oracle.

    ``preimage_fn(target, subset, tol)`` returns a subset point ``p`` with
    ``d(T(p), target) <= tol`` or ``None``.  Maps without an oracle fall back
    to the solver's grid search.  ``value_fn`` is the map on raw values, the
    one path every scan evaluates, built as for :class:`CouplingMap`;
    ``with_inverse`` keeps it.

    ``fn`` is treated as a pure function: it is evaluated once per distinct
    sample value (:meth:`image_table`), and the images are kept on this
    instance, so the grid search does not evaluate the map again on every
    step, and the self-map, range and contraction checks, the refined grid
    of the closedness evidence and the brute-force scan share them.  The
    memo holds sample values, image values and the sorted index of
    :meth:`image_index` only, never the map, so it is freed together with
    the map.
    """

    fn: Callable[[Point], Point]
    preimage_fn: Optional[PreimageFn] = None
    source: Optional[str] = None
    value_fn: Optional[Callable[[Value], Value]] = field(default=None, compare=False, repr=False)
    _images: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.value_fn is None:
            object.__setattr__(self, "value_fn", _on_points(self.fn))

    def evaluate(self, p: Point) -> Point:
        return self.fn(p)

    def _entry(self, subset: SubsetSpec, plan: SamplePlan) -> list:
        """``[values, images, index]`` of one sample; the index of
        :meth:`image_index` is ``None`` until asked for.  T is evaluated
        through ``value_fn`` at each value whose key is not in the memo
        yet, in sample order, so the first failing value raises and the
        images made before it stay in the memo."""
        key = (subset, plan)
        entry = self._tables.get(key)
        if entry is None:
            values = tuple(sample_values(subset, plan))
            keys = [_image_key(v) for v in values]
            memo, g = self._images, self.value_fn
            memo.update((k, g(v)) for k, v in zip(keys, values) if k not in memo)
            entry = [values, tuple(map(memo.__getitem__, keys)), None]
            self._tables[key] = entry
        return entry

    def image_table(
        self, subset: SubsetSpec, plan: SamplePlan
    ) -> tuple[tuple[Value, ...], tuple[Value, ...]]:
        """The sample values of ``subset`` and the values of their images, in
        sample order.  T is evaluated at the sample values it has not met
        before on this instance, in sample order."""
        entry = self._entry(subset, plan)
        return entry[0], entry[1]

    def image_index(
        self, subset: SubsetSpec, plan: SamplePlan
    ) -> Optional[tuple[list[float], list[int]]]:
        """``(values, firsts)``: the distinct image values of the sample in
        ascending order, and the first sample index that has each; ``None``
        when an image is not a float (a label, an int) or is NaN, where
        callers scan every image instead.  0.0 and -0.0 share one entry,
        which no distance ``|v - g|`` tells apart.  It is the one sorted
        index of a T table: the grid preimage search and the range check
        both bisect it."""
        entry = self._entry(subset, plan)
        if entry[2] is None:
            images = entry[1]
            if set(map(type, images)) != {float} or any(v != v for v in images):
                entry[2] = False
            else:
                first: dict[float, int] = {}
                for i, v in enumerate(images):
                    first.setdefault(v, i)
                values = sorted(first)
                entry[2] = values, [first[v] for v in values]
        return entry[2] or None

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
        f = _bind(ast, ("x",), "self-map expressions")
        return SelfMap(lambda p: Point(f(p.value)), source=format_expression(ast), value_fn=f)

    @staticmethod
    def from_function(f: Callable[[Value], Value]) -> "SelfMap":
        def g(x: Value) -> Value:
            return _value(f(x))

        return SelfMap(lambda p: Point(g(p.value)), value_fn=g)

    def with_inverse(self, inverse_ast: Expr, space: MetricSpace) -> "SelfMap":
        """Attach an inverse expression as the preimage oracle.

        The candidate ``inverse(target)`` is trusted only after checking it
        lands in the subset and actually maps back within tolerance, its
        image read through ``value_fn`` and compared with the target by
        ``space.metric`` on raw values, as the grid search compares them: a
        target outside the carrier is declined, not an error.
        """
        inverse = _bind(inverse_ast, ("x",), "inverse expressions")
        g = self.value_fn

        def pre(target: Point, subset: SubsetSpec, tol: float) -> Optional[Point]:
            candidate = Point(inverse(target.value))
            if not contains(subset, candidate):
                return None
            if space.metric(g(candidate.value), target.value) > tol:
                return None
            return candidate

        return SelfMap(self.fn, pre, self.source, self.value_fn)


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
