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
    distance,
    sample_points,
    sample_values,
    subset_within_carrier,
)


def _as_point(value: Value) -> Point:
    return Point.label(value) if isinstance(value, str) else Point.real(float(value))


def _bind(ast: Expr, params: tuple[str, ...], what: str) -> Callable[..., float]:
    """``bind_function(ast, params)``; a variable outside ``params`` is a
    ParameterError.  The variables come from the lowering, so a hand-built
    tree too tall to lower raises its ExprEvalError, not RecursionError."""

    def check(free: set[str]) -> None:
        extra = free - set(params)
        if extra:
            names = ", ".join(sorted(extra))
            raise ParameterError(f"{what} may only use {sorted(params)}; found: {names}")

    return bind_function(ast, params, check)


def _value(v: Value) -> Value:
    """``_as_point(v).value``; a finite float is returned as it is."""
    return v if type(v) is float and math.isfinite(v) else _as_point(v).value


def _values(row: list) -> list[Value]:
    """``[_as_point(v).value for v in row]``; a row of finite floats is
    returned as it is."""
    # a NaN or an infinity makes the sum NaN or infinite
    if set(map(type, row)) == {float} and math.isfinite(sum(row)):
        return row
    return [_as_point(v).value for v in row]


def _raw(m) -> tuple[Callable[..., Value], bool]:
    """``(g, checked)`` of a coupling or self map ``m``: the map on raw
    values, and whether its results still need ``_value``/``_values`` to
    equal ``m.evaluate(...).value``.  Without a ``value_fn``, g calls ``fn``
    on Points, whose values need nothing."""
    if m.value_fn is not None:
        return m.value_fn, True
    fn = m.fn
    return (lambda *values: fn(*map(Point, values)).value), False


def _image_key(v: Value):
    """The key of ``v`` in a memo of images: ``v`` itself for a nonzero
    float; any other value is tagged with its type and ``repr``, so 0.0 and
    -0.0 (or 1 and 1.0) get entries of their own."""
    return v if type(v) is float and v else (type(v), repr(v))


@dataclass(frozen=True)
class CouplingMap:
    """A two-argument map evaluated on (first-subset, second-subset) points.

    Like a self map, ``fn`` is treated as a pure function.  ``value_fn`` is
    the same map on raw values, set by the two constructors; its results go
    through the label, ``float()`` and finiteness rules of ``evaluate``
    (``_value``, ``_values``).
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

        F is called once per pair, on raw values (``_raw``).  An error is
        the one ``evaluate`` raises at the first failing pair of ``f_ab``,
        then ``f_ba``, row by row.
        """
        g, checked = _raw(self)
        conv = _values if checked else list
        xv, yv = [p.value for p in xs], [q.value for q in ys]
        try:
            return ([conv([g(x, y) for y in yv]) for x in xv],
                    [conv([g(y, x) for x in xv]) for y in yv])
        except Exception:
            if checked:  # evaluated again pair by pair, so the first failing pair raises
                fn = self.fn
                [[fn(p, q) for q in ys] for p in xs]
                [[fn(q, p) for p in xs] for q in ys]
            raise

    @staticmethod
    def from_expression(ast: Expr) -> "CouplingMap":
        f = _bind(ast, ("x", "y"), "coupling expressions")

        def fn(p: Point, q: Point) -> Point:
            return Point.real(f(p.value, q.value))

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
    to the solver's grid search.  ``value_fn`` is the map on raw values, as
    for :class:`CouplingMap`; ``from_expression`` and ``from_function`` set
    it and ``with_inverse`` keeps it.

    ``fn`` is treated as a pure function: it is evaluated once per distinct
    sample value (:meth:`sample_images`), and the images are kept on this
    instance, so the grid search does not evaluate the map again on every
    step, and the self-map, range and contraction checks, the refined grid
    of the closedness evidence and the brute-force scan share them.  The
    memo holds sample points, image values and the sorted index of
    :meth:`image_index` only, never the map, so it is freed together with
    the map.
    """

    fn: Callable[[Point], Point]
    preimage_fn: Optional[PreimageFn] = None
    source: Optional[str] = None
    value_fn: Optional[Callable[[Value], Value]] = field(default=None, compare=False, repr=False)
    _images: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def evaluate(self, p: Point) -> Point:
        return self.fn(p)

    def _entry(self, subset: SubsetSpec, plan: SamplePlan) -> list:
        """``[values, images, points, index]`` of one sample; the Points of
        :meth:`sample_images` and the index of :meth:`image_index` are
        ``None`` until asked for."""
        key = (subset, plan)
        entry = self._tables.get(key)
        if entry is None:
            values = tuple(sample_values(subset, plan))
            keys = [_image_key(v) for v in values]
            memo = self._images
            todo = {k: v for k, v in zip(keys, values) if k not in memo}
            if todo:
                g, checked = _raw(self)
                try:
                    images = [g(v) for v in todo.values()]
                    memo.update(zip(todo, _values(images) if checked else images))
                except Exception:
                    if checked:  # evaluated again one by one, so the first failing value raises
                        [self.fn(Point(v)) for v in todo.values()]
                    raise
            entry = [values, tuple(map(memo.__getitem__, keys)), None, None]
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

    def sample_images(
        self, subset: SubsetSpec, plan: SamplePlan
    ) -> tuple[tuple[Point, ...], tuple[Value, ...]]:
        """:meth:`image_table` with the sampled points in place of their values."""
        entry = self._entry(subset, plan)
        if entry[2] is None:
            entry[2] = tuple(sample_points(subset, plan))
        return entry[2], entry[1]

    def image_index(
        self, subset: SubsetSpec, plan: SamplePlan
    ) -> Optional[tuple[list[float], list[int]]]:
        """``(values, firsts)``: the distinct image values of the sample in
        ascending order, and the first sample index that has each; ``None``
        when an image is not a float or is NaN.  0.0 and -0.0 share one
        entry, which no distance ``|v - g|`` tells apart."""
        entry = self._entry(subset, plan)
        if entry[3] is None:
            images = entry[1]
            if set(map(type, images)) != {float} or any(v != v for v in images):
                entry[3] = False
            else:
                first: dict[float, int] = {}
                for i, v in enumerate(images):
                    first.setdefault(v, i)
                values = sorted(first)
                entry[3] = values, [first[v] for v in values]
        return entry[3] or None

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

        def fn(p: Point) -> Point:
            return Point.real(f(p.value))

        return SelfMap(fn, source=format_expression(ast), value_fn=f)

    @staticmethod
    def from_function(f: Callable[[Value], Value]) -> "SelfMap":
        return SelfMap(lambda p: _as_point(f(p.value)), value_fn=f)

    def with_inverse(self, inverse_ast: Expr, space: MetricSpace) -> "SelfMap":
        """Attach an inverse expression as the preimage oracle.

        The candidate ``inverse(target)`` is trusted only after checking it
        lands in the subset and actually maps back within tolerance.
        """
        inverse = _bind(inverse_ast, ("x",), "inverse expressions")

        def pre(target: Point, subset: SubsetSpec, tol: float) -> Optional[Point]:
            candidate = Point.real(inverse(target.value))
            if not contains(subset, candidate):
                return None
            if distance(space, self.evaluate(candidate), target) > tol:
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
