"""Problem bundles: coupling maps, self maps, and the two solvable shapes.

A coupling map takes one point from each subset; a self map sends each
subset into itself.  Each map is one function on raw values (``fn``), which
every check and solver calls; ``evaluate`` makes a Point of its result at
the library boundary.  The two problem records name their shape in
``kind`` (``"coincidence"`` or ``"strong_coupled"``) and validate, at
construction time, the structural facts every checker and solver relies on:
subsets live inside the carrier, and the control functions carry the
declared class the problem shape calls for.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, Iterator, Optional, Sequence

from .controls import ControlClass, ControlFunction
from .errors import DomainError, ParameterError
from .expr import Expr, bind_function, fill, format_expression, row_kernel
from .metric import (
    MetricSpace,
    Point,
    SamplePlan,
    SubsetSpec,
    Value,
    member_test,
    sample_values,
    subset_within_carrier,
)
from .records import DataclassFields, Frozen


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


class CouplingMap(Frozen):
    """A two-argument map on the values of (first-subset, second-subset)
    points.

    ``fn(x, y)`` is F on raw values, the one path every scan evaluates, and
    like a self map it is treated as a pure function: its tables of floats
    come from an expression map's row kernel (``expr.fill``).  The constructors
    apply the map rule where the value is made, so a label stays a label, a
    number becomes a float and a non-finite number raises as ``Point.real``
    does; the bare constructor takes ``fn`` as it is, so its values pass
    through unchanged, a NaN or an int included.  Two maps are equal when
    they hold the same ``fn`` and ``source``.
    """

    __slots__ = _fields = ("fn", "source")

    def __init__(self, fn: Callable[[Value, Value], Value], source: Optional[str] = None):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "source", source)

    def evaluate(self, p: Point, q: Point) -> Point:
        return Point(self.fn(p.value, q.value))

    def tables(
        self, xv: Sequence[Value], yv: Sequence[Value]
    ) -> tuple[list[list[Value]], list[list[Value]]]:
        """``(f_ab, f_ba)``: ``f_ab[i][j] = F(xv[i], yv[j])`` and
        ``f_ba[j][i] = F(yv[j], xv[i])``, not kept after the call.  F is
        evaluated once per pair, a row at a time (``expr.fill``), on every
        row of ``f_ab`` and then of ``f_ba``; the first failing pair of
        that order raises ``fn``'s error.  When ``yv`` is ``xv`` (one
        sample on both axes), ``f_ba[j][i]`` is F(xv[j], yv[i]), so
        ``f_ba`` is ``f_ab`` and F is evaluated on ``f_ab``'s pairs only."""
        g = self.fn
        kernel = row_kernel(g, xv, yv)
        f_ab = [fill([], g, kernel, repeat(x), yv) for x in xv]
        return f_ab, f_ab if yv is xv else [fill([], g, kernel, repeat(y), xv) for y in yv]

    def pair_rows(
        self, first: Sequence[Value], second: Sequence[Value],
        met: Optional[Callable[[list[Value]], None]] = None,
    ) -> Iterator[list[Value]]:
        """For each f of ``first``, its row F(f, s_0), F(s_0, f), F(f, s_1),
        ... over ``second``, F evaluated in that order, a row at a time
        (``expr.fill``).  The first failing pair raises ``fn``'s error,
        after ``met`` (if given) gets the row's values before it."""
        g, n = self.fn, 2 * len(second)
        kernel = row_kernel(g, first, second)
        for f in first:
            xs, ys = [f] * n, [f] * n  # F's arguments
            xs[1::2] = ys[::2] = second
            row: list[Value] = []
            try:
                fill(row, g, kernel, xs, ys)
            except Exception:
                if met is not None:
                    met(row)
                raise
            yield row

    @staticmethod
    def from_expression(ast: Expr) -> "CouplingMap":
        return CouplingMap(_bind(ast, ("x", "y"), "coupling expressions"), format_expression(ast))

    @staticmethod
    def from_function(f: Callable[[Value, Value], Value]) -> "CouplingMap":
        return CouplingMap(lambda x, y: _value(f(x, y)))


PreimageFn = Callable[[Value, SubsetSpec, float], Optional[Value]]


class SelfMap(Frozen):
    """A one-argument map, optionally with its own preimage oracle.

    ``preimage_fn(target, subset, tol)`` takes a raw target value and
    returns a subset value ``p`` with ``d(T(p), target) <= tol`` or
    ``None``.  Maps without an oracle fall back to the solver's grid
    search.  ``fn`` is T on raw values, the one path every scan evaluates,
    built as for :class:`CouplingMap`; ``with_inverse`` keeps it.  Two maps
    are equal when they hold the same ``fn``, ``preimage_fn`` and
    ``source``; the memo is not compared.

    ``fn`` is treated as a pure function: it is evaluated once per distinct
    sample value (:meth:`image_table`), through its row kernel on floats
    as for :class:`CouplingMap`, and the images are kept on this instance,
    so the grid search does not evaluate the map again on every step, and
    the self-map, range and contraction checks, the refined grid of the
    closedness evidence and the brute-force scan share them.  The
    memo holds sample values, image values and the sorted index of
    :meth:`image_index` only, never the map, so it is freed together with
    the map.
    """

    _fields = ("fn", "preimage_fn", "source")
    __slots__ = (*_fields, "_images", "_tables")

    def __init__(self, fn: Callable[[Value], Value], preimage_fn: Optional[PreimageFn] = None,
                 source: Optional[str] = None):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "preimage_fn", preimage_fn)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "_images", {})
        object.__setattr__(self, "_tables", {})

    def evaluate(self, p: Point) -> Point:
        return Point(self.fn(p.value))

    def _entry(self, subset: SubsetSpec, plan: SamplePlan) -> list:
        """``[values, images, index]`` of one sample; the index of
        :meth:`image_index` is ``None`` until asked for.  T is evaluated
        at each value whose key is not in the memo yet, in sample order
        (``expr.fill``), so the first failing value raises ``fn``'s error
        and the images made before it stay in the memo."""
        key = (subset, plan)
        entry = self._tables.get(key)
        if entry is None:
            values = tuple(sample_values(subset, plan))
            # v itself for a nonzero float, else tagged with its type and repr, so
            # 0.0 and -0.0 (or 1 and 1.0) get keys of their own; a key's values are equal
            keys = [v if type(v) is float and v else (type(v), repr(v)) for v in values]
            memo, g = self._images, self.fn
            new = {k: v for k, v in zip(keys, values) if k not in memo}
            images: list[Value] = []
            try:
                fill(images, g, row_kernel(g, new.values()), new.values())
            finally:
                memo.update(zip(new, images))
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

    @staticmethod
    def identity() -> "SelfMap":
        def pre(target: Value, subset: SubsetSpec, tol: float) -> Optional[Value]:
            return target if member_test(subset)(target) else None

        return SelfMap(lambda x: x, preimage_fn=pre, source="identity")

    @staticmethod
    def from_expression(ast: Expr) -> "SelfMap":
        return SelfMap(_bind(ast, ("x",), "self-map expressions"), source=format_expression(ast))

    @staticmethod
    def from_function(f: Callable[[Value], Value]) -> "SelfMap":
        return SelfMap(lambda x: _value(f(x)))

    def with_inverse(self, inverse_ast: Expr, space: MetricSpace) -> "SelfMap":
        """Attach an inverse expression as the preimage oracle.

        The candidate ``inverse(target)`` is trusted only after checking it
        lands in the subset and actually maps back within tolerance, its
        image read through ``fn`` and compared with the target by
        ``space.metric`` on raw values, as the grid search compares them: a
        target outside the carrier is declined, not an error.
        """
        inverse = _bind(inverse_ast, ("x",), "inverse expressions")
        g = self.fn

        def pre(target: Value, subset: SubsetSpec, tol: float) -> Optional[Value]:
            candidate = inverse(target)
            if not member_test(subset)(candidate):
                return None
            if space.metric(g(candidate), target) > tol:
                return None
            return candidate

        return SelfMap(self.fn, pre, self.source)


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


class CoincidenceProblem(Frozen):
    """Coupling plus self map, tied together by one comparison control."""

    __slots__ = _fields = ("space", "subset_a", "subset_b", "coupling", "self_map", "phi")
    kind = "coincidence"
    __dataclass_fields__ = DataclassFields()

    def __init__(self, space: MetricSpace, subset_a: SubsetSpec, subset_b: SubsetSpec,
                 coupling: CouplingMap, self_map: SelfMap, phi: ControlFunction):
        self._set_fields(space, subset_a, subset_b, coupling, self_map, phi)
        _validate(self, phi=ControlClass.PHI)


class StrongCoupledProblem(Frozen):
    """Coupling alone, controlled by an altering pair (phi, psi)."""

    __slots__ = _fields = ("space", "subset_a", "subset_b", "coupling", "phi", "psi")
    kind = "strong_coupled"
    __dataclass_fields__ = DataclassFields()

    def __init__(self, space: MetricSpace, subset_a: SubsetSpec, subset_b: SubsetSpec,
                 coupling: CouplingMap, phi: ControlFunction, psi: ControlFunction):
        self._set_fields(space, subset_a, subset_b, coupling, phi, psi)
        _validate(self, phi=ControlClass.ALTERING, psi=ControlClass.ALTERING)
