"""Scalar control functions with sampled membership checks for two classes.

Two classes of function on [0, inf) drive the solvers downstream:

* the *phi* (comparison) class — non-decreasing, strictly below the
  identity for t > 0, and with right-limits strictly below the identity —
  controls the coincidence-point contraction test;
* *altering distances* — monotone non-decreasing, continuous, and zero
  exactly at zero — control the strong-coupled variant.

Membership in either class constrains limits, which sampling cannot
certify, so ``check_phi_class`` and ``check_altering`` approximate the
limit conditions with a fixed epsilon ladder and report evidence, not
proof.  A control function is the exact callable its constructor returns,
a declared class, and ``ratio``, which gives the exact value at t as an
integer ratio.  Every evaluation goes through ``ratio``: comparisons
cross-multiply, and a float is int true division, rounded once as
``float(Fraction(num, den))`` rounds it, so no ``Fraction`` is built.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from itertools import pairwise
from operator import methodcaller
from typing import Callable, Optional

from .errors import DomainError, ParameterError
from .expr import Numeric, bind_exact, parse_expression
from .metric import Interval, SamplePlan, SubsetSpec, sample_values
from .records import Frozen
from .report import CheckReport, ReportBuilder

#: Decreasing offsets used to approximate one-sided limits at a grid point.
LIMIT_LADDER = (1e-3, 1e-6, 1e-9)

#: Absolute gap (scaled by the function's magnitude) below which a ladder of
#: one-sided differences counts as continuous.
CONTINUITY_ABS = 1e-6

#: Alternative continuity evidence: the smallest ladder gap must have decayed
#: to at most this fraction of the largest.  Catches steep-but-continuous
#: functions (e.g. square roots near zero) that the absolute test misses.
CONTINUITY_DECAY = 0.05


class ControlClass(enum.Enum):
    """Declared membership class of a control function."""

    PHI = "phi"
    ALTERING = "altering"
    UNCLASSIFIED = "unclassified"


class ControlFunction(Frozen):
    """A scalar function on [0, inf) and the class it is declared to belong to.

    ``fn`` evaluates without rounding: linear, capped-linear and identity
    functions return exact Fractions, expressions are compiled by
    ``expr.bind_exact``, and powers return floats.  ``ratio(t)``, which the
    checkers and ``eval_control`` use, is that value as ``(num, den)`` with
    ``den > 0``: computed from ``t.as_integer_ratio()`` for linear,
    capped-linear and identity functions (the first two build ``fn`` on
    it), else ``fn(t).as_integer_ratio()``.  Exactness matters to the
    checkers: a float cap value can round up onto a grid point just above
    the true rational threshold, and a rounded comparison would then
    misjudge the strict ``f(t) < t`` test.  ``ratio`` enters neither ``==``
    nor ``repr``.
    """

    _fields = ("fn", "declared_class")
    __slots__ = (*_fields, "ratio")

    def __init__(self, fn: Callable[[Numeric], Numeric],
                 declared_class: ControlClass = ControlClass.UNCLASSIFIED,
                 ratio: Optional[Callable[[Numeric], tuple]] = None):
        if ratio is None:
            ratio = lambda t: fn(t).as_integer_ratio()
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "declared_class", declared_class)
        object.__setattr__(self, "ratio", ratio)


def _to_fraction(value, what: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParameterError(f"{what} must be a rational number, got {value!r}") from exc


def make_linear(slope) -> ControlFunction:
    """f(t) = slope * t; below the identity iff slope < 1."""
    k = _to_fraction(slope, "slope")
    if k < 0:
        raise ParameterError(f"linear slope must be >= 0, got {slope}")
    declared = ControlClass.PHI if k < 1 else ControlClass.ALTERING
    kn, kd = k.as_integer_ratio()

    def ratio(t) -> tuple[int, int]:
        n, d = t.as_integer_ratio()
        return kn * n, kd * d

    return ControlFunction(lambda t: Fraction(*ratio(t)), declared, ratio)


def make_power(exponent) -> ControlFunction:
    """f(t) = t ** exponent for exponent > 0."""
    p = float(exponent)
    if not (p > 0 and math.isfinite(p)):
        raise ParameterError(f"power exponent must be > 0, got {exponent}")

    def power(t) -> float:
        try:
            return float(t) ** p
        except OverflowError:
            raise DomainError(f"power control t ** {p} overflows at t={t}") from None

    return ControlFunction(power, ControlClass.ALTERING)


def make_capped_linear(slope, threshold) -> ControlFunction:
    """f(t) = slope*t for t <= threshold, and the threshold value above it.

    The cap makes the function jump from slope*threshold up to threshold at
    the threshold, so it stays strictly below the identity (slope < 1) while
    remaining non-decreasing — a comparison function that is deliberately
    not continuous.
    """
    k = _to_fraction(slope, "slope")
    c = _to_fraction(threshold, "threshold")
    if not 0 < k < 1:
        raise ParameterError(f"capped-linear slope must lie in (0, 1), got {slope}")
    if c <= 0:
        raise ParameterError(f"capped-linear threshold must be > 0, got {threshold}")

    (kn, kd), (cn, cd) = k.as_integer_ratio(), c.as_integer_ratio()

    def ratio(t) -> tuple[int, int]:
        n, d = t.as_integer_ratio()
        return (kn * n, kd * d) if n * cd <= cn * d else (cn, cd)

    return ControlFunction(lambda t: Fraction(*ratio(t)), ControlClass.PHI, ratio)


def identity_control() -> ControlFunction:
    """f(t) = t, evaluated by ``Fraction`` itself."""
    return ControlFunction(Fraction, ControlClass.ALTERING, methodcaller("as_integer_ratio"))


def expr_control(ast, declared: ControlClass = ControlClass.UNCLASSIFIED) -> ControlFunction:
    """Wrap a parsed expression in t as a control function."""
    def check(free: set[str]) -> None:
        if not free <= {"t"}:
            raise ParameterError(
                f"control expressions may only use the variable t, found {sorted(free)}"
            )

    fn = bind_exact(ast, ("t",), check)
    return ControlFunction(lambda t: fn(Fraction(t)), declared)


def control_from_text(text: str, declared: ControlClass = ControlClass.UNCLASSIFIED) -> ControlFunction:
    """Parse source text and wrap it as a control function."""
    return expr_control(parse_expression(text), declared)


def with_declared_class(f: ControlFunction, declared: ControlClass) -> ControlFunction:
    """The same function re-tagged, e.g. a shallow linear slope used as an
    altering distance rather than a comparison bound."""
    return ControlFunction(f.fn, declared, f.ratio)


def eval_control(f: ControlFunction, t) -> float:
    """``f`` at t in [0, inf): ``num / den`` of ``f.ratio(t)``, so never NaN.
    Another t or a value beyond the float range raises ``DomainError``."""
    if not 0 <= t < math.inf:
        raise DomainError(f"control functions are defined on [0, inf); got t={t}")
    return _float(*f.ratio(t), t)


def _float(n: int, d: int, t) -> float:
    """``n / d``, the control value at t, or ``DomainError`` beyond floats."""
    try:
        return n / d
    except OverflowError:
        raise DomainError(f"control function overflows the float range at t={t}") from None


def _at_least(n: int, d: int, x: float) -> bool:
    """Whether n / d >= x exactly, for d > 0 and a float x; ±inf is ±1 / 0."""
    xn, xd = x.as_integer_ratio() if math.isfinite(x) else (-1 if x < 0 else 1, 0)
    return n * xd >= xn * d


def _grid_values(t_max: float, plan: SamplePlan) -> list[float]:
    if not (float(t_max) > 0 and math.isfinite(float(t_max))):
        raise ParameterError(f"t_max must be a positive finite real, got {t_max}")
    subset = SubsetSpec.from_intervals([Interval(0.0, float(t_max))])
    return sorted(sample_values(subset, plan))


def check_phi_class(
    f: ControlFunction,
    t_max: float,
    plan: SamplePlan = SamplePlan(),
    tol: float = 1e-9,
) -> CheckReport:
    """Sampled evidence that ``f`` is a comparison function on [0, t_max].

    Checks, over a deterministic grid: (i) monotone non-decrease between
    adjacent points; (ii) f(t) < t at every sampled t > 0, with an exact
    strict comparison so boundary cases are judged correctly; (iii) the
    right-limit condition, approximated by the minimum of f over a
    decreasing epsilon ladder above each point, which must stay below
    t + tol.
    """
    builder = ReportBuilder("phi_class", tol)
    ts = _grid_values(t_max, plan)
    ratio = f.ratio
    values = [ratio(t) for t in ts]
    floats = [_float(n, d, t) for t, (n, d) in zip(ts, values)]
    for (t1, v1), (t2, v2) in pairwise(zip(ts, floats)):
        builder.observe(v1, v2, ("monotone", t1, t2))
    for t, (n, d), v in zip(ts, values, floats):
        if t <= 0:
            continue
        tn, td = t.as_integer_ratio()
        if n * td >= tn * d:
            builder.add_violation(("below_identity", t), v, t)
        else:
            builder.count_sample(t - v)
        # A rung clears the right-limit test if it sits below t + tol, or at
        # least below its own argument (the rung may have jumped past a
        # discontinuity between t and t + eps; below-identity there means
        # the limit cannot exceed t).
        rungs = [(u, ratio(u)) for u in [t + eps for eps in LIMIT_LADDER]]
        if all(_at_least(*rv, max(t + tol, u)) for u, rv in rungs):
            worst = min(_float(*rv, u) for u, rv in rungs)
            builder.add_violation(("right_limit", t), worst, t)
        else:
            builder.count_sample()
    return builder.build({"t_max": float(t_max), "grid_points": len(ts)})


def check_altering(
    f: ControlFunction,
    t_max: float,
    plan: SamplePlan = SamplePlan(),
    tol: float = 1e-9,
) -> CheckReport:
    """Sampled evidence that ``f`` is an altering distance on [0, t_max].

    Checks monotone non-decrease, f(0) = 0, strict positivity at sampled
    t > 0, and two-sided continuity at every grid point.  Continuity holds
    at a point when the one-sided ladder gaps either shrink below a
    magnitude-scaled absolute tolerance or decay by ``CONTINUITY_DECAY``
    across the ladder.
    """
    builder = ReportBuilder("altering_distance", tol)
    ts = _grid_values(t_max, plan)
    ratio = f.ratio
    values = [ratio(t) for t in ts]
    floats = [_float(n, d, t) for t, (n, d) in zip(ts, values)]
    for (t1, v1), (t2, v2) in pairwise(zip(ts, floats)):
        builder.observe(v1, v2, ("monotone", t1, t2))
    builder.observe(abs(eval_control(f, 0.0)), 0.0, ("zero_at_zero", 0.0))
    for t, (n, d), v in zip(ts, values, floats):
        if t > 0:
            if n <= 0:
                builder.add_violation(("positive", t), -n / d, 0.0)
            else:
                builder.count_sample(v)
        for side, sign in (("right", 1.0), ("left", -1.0)):
            gaps = []
            for h in LIMIT_LADDER:
                u = t + sign * h
                if u >= 0:
                    un, ud = ratio(u)
                    gaps.append(_float(abs(un * d - n * ud), ud * d, u))
            if not gaps:
                continue
            smallest, largest = min(gaps), max(gaps)
            threshold = max(tol, CONTINUITY_ABS * max(1.0, abs(v)))
            if smallest <= threshold or smallest <= CONTINUITY_DECAY * largest:
                builder.count_sample()
            else:
                builder.add_violation(("continuity", t, side), smallest, threshold)
    return builder.build({"t_max": float(t_max), "grid_points": len(ts)})
