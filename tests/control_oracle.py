"""Fraction arithmetic reference for the control evaluator and class checks.

``couplefix.controls`` evaluates every control through its integer-ratio
evaluator ``ratio`` and compares by cross-multiplication.  This module does
the same work the direct way on a reference function ``fn`` of the same
control (a ``Fraction`` formula, or a control's own ``fn``): it compares
what ``fn`` returns (a ``Fraction`` or a float) with Python's exact mixed
comparisons and rounds with ``float()``.  The differential tests require
both to give the same floats, the same reports and the same exceptions.
A value beyond the float range is a ``DomainError`` naming its t, and a t
outside [0, inf) is a ``DomainError`` too, as in the package.
"""

from __future__ import annotations

import math
from itertools import pairwise
from typing import Callable

from couplefix.controls import (
    CONTINUITY_ABS,
    CONTINUITY_DECAY,
    LIMIT_LADDER,
    _grid_values,
)
from couplefix.errors import DomainError
from couplefix.metric import SamplePlan
from couplefix.report import CheckReport, ReportBuilder


def _float(value, t) -> float:
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"control function overflows the float range at t={t}") from None


def eval_control(fn: Callable, t) -> float:
    if not 0 <= t < math.inf:
        raise DomainError(f"control functions are defined on [0, inf); got t={t}")
    value = _float(fn(t), t)
    if math.isnan(value):
        raise DomainError(f"control function evaluated to NaN at t={t}")
    return value


def check_phi_class(fn: Callable, t_max: float, plan: SamplePlan = SamplePlan(),
                    tol: float = 1e-9) -> CheckReport:
    builder = ReportBuilder("phi_class", tol)
    ts = _grid_values(t_max, plan)
    values = [fn(t) for t in ts]
    for (t1, v1), (t2, v2) in pairwise(zip(ts, values)):
        builder.observe(_float(v1, t1), _float(v2, t2), ("monotone", t1, t2))
    for t, v in zip(ts, values):
        if t <= 0:
            continue
        if v >= t:
            builder.add_violation(("below_identity", t), float(v), t)
        else:
            # a float minus a Fraction is float arithmetic on float(v)
            builder.count_sample(float(t - v))
        rungs = [(t + eps, fn(t + eps)) for eps in LIMIT_LADDER]
        if all(rv >= t + tol and rv >= u for u, rv in rungs):
            worst = min(_float(rv, u) for u, rv in rungs)
            builder.add_violation(("right_limit", t), worst, t)
        else:
            builder.count_sample()
    return builder.build({"t_max": float(t_max), "grid_points": len(ts)})


def check_altering(fn: Callable, t_max: float, plan: SamplePlan = SamplePlan(),
                   tol: float = 1e-9) -> CheckReport:
    builder = ReportBuilder("altering_distance", tol)
    ts = _grid_values(t_max, plan)
    values = [fn(t) for t in ts]
    for (t1, v1), (t2, v2) in pairwise(zip(ts, values)):
        builder.observe(_float(v1, t1), _float(v2, t2), ("monotone", t1, t2))
    builder.observe(abs(eval_control(fn, 0.0)), 0.0, ("zero_at_zero", 0.0))
    for t, v in zip(ts, values):
        if t > 0:
            if v <= 0:
                builder.add_violation(("positive", t), float(-v), 0.0)
            else:
                builder.count_sample(float(v))
        for side, sign in (("right", 1.0), ("left", -1.0)):
            gaps = [
                _float(abs(fn(t + sign * h) - v), t + sign * h)
                for h in LIMIT_LADDER
                if t + sign * h >= 0
            ]
            if not gaps:
                continue
            smallest, largest = min(gaps), max(gaps)
            threshold = max(tol, CONTINUITY_ABS * max(1.0, abs(float(v))))
            if smallest <= threshold or smallest <= CONTINUITY_DECAY * largest:
                builder.count_sample()
            else:
                builder.add_violation(("continuity", t, side), smallest, threshold)
    return builder.build({"t_max": float(t_max), "grid_points": len(ts)})
