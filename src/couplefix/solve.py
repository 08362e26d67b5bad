"""Iteration engines, per-run diagnostics, and the brute-force oracle.

Both engines are entries to one driver, which runs the alternating scheme:
the next pair is built from the coupling applied to the swapped current
pair, by a per-kind step function (a preimage step under the self map T
for coincidence runs, a plain coupling step with a subset-escape check for
strong runs, the identity-T case), and the run stops as soon as the
committed step distance

    D_n = max(d(first_n, y_n), d(second_n, x_n))

falls within tolerance, where ``first_n``/``second_n`` are the incoming
iterates (self-map preimages for coincidence runs, coupling values for
strong runs).  The driver, its steps, its residuals and the preimage
searches carry raw values and call F and T through ``fn``; Points are
built for the reported candidate only.  The pair distance
R_n rides along as a second diagnostic.  Only a run that records its trace
builds ``TraceStep``s, and on the usual metric the strong step and the
brute-force scan compute ``abs(a - b)`` without calling the metric.
Theory says both sequences shrink monotonically for admissible problems, so
an increase while the predecessor is still above tolerance is treated as a
hard error rather than noise: the run aborts with a diagnostic status
instead of pretending the orbit still converges.

Stopping with D_n <= tol certifies the *pair*; the report only claims full
convergence after re-evaluating the defining residuals at the candidate
(a per-kind residual function of the driver), and downgrades to an
early-coincidence status when any of them is loose.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from functools import partial
from typing import Any, NamedTuple, Optional, Union

from .errors import BudgetError, DomainError, ParameterError, at_least_one, positive_finite
from .metric import (
    Point,
    SamplePlan,
    SubsetSpec,
    Value,
    _usual_real,
    member_test,
    sample_values,
    subset_intersection,
)
from .problems import CoincidenceProblem, SelfMap, StrongCoupledProblem
from .records import Frozen, Record
from .report import CheckReport, ReportBuilder

#: Grid resolution for the fallback preimage search.
PREIMAGE_GRID_COUNT = 1001


class SolveStatus(Enum):
    CONVERGED = "Converged"
    EARLY_COINCIDENCE = "EarlyCoincidence"
    MAX_ITER_EXCEEDED = "MaxIterExceeded"
    PREIMAGE_FAILURE = "PreimageFailure"
    DIAGNOSTIC_VIOLATION = "DiagnosticViolation"


class SolveOptions(Frozen):
    __slots__ = _fields = ("tol", "max_iter", "preimage_tol")

    def __init__(self, tol: float = 1e-9, max_iter: int = 10_000, preimage_tol: float = 1e-9):
        object.__setattr__(self, "tol", positive_finite("tol", tol))
        object.__setattr__(self, "max_iter", at_least_one("max_iter", max_iter))
        object.__setattr__(self, "preimage_tol", positive_finite("preimage_tol", preimage_tol))


class TraceStep(NamedTuple):
    """One completed transition: the pair it started from and its step sizes.

    The fields follow the columns of the trace CSV.
    """

    n: int
    x: Value
    y: Value
    tx: Optional[Value]
    ty: Optional[Value]
    d: float
    r: float

    @property
    def residual(self) -> float:
        return self.d if self.d >= self.r else self.r


#: ``TraceStep`` of one tuple of its fields, without NamedTuple's Python-level ``__new__``
_trace_step = partial(tuple.__new__, TraceStep)


class IterationTrace(Record):
    __slots__ = _fields = ("kind", "steps")

    def __init__(self, kind: str, steps: Optional[list[TraceStep]] = None):
        self.kind = kind  # "coincidence" or "strong_coupled"
        self.steps = [] if steps is None else steps


class SolveReport(Record):
    __slots__ = _fields = ("status", "candidate", "residuals", "iterations_used", "failure")

    def __init__(self, status: SolveStatus, candidate: Optional[tuple[Point, Point]],
                 residuals: dict[str, float], iterations_used: int,
                 failure: Optional[dict[str, Any]] = None):
        self.status = status
        self.candidate = candidate
        self.residuals = residuals
        self.iterations_used = iterations_used
        self.failure = failure

    def to_dict(self) -> dict[str, Any]:
        cand = None
        if self.candidate is not None:
            cand = {"x": self.candidate[0].value, "y": self.candidate[1].value}
        return {
            "status": self.status.value,
            "candidate": cand,
            "residuals": self.residuals,
            "iterations_used": self.iterations_used,
            "failure": self.failure,
        }


def grid_preimage(
    space,
    t: SelfMap,
    subset: SubsetSpec,
    target: Value,
    tol: float,
    grid_count: int = PREIMAGE_GRID_COUNT,
) -> tuple[Optional[Value], float]:
    """Nearest sampled preimage of ``target`` under ``t`` within a subset.

    Returns ``(value, distance)`` when the best sampled value maps within
    ``tol`` of the target, else ``(None, best_distance)``.  Ties keep the
    earliest sampled point, so results are reproducible for a fixed plan.
    The images of the sample come from ``t.image_table``, so ``t`` is
    evaluated once per sampled point, not once per call.  On the usual
    metric, with float images and a finite float target, the search bisects
    ``t.image_index`` (:func:`_nearest`) instead of scanning every image.
    """
    plan = SamplePlan(grid_count=grid_count)
    values, images = t.image_table(subset, plan)
    d = space.metric
    index = None
    if d is _usual_real and type(target) is float and math.isfinite(target):
        index = t.image_index(subset, plan)
    if index is not None:
        best, best_dist = _nearest(*index, target)
    else:
        best, best_dist = -1, math.inf
        for i, image in enumerate(images):
            dist = d(image, target)
            if dist < best_dist:
                best, best_dist = i, dist
    if best >= 0 and best_dist <= tol:
        return values[best], best_dist
    return None, best_dist


def _nearest(values: list[float], firsts: list[int], goal: float) -> tuple[int, float]:
    """What a scan of every image for the first strictly smaller ``|v - goal|``
    finds: the earliest sample index at the least distance and that
    distance, or ``(-1, inf)`` when no distance is finite.

    ``values`` are the distinct images in ascending order and ``firsts``
    the first sample index of each.  ``fl(v - goal)`` rounds monotonically
    in ``v``, so the distance does not decrease away from ``goal`` on either
    side, and the least one sits at a sorted neighbour of ``goal``.  Rounding
    can give the next values on the same side the same distance, so each
    side walks that run of equal distances for its smallest sample index.
    """
    best, best_dist = -1, math.inf
    k = bisect_left(values, goal)
    for j, step in ((k, 1), (k - 1, -1)):
        if not 0 <= j < len(values):
            continue
        dist = abs(values[j] - goal)
        i = firsts[j]
        j += step
        while 0 <= j < len(values) and abs(values[j] - goal) == dist:
            i = min(i, firsts[j])
            j += step
        if dist < best_dist or (dist == best_dist and i < best):
            best, best_dist = i, dist
    return best, best_dist


def _find_preimage(
    problem: CoincidenceProblem, target: Value, subset: SubsetSpec, opts: SolveOptions
) -> tuple[Optional[Value], float]:
    """A subset value whose T image is within ``preimage_tol`` of ``target``
    and that distance, or ``None`` and the grid search's least distance."""
    t = problem.self_map
    if t.has_preimage_oracle:
        got = t.preimage(target, subset, opts.preimage_tol)
        if got is not None:
            return got, problem.space.metric(t.fn(got), target)
    # No oracle, or the oracle declined: fall back to the grid so failures
    # still report how close the nearest sampled point came.
    return grid_preimage(problem.space, t, subset, target, opts.preimage_tol)


def _coincidence_residuals(problem: CoincidenceProblem, a: Value, b: Value) -> dict[str, float]:
    d = problem.space.metric
    g, t = problem.coupling.fn, problem.self_map.fn
    fab, fba, ta, tb = g(a, b), g(b, a), t(a), t(b)
    return {
        "f_ab_ta": d(fab, ta),
        "f_ba_tb": d(fba, tb),
        "ta_tb": d(ta, tb),
        "f_ab_f_ba": d(fab, fba),
    }


def _strong_residuals(problem: StrongCoupledProblem, a: Value, b: Value) -> dict[str, float]:
    d = problem.space.metric
    return {"f_xx_x": d(problem.coupling.fn(a, a), a), "x_y": d(a, b)}


def _preimage_step(problem: CoincidenceProblem, opts: SolveOptions, x: Value, y: Value):
    """Coincidence steps: solve T(x1) = F(y, x) in A and T(y1) = F(x, y) in B,
    carrying the T images of the current pair from step to step.  F and T
    run on raw values (``fn``), as in :func:`_coupling_step`."""
    d = problem.space.metric
    g, t = problem.coupling.fn, problem.self_map.fn
    tx, ty = t(x), t(y)

    def step(n: int, x: Value, y: Value):
        nonlocal tx, ty
        found = []
        for subset, label, tgt in ((problem.subset_a, "A", g(y, x)),
                                   (problem.subset_b, "B", g(x, y))):
            p, dist = _find_preimage(problem, tgt, subset, opts)
            if p is None:
                failure = {"reason": "preimage", "step": n + 1, "subset": label,
                           "target": tgt, "min_distance": dist}
                return x, y, None, None, tx, ty, (SolveStatus.PREIMAGE_FAILURE, failure)
            found.append(p)
        x1, y1 = found
        tx1, ty1 = t(x1), t(y1)
        result = x1, y1, max(d(tx, ty1), d(ty, tx1)), d(tx, ty), tx, ty, None
        tx, ty = tx1, ty1
        return result

    return step


def _coupling_step(problem: StrongCoupledProblem, opts: SolveOptions, x: Value, y: Value):
    """Strong coupled steps: x1 = F(y, x), y1 = F(x, y), which must stay in
    A and B.  F runs on raw values (``CouplingMap.fn``) and membership
    is ``metric.member_test``, so a step builds no Point."""
    d = problem.space.metric
    usual = d is _usual_real
    g = problem.coupling.fn
    in_a, in_b = member_test(problem.subset_a), member_test(problem.subset_b)

    def step(n: int, x: Value, y: Value):
        x1, y1 = g(y, x), g(x, y)
        if usual:
            d_n, r_n = max(abs(x1 - y), abs(y1 - x)), abs(x - y)
        else:
            d_n, r_n = max(d(x1, y), d(y1, x)), d(x, y)
        if not in_a(x1):
            label, escaped = "A", x1
        elif not in_b(y1):
            label, escaped = "B", y1
        else:
            return x1, y1, d_n, r_n, None, None, None
        failure = {"reason": "orbit_left_subset", "subset": label,
                   "step": n + 1, "value": escaped}
        return x1, y1, d_n, r_n, None, None, (SolveStatus.DIAGNOSTIC_VIOLATION, failure)

    return step


def _iterate(problem, x: Value, y: Value, opts: SolveOptions, make_step, residuals, record):
    """The alternating iteration both engines share, from the raw start
    ``(x, y)``.

    ``make_step(problem, opts, x, y)`` returns the kind's step function.
    It maps ``(n, x, y)`` to ``(x1, y1, d_n, r_n, tx, ty, stop)``: the next
    pair, the step sizes D_n and R_n of the transition (``d_n`` is ``None``
    when the step failed before completing it), the T images of ``(x, y)``
    (``None`` for strong runs), and ``None`` or the ``(status, failure)``
    that ends the run.  ``residuals(problem, x, y)`` gives the defining
    residuals of a pair of raw values.  The trace gets a :class:`TraceStep`
    per completed step when ``record`` is true, else no steps.
    """
    for label, v, subset, name in (("x0", x, problem.subset_a, "A"),
                                   ("y0", y, problem.subset_b, "B")):
        if not member_test(subset)(v):
            raise DomainError(f"start {label}={v!r} is not in subset {name}")
    step = make_step(problem, opts, x, y)
    trace = IterationTrace(problem.kind)
    prev_d = prev_r = math.inf  # so the first step is no increase
    used, tol = 0, opts.tol
    for n in range(opts.max_iter):
        x1, y1, d_n, r_n, tx, ty, stop = step(n, x, y)
        used += d_n is not None
        if record and d_n is not None:
            trace.steps.append(_trace_step((n, x, y, tx, ty, d_n, r_n)))
        if stop is None:
            if prev_d > tol and d_n > prev_d + tol:
                stop = SolveStatus.DIAGNOSTIC_VIOLATION, {"reason": "D_increase", "index": n}
            elif prev_r > tol and r_n > prev_r + tol:
                stop = SolveStatus.DIAGNOSTIC_VIOLATION, {"reason": "R_increase", "index": n}
        if stop is not None:
            status, failure = stop
            break
        if d_n <= tol:
            status = failure = None
            break
        prev_d, prev_r, x, y = d_n, r_n, x1, y1
    else:
        status, failure = SolveStatus.MAX_ITER_EXCEEDED, {"reason": "max_iter"}
    values = residuals(problem, x, y)
    if status is None:
        converged = all(v <= tol for v in values.values())
        status = SolveStatus.CONVERGED if converged else SolveStatus.EARLY_COINCIDENCE
    return SolveReport(status, (Point(x), Point(y)), values, used, failure), trace


def iterate_coincidence(
    problem: CoincidenceProblem,
    x0: Point,
    y0: Point,
    opts: SolveOptions = SolveOptions(),
    *, record: bool = True,
) -> tuple[SolveReport, IterationTrace]:
    """Alternating coincidence iteration driven by self-map preimages.

    Each step solves T(next_x) = F(y, x) and T(next_y) = F(x, y) inside the
    respective subsets.  A step whose targets admit no preimage ends the run
    with a failure payload naming the step, subset, target, and how close
    the nearest candidate came.  With ``record=False`` the trace has no steps.
    """
    return _iterate(problem, x0.value, y0.value, opts, _preimage_step, _coincidence_residuals,
                    record)


def iterate_strong_coupled(
    problem: StrongCoupledProblem,
    x0: Point,
    y0: Point,
    opts: SolveOptions = SolveOptions(),
    *, record: bool = True,
) -> tuple[SolveReport, IterationTrace]:
    """Alternating coupling iteration: next_x = F(y, x), next_y = F(x, y).

    The orbit must stay inside its subsets; a step that escapes is reported
    as a diagnostic violation naming the subset and the escaped value.  With
    ``record=False`` the trace has no steps.
    """
    return _iterate(problem, x0.value, y0.value, opts, _coupling_step, _strong_residuals, record)


def multi_start_verdict(
    problem: StrongCoupledProblem, reports: list[SolveReport], opts: SolveOptions
) -> str:
    """The verdict on the runs of several starts: "consistent" when all
    converged candidates sit within 10x tolerance of each other (vacuously
    so when nothing converged), else "inconsistent".

    On the usual metric that is one comparison of the widest pair, max - min.
    """
    candidates = [
        r.candidate[0].value for r in reports if r.status is SolveStatus.CONVERGED
    ]
    d = problem.space.metric
    if d is _usual_real and candidates:
        # fl(b - a) is monotone in b and in -a, so the widest pair is max - min
        consistent = max(candidates) - min(candidates) <= 10 * opts.tol
    else:
        consistent = all(
            d(a, b) <= 10 * opts.tol
            for i, a in enumerate(candidates)
            for b in candidates[i + 1 :]
        )
    return "consistent" if consistent else "inconsistent"


def trace_diagnostics(trace: IterationTrace, tol: float = 1e-9) -> CheckReport:
    """Monotonicity audit of a recorded run.

    Each step's D and R may not exceed their predecessors by more than
    ``tol`` while the predecessor is still above tolerance; tiny wobble at
    the numerical floor is expected and ignored.  Details carry the first
    violating step index and the final (empirical-limit) values.
    """
    if not trace.steps:
        raise ParameterError("trace has no steps to diagnose")
    rb = ReportBuilder("trace_monotonicity", tol)
    first: Optional[int] = None
    prev = trace.steps[0]
    for step in trace.steps[1:]:
        for name, before, now in (("D", prev.d, step.d), ("R", prev.r, step.r)):
            if not before > tol:
                rb.count_sample()
            elif rb.observe(now, before, (name, step.n)) and first is None:
                first = step.n
        prev = step
    last = trace.steps[-1]
    return rb.build(
        {"first_violation_index": first, "final_D": last.d, "final_R": last.r}
    )


SearchResult = Union[list[tuple[Point, Point]], list[Point]]


def brute_force_search(
    problem: Union[CoincidenceProblem, StrongCoupledProblem],
    plan: SamplePlan,
    tol: float = 1e-9,
    plan_b: Optional[SamplePlan] = None,
    budget: int = 1_000_000,
) -> SearchResult:
    """Independent scan for solutions, used as an oracle against the engines.

    Coincidence problems get every sampled (a, b) pair whose two defining
    residuals sit within ``tol``; strong problems scan the sampled
    intersection of the subsets for points with d(F(p, p), p) <= tol.
    Exceeding ``budget`` raises rather than silently truncating.  Each side
    is sampled once: a coincidence scan reads the samples and their T images
    from ``SelfMap.image_table`` (so T is tabled before the budget is
    checked), a strong scan calls ``sample_values``.

    F runs on raw values (``CouplingMap.fn``), pair by pair, and
    F(b, a) only where the first residual holds, so the pairs, their order
    and the error of the first failing pair are those of the pair-by-pair
    loop.  One Point is built per sampled value, and the pairs share them.
    """
    d = problem.space.metric
    g = problem.coupling.fn
    if problem.kind == "coincidence":
        av, ta = problem.self_map.image_table(problem.subset_a, plan)
        bv, tb = problem.self_map.image_table(problem.subset_b, plan_b or plan)
        if len(av) * len(bv) > budget:
            raise BudgetError(f"{len(av) * len(bv)} candidate pairs exceed budget {budget}")
        b_pts = list(map(Point, bv))
        pairs = zip(map(Point, av), av, ta)
        if d is _usual_real:
            return [(a, b_pts[j]) for a, x, ta_i in pairs for j, y in enumerate(bv)
                    if abs(g(x, y) - ta_i) <= tol and abs(g(y, x) - tb[j]) <= tol]
        return [(a, b_pts[j]) for a, x, ta_i in pairs
                for j, y in enumerate(bv) if d(g(x, y), ta_i) <= tol and d(g(y, x), tb[j]) <= tol]
    inter = subset_intersection(problem.subset_a, problem.subset_b)
    if inter is None:
        return []
    vals = sample_values(inter, plan)
    if len(vals) > budget:
        raise BudgetError(f"{len(vals)} candidate points exceed budget {budget}")
    return [Point(v) for v in vals if d(g(v, v), v) <= tol]
