"""Iteration engines, per-run diagnostics, and the brute-force oracle.

Both engines, and the many starts of one call, go through one driver,
:func:`iterate_starts`, which runs the alternating scheme on a batch of
starts in lockstep: the next pairs are built from the coupling applied to
the swapped current pairs, by a per-kind step (a preimage step under the
self map T for coincidence runs, a plain coupling step with a
subset-escape check for strong runs, the identity-T case), and a start
leaves the batch as soon as its committed step distance

    D_n = max(d(first_n, y_n), d(second_n, x_n))

falls within tolerance, where ``first_n``/``second_n`` are the incoming
iterates (self-map preimages for coincidence runs, coupling values for
strong runs).  A step fills F and T over the batch's raw values through
their row kernels; preimage searches run start by start, and Points are
built for the reported candidates only.  The pair distance R_n rides
along as a second diagnostic.  Only the first start records a trace, and
on the usual metric the steps and the brute-force scan compute
``abs(a - b)`` without calling the metric.
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
from itertools import compress
from typing import Any, NamedTuple, Optional, Sequence, Union

from .errors import BudgetError, DomainError, ParameterError, at_least_one, positive_finite
from .expr import fill, row_kernel
from .metric import (
    Point,
    SamplePlan,
    SubsetSpec,
    Value,
    _usual_real,
    contains_values,
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
    if t.preimage_fn is not None:
        got = t.preimage_fn(target, subset, opts.preimage_tol)
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


class _Batch:
    """The starts of one call still iterating, as lists in start order: each
    one's place among the call's starts (``index``), its pair, their T images
    (``None`` on strong runs) and last step sizes.  A start that raises at
    position k cuts the batch there: one start after another, the starts
    after it never ran.  ``error`` is the place and error of the lowest."""

    _COLUMNS = ("index", "x", "y", "tx", "ty", "prev_d", "prev_r")

    def __init__(self, starts):
        n = len(starts)
        self.index, self.ends, self.error = list(range(n)), [None] * n, None
        self.x, self.y = [x.value for x, _ in starts], [y.value for _, y in starts]
        self.tx, self.ty = [None] * n, [None] * n
        self.prev_d, self.prev_r = [math.inf] * n, [math.inf] * n  # the first step is no increase

    def cut(self, k: int, exc: Exception) -> None:
        self.error = self.index[k], exc
        for name in self._COLUMNS:
            del getattr(self, name)[k:]

    def fill(self, fn, kernel, *columns: list) -> list:
        """``expr.fill([], fn, kernel, *columns)`` over the starts in the batch."""
        m, out = len(self.index), []
        try:
            fill(out, fn, kernel, *(c[:m] if len(c) > m else c for c in columns))
        except Exception as exc:
            self.cut(len(out), exc)
        return out

    def end(self, i: int, status: Optional[SolveStatus], failure, used: int) -> None:
        self.ends[self.index[i]] = self.x[i], self.y[i], used, status, failure

    def keep(self, mask: Optional[list[bool]] = None, **columns: list) -> None:
        """Keep the starts true in ``mask`` (all if ``None``), with new ``columns``."""
        m = len(self.index)
        for name in self._COLUMNS:
            col = columns.get(name, getattr(self, name))
            setattr(self, name, col[:m] if mask is None else list(compress(col, mask)))


def _step_sizes(batch: _Batch, d, u1, v1, u2, v2, u3, v3) -> tuple[list, list]:
    """The columns ``max(d(u1, v1), d(u2, v2))`` and ``d(u3, v3)``, with
    ``abs(a - b)`` for the usual metric unless a pair will not subtract."""
    if d is _usual_real:
        try:
            d_n = []
            for p, q, s, t in zip(u1, v1, u2, v2):
                first, second = abs(p - q), abs(s - t)
                d_n.append(second if second > first else first)  # max(first, second)
            return d_n, [abs(p - q) for p, q in zip(u3, v3)]
        except Exception:
            pass  # d names the start that raises
    first, second = batch.fill(d, None, u1, v1), batch.fill(d, None, u2, v2)
    return list(map(max, first, second)), batch.fill(d, None, u3, v3)


def _preimage_step(problem: CoincidenceProblem, opts: SolveOptions, batch: _Batch, n: int):
    """Coincidence step ``n``: solve T(x1) = F(y, x) in A and T(y1) = F(x, y)
    in B, as :func:`_coupling_step` with preimage searches start by start,
    A before B; a start whose search fails leaves the batch."""
    xs, ys, g, t = batch.x, batch.y, problem.coupling.fn, problem.self_map.fn
    if n == 0:  # the T images of the starts
        batch.tx = batch.fill(t, row_kernel(t, xs), xs)
        batch.ty = batch.fill(t, row_kernel(t, ys), ys)
    kernel = row_kernel(g, xs, ys)
    found, x1s, y1s = [], [], []
    for i, (tgt_a, tgt_b) in enumerate(zip(batch.fill(g, kernel, ys, xs),
                                           batch.fill(g, kernel, xs, ys))):
        y1 = None
        try:
            x1, dist = _find_preimage(problem, tgt_a, problem.subset_a, opts)
            if x1 is not None:
                y1, dist = _find_preimage(problem, tgt_b, problem.subset_b, opts)
        except Exception as exc:
            batch.cut(i, exc)
            break
        found.append(y1 is not None)
        if found[-1]:
            x1s.append(x1)
            y1s.append(y1)
        else:
            label, tgt = ("A", tgt_a) if x1 is None else ("B", tgt_b)
            batch.end(i, SolveStatus.PREIMAGE_FAILURE, {
                "reason": "preimage", "step": n + 1, "subset": label, "target": tgt,
                "min_distance": dist}, n)
    if not all(found):
        batch.keep(found)
    tx1s = batch.fill(t, row_kernel(t, x1s), x1s)
    ty1s = batch.fill(t, row_kernel(t, y1s), y1s)
    tx, ty = batch.tx, batch.ty
    return (x1s, y1s, *_step_sizes(batch, problem.space.metric, tx, ty1s, ty, tx1s, tx, ty),
            tx1s, ty1s, {})


def _coupling_step(problem: StrongCoupledProblem, opts: SolveOptions, batch: _Batch, n: int):
    """Strong coupled step ``n``: x1 = F(y, x), y1 = F(x, y), which must stay
    in A and B; each of F's columns is one ``expr.fill``.  A step gives, by
    position among the starts left, the next pairs, D_n, R_n, the next
    pairs' T images and ``stops``, the ``(status, failure)`` ending a run."""
    xs, ys, g = batch.x, batch.y, problem.coupling.fn
    kernel = row_kernel(g, xs, ys)
    x1s, y1s = batch.fill(g, kernel, ys, xs), batch.fill(g, kernel, xs, ys)
    d_n, r_n = _step_sizes(batch, problem.space.metric, x1s, ys, y1s, xs, xs, ys)
    in_a, in_b = contains_values(problem.subset_a, x1s), contains_values(problem.subset_b, y1s)
    escaped = [] if all(in_a) and all(in_b) else zip(x1s, y1s, in_a, in_b)
    stops = {i: (SolveStatus.DIAGNOSTIC_VIOLATION, {
        "reason": "orbit_left_subset", "subset": "B" if x1_in else "A", "step": n + 1,
        "value": y1 if x1_in else x1})
        for i, (x1, y1, x1_in, y1_in) in enumerate(escaped) if not (x1_in and y1_in)}
    return x1s, y1s, d_n, r_n, batch.tx, batch.ty, stops


def iterate_starts(
    problem: Union[CoincidenceProblem, StrongCoupledProblem],
    starts: Sequence[tuple[Point, Point]],
    opts: SolveOptions = SolveOptions(),
    *, record: bool = True,
) -> tuple[list[SolveReport], IterationTrace]:
    """The alternating iteration of ``problem.kind`` from every start in
    lockstep: per start, the report :func:`iterate_coincidence` or
    :func:`iterate_strong_coupled` gives from it alone, and the first start's
    trace (no steps unless ``record``).  A start that raises makes the call
    raise what running the starts one after another raises first."""
    coincidence = problem.kind == "coincidence"
    batch = _Batch(starts)
    for label, col, subset, name in (("x0", batch.x, problem.subset_a, "A"),
                                     ("y0", batch.y, problem.subset_b, "B")):
        inside = contains_values(subset, col)
        if not all(inside):
            k = inside.index(False)
            batch.cut(k, DomainError(f"start {label}={col[k]!r} is not in subset {name}"))
    step = _preimage_step if coincidence else _coupling_step
    trace, tol = IterationTrace(problem.kind), opts.tol
    for n in range(opts.max_iter):
        if batch.index:
            x1s, y1s, d_n, r_n, tx1s, ty1s, stops = step(problem, opts, batch, n)
        if not batch.index:
            break
        if record and batch.index[0] == 0:
            trace.steps.append(_trace_step((n, batch.x[0], batch.y[0], batch.tx[0], batch.ty[0],
                                            d_n[0], r_n[0])))
        m, alive, prev_d, prev_r = len(batch.index), None, batch.prev_d, batch.prev_r
        # every start that stops passes this test, and few that go on do
        maybe = {*stops, *(i for i, (d, r, pd, pr) in enumerate(zip(d_n, r_n, prev_d, prev_r))
                           if d <= tol or d > pd + tol or r > pr + tol)}
        for i in sorted(i for i in maybe if i < m):
            d, r, pd, pr, stop = d_n[i], r_n[i], prev_d[i], prev_r[i], stops.get(i)
            if stop is None:
                if pd > tol and d > pd + tol:
                    stop = SolveStatus.DIAGNOSTIC_VIOLATION, {"reason": "D_increase", "index": n}
                elif pr > tol and r > pr + tol:
                    stop = SolveStatus.DIAGNOSTIC_VIOLATION, {"reason": "R_increase", "index": n}
                elif d <= tol:
                    stop = None, None
                else:
                    continue
            batch.end(i, *stop, n + 1)
            alive = alive or [True] * m
            alive[i] = False
        batch.keep(alive, x=x1s, y=y1s, tx=tx1s, ty=ty1s, prev_d=d_n, prev_r=r_n)
    for i in range(len(batch.index)):
        batch.end(i, SolveStatus.MAX_ITER_EXCEEDED, {"reason": "max_iter"}, opts.max_iter)
    residuals = _coincidence_residuals if coincidence else _strong_residuals
    reports = []
    for x, y, used, status, failure in batch.ends[:batch.error[0] if batch.error else None]:
        values = residuals(problem, x, y)
        if status is None:
            converged = all(v <= tol for v in values.values())
            status = SolveStatus.CONVERGED if converged else SolveStatus.EARLY_COINCIDENCE
        reports.append(SolveReport(status, (Point(x), Point(y)), values, used, failure))
    if batch.error:
        raise batch.error[1]
    return reports, trace


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
    (report,), trace = iterate_starts(problem, [(x0, y0)], opts, record=record)
    return report, trace


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
    (report,), trace = iterate_starts(problem, [(x0, y0)], opts, record=record)
    return report, trace


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
