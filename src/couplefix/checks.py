"""Sampled verification of the structural and contraction hypotheses.

Every checker here follows the same bargain: it scans a deterministic
finite sample, records each broken inequality as a reproducible witness,
and reports evidence rather than proof.  A thinned sample is a
deterministic subset of the full grid, but samples of different sizes do
not nest: thinning drops the grid's far endpoint, and the samples of an
open interval move with the grid, so a witness found on a smaller grid
need not lie in a larger grid's sample (nested sampling is item 4 of
ROADMAP.md).  Each report carries enough detail (image values, stride,
margin) to re-derive its numbers independently.

Both contraction checkers are entries to one kernel.  It walks quadruples
(x, y, u, v) with x, v drawn from the first subset and y, u from the second,
and tests

    left(d(F(x, y), F(u, v))) <= right(M),  M = max(d(Ix, Iu), d(Iy, Iv)),

for an image map I: the self map T with left = identity and right = phi
(phi-T contraction), or the identity with left = psi and right = psi - phi
(the altering pair of a strong coupled problem).  The T images come from
``SelfMap.image_table``, the full-grid table the self-map and range
checks read too.  Both distances in M are read as written, so the kernel
does not assume the metric is symmetric.
The quadruple count grows with the fourth power of the grid, so a budget
caps the work: when the full product would exceed it, every axis is thinned
by the same stride, which keeps the subsample a deterministic subset of the
full grid.

The kernel is table-driven and evaluates every quadruple without a Python
call per quadruple.  right is evaluated once per distinct entry of the two
n_a x n_b distance tables, and only at entries that are the larger distance
in some M.  One (x, y) plane of n_b * n_a quadruples is then built with
list comprehensions: rhs picks the stored right value of the larger
distance, and lhs is |F(x, y) - F(u, v)| on the usual metric (d(F(x, y),
F(u, v)) otherwise), passed through left's memo unless left is the identity.
The plane's smallest margin is min(rhs - lhs), taken from +inf so that NaN
margins are skipped exactly as a sample-by-sample scan skips them.  Only a
plane whose smallest margin is negative is searched for violations, with
the same test lhs > rhs + tol: for tol >= 0, rhs + tol rounds to at least
rhs, and a float difference has the exact sign, so every violation has
rhs - lhs < 0.  The values, the order of violations and every count
therefore equal those of the per-quadruple loop.

On the usual metric with left the identity (phi-T, and psi = identity),
no plane reaches that comprehension: ``levelset`` sweeps a plane once, in
O(n_a + n_b) steps, for its exact smallest margin and its violations in
scan order (see that module).  Any other metric, a left that is not the
identity, or tables that ``levelset.applies`` rejects (a NaN or infinite
entry, a right value of -0.0, a right that decreases on the sampled
distances) leave every plane to the comprehension.

A violation is recorded under its flat quadruple index, and its witness
tuple is built only when the report's log is read.

Every check evaluates F through ``CouplingMap.fn``, on raw values.  The
constructors make its values finite floats or labels where they are
computed; a map built with the bare constructor yields its values as they
are, a NaN or an int included.  F, like T, is treated as a pure
function and evaluated once per sampled pair, and the first pair that
fails in a check's own order raises, with nothing evaluated again.  The
coupling check builds one interleaved row per x, F(x, y) then F(y, x) for
each y, and tests membership a row at a time (``metric.contains_values``);
the range check builds interleaved blocks of rows of y, F(y, x) then
F(x, y), bisects the sorted image index of each side once per block
(``SelfMap.image_index``, which the grid preimage search reads too) and
records a block with one ``ReportBuilder.observe_all``, which equals one
``observe`` per sample; the contraction check reads ``CouplingMap.tables``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import chain, compress, count, repeat
from operator import add, gt, not_, sub
from typing import Any, Callable, Optional, Sequence

from .controls import eval_control
from .errors import at_least_one
from .metric import (
    REAL_EQ_TOL,
    SamplePlan,
    SubsetSpec,
    Value,
    _usual_real,
    contains_values,
    member_test,
    sample_values,
    separation,
)
from .problems import CoincidenceProblem, CouplingMap, SelfMap, StrongCoupledProblem
from .report import CheckReport, ReportBuilder

#: Default cap on contraction quadruples per check.
DEFAULT_QUADRUPLE_BUDGET = 1_000_000
#: Range-check targets held at once (whole rows of y), so memory does not grow with the grid.
RANGE_BLOCK_TARGETS = 2048


def _quadruple_stride(na: int, nb: int, budget: int) -> int:
    at_least_one("budget", budget)  # once the stride reaches n, every factor is 1
    stride = 1
    while (
        math.ceil(na / stride) * math.ceil(nb / stride) ** 2 * math.ceil(na / stride)
        > budget
    ):
        stride += 1
    return stride


def check_coupling(
    f: CouplingMap,
    a: SubsetSpec,
    b: SubsetSpec,
    plan: SamplePlan,
    plan_b: Optional[SamplePlan] = None,
) -> CheckReport:
    """Sampled check that f maps A x B into B and B x A into A.

    One sample per (x, y) pair; a pair can contribute up to two membership
    violations, each carrying the offending arguments and the image value.
    """
    xs = sample_values(a, plan)
    ys = sample_values(b, plan_b or plan)
    g = f.fn
    rb = ReportBuilder("coupling", 0.0)
    for x in xs:
        # scan order: F(x, y_j) in B at 2j, F(y_j, x) in A at 2j + 1
        row = [w for y in ys for w in (g(x, y), g(y, x))]
        inside = chain.from_iterable(zip(contains_values(b, row[::2]),
                                         contains_values(a, row[1::2])))
        out = list(compress(count(), map(not_, inside)))
        rb.add_violations(
            [("image_in_A", ys[k // 2], x, row[k]) if k % 2
             else ("image_in_B", x, ys[k // 2], row[k]) for k in out],
            [1.0] * len(out), [0.0] * len(out),
        )
    rb.samples = len(xs) * len(ys)
    return rb.build({"pairs": len(xs) * len(ys)})


def _unique_sorted(values: list[Value], cap: int = 24) -> Optional[list[Value]]:
    if not values:
        return []
    if any(isinstance(v, str) for v in values):
        out: list[Value] = sorted({str(v) for v in values})
    else:
        out = []
        for v in sorted(values):
            if not out or v - out[-1] > 1e-9:
                out.append(v)
    return out if len(out) <= cap else None


def _closedness(
    t: SelfMap, subset: SubsetSpec, plan: SamplePlan, images: list[Value], tol: float
) -> str:
    """Closedness evidence for the image of a subset under t.

    Finite sets are closed outright.  For intervals, the image extrema are
    compared against a doubled grid: if refining the sample does not move
    the attained min and max, the extrema are treated as attained and the
    image as closed.  A moving extremum is reported as "inconclusive" —
    never as a failure, since no finite sample can refute closedness.
    """
    if subset.is_finite:
        return "closed"
    if any(isinstance(v, str) for v in images):
        return "inconclusive"
    refined = SamplePlan(2 * plan.grid_count - 1, plan.jitter_count, plan.seed)
    rimages = t.image_table(subset, refined)[1]
    if any(isinstance(v, str) for v in rimages):
        return "inconclusive"
    stable = (
        abs(min(rimages) - min(images)) <= tol
        and abs(max(rimages) - max(images)) <= tol
    )
    return "closed" if stable else "inconclusive"


def check_scc_map(
    t: SelfMap,
    a: SubsetSpec,
    b: SubsetSpec,
    plan: SamplePlan,
    tol: float = 1e-9,
    plan_b: Optional[SamplePlan] = None,
) -> CheckReport:
    """Sampled check that t maps each subset into itself, with image evidence.

    Details carry the (deduplicated, sorted) image values per subset when
    small enough to list, their pairwise intersection, and a closedness
    verdict per image that may be "inconclusive" without failing the check.
    """
    rb = ReportBuilder("scc_map", 0.0)
    details: dict[str, Any] = {}
    lists: dict[str, Optional[list[Value]]] = {}
    examined = 0
    for name, subset, pl in (("A", a, plan), ("B", b, plan_b or plan)):
        values, images = t.image_table(subset, pl)
        outside = [k for k, inside in enumerate(contains_values(subset, images)) if not inside]
        rb.add_violations([(f"invariance_{name}", values[k], images[k]) for k in outside],
                          [1.0] * len(outside), [0.0] * len(outside))
        examined += len(values)
        lists[name] = _unique_sorted(images)
        details[f"image_{name}_values"] = lists[name]
        details[f"closedness_{name}"] = _closedness(t, subset, pl, images, tol)
    va, vb = lists["A"], lists["B"]
    if va is not None and vb is not None:
        eq_tol = max(tol, REAL_EQ_TOL)
        inter = [v for v in va if any(separation(v, w) <= eq_tol for w in vb)]
        details["image_intersection_values"] = inter
        details["intersection_nonempty"] = bool(inter)
    else:
        details["image_intersection_values"] = None
        details["intersection_nonempty"] = None
    rb.samples = examined
    return rb.build(details)


def _contraction_scan(
    name: str,
    problem,
    t: Optional[SelfMap],
    left: Optional[Callable[[float], float]],
    right: Callable[[float], float],
    plan: SamplePlan,
    tol: float,
    plan_b: Optional[SamplePlan],
    budget: int,
) -> CheckReport:
    """left(d(F(x,y), F(u,v))) <= right(max(d(Ix, Iu), d(Iy, Iv))) over quadruples.

    The image map I is ``t`` (its full-grid table, thinned by the stride),
    or the identity when ``t`` is None; ``left=None`` is the identity.
    ``left`` and ``right`` are evaluated once per distinct argument, and
    ``right`` only at distances that are the larger one in some M.
    Violations are recorded in (x, y, u, v) index order, each under its
    flat index ((i * n_b + j) * n_b + j2) * n_a + i2, which ``_quadruple``
    decodes.  Where the level-set path applies (see the module docstring),
    no plane goes through the comprehension.
    """
    b_plan = plan_b or plan
    xv = sample_values(problem.subset_a, plan)
    yv = sample_values(problem.subset_b, b_plan)
    total = len(xv) * len(yv) * len(yv) * len(xv)
    stride = _quadruple_stride(len(xv), len(yv), budget)
    xv, yv = xv[::stride], yv[::stride]
    na, nb = len(xv), len(yv)
    d = problem.space.metric
    f_ab, f_ba = problem.coupling.tables(xv, yv)
    if t is None:
        ix, iy = xv, yv
    else:
        ix = t.image_table(problem.subset_a, plan)[1][::stride]
        iy = t.image_table(problem.subset_b, b_plan)[1][::stride]
    d_xu = [[d(a, b) for b in iy] for a in ix]  # d_xu[i][j2] = d(Ix_i, Iu_j2)
    d_yv = [[d(b, a) for a in ix] for b in iy]  # d_yv[j][i2] = d(Iy_j, Iv_i2)

    # Every d_xu entry meets every d_yv entry in some M.  A d_xu entry is M
    # when it is >= some d_yv entry, a d_yv entry when some d_xu entry is not
    # >= it; right is evaluated at those only, and None is never selected.
    right_at: dict[float, float] = {}

    def right_of(m: float) -> float:
        if m not in right_at:
            right_at[m] = right(m)
        return right_at[m]

    lo_xu = min((v for row in d_xu for v in row if v == v), default=math.nan)
    lo_yv = min((v for row in d_yv for v in row if v == v), default=math.nan)
    nan_xu = any(v != v for row in d_xu for v in row)

    r_xu = [[(m, right_of(m) if m >= lo_yv else None) for m in row] for row in d_xu]
    r_yv = [[(m, right_of(m) if nan_xu or not lo_xu >= m else None) for m in row]
            for row in d_yv]

    # One (x, y) plane holds every (u, v) = (y_j2, x_i2), flattened at
    # k = j2 * na + i2, so plane order is quadruple order.
    f_uv = [w for row in f_ba for w in row]
    usual = d is _usual_real
    level = None
    if usual and left is None:
        # imported here, so that a run without a contraction check never
        # compiles it
        from . import levelset

        if levelset.applies((f_ab, f_ba, d_xu, d_yv), right_at):
            level = levelset.plane_evaluator(ix, iy, f_ba, right_at, tol)
    left_at: dict[float, float] = {}
    rb = ReportBuilder(name, tol, partial(_quadruple, xv, yv))
    min_margin = math.inf
    for i in range(na):
        fab_i = f_ab[i]
        for j in range(nb):
            fab = fab_i[j]
            if level is not None:
                plane_min, hits, lhs, rhs = level(i, j, fab)
            else:
                rhs = [r1 if d1 >= d2 else r2 for d1, r1 in r_xu[i] for d2, r2 in r_yv[j]]
                dist = [abs(fab - w) for w in f_uv] if usual else list(map(d, repeat(fab), f_uv))
                lhs = dist if left is None else _memo_map(left_at, left, dist)
                # the running minimum skips NaN margins, as a sample-by-sample scan does
                plane_min = min(chain((math.inf,), map(sub, rhs, lhs)))
                # With tol >= 0 a violation lhs > rhs + tol has rhs - lhs < 0, so
                # a plane whose margins are all >= 0 holds none.
                hits = []
                if plane_min < 0 or tol < 0:
                    hits = list(compress(count(), map(gt, lhs, map(add, rhs, repeat(tol)))))
                    lhs, rhs = list(map(lhs.__getitem__, hits)), list(map(rhs.__getitem__, hits))
            if plane_min < min_margin:
                min_margin = plane_min
            if hits:
                base = (i * nb + j) * nb * na
                rb.add_violations(list(map(add, hits, repeat(base))), lhs, rhs)
    rb.samples = na * nb * nb * na
    rb.min_margin = min_margin
    return rb.build({"total_quadruples": total, "stride": stride, "budget": budget})


def _quadruple(xv: list[Value], yv: list[Value], key: int) -> tuple:
    """The witness of the quadruple at flat index ``key`` (see
    ``_contraction_scan``)."""
    na, nb = len(xv), len(yv)
    plane, k = divmod(key, nb * na)
    i, j = divmod(plane, nb)
    j2, i2 = divmod(k, na)
    return ("contraction", xv[i], yv[j], yv[j2], xv[i2])


def _memo_map(memo: dict, fn: Callable[[float], float], args: list) -> list:
    """``[fn(a) for a in args]``, calling ``fn`` once per distinct argument
    across every call that shares ``memo``."""
    try:
        return list(map(memo.__getitem__, args))
    except KeyError:
        for a in args:
            if a not in memo:
                memo[a] = fn(a)
        return list(map(memo.__getitem__, args))


def check_phi_T_contraction(
    problem: CoincidenceProblem,
    plan: SamplePlan,
    tol: float = 1e-9,
    plan_b: Optional[SamplePlan] = None,
    budget: int = DEFAULT_QUADRUPLE_BUDGET,
) -> CheckReport:
    """Sampled d(F(x,y), F(u,v)) <= phi(max(d(Tx,Tu), d(Ty,Tv))) over quadruples."""
    phi = problem.phi
    return _contraction_scan(
        "phi_T_contraction", problem, problem.self_map,
        None, lambda m: eval_control(phi, m),
        plan, tol, plan_b, budget,
    )


def check_phi_psi_contraction(
    problem: StrongCoupledProblem,
    plan: SamplePlan,
    tol: float = 1e-9,
    plan_b: Optional[SamplePlan] = None,
    budget: int = DEFAULT_QUADRUPLE_BUDGET,
) -> CheckReport:
    """Sampled psi(d(F(x,y), F(u,v))) <= psi(M) - phi(M), M = max(d(x,u), d(y,v))."""
    phi, psi = problem.phi, problem.psi
    # The identity psi returns t, bit for bit, at every finite t >= 0, so it
    # is skipped on the usual metric.  The one difference is a distance that
    # overflows to inf: psi raised DomainError there.
    skip_psi = psi.fn is Fraction and problem.space.metric is _usual_real
    return _contraction_scan(
        "phi_psi_contraction", problem, None,
        None if skip_psi else (lambda t: eval_control(psi, t)),
        lambda m: eval_control(psi, m) - eval_control(phi, m),
        plan, tol, plan_b, budget,
    )


def check_range_compatibility(
    f: CouplingMap,
    t: SelfMap,
    a: SubsetSpec,
    b: SubsetSpec,
    plan: SamplePlan,
    tol: float = 1e-9,
    plan_b: Optional[SamplePlan] = None,
    targets_b: Optional[SubsetSpec] = None,
) -> CheckReport:
    """Sampled check that swapped coupling images land inside both t-ranges.

    For each sampled (y, x) the value F(y, x) must sit within ``tol`` of
    t(a) for some sampled a in A, and F(x, y) within ``tol`` of t(b) for
    some sampled b in B.  When a target itself belongs to the subset it is
    admitted as its own candidate, so the identity map passes whenever f is
    a genuine coupling.  ``targets_b`` restricts where the y argument is
    drawn from without shrinking the candidate pools.
    """
    b_plan = plan_b or plan
    xv = t.image_table(a, plan)[0]
    bv = t.image_table(b, b_plan)[0]
    tgt = sample_values(targets_b, b_plan) if targets_b is not None else bv
    # side 0: F(y, x) against t(A); side 1: F(x, y) against t(B).  A side
    # holds its T images, the distinct sorted images of ``t.image_index``
    # between copies of its ends (None where the index gives up, so every
    # image is scanned) and the membership test of its subset.  For
    # k = bisect_left(padded, v, 1, len(padded) - 1), padded[k - 1] and
    # padded[k] are the sorted neighbours of v, an end standing in for a
    # missing one; w - v rounds monotonically in w, so the nearest image is
    # one of them.
    sides = []
    for subset, pl in ((a, plan), (b, b_plan)):
        index = t.image_index(subset, pl)
        padded = index and [index[0][0], *index[0], index[0][-1]]
        sides.append((t.image_table(subset, pl)[1], padded, member_test(subset)))

    def search(side: int, targets: Sequence[Value]) -> list[float]:
        """The separation of each target from its nearest pool value."""
        pool, pad, _ = sides[side]
        if pad is not None and not any(map(isinstance, targets, repeat(str))):
            at = list(map(bisect_left, repeat(pad), targets, repeat(1), repeat(len(pad) - 1)))
            lo = [abs(pad[k - 1] - tv) for tv, k in zip(targets, at)]
            hi = [abs(pad[k] - tv) for tv, k in zip(targets, at)]
            return [h if h < l else l for l, h in zip(lo, hi)]  # min(l, h)
        return [min(separation(v, tv) for v in pool) for tv in targets]

    def refine(side: int, tv: Value, best: float) -> float:
        """A target that lies in its own subset is also its own candidate."""
        if best > tol and sides[side][2](tv):
            return min(best, separation(t.fn(tv), tv))
        return best

    g, n = f.fn, len(xv)
    rows = max(1, RANGE_BLOCK_TARGETS // (2 * n))
    rb = ReportBuilder("range_compatibility", tol)
    for start in range(0, len(tgt), rows):
        block = tgt[start:start + rows]
        # for the r-th y of the block, F(y, x_i) is target 2 * (r * n + i), F(x_i, y) the next
        ys = list(chain.from_iterable(map(repeat, block, repeat(n))))
        xs = xv * len(block)
        targets: list[Value] = []
        try:
            targets.extend(map(g, chain.from_iterable(zip(ys, xs)),
                               chain.from_iterable(zip(xs, ys))))
        except Exception:
            # in scan order T refines a target before the next F pair is met:
            # a failing T met before the failing pair raises instead
            for k, tv in enumerate(targets):
                refine(k % 2, tv, search(k % 2, [tv])[0])
            raise
        bests = list(chain.from_iterable(zip(search(0, targets[::2]), search(1, targets[1::2]))))
        for k in list(compress(count(), map(gt, bests, repeat(tol)))):
            bests[k] = refine(k % 2, targets[k], bests[k])

        def witness(k: int) -> tuple:
            yv, x = block[k // (2 * n)], xv[k // 2 % n]
            if k % 2:
                return ("target_in_T_B", x, yv, targets[k])
            return ("target_in_T_A", yv, x, targets[k])

        rb.observe_all(bests, [0.0] * len(bests), witness)
    return rb.build({"pairs": len(tgt) * n})
