"""Sampled verification of the structural and contraction hypotheses.

Every checker here follows the same bargain: it scans a deterministic
finite sample, records each broken inequality as a reproducible witness,
and reports evidence rather than proof.  A thinned sample is the subset of
the full sample that ``metric.thinned_positions`` picks, but samples of
different sizes do not nest: thinning drops the grid's far endpoint, and
the samples of an open interval move with the grid, so a witness found on
a smaller grid need not lie in a larger grid's sample (nested sampling is
item 4 of ROADMAP.md).  Each report carries enough detail (image values,
stride, margin) to re-derive its numbers independently.

Both contraction checkers are entries to one kernel.  It walks quadruples
(x, y, u, v) with x, v drawn from the first subset and y, u from the second,
and tests

    left(d(F(x, y), F(u, v))) <= right(M),  M = max(d(Ix, Iu), d(Iy, Iv)),

for an image map I: the self map T with left = identity and right = phi
(phi-T contraction), or the identity with left = psi and right = psi - phi
(the altering pair of a strong coupled problem).  The T images come from
``SelfMap.image_table``, the full-grid table the self-map and range
checks read too.  Both distances in M are read as written, so the kernel
does not assume the metric is symmetric; only the mirror below does, and
it takes the usual metric alone.
The quadruple count grows with the fourth power of the grid, so a budget
caps the work: when the full product would exceed it, every axis is thinned
by the smallest stride whose ``metric.thinned_positions`` fit it, and the
values and T images are read at those positions.

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

On the usual metric with left the identity (phi-T, and psi = identity
where F's tables hold floats, as psi makes an int distance a float), no
plane reaches that comprehension: ``levelset`` sweeps a plane once, in
O(n_a + n_b) steps, for its exact smallest margin and its violations in
scan order (see that module).  Any other metric, a left that is not the
identity, or tables that ``levelset.applies`` rejects (a NaN or infinite
entry, a right value of -0.0, a right that decreases on the sampled
distances) leave every plane to the comprehension.

When both axes are one sample (equal bit for bit, so
``CouplingMap.tables`` evaluates F's table once), the metric is the usual
one with no NaN distance, and F's table holds floats and equals its
transpose, plane (j, i) mirrors plane (i, j).  Its cell (i2, j2) has the
M of cell (j2, i2) of plane (i, j) (the two distances swap, and with no
NaN the larger is picked either way), and its F(x, y) and F(u, v) equal
theirs, so lhs and rhs are equal bit for bit: a difference with a zero of
either sign is exact, and abs drops the sign of a zero result.  The scan
keeps its order and evaluates the planes with j >= i.  Plane (j, i)
comes later: it takes plane (i, j)'s smallest margin, which cannot move
the running minimum, as that equal margin came first, and plane (i, j)'s
unlisted count and listed violations, moved to the transposed keys and
sorted into scan order.  Diagonal planes are always evaluated.

A violation is recorded under its flat quadruple index, and its witness
tuple is built only when the report's log is read.  A plane evaluator may
be given the report's floor (``ReportBuilder.counting_floor``), the
residual a violation must exceed to enter the report; the level-set path
then counts, without listing, the violations of each strip that cannot
exceed it, and the comprehension lists every violation all the same.  The
floor only rises, so a mirror's listed violations include every one above
its own floor.  The command line, which reads five violations, asks every
check for those five alone (``keep``), so the contraction's floor is set
once seven are held and cut to five; a library call lists up to
``MAX_RECORDED_VIOLATIONS``.

Every check evaluates F through ``CouplingMap.fn``, on raw values.  The
constructors make its values finite floats or labels where they are
computed; a map built with the bare constructor yields its values as they
are, a NaN or an int included.  F, like T, is treated as a pure
function and evaluated once per sampled pair, and the first pair that
fails in a check's own order raises, with nothing evaluated again.  The
coupling check reads its interleaved rows over (A, B), F(x, y) then
F(y, x) for each y, and the range check its blocks of rows over
(targets, A), from ``CouplingMap.pair_rows``.  The coupling check tests
membership a row at a time (``metric.contains_values``); the range check
bisects the sorted image index of each side (``SelfMap.image_index``, which
the grid preimage search reads too) once per distinct target of a block, and
records a block with one ``ReportBuilder.observe_all``, or by two margins when
it passes; the contraction check reads ``CouplingMap.tables``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from itertools import chain, compress, count, islice, repeat
from operator import add, eq, gt, not_, sub
from typing import Any, Callable, Optional, Sequence

from .controls import eval_control
from .errors import at_least_one
from .metric import (
    DEFAULT_QUADRUPLE_BUDGET,
    REAL_EQ_TOL,
    SamplePlan,
    SubsetSpec,
    Value,
    _usual_real,
    contains_values,
    member_test,
    sample_values,
    separation,
    thinned_positions,
)
from .problems import CoincidenceProblem, CouplingMap, SelfMap, StrongCoupledProblem
from .report import CheckReport, ReportBuilder

#: Range-check targets held at once (whole rows of y), so memory does not grow with the grid.
RANGE_BLOCK_TARGETS = 2048


def _quadruple_stride(na: int, nb: int, budget: int) -> int:
    at_least_one("budget", budget)  # once the stride reaches n, every factor is 1
    return next(s for s in count(1)
                if (len(thinned_positions(na, s)) * len(thinned_positions(nb, s))) ** 2 <= budget)


def check_coupling(
    f: CouplingMap,
    a: SubsetSpec,
    b: SubsetSpec,
    plan: SamplePlan,
    plan_b: Optional[SamplePlan] = None,
    keep: Optional[int] = None,
) -> CheckReport:
    """Sampled check that f maps A x B into B and B x A into A.

    One sample per (x, y) pair; a pair can contribute up to two membership
    violations, each carrying the offending arguments and the image value.
    F(x, y) and F(y, x) come from ``f.pair_rows(A's sample, B's sample)``.
    The report lists the ``keep`` largest violations (``ReportBuilder``).
    """
    xs = sample_values(a, plan)
    ys = sample_values(b, plan_b or plan)
    rb = ReportBuilder("coupling", 0.0, keep=keep)
    for x, row in zip(xs, f.pair_rows(xs, ys)):
        in_b, in_a = contains_values(b, row[::2]), contains_values(a, row[1::2])
        if all(in_b) and all(in_a):
            continue
        # scan order: F(x, y_j) in B at 2j, F(y_j, x) in A at 2j + 1
        out = list(compress(count(), map(not_, chain.from_iterable(zip(in_b, in_a)))))
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
    keep: Optional[int] = None,
) -> CheckReport:
    """Sampled check that t maps each subset into itself, with image evidence.

    Details carry the (deduplicated, sorted) image values per subset when
    small enough to list, their pairwise intersection, and a closedness
    verdict per image that may be "inconclusive" without failing the check.
    The report lists the ``keep`` largest violations (``ReportBuilder``).
    """
    rb = ReportBuilder("scc_map", 0.0, keep=keep)
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
    keep: Optional[int] = None,
    identity_left: bool = False,
) -> CheckReport:
    """left(d(F(x,y), F(u,v))) <= right(max(d(Ix, Iu), d(Iy, Iv))) over quadruples.

    The image map I is ``t`` (its full-grid table, read like the sample at
    ``metric.thinned_positions``) or the identity when ``t`` is None;
    ``left=None`` is the identity.
    ``identity_left`` says that ``left`` returns every finite float
    unchanged: it is then skipped on the usual metric when F's tables hold
    floats only, so that every distance is a float.
    ``left`` and ``right`` are evaluated once per distinct argument, and
    ``right`` only at distances that are the larger one in some M.
    Violations are recorded in (x, y, u, v) index order, each under its
    flat index ((i * n_b + j) * n_b + j2) * n_a + i2, which ``_quadruple``
    decodes.  Where the level-set path applies (see the module docstring),
    no plane goes through the comprehension; where F is symmetric on one
    sample, a plane (j, i) with j < i is mirrored from plane (i, j).  The
    report lists the ``keep`` largest violations (``ReportBuilder``).
    """
    b_plan = plan_b or plan
    xv = sample_values(problem.subset_a, plan)
    yv = sample_values(problem.subset_b, b_plan)
    total = len(xv) * len(yv) * len(yv) * len(xv)
    stride = _quadruple_stride(len(xv), len(yv), budget)
    # one sample on both axes, bit for bit: == alone takes 0.0 for -0.0
    one = xv == yv and list(map(repr, xv)) == list(map(repr, yv))
    kx, ky = thinned_positions(len(xv), stride), thinned_positions(len(yv), stride)
    xv = list(map(xv.__getitem__, kx))
    yv = xv if one else list(map(yv.__getitem__, ky))
    na, nb = len(xv), len(yv)
    d = problem.space.metric
    f_ab, f_ba = problem.coupling.tables(xv, yv)
    if t is None:
        ix, iy = xv, yv
    else:
        ix = list(map(t.image_table(problem.subset_a, plan)[1].__getitem__, kx))
        iy = ix if one else list(map(t.image_table(problem.subset_b, b_plan)[1].__getitem__, ky))
    d_xu = [[d(a, b) for b in iy] for a in ix]  # d_xu[i][j2] = d(Ix_i, Iu_j2)
    # d_yv[j][i2] = d(Iy_j, Iv_i2), which is d_xu[j][i2] on one sample
    d_yv = d_xu if one else [[d(b, a) for a in ix] for b in iy]

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

    usual = d is _usual_real
    if identity_left and usual and _floats(f_ab) and _floats(f_ba):
        left = None
    level = None
    if usual and left is None:
        # imported here, so that a run without a contraction check never
        # compiles it
        from . import levelset

        if levelset.applies((f_ab, f_ba, d_xu, d_yv), right_at):
            level = levelset.plane_evaluator(ix, iy, f_ba, right_at, tol)
    plane = level or _plane_comprehension(r_xu, r_yv, f_ba, d, left, tol)
    # Plane (j, i) mirrors plane (i, j) when F is symmetric on one sample,
    # on the usual metric with no NaN distance; see the module docstring.
    mirror = one and usual and not nan_xu and _symmetric(f_ab)
    # plane index of (i, j), j > i, in a mirrored scan -> what plane() returned
    sources: dict[int, tuple] = {}
    rb = ReportBuilder(name, tol, partial(_quadruple, xv, yv), keep)
    min_margin = math.inf
    floor = None  # rb.counting_floor(): the residual a listed violation must exceed
    for i in range(na):
        fab_i = f_ab[i]
        for j in range(nb):
            fab, base = fab_i[j], (i * nb + j) * nb * na
            if mirror and j < i:
                result = _mirrored(sources.pop(j * nb + i), na)
            else:
                result = plane(i, j, fab, floor)
            plane_min, unlisted, keys, lhs, rhs = result
            if plane_min < min_margin:
                min_margin = plane_min
            if mirror and j > i:
                sources[i * nb + j] = result
            if keys or unlisted:
                rb.add_violations(list(map(add, keys, repeat(base))), lhs, rhs, unlisted)
                floor = rb.counting_floor()
    rb.samples = na * nb * nb * na
    rb.min_margin = min_margin
    return rb.build({"total_quadruples": total, "stride": stride, "budget": budget})


def _plane_comprehension(r_xu: list, r_yv: list, f_ba: list[list[Value]],
                         d: Callable[[Value, Value], float],
                         left: Optional[Callable[[float], float]], tol: float):
    """``plane(i, j, fab)``: plane (i, j) as ``levelset.plane_evaluator``
    lists it, from comprehensions over its n_b * n_a cells.  rhs picks the
    stored right value of the larger distance (``r_xu[i]`` and ``r_yv[j]``
    hold each distance with its right value), and lhs is |fab - F(u, v)|
    on the usual metric, d(fab, F(u, v)) otherwise, through ``left`` unless
    it is None."""
    # (u, v) = (y_j2, x_i2) at k = j2 * na + i2, so plane order is quadruple order
    f_uv = [w for row in f_ba for w in row]
    usual = d is _usual_real
    left_at: dict[float, float] = {}

    def plane(i: int, j: int, fab: Value, floor: Optional[float] = None) -> tuple:
        rhs = [r1 if d1 >= d2 else r2 for d1, r1 in r_xu[i] for d2, r2 in r_yv[j]]
        dist = [abs(fab - w) for w in f_uv] if usual else list(map(d, repeat(fab), f_uv))
        lhs = dist if left is None else _memo_map(left_at, left, dist)
        # the running minimum skips NaN margins, as a sample-by-sample scan does
        plane_min = min(chain((math.inf,), map(sub, rhs, lhs)))
        # With tol >= 0 a violation lhs > rhs + tol has rhs - lhs < 0, so
        # a plane whose margins are all >= 0 holds none.
        if not (plane_min < 0 or tol < 0):
            return plane_min, 0, [], [], []
        hits = list(compress(count(), map(gt, lhs, map(add, rhs, repeat(tol)))))
        return (plane_min, 0, hits, list(map(lhs.__getitem__, hits)),
                list(map(rhs.__getitem__, hits)))

    return plane


def _floats(table: list[list[Value]]) -> bool:
    """Whether a table holds floats only."""
    return set(map(type, chain.from_iterable(table))) <= {float}


def _symmetric(table: list[list[Value]]) -> bool:
    """Whether a square table holds floats only and equals its transpose
    entry for entry.  A NaN equals nothing, so a table with one is not
    symmetric."""
    return _floats(table) and all(map(eq, chain.from_iterable(table),
                                      chain.from_iterable(zip(*table))))


def _mirrored(source: tuple, n: int) -> tuple:
    """Plane (j, i) of a mirrored scan, as the plane evaluators return it,
    from what they returned for plane (i, j): the same margin and unlisted
    count, and the listed violations under transposed keys in scan order.
    The floor only rises, so every violation that exceeds it now was listed
    then."""
    margin, unlisted, keys, lhs, rhs = source
    if not keys:
        return source
    # cell (j2, i2) of plane (i, j), at j2 * n + i2, is cell (i2, j2) here
    moved = [k % n * n + k // n for k in keys]
    order = sorted(range(len(keys)), key=moved.__getitem__)
    return (margin, unlisted, list(map(moved.__getitem__, order)),
            list(map(lhs.__getitem__, order)), list(map(rhs.__getitem__, order)))


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
    keep: Optional[int] = None,
) -> CheckReport:
    """Sampled d(F(x,y), F(u,v)) <= phi(max(d(Tx,Tu), d(Ty,Tv))) over quadruples.
    The report lists the ``keep`` largest violations (``ReportBuilder``)."""
    phi = problem.phi
    return _contraction_scan(
        "phi_T_contraction", problem, problem.self_map,
        None, lambda m: eval_control(phi, m),
        plan, tol, plan_b, budget, keep,
    )


def check_phi_psi_contraction(
    problem: StrongCoupledProblem,
    plan: SamplePlan,
    tol: float = 1e-9,
    plan_b: Optional[SamplePlan] = None,
    budget: int = DEFAULT_QUADRUPLE_BUDGET,
    keep: Optional[int] = None,
) -> CheckReport:
    """Sampled psi(d(F(x,y), F(u,v))) <= psi(M) - phi(M), M = max(d(x,u), d(y,v)).
    The report lists the ``keep`` largest violations (``ReportBuilder``)."""
    phi, psi = problem.phi, problem.psi
    # The identity psi returns t, bit for bit, at every finite float t >= 0,
    # so it is skipped on the usual metric when F's tables hold floats.  The
    # one difference is a distance that overflows to inf: psi raised
    # DomainError there.
    return _contraction_scan(
        "phi_psi_contraction", problem, None,
        lambda t: eval_control(psi, t),
        lambda m: eval_control(psi, m) - eval_control(phi, m),
        plan, tol, plan_b, budget, keep, psi.fn is Fraction,
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
    keep: Optional[int] = None,
) -> CheckReport:
    """Sampled check that swapped coupling images land inside both t-ranges.

    For each sampled (y, x) the value F(y, x) must sit within ``tol`` of
    t(a) for some sampled a in A, and F(x, y) within ``tol`` of t(b) for
    some sampled b in B.  When a target itself belongs to the subset it is
    admitted as its own candidate, so the identity map passes whenever f is
    a genuine coupling.  ``targets_b`` restricts where the y argument is
    drawn from without shrinking the candidate pools.  The targets come
    from ``f.pair_rows(targets, A's sample)``, ``RANGE_BLOCK_TARGETS`` at a
    time; each side's distinct targets in a block are searched once.  A block
    with no separation s above ``tol`` adds what ``observe_all`` would: the
    margin ``0.0 - s`` of its first target, then ``0.0 - top`` for its largest
    non-NaN s (``max`` from -inf skips NaN), its least non-NaN margin, as
    ``0.0 - s`` is monotone and never -0.0.  Other blocks are refined target
    by target, as T(0.0) and T(-0.0) may differ.
    The report lists the ``keep`` largest violations (``ReportBuilder``).
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

    def search(side: int, targets: Sequence[Value]) -> tuple[Sequence, dict]:
        """``(keys, near)``: each target's key, and each distinct key's separation from
        the pool.  A scan keys ``(type, target)``, bisection (float distances) the target."""
        pool, pad, _ = sides[side]
        distinct = list(dict.fromkeys(targets))
        if pad is not None and not any(map(isinstance, distinct, repeat(str))):
            at = list(map(bisect_left, repeat(pad), distinct, repeat(1), repeat(len(pad) - 1)))
            lo = [abs(pad[k - 1] - tv) for tv, k in zip(distinct, at)]
            hi = [abs(pad[k] - tv) for tv, k in zip(distinct, at)]
            return targets, dict(zip(distinct, [h if h < l else l for l, h in zip(lo, hi)]))
        keys = list(zip(map(type, targets), targets))
        return keys, {k: min(separation(v, k[1]) for v in pool) for k in dict.fromkeys(keys)}

    def refine(side: int, tv: Value, best: float) -> float:
        """A target that lies in its own subset is also its own candidate."""
        if best > tol and sides[side][2](tv):
            return min(best, separation(t.fn(tv), tv))
        return best

    n = len(xv)
    rows = max(1, RANGE_BLOCK_TARGETS // (2 * n))
    rb = ReportBuilder("range_compatibility", tol, keep=keep)
    targets: list[Value] = []  # the block's, in scan order, kept by extend when F fails

    def met(row: list[Value]) -> None:
        # in scan order T refines a target before the next F pair is met:
        # a failing T met before the failing pair, in this block, raises instead
        for k, tv in enumerate(chain(targets, row)):
            refine(k % 2, tv, *search(k % 2, [tv])[1].values())

    pairs = f.pair_rows(tgt, xv, met)
    for start in range(0, len(tgt), rows):
        block = tgt[start:start + rows]
        # for the r-th y of the block, F(y, x_i) is target 2 * (r * n + i), F(x_i, y) the next
        targets.clear()
        targets.extend(chain.from_iterable(islice(pairs, len(block))))
        (k0, near0), (k1, near1) = search(0, targets[::2]), search(1, targets[1::2])
        top = max(chain((-math.inf,), near0.values(), near1.values()))
        if not top > tol:
            rb.count_sample(0.0 - near0[k0[0]])
            rb.count_sample(0.0 - top, len(targets) - 1)
            continue
        bests = list(chain.from_iterable(zip(map(near0.get, k0), map(near1.get, k1))))
        for k in list(compress(count(), map(gt, bests, repeat(tol)))):
            bests[k] = refine(k % 2, targets[k], bests[k])

        def witness(k: int) -> tuple:
            yv, x = block[k // (2 * n)], xv[k // 2 % n]
            if k % 2:
                return ("target_in_T_B", x, yv, targets[k])
            return ("target_in_T_A", yv, x, targets[k])

        rb.observe_all(bests, [0.0] * len(bests), witness)
    return rb.build({"pairs": len(tgt) * n})
