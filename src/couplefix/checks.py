"""Sampled verification of the structural and contraction hypotheses.

Every checker here follows the same bargain: it scans a deterministic
finite sample, records each broken inequality as a reproducible witness,
and reports evidence rather than proof.  Verdicts are monotone in the
sample — enlarging a grid can only surface more violations, never erase
one — and each report carries enough detail (image values, stride, margin)
to re-derive its numbers independently.

Both contraction checkers are entries to one kernel.  It walks quadruples
(x, y, u, v) with x, v drawn from the first subset and y, u from the second,
and tests

    left(d(F(x, y), F(u, v))) <= right(M),  M = max(d(Ix, Iu), d(Iy, Iv)),

for an image map I: the self map T with left = identity and right = phi
(phi-T contraction), or the identity with left = psi and right = psi - phi
(the altering pair of a strong coupled problem).  Both distances in M are
read as written, so the kernel does not assume the metric is symmetric.
The quadruple count grows with the fourth power of the grid, so a budget
caps the work: when the full product would exceed it, every axis is thinned
by the same stride, which keeps the subsample a deterministic subset of the
full grid.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from .controls import eval_control
from .metric import (
    REAL_EQ_TOL,
    Point,
    SamplePlan,
    SubsetSpec,
    Value,
    contains,
    sample_points,
    separation,
)
from .problems import CoincidenceProblem, CouplingMap, SelfMap, StrongCoupledProblem
from .report import CheckReport, ReportBuilder

#: Default cap on contraction quadruples per check.
DEFAULT_QUADRUPLE_BUDGET = 1_000_000


def _quadruple_stride(na: int, nb: int, budget: int) -> int:
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
    xs = sample_points(a, plan)
    ys = sample_points(b, plan_b or plan)
    rb = ReportBuilder("coupling", 0.0)
    for x in xs:
        for y in ys:
            clean = True
            for tag, subset, p, q in (("image_in_B", b, x, y), ("image_in_A", a, y, x)):
                img = f.evaluate(p, q)
                if not contains(subset, img):
                    rb.add_violation((tag, p.value, q.value, img.value), 1.0, 0.0)
                    clean = False
            if clean:
                rb.count_sample()
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
    rimages = [t.evaluate(p).value for p in sample_points(subset, refined)]
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
        pts = sample_points(subset, pl)
        images: list[Value] = []
        for p in pts:
            ip = t.evaluate(p)
            images.append(ip.value)
            if contains(subset, ip):
                rb.count_sample()
            else:
                rb.add_violation((f"invariance_{name}", p.value, ip.value), 1.0, 0.0)
        examined += len(pts)
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
    image: Callable[[Point], Point],
    left: Callable[[float], float],
    right: Callable[[float], float],
    plan: SamplePlan,
    tol: float,
    plan_b: Optional[SamplePlan],
    budget: int,
) -> CheckReport:
    """left(d(F(x,y), F(u,v))) <= right(max(d(Ix, Iu), d(Iy, Iv))) over quadruples.

    ``left`` and ``right`` are evaluated once per distinct argument.
    Violations are recorded in (x, y, u, v) index order.
    """
    xs = sample_points(problem.subset_a, plan)
    ys = sample_points(problem.subset_b, plan_b or plan)
    total = len(xs) * len(ys) * len(ys) * len(xs)
    stride = _quadruple_stride(len(xs), len(ys), budget)
    xs, ys = xs[::stride], ys[::stride]
    na, nb = len(xs), len(ys)
    d, f = problem.space.metric, problem.coupling
    f_ab = [[f.evaluate(p, q).value for q in ys] for p in xs]
    f_ba = [[f.evaluate(q, p).value for p in xs] for q in ys]
    xv = [p.value for p in xs]
    yv = [q.value for q in ys]
    ix = [image(p).value for p in xs]
    iy = [image(q).value for q in ys]
    d_xu = [[d(a, b) for b in iy] for a in ix]  # d_xu[i][j2] = d(Ix_i, Iu_j2)
    d_yv = [[d(b, a) for a in ix] for b in iy]  # d_yv[j][i2] = d(Iy_j, Iv_i2)
    left_at: dict[float, float] = {}
    right_at: dict[float, float] = {}
    rb = ReportBuilder(name, tol)
    min_margin = math.inf
    for i in range(na):
        fab_i, dxu_i = f_ab[i], d_xu[i]
        for j in range(nb):
            fab, dyv_j = fab_i[j], d_yv[j]
            for j2 in range(nb):
                fba_row = f_ba[j2]
                d1 = dxu_i[j2]
                for i2 in range(na):
                    dist = d(fab, fba_row[i2])
                    try:
                        lhs = left_at[dist]
                    except KeyError:
                        lhs = left_at[dist] = left(dist)
                    d2 = dyv_j[i2]
                    m_val = d1 if d1 >= d2 else d2
                    try:
                        rhs = right_at[m_val]
                    except KeyError:
                        rhs = right_at[m_val] = right(m_val)
                    margin = rhs - lhs
                    if margin < min_margin:
                        min_margin = margin
                    if lhs > rhs + tol:
                        rb.add_violation(
                            ("contraction", xv[i], yv[j], yv[j2], xv[i2]), lhs, rhs
                        )
    rb.samples = na * nb * nb * na
    rb.min_margin = min_margin
    return rb.build({"total_quadruples": total, "stride": stride, "budget": budget})


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
        "phi_T_contraction", problem, problem.self_map.evaluate,
        lambda t: t, lambda m: eval_control(phi, m),
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
    return _contraction_scan(
        "phi_psi_contraction", problem, lambda p: p,
        lambda t: eval_control(psi, t), lambda m: eval_control(psi, m) - eval_control(phi, m),
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
    a_pts = sample_points(a, plan)
    b_plan = plan_b or plan
    b_pts = sample_points(b, b_plan)
    tgt_pts = sample_points(targets_b, b_plan) if targets_b is not None else b_pts
    ta_vals = [t.evaluate(p).value for p in a_pts]
    tb_vals = [t.evaluate(q).value for q in b_pts]
    rb = ReportBuilder("range_compatibility", tol)

    def nearest(target_pt, pool_vals, subset) -> float:
        tv = target_pt.value
        best = min(separation(v, tv) for v in pool_vals)
        if best > tol and contains(subset, target_pt):
            best = min(best, separation(t.evaluate(target_pt).value, tv))
        return best

    for yq in tgt_pts:
        for xp in a_pts:
            for tag, p, q, pool, subset in (
                ("target_in_T_A", yq, xp, ta_vals, a),
                ("target_in_T_B", xp, yq, tb_vals, b),
            ):
                tgt = f.evaluate(p, q)
                rb.observe(nearest(tgt, pool, subset), 0.0, (tag, p.value, q.value, tgt.value))
    return rb.build({"pairs": len(tgt_pts) * len(a_pts)})
