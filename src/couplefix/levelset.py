"""Exact level-set evaluation of contraction planes.

The contraction kernel (``checks._contraction_scan``) tests, for each
(x, y) plane, every quadruple (x, y, u, v) with

    |F(x, y) - F(u, v)| <= right(M),  M = max(|Ix - Iu|, |Iy - Iv|),

on the usual metric with the identity on the left.  Sort the u and v
images once; then {M <= rho} is a rectangle of contiguous sorted indices
that grows with rho, and over the F(u, v) values W inside it the largest
lhs is X = max(F(x, y) - min W, max W - F(x, y)).  If right is
nondecreasing, the plane's smallest margin is the smallest right(rho) - X
over the levels, and the plane holds a violation exactly when
X > right(rho) + tol at some level.  Subtraction and adding tol round
monotonically, so both results are exact in floating point, not bounds,
and a plane costs O(n_a + n_b) steps instead of n_a * n_b.

``applies`` says when the argument holds for the tables at hand: every
entry finite, no right value of -0.0 (the sign of a zero margin would then
depend on the scan order), and right nondecreasing over the sampled
distances.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import repeat
from operator import add, gt, itemgetter, le, sub
from typing import Optional


def applies(tables, right_at: dict[float, float]) -> bool:
    """Whether every table entry and every stored right value is finite,
    no right value is -0.0, and right is nondecreasing in its argument."""
    rights = [right_at[m] for m in sorted(right_at)]
    return (
        all(math.isfinite(v) for table in tables for row in table for v in row)
        and all(map(math.isfinite, rights))
        and all(map(le, rights, rights[1:]))
        and not any(r == 0 and math.copysign(1.0, r) < 0 for r in rights)
    )


def _sparse_tables(values: list[float]) -> tuple[list[list[float]], list[list[float]]]:
    """Range-minimum and range-maximum tables: level k holds the min (max)
    of every window of 2**k consecutive values."""
    lo, hi = [values], [values]
    half = 1
    while 2 * half <= len(values):
        a, b = lo[-1], hi[-1]
        lo.append(list(map(min, a, a[half:])))
        hi.append(list(map(max, b, b[half:])))
        half *= 2
    return lo, hi


def _outward(ordered: list[float], a: float) -> tuple[int, list[tuple[float, int]]]:
    """Where ``a`` would be inserted in the sorted ``ordered``, and
    (|a - v|, index) for every v of ``ordered`` in nondecreasing distance.
    a - v rounds monotonically in v, so the distances grow on each side of
    the insertion point and an outward merge lists them in order: every
    prefix of the list is a contiguous run of indices."""
    n = len(ordered)
    at = bisect_left(ordered, a)
    lo, hi = at - 1, at
    out = []
    while lo >= 0 or hi < n:
        below = a - ordered[lo] if lo >= 0 else math.inf
        above = ordered[hi] - a if hi < n else math.inf
        if below <= above:
            out.append((below, lo))
            lo -= 1
        else:
            out.append((above, hi))
            hi += 1
    return at, out


def plane_evaluator(ix: list[float], iy: list[float], f_ba: list[list[float]],
                    right_at: dict[float, float], tol: float):
    """``plane(i, j, fab)``: the smallest margin of plane (i, j), or None
    when the plane holds a violation.

    Rows p and columns q of the sorted grid are u = y_j2 and v = x_i2
    ordered by image, so {M <= rho} is the rows within rho of Ix_i times the
    columns within rho of Iy_j.  The rectangle grows by one row or column
    per event, in order of distance; sparse tables give the new strip's min
    and max.  A part of a level is a subset of it with the same right, so
    it never lowers either result.  right - X is the smaller of
    right - (fab - min W) and right - (max W - fab), and each of those can
    only fall where its own extreme moves, so one (Ix_i, Iy_j) pair's
    profile keeps right and min W at the events that lower min W, and the
    same for max W.  Up to n_b profiles are kept for planes with the same
    image pair.
    """
    su = sorted(range(len(iy)), key=iy.__getitem__)
    sv = sorted(range(len(ix)), key=ix.__getitem__)
    grid = [[f_ba[j2][i2] for i2 in sv] for j2 in su]
    row_lo, row_hi = zip(*map(_sparse_tables, grid))
    col_lo, col_hi = zip(*map(_sparse_tables, map(list, zip(*grid))))
    # log2[d]: the sparse-table level that covers a window of d + 1 values
    log2 = [(d + 1).bit_length() - 1 for d in range(max(len(ix), len(iy)))]
    u_sorted, v_sorted = [iy[j2] for j2 in su], [ix[i2] for i2 in sv]
    u_events: dict[float, tuple] = {}  # for the current Ix_i only
    # columns are stored as ~q so that one sort merges them with the rows
    v_events = {}
    for b in set(iy):
        at, events = _outward(v_sorted, b)
        v_events[b] = at, [(rho, ~q) for rho, q in events]
    profiles: dict[tuple[float, float], tuple] = {}
    inf = math.inf

    def profile(a: float, b: float) -> tuple[list[float], ...]:
        if a not in u_events:
            u_events.clear()
            u_events[a] = _outward(u_sorted, a)
        (pl, ue), (ql, ve) = u_events[a], v_events[b]
        pr, qr = pl - 1, ql - 1  # empty rectangles at the insertion points
        lo, hi = inf, -inf
        lo_r, lo_w, hi_r, hi_w = [], [], [], []
        # a stable sort on distance alone keeps each side's outward order
        for rho, k in sorted(ue + ve, key=itemgetter(0)):
            if k >= 0:  # row k over the columns so far
                if k < pl:
                    pl = k
                else:
                    pr = k
                if ql > qr:
                    continue
                s = log2[qr - ql]
                t_lo, t_hi = row_lo[k][s], row_hi[k][s]
                i1, i2 = ql, qr + 1 - (1 << s)
            else:  # column ~k over the rows so far
                k = ~k
                if k < ql:
                    ql = k
                else:
                    qr = k
                if pl > pr:
                    continue
                s = log2[pr - pl]
                t_lo, t_hi = col_lo[k][s], col_hi[k][s]
                i1, i2 = pl, pr + 1 - (1 << s)
            w, w2 = t_lo[i1], t_lo[i2]
            if w2 < w:
                w = w2
            if w < lo:
                lo = w
                lo_r.append(right_at[rho])
                lo_w.append(w)
            w, w2 = t_hi[i1], t_hi[i2]
            if w2 > w:
                w = w2
            if w > hi:
                hi = w
                hi_r.append(right_at[rho])
                hi_w.append(w)
        return lo_r, lo_w, hi_r, hi_w

    def plane(i: int, j: int, fab: float) -> Optional[float]:
        key = (ix[i], iy[j])
        prof = profiles.get(key)
        if prof is None:
            if len(profiles) >= len(iy):
                profiles.clear()
            prof = profiles[key] = profile(*key)
        lo_r, lo_w, hi_r, hi_w = prof
        below = list(map(sub, repeat(fab), lo_w))
        above = list(map(sub, hi_w, repeat(fab)))
        if (any(map(gt, below, map(add, lo_r, repeat(tol))))
                or any(map(gt, above, map(add, hi_r, repeat(tol))))):
            return None
        return min(min(map(sub, lo_r, below)), min(map(sub, hi_r, above)))

    return plane
