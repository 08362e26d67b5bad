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

The rectangle grows by one row or column strip at a time, and each (u, v)
cell enters it once: in the strip of whichever of its row and its column
comes second, at a distance equal to the cell's own M.  Each strip's event
(its distance, its line, the stored right value there and the line's
sparse tables) is built once per Ix value for rows and once per Iy value
for columns.  F(x, y) - W rounds monotonically in W, so a strip holds a
violation exactly when F(x, y) - min W or max W - F(x, y) exceeds
right(M) + tol there.  A plane that holds violations searches only the
strips that fail this test.
On a row or column of the sorted grid that is monotone (flagged once per
evaluator), F(x, y) - W is monotone along the strip, so the cells with
|F(x, y) - W| <= right(M) + tol form one run and the hits are a prefix and
a suffix: two walks in from the ends find them with that same test, each
stopping at its first passing cell.  A strip of any other line is scanned
whole.  The hits, sorted by index, are the plane's violations in scan
order, so a failing plane costs O(n_a + n_b) steps plus its hits on
monotone lines plus the cells of its failing strips on other lines.
A sparse-table descent would cost O(log n) per hit on any line, but in
pure Python its steps cost about what a C-level scan of a whole strip does,
and failing strips are short (on negative-midpoint at grid 81, 15 cells
and 1.8 hits on average).

``applies`` says when the argument holds for the tables at hand: every
entry finite, no right value of -0.0 (the sign of a zero margin would then
depend on the scan order), and right nondecreasing over the sampled
distances.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress, repeat
from operator import add, ge, gt, itemgetter, le, sub
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
    """``plane(i, j, fab)``: the smallest margin of plane (i, j), the keys
    ``j2 * n_a + i2`` of its violations in scan order, and their lhs and rhs.

    Rows p and columns q of the sorted grid are u = y_j2 and v = x_i2
    ordered by image, so {M <= rho} is the rows within rho of Ix_i times the
    columns within rho of Iy_j.  The rectangle grows by one row or column
    strip per event, in order of distance; sparse tables give the new
    strip's min and max.  A part of a level is a subset of it with the same
    right, so it never lowers either result.  right - X is the smaller of
    right - (fab - min W) and right - (max W - fab), and each of those can
    only fall where its own extreme moves, so one (Ix_i, Iy_j) pair's
    profile keeps right and min W at the events that lower min W, and the
    same for max W.  Up to n_b profiles are kept for planes with the same
    image pair.

    The plane's violations are the cells of the strips with
    fab - min W > right + tol or max W - fab > right + tol (see the module
    docstring), walked in from both ends on monotone lines and scanned
    whole on others.  They are searched for with ``fab`` in a second sweep,
    and once one plane has failed, every new profile is swept with ``fab``.
    """
    na = len(ix)
    su = sorted(range(len(iy)), key=iy.__getitem__)
    sv = sorted(range(na), key=ix.__getitem__)
    grid = [[f_ba[j2][i2] for i2 in sv] for j2 in su]
    cols = list(map(list, zip(*grid)))
    row_keys = [[j2 * na + i2 for i2 in sv] for j2 in su]
    # lines[k] is row k of the sorted grid for k >= 0 and column ~k for
    # k < 0; line_keys[k] holds the scan index j2 * na + i2 of each cell
    lines = grid + cols[::-1]
    line_keys = row_keys + list(map(list, zip(*row_keys)))[::-1]
    monotone = [all(map(le, line, line[1:])) or all(map(ge, line, line[1:]))
                for line in lines]
    row_lo, row_hi = zip(*map(_sparse_tables, grid))
    col_lo, col_hi = zip(*map(_sparse_tables, cols))
    # log2[d]: the sparse-table level that covers a window of d + 1 values
    log2 = [(d + 1).bit_length() - 1 for d in range(max(len(ix), len(iy)))]
    u_sorted, v_sorted = [iy[j2] for j2 in su], [ix[i2] for i2 in sv]
    # An event is (rho, k, right(rho) or None if rho is never an M, lo and hi
    # tables); columns are stored as ~q so that one sort merges them with rows
    get = right_at.get
    u_events: dict[float, tuple] = {}  # for the current Ix_i only
    v_events = {}
    for b in set(iy):
        at, events = _outward(v_sorted, b)
        v_events[b] = at, [(rho, ~q, get(rho), col_lo[q], col_hi[q]) for rho, q in events]
    profiles: dict[tuple[float, float], tuple] = {}
    inf = math.inf
    failed = False

    def sweep(a: float, b: float, fab: Optional[float]) -> tuple[tuple, Optional[list]]:
        """The profile of (a, b) and, with ``fab``, the (key, lhs, rhs) of
        each violation of the plane with F(x, y) = fab, in scan order."""
        if a not in u_events:
            u_events.clear()
            at, events = _outward(u_sorted, a)
            u_events[a] = at, [(rho, p, get(rho), row_lo[p], row_hi[p]) for rho, p in events]
        (pl, ue), (ql, ve) = u_events[a], v_events[b]
        pr, qr = pl - 1, ql - 1  # empty rectangles at the insertion points
        lo, hi = inf, -inf
        lo_r, lo_w, hi_r, hi_w = [], [], [], []
        if fab is not None:
            hits = []  # (key, lhs, rhs) found on monotone lines
            cells, keys, rights, bounds = [], [], [], []  # failing strips elsewhere
        # a stable sort on distance alone keeps each side's outward order
        for rho, k, r, lo_k, hi_k in sorted(ue + ve, key=itemgetter(0)):
            if k >= 0:  # row k over the columns so far
                if k < pl:
                    pl = k
                else:
                    pr = k
                if ql > qr:
                    continue
                s = log2[qr - ql]
                first, last = ql, qr + 1 - (1 << s)
            else:  # column ~k over the rows so far
                q = ~k
                if q < ql:
                    ql = q
                else:
                    qr = q
                if pl > pr:
                    continue
                s = log2[pr - pl]
                first, last = pl, pr + 1 - (1 << s)
            # the strip is first .. last + 2**s - 1, two windows of 2**s
            t_lo, t_hi = lo_k[s], hi_k[s]
            w_lo, w = t_lo[first], t_lo[last]
            if w < w_lo:
                w_lo = w
            if w_lo < lo:
                lo = w_lo
                lo_r.append(r)
                lo_w.append(w_lo)
            w_hi, w = t_hi[first], t_hi[last]
            if w > w_hi:
                w_hi = w
            if w_hi > hi:
                hi = w_hi
                hi_r.append(r)
                hi_w.append(w_hi)
            if fab is not None:
                bound = r + tol
                if fab - w_lo > bound or w_hi - fab > bound:
                    end = last + (1 << s)
                    line, at = lines[k], line_keys[k]
                    if monotone[k]:  # hits are a prefix and a suffix: walk in
                        p, q = first, end
                        while p < q:
                            lhs = abs(fab - line[p])
                            if not lhs > bound:
                                break
                            hits.append((at[p], lhs, r))
                            p += 1
                        while q > p + 1:  # cell p, if any, failed the test
                            q -= 1
                            lhs = abs(fab - line[q])
                            if not lhs > bound:
                                break
                            hits.append((at[q], lhs, r))
                    else:
                        cells += line[first:end]
                        keys += at[first:end]
                        rights += [r] * (end - first)
                        bounds += [bound] * (end - first)
        profile = lo_r, lo_w, hi_r, hi_w
        if fab is None:
            return profile, None
        lhs = list(map(abs, map(sub, repeat(fab), cells)))
        hits += compress(zip(keys, lhs, rights), map(gt, lhs, bounds))
        return profile, sorted(hits)

    def plane(i: int, j: int, fab: float) -> tuple[float, list, list, list]:
        nonlocal failed
        key = (ix[i], iy[j])
        prof, found = profiles.get(key), None
        if prof is None:
            if len(profiles) >= len(iy):
                profiles.clear()
            prof, found = sweep(*key, fab if failed else None)
            profiles[key] = prof
        lo_r, lo_w, hi_r, hi_w = prof
        below = list(map(sub, repeat(fab), lo_w))
        above = list(map(sub, hi_w, repeat(fab)))
        margin = min(min(map(sub, lo_r, below)), min(map(sub, hi_r, above)))
        # with tol >= 0, a violation has a negative margin (see checks)
        if found is None and (margin < 0 or tol < 0) and (
                any(map(gt, below, map(add, lo_r, repeat(tol))))
                or any(map(gt, above, map(add, hi_r, repeat(tol))))):
            failed = True
            found = sweep(*key, fab)[1]
        return (margin, *map(list, zip(*found))) if found else (margin, [], [], [])

    return plane
