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
right(M) + tol there.  A plane is swept once, with its F(x, y): the sweep
keeps the running smallest margin and searches each strip that fails this
test as it meets it.
On a row or column of the sorted grid that is monotone (flagged once per
evaluator), F(x, y) - W is monotone along the strip, so the cells with
|F(x, y) - W| <= right(M) + tol form one run and the hits are a prefix and
a suffix: two walks in from the ends find them with that same test, each
stopping at its first passing cell.  A strip of any other line is scanned
whole.  The hits, sorted by index, are the plane's violations in scan
order, so a failing plane costs its sweep plus its hits on monotone lines
plus the cells of its failing strips on other lines.  A sparse-table
descent would cost O(log n) per hit on any line, but in pure Python its
steps cost about what a C-level scan of a whole strip does, and failing
strips are short (on negative-midpoint at grid 81, 15 cells and 1.8 hits
on average).

``applies`` says when the argument holds for the tables at hand: every
entry finite, no right value of -0.0 (the sign of a zero margin would then
depend on the scan order), and right nondecreasing over the sampled
distances.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import compress, repeat
from operator import add, ge, gt, invert, itemgetter, le, pos, sub
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
        lo.append([w if w < v else v for v, w in zip(a, a[half:])])  # min(v, w)
        hi.append([w if w > v else v for v, w in zip(b, b[half:])])  # max(v, w)
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
    only fall where its own extreme moves, so the sweep takes the first
    where min W falls and the second where max W rises.

    Each plane is swept once with its ``fab``.  When an (Ix_i, Iy_j) pair
    can come back (``ix`` or ``iy`` repeats a value), the sweep also keeps
    the pair's profile, right and min W where min W falls and the same for
    max W, for up to n_b pairs at a time.  A later plane of a kept pair
    reads its margin off the profile, and sweeps again only if it fails.
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
    # An event is (rho, k, right(rho) and right(rho) + tol, NaN where rho is never
    # an M, lo and hi tables); column q is k = ~q, so one sort merges it with rows
    rights, nans = {m: (r, r + tol) for m, r in right_at.items()}, (math.nan,) * 2

    def events(ordered, c, tag, lo, hi) -> tuple[int, list[tuple]]:
        at, out = _outward(ordered, c)
        return at, [(rho, tag(p), *rights.get(rho, nans), lo[p], hi[p]) for rho, p in out]

    row_events = lru_cache(1)(lambda a: events(u_sorted, a, pos, row_lo, row_hi))  # last Ix_i
    v_events = {b: events(v_sorted, b, invert, col_lo, col_hi) for b in set(iy)}
    repeats = len(set(ix)) < na or len(set(iy)) < len(iy)
    profiles: dict[tuple[float, float], tuple] = {}

    def sweep(a: float, b: float, fab: float, profile: Optional[tuple] = None
              ) -> tuple[float, list]:
        """The smallest margin of the plane of (a, b) with F(x, y) = fab and the
        (key, lhs, rhs) of its violations in scan order; ``profile``'s two lists
        get right, min W where min W falls and right, max W where max W rises."""
        (pl, ue), (ql, ve) = row_events(a), v_events[b]
        pr, qr = pl - 1, ql - 1  # empty rectangles at the insertion points
        lo, hi, margin = math.inf, -math.inf, math.inf
        lo_p, hi_p = profile or (None, None)
        hits = []  # (key, lhs, rhs) found on monotone lines
        cells, keys, rs, bounds = [], [], [], []  # failing strips elsewhere
        # a stable sort on distance alone keeps each side's outward order
        for rho, k, r, bound, lo_k, hi_k in sorted(ue + ve, key=itemgetter(0)):
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
            w_hi, w = t_hi[first], t_hi[last]
            if w > w_hi:
                w_hi = w
            if w_lo < lo:
                lo = w_lo
                m = r - (fab - w_lo)
                if m < margin:
                    margin = m
                if lo_p is not None:
                    lo_p += r, w_lo
            if w_hi > hi:
                hi = w_hi
                m = r - (w_hi - fab)
                if m < margin:
                    margin = m
                if hi_p is not None:
                    hi_p += r, w_hi
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
                    rs += [r] * (end - first)
                    bounds += [bound] * (end - first)
        if cells:
            lhs = list(map(abs, map(sub, repeat(fab), cells)))
            hits += compress(zip(keys, lhs, rs), map(gt, lhs, bounds))
        return margin, sorted(hits)

    def plane(i: int, j: int, fab: float) -> tuple[float, list, list, list]:
        key = (ix[i], iy[j])
        prof = profiles.get(key)
        if prof is None:
            if repeats:
                if len(profiles) >= len(iy):
                    profiles.clear()
                prof = profiles[key] = [], []
            margin, found = sweep(*key, fab, prof)
        else:
            lo_p, hi_p = prof
            xs = [*map(sub, repeat(fab), lo_p[1::2]), *map(sub, hi_p[1::2], repeat(fab))]
            rs = lo_p[::2] + hi_p[::2]
            margin, found = min(map(sub, rs, xs)), None
            # with tol >= 0, a violation has a negative margin (see checks)
            if (margin < 0 or tol < 0) and any(map(gt, xs, map(add, rs, repeat(tol)))):
                found = sweep(*key, fab)[1]
        return (margin, *map(list, zip(*found))) if found else (margin, [], [], [])

    return plane
