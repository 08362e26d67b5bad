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
and a plane costs O(n_a + n_b) steps instead of n_a * n_b.  When F is
symmetric on one sample of A = B, the kernel evaluates only the planes
(i, j) with j >= i here and mirrors the others (see ``checks``).

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

A row or column of the sorted grid is checked once per evaluator for
being monotone.  On a monotone line a strip's min W and max W are its two
end cells, so only the other lines get sparse tables (on the builtins at
grid 81, none of the 56 lines of banach-linear or negative-midpoint, 42
of example-2.1.9's).  F(x, y) - W is monotone along such a strip, so the
cells with |F(x, y) - W| <= right(M) + tol form one run and the hits are
a prefix and a suffix: two walks in from the ends find them with that
same test, each stopping at its first passing cell.  A strip of any other
line is scanned whole.  The hits, sorted by key, are the plane's
violations in scan order, so a failing plane costs its sweep plus its hits
on monotone lines plus the cells of its failing strips on other lines.  A
sparse-table descent would cost O(log n) per hit on any line, but in pure
Python its steps cost about what a C-level scan of a whole strip does, and
failing strips are short: on negative-midpoint at the benchmark's grid (81
points and 2 jittered, stride 3) about 23,500 of them hold 352,000 cells
and 43,200 hits.  For the same reason a listed strip is walked, not
bisected: with so few hits per strip, bisecting and slicing every failing
strip made check-fail's pass_s 0.115 s instead of 0.071 s (ten
alternating pairs, 2-core VM).

A sweep may be given a ``floor``, the residual a violation must exceed
to enter the check's report (``ReportBuilder.counting_floor``): a
failing strip whose largest residual does not exceed it is only counted.
That residual is at one of the strip's ends, where |F(x, y) - W| is
max(F(x, y) - min W, max W - F(x, y)).  On a monotone line such a strip's
hits are counted by two bisections, with a key that ascends along the
strip (w - F(x, y) or F(x, y) - w) and is computed as the walk's test is;
a strip of any other line is scanned and counted.  A strip that can
exceed the floor is listed whole, by the walks or the scan, so every
violation above the floor is listed, in scan order.  The command line's
check, which reads five violations, sets a floor at its first cut to
five: on negative-midpoint at --samples 81 --jitter 2 its planes list 211
of 42,964 violations.

``applies`` says when the argument holds for the tables at hand: every
entry finite, no right value of -0.0 (the sign of a zero margin would then
depend on the scan order), and right nondecreasing over the sampled
distances.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
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
    """``plane(i, j, fab, floor=None)``: the smallest margin of plane (i, j),
    the number of its violations left unlisted, then the keys
    ``j2 * n_a + i2`` of the others in scan order and their lhs and rhs.
    Without a ``floor`` every violation is listed; with one, those of each
    failing strip whose largest residual does not exceed it are counted.

    Rows p and columns q of the sorted grid are u = y_j2 and v = x_i2
    ordered by image, so {M <= rho} is the rows within rho of Ix_i times the
    columns within rho of Iy_j.  The rectangle grows by one row or column
    strip per event, in order of distance; the new strip's min and max are
    its two end cells on a monotone line, and come from the line's sparse
    tables on any other.  A part of a level is a subset of it with the same
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
    row_keys = [[j2 * na + i2 for i2 in sv] for j2 in su]
    # lines[k] is row k of the sorted grid for k >= 0 and column ~k for
    # k < 0; line_keys[k] holds the scan index j2 * na + i2 of each cell
    lines = grid + list(map(list, zip(*grid)))[::-1]
    line_keys = row_keys + list(map(list, zip(*row_keys)))[::-1]
    # sparse tables for the lines that are not monotone, None for the others
    tables = [None if all(map(le, line, line[1:])) or all(map(ge, line, line[1:]))
              else _sparse_tables(line) for line in lines]
    # log2[d]: the sparse-table level that covers a window of d + 1 values
    log2 = [(d + 1).bit_length() - 1 for d in range(max(len(ix), len(iy)))]
    u_sorted, v_sorted = [iy[j2] for j2 in su], [ix[i2] for i2 in sv]
    # An event is (rho, k, right(rho) and right(rho) + tol, NaN where rho is never
    # an M, the line's tables); column q is k = ~q, so one sort merges it with rows
    rights, nans = {m: (r, r + tol) for m, r in right_at.items()}, (math.nan,) * 2

    def events(ordered, c, tag) -> tuple[int, list[tuple]]:
        at, out = _outward(ordered, c)
        return at, [(rho, tag(p), *rights.get(rho, nans), tables[tag(p)]) for rho, p in out]

    row_events = lru_cache(1)(lambda a: events(u_sorted, a, pos))  # last Ix_i
    v_events = {b: events(v_sorted, b, invert) for b in set(iy)}
    repeats = len(set(ix)) < na or len(set(iy)) < len(iy)
    profiles: dict[tuple[float, float], tuple] = {}

    def sweep(a: float, b: float, fab: float, profile: Optional[tuple] = None,
              floor: Optional[float] = None) -> tuple[float, int, list]:
        """The smallest margin of the plane of (a, b) with F(x, y) = fab, a
        count of violations left unlisted and the (key, lhs, rhs) of the
        others.  A failing strip is listed unless a ``floor`` is given and
        the strip's largest residual does not exceed it; a strip on a
        monotone line is then counted by two bisections, one of any other
        line by a scan.  ``profile``'s two lists get right, min W where min
        W falls and right, max W where max W rises."""
        (pl, ue), (ql, ve) = row_events(a), v_events[b]
        pr, qr = pl - 1, ql - 1  # empty rectangles at the insertion points
        lo, hi, margin = math.inf, -math.inf, math.inf
        lo_p, hi_p = profile or (None, None)
        hits, counted = [], 0  # hits: (key, lhs, rhs)
        cells, keys, rs, bounds = [], [], [], []  # listed failing strips of other lines
        if floor is not None:
            # keys that ascend along a monotone strip: w - fab if it rises, else fab - w
            rise, fall = partial(add, -fab), partial(sub, fab)
        # a stable sort on distance alone keeps each side's outward order
        for rho, k, r, bound, lo_hi in sorted(ue + ve, key=itemgetter(0)):
            if k >= 0:  # row k over the columns so far
                if k < pl:
                    pl = k
                else:
                    pr = k
                if ql > qr:
                    continue
                first, final = ql, qr
            else:  # column ~k over the rows so far
                q = ~k
                if q < ql:
                    ql = q
                else:
                    qr = q
                if pl > pr:
                    continue
                first, final = pl, pr
            line = lines[k]
            if lo_hi is None:  # a monotone line: the extremes are the end cells
                w_lo, w_hi = line[first], line[final]
                if w_hi < w_lo:
                    w_lo, w_hi = w_hi, w_lo
            else:  # two windows of 2**s cells, one from each end
                s = log2[final - first]
                last = final + 1 - (1 << s)
                t_lo, t_hi = lo_hi[0][s], lo_hi[1][s]
                w_lo, w = t_lo[first], t_lo[last]
                if w < w_lo:
                    w_lo = w
                w_hi, w = t_hi[first], t_hi[last]
                if w > w_hi:
                    w_hi = w
            below, above = fab - w_lo, w_hi - fab
            if w_lo < lo:
                lo = w_lo
                m = r - below
                if m < margin:
                    margin = m
                if lo_p is not None:
                    lo_p += r, w_lo
            if w_hi > hi:
                hi = w_hi
                m = r - above
                if m < margin:
                    margin = m
                if hi_p is not None:
                    hi_p += r, w_hi
            if below > bound or above > bound:
                end, at = final + 1, line_keys[k]
                # |fab - w| is largest where it is max(below, above)
                listed = floor is None or (below if below > above else above) - r > floor
                if lo_hi is not None:  # scanned whole after the loop
                    if listed:
                        cells += line[first:end]
                        keys += at[first:end]
                        rs += [r] * (end - first)
                        bounds += [bound] * (end - first)
                    else:
                        dist = map(abs, map(sub, repeat(fab), line[first:end]))
                        counted += sum(map(gt, dist, repeat(bound)))
                elif listed:  # hits are a prefix and a suffix: walk in
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
                else:  # count the prefix [first, p) and the suffix [q, end) by bisection
                    # the key ascends along the strip from -head to tail
                    if line[first] <= line[final]:
                        ascent, head, tail = rise, below, above
                    else:
                        ascent, head, tail = fall, above, below
                    p = bisect_left(line, -bound, first, end, key=ascent) if head > bound else first
                    q = bisect_right(line, bound, p, end, key=ascent) if tail > bound else end
                    counted += p - first + end - q
        if cells:
            lhs = list(map(abs, map(sub, repeat(fab), cells)))
            hits += compress(zip(keys, lhs, rs), map(gt, lhs, bounds))
        return margin, counted, hits

    def plane(i: int, j: int, fab: float, floor: Optional[float] = None) -> tuple:
        key = (ix[i], iy[j])
        prof = profiles.get(key)
        if prof is None:
            if repeats:
                if len(profiles) >= len(iy):
                    profiles.clear()
                prof = profiles[key] = [], []
            margin, counted, hits = sweep(*key, fab, prof, floor)
        else:
            lo_p, hi_p = prof
            xs = [*map(sub, repeat(fab), lo_p[1::2]), *map(sub, hi_p[1::2], repeat(fab))]
            rs = lo_p[::2] + hi_p[::2]
            margin, counted, hits = min(map(sub, rs, xs)), 0, []
            # with tol >= 0, a violation has a negative margin (see checks)
            if (margin < 0 or tol < 0) and any(map(gt, xs, map(add, rs, repeat(tol)))):
                counted, hits = sweep(*key, fab, None, floor)[1:]
        # keys are distinct, so sorting on them alone gives scan order
        hits.sort(key=itemgetter(0))
        return (margin, counted, *map(list, zip(*hits))) if hits else (margin, counted, [], [], [])

    return plane
