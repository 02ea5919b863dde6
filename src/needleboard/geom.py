"""Exact geometry of segments against the unit grid.

Decomposes a segment into per-cell pieces by parametric grid walking and
integrates cell values along it.  clip_line is the package's one board
clip: in floats for radon.chord_segment, and in exact rationals for
cell_crossings whenever an endpoint lies off the board.  Boundary
ownership is half-open: a piece lying exactly on gridline x = i belongs to
column i (same for rows), and pieces on x = n or y = n belong to no cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .board import Coloring

# Parameter-space tolerance for "segment passes through a lattice point":
# both axis crossings within _TIE of each other advance together.
_TIE = 1e-14


@dataclass(frozen=True)
class Segment:
    """Directed segment from a to b; degenerate (a == b) is allowed."""

    a: tuple[float, float]
    b: tuple[float, float]

    def length(self) -> float:
        return math.hypot(self.b[0] - self.a[0], self.b[1] - self.a[1])

    def point_at(self, s: float) -> tuple[float, float]:
        """Point at arclength s from a."""
        ln = self.length()
        if ln == 0.0:
            return self.a
        f = s / ln
        return (self.a[0] + f * (self.b[0] - self.a[0]), self.a[1] + f * (self.b[1] - self.a[1]))


class Crossing(NamedTuple):
    i: int
    j: int
    length: float
    t_in: float
    t_out: float


def clip_line(px: float, py: float, dx: float, dy: float, n: int,
              lo: float = -math.inf, hi: float = math.inf):
    """Liang-Barsky clip: the part [r0, r1] of [lo, hi] where the point
    (px, py) + r (dx, dy) lies in [0, n]^2, or None when it is empty.

    r is measured from the anchor (px, py), so in floats the clip is as
    precise as the anchor is near the board; given Fractions it is exact.
    A single point comes back as (r, r).
    """
    for p0, d in ((px, dx), (py, dy)):
        if d == 0:
            if not 0 <= p0 <= n:
                return None
        else:
            r0, r1 = (0 - p0) / d, (n - p0) / d
            lo, hi = max(lo, min(r0, r1)), min(hi, max(r0, r1))
    return (lo, hi) if lo <= hi else None


def _outside(p: tuple[float, float], n: int) -> float:
    # L-infinity distance from p to the board [0, n]^2 (0 on or inside it)
    return max(-p[0], p[0] - n, -p[1], p[1] - n, 0.0)


def _entry_index(w, d: float, n: int):
    # Initial cell index along one axis from the exact entry coordinate w (a
    # float or a rational); None when the segment lies on the far gridline
    # w = n (owned by no cell).
    if w >= n:
        return n - 1 if d < 0.0 else None
    iw = math.floor(w)
    if d < 0.0 and iw == w:
        iw -= 1
    return iw if iw >= 0 else None


def _exact_clip(p: tuple[float, float], q: tuple[float, float], n: int):
    # clip_line in exact rationals for the segment p -> q: the start
    # parameter, the exact start point, and the coordinates x0, y0, x1, y1
    # of both clipped ends, each as its nearest float plus the rounding
    # error; None when the clipped part is empty or a single point.
    # fractions (with decimal) is imported here, not with the module: it
    # adds about 4 ms to every CLI start, and only segments with an end
    # off the board need it.
    from fractions import Fraction

    px, py = Fraction(p[0]), Fraction(p[1])
    dx, dy = Fraction(q[0]) - px, Fraction(q[1]) - py
    clip = clip_line(px, py, dx, dy, n, Fraction(0), Fraction(1))
    if clip is None or clip[0] == clip[1]:
        return None
    lo, hi = clip
    ends = (px + lo * dx, py + lo * dy, px + hi * dx, py + hi * dy)
    return lo, ends[:2], [(float(w), float(w - Fraction(float(w)))) for w in ends]


def _next_crossing(k: int, w0: float, e0: float, c: float) -> float:
    # Walk parameter u at which (w0 + e0) + u c leaves cell k along one
    # axis: the gridline k + 1 ahead when c > 0, k when c < 0, never when
    # c = 0.
    if c > 0.0:
        return (((k + 1) - w0) - e0) / c
    if c < 0.0:
        return ((k - w0) - e0) / c
    return math.inf


def cell_crossings(s: Segment, n: int) -> tuple[Crossing, ...]:
    """Exact decomposition of s intersected with [0, n]^2 into per-cell pieces.

    Returns one Crossing per piece, ordered by arclength from s.a.
    Walks from the endpoint nearer the board, by L-infinity distance outside
    it with ties to s.a; when s.b is nearer, the reversed segment is walked
    and its pieces are reversed, so the walk starts at an endpoint whenever
    one lies on the board.  When an endpoint is off the board, s is clipped
    in exact rationals and the first cell is read off the exact entry
    point: a line within a rounding error of a gridline starts on the
    correct side of it, and a far endpoint cannot round the clip away.
    Gridline crossings are walked in the clipped segment's own parameter,
    so the lattice-point tie tolerance is relative to at most sqrt(2) n of
    arclength however long s is.  Each crossing parameter is recomputed
    from the clipped ends, carrying their rounding errors, never
    accumulated.  A pass through a lattice point advances both indices at
    once.  t_in/t_out are arclengths from s.a; piece lengths telescope to
    the clipped length exactly.  Raises ValueError when the length of s is
    not a finite float.
    """
    if n < 1:
        raise ValueError(f"board side must be a positive integer, got {n}")
    ax, ay = s.a
    dx, dy = s.b[0] - ax, s.b[1] - ay
    ln = math.hypot(dx, dy)
    if not math.isfinite(ln):
        raise ValueError(f"segment {s.a} -> {s.b}: its length is not a finite float")
    if ln == 0.0:
        return ()
    if _outside(s.b, n) < _outside(s.a, n):
        back = cell_crossings(Segment(s.b, s.a), n)[::-1]
        return tuple(e._replace(t_in=ln - e.t_out, t_out=ln - e.t_in) for e in back)
    # The clipped segment runs from p0 to p1.  With both ends of s on the
    # board it is s itself, walked from s.a along (dx, dy).  Otherwise s.b
    # is off the board and the clip is exact: p0 and p1 are rationals.
    if _outside(s.b, n) > 0.0:
        clipped = _exact_clip(s.a, s.b, n)
        if clipped is None:
            return ()
        t0, p0, ((x0, ex0), (y0, ey0), (x1, ex1), (y1, ey1)) = clipped
    else:
        t0, p0 = 0.0, s.a
        (x0, ex0), (y0, ey0) = (ax, 0.0), (ay, 0.0)
        x1, ex1 = min(max(ax + dx, 0.0), float(n)), 0.0
        y1, ey1 = min(max(ay + dy, 0.0), float(n)), 0.0
    # The first cell is read off the exact start p0.
    i = _entry_index(p0[0], dx, n)
    j = _entry_index(p0[1], dy, n)
    if i is None or j is None:
        return ()
    # The walk's coordinates are (x0 + ex0, y0 + ey0) + u (cx, cy), u in
    # [0, 1]: each end is a float plus its rounding error, so a line within
    # a rounding error of parallel to a gridline crosses it at the right
    # place.  The differences keep the signs of (dx, dy) or round to 0, in
    # which case that axis is never crossed.
    cx = (x1 - x0) + (ex1 - ex0)
    cy = (y1 - y0) + (ey1 - ey0)
    lnc = math.hypot(cx, cy)
    off = float(t0) * ln
    sx = 1 if dx > 0.0 else (-1 if dx < 0.0 else 0)
    sy = 1 if dy > 0.0 else (-1 if dy < 0.0 else 0)
    entries = []
    t = 0.0
    tx, ty = _next_crossing(i, x0, ex0, cx), _next_crossing(j, y0, ey0, cy)
    while True:
        tn = min(tx, ty)
        if tn >= 1.0 - _TIE:
            if t < 1.0:
                entries.append(Crossing(i, j, (1.0 - t) * lnc, off + t * lnc, off + lnc))
            break
        if tn > t:
            entries.append(Crossing(i, j, (tn - t) * lnc, off + t * lnc, off + tn * lnc))
        if tx <= tn + _TIE:
            i += sx
            tx = _next_crossing(i, x0, ex0, cx)
        if ty <= tn + _TIE:
            j += sy
            ty = _next_crossing(j, y0, ey0, cy)
        t = tn
        if not (0 <= i < n and 0 <= j < n):
            break
    return tuple(entries)


def integrate(c: Coloring, s: Segment) -> float:
    """Exact line integral of the board's cell function along s."""
    cells = c.cells
    total = 0.0
    for e in cell_crossings(s, c.n):
        total += cells[e.i, e.j] * e.length
    return total


def integrate_mc(c: Coloring, s: Segment, m: int) -> float:
    """Midpoint-rule estimate of the line integral on m equal subsegments.

    Independent of cell_crossings: evaluates the cell function pointwise.
    Converges to integrate(c, s) at rate O(1/m) for segments not lying on
    a gridline.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    ln = s.length()
    if ln == 0.0:
        return 0.0
    n = c.n
    f = (np.arange(m) + 0.5) / m
    xs = s.a[0] + f * (s.b[0] - s.a[0])
    ys = s.a[1] + f * (s.b[1] - s.a[1])
    inside = (xs >= 0.0) & (xs < n) & (ys >= 0.0) & (ys < n)
    # samples off the board read cell (0, 0) and are masked out; casting
    # only board coordinates keeps far ones from overflowing int64
    ii = np.floor(np.where(inside, xs, 0.0)).astype(np.int64)
    jj = np.floor(np.where(inside, ys, 0.0)).astype(np.int64)
    vals = np.where(inside, c.cells[ii, jj], 0.0)
    return ln * float(np.mean(vals))
