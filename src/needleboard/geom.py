"""Exact geometry of segments against the unit grid.

Decomposes a segment into per-cell pieces by parametric grid walking and
integrates cell values along it.  clip_line is the package's one scalar
board clip; radon.chord_segment clips chords with it too.  Boundary
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


@dataclass(frozen=True)
class CrossingList:
    """Per-cell pieces of a segment, ordered by arclength from its start."""

    entries: tuple[Crossing, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def lengths(self) -> np.ndarray:
        return np.array([e.length for e in self.entries])

    def total_length(self) -> float:
        return float(sum(e.length for e in self.entries))


def clip_line(px: float, py: float, dx: float, dy: float, n: int,
              lo: float = -math.inf, hi: float = math.inf):
    """Liang-Barsky clip: the part [r0, r1] of [lo, hi] where the point
    (px, py) + r (dx, dy) lies in [0, n]^2, or None when it is empty.

    r is measured from the anchor (px, py), so the clip is as precise as
    the anchor is near the board.  A single point comes back as (r, r).
    """
    for p0, d in ((px, dx), (py, dy)):
        if d == 0.0:
            if not 0.0 <= p0 <= n:
                return None
        else:
            r0, r1 = (0.0 - p0) / d, (n - p0) / d
            lo, hi = max(lo, min(r0, r1)), min(hi, max(r0, r1))
    return (lo, hi) if lo <= hi else None


def _outside(p: tuple[float, float], n: int) -> float:
    # L-infinity distance from p to the board [0, n]^2 (0 on or inside it)
    return max(-p[0], p[0] - n, -p[1], p[1] - n, 0.0)


def _entry_index(w: float, d: float, n: int):
    # Initial cell index along one axis; None when the segment lies on the
    # far gridline w = n (owned by no cell).
    if w >= n:
        return n - 1 if d < 0.0 else None
    iw = math.floor(w)
    if d < 0.0 and iw == w:
        iw -= 1
    return iw if iw >= 0 else None


def cell_crossings(s: Segment, n: int) -> CrossingList:
    """Exact decomposition of s intersected with [0, n]^2 into per-cell pieces.

    Clips s to the board (clip_line) from the endpoint nearer to it, by
    L-infinity distance outside the board with ties to s.a; when s.b is
    nearer, the reversed segment is walked and its pieces are reversed.  A
    far endpoint thus cannot round the clip away, and the walk starts at an
    endpoint whenever one lies on the board.  Gridline crossings are walked
    in the clipped segment's own parameter, so the lattice-point tie
    tolerance is relative to at most sqrt(2) n of arclength however long s
    is.  Crossing parameters are always recomputed from endpoint
    differences, never accumulated.  A pass through a lattice point advances
    both indices at once.  t_in/t_out are arclengths from s.a; piece lengths
    telescope to the clipped length exactly.  Raises ValueError when the
    length of s is not a finite float.
    """
    if n < 1:
        raise ValueError(f"board side must be a positive integer, got {n}")
    ax, ay = s.a
    dx, dy = s.b[0] - ax, s.b[1] - ay
    ln = math.hypot(dx, dy)
    if not math.isfinite(ln):
        raise ValueError(f"segment {s.a} -> {s.b}: its length is not a finite float")
    if ln == 0.0:
        return CrossingList(())
    if _outside(s.b, n) < _outside(s.a, n):
        back = cell_crossings(Segment(s.b, s.a), n).entries[::-1]
        return CrossingList(tuple(e._replace(t_in=ln - e.t_out, t_out=ln - e.t_in) for e in back))
    rng = clip_line(ax, ay, dx, dy, n, 0.0, 1.0)
    if rng is None or rng[0] >= rng[1]:  # a single point has no pieces
        return CrossingList(())
    t0, t1 = rng
    x0 = min(max(ax + t0 * dx, 0.0), float(n))
    y0 = min(max(ay + t0 * dy, 0.0), float(n))
    i = _entry_index(x0, dx, n)
    j = _entry_index(y0, dy, n)
    if i is None or j is None:
        return CrossingList(())
    # The clipped segment (x0, y0) + u (cx, cy), u in [0, 1].  Its
    # differences keep the signs of (dx, dy) or round to 0, in which case
    # that axis is never crossed.
    cx = min(max(ax + t1 * dx, 0.0), float(n)) - x0
    cy = min(max(ay + t1 * dy, 0.0), float(n)) - y0
    lnc = math.hypot(cx, cy)
    off = t0 * ln
    sx = 1 if dx > 0.0 else (-1 if dx < 0.0 else 0)
    sy = 1 if dy > 0.0 else (-1 if dy < 0.0 else 0)

    def next_tx(ii: int) -> float:
        if cx > 0.0:
            return ((ii + 1) - x0) / cx
        if cx < 0.0:
            return (ii - x0) / cx
        return math.inf

    def next_ty(jj: int) -> float:
        if cy > 0.0:
            return ((jj + 1) - y0) / cy
        if cy < 0.0:
            return (jj - y0) / cy
        return math.inf

    entries = []
    t = 0.0
    tx, ty = next_tx(i), next_ty(j)
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
            tx = next_tx(i)
        if ty <= tn + _TIE:
            j += sy
            ty = next_ty(j)
        t = tn
        if not (0 <= i < n and 0 <= j < n):
            break
    return CrossingList(tuple(entries))


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
