"""Projections onto directions and exact per-direction probe maximization.

For a direction with unit vector u, chords are full lines along u-perp at
signed offset t (measured from the origin: the chord through t*u).  The
offset profile of the board's line integrals is piecewise linear with
breakpoints exactly at lattice-point projections p.u, so per-direction
maximization reduces to scanning breakpoints.

Two kernels evaluate a direction at many offsets at once and return the same
OffsetScan: per offset the chord integral and the largest and smallest
prefix integrals along the chord, with the positions where those prefixes
end.  OffsetScan holds the one tie rule (smaller offset, then the first
crossing along uperp; values within tie_tolerance of a maximum tie with it)
and the one witness construction.

- lattice_scan serves the direction search: every breakpoint chord of a
  primitive lattice direction from shifted sums over the zero-padded board,
  with no float sort, clip or deduplication.
- offset_scan serves arbitrary angles (project, max_chord_in_direction,
  max_segment_in_direction).  Off-axis it sorts the gridline crossings of a
  block of chords at a time; at the two axis directions (theta = 0, pi/2)
  chords run along columns or rows and may lie on gridlines, so it uses
  column and row prefix sums with half-open ownership: the gridline t = k
  belongs to line k and t = n to none, and the profile steps at integer
  offsets instead of staying continuous.  lattice_scan gets the same
  ownership from the piece offset d = (0, 0) or (-1, 0).

_walk_direction is the scalar oracle: it walks cell_crossings chord by chord
and is used only by search.brute_force and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .board import Coloring
from .geom import Segment, cell_crossings, clip_line
from .geom import integrate  # noqa: F401  (kept as a module attribute; perfbench/spans.py hooks it)

_HALF_PI = math.pi / 2
_AXIS_SNAP = 1e-12  # angles this close to 0 or pi/2 are treated as exact
_DEDUP = 1e-12  # breakpoint collision tolerance (absolute)
_BLOCK = 512  # offsets per kernel block; keeps the event arrays cache-sized
_TIE = 1e-12  # ties: see tie_tolerance


@dataclass(frozen=True)
class Direction:
    """Angle theta normalized to [0, pi); u = (cos, sin), uperp = (-sin, cos)."""

    theta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValueError(f"direction angle must be finite, got {self.theta}")
        t = math.fmod(float(self.theta), math.pi)
        if t < 0.0:
            t += math.pi
        if t < _AXIS_SNAP or math.pi - t < _AXIS_SNAP:
            t = 0.0
        elif abs(t - _HALF_PI) < _AXIS_SNAP:
            t = _HALF_PI
        object.__setattr__(self, "theta", t)

    @property
    def u(self) -> tuple[float, float]:
        if self.theta == 0.0:
            return (1.0, 0.0)
        if self.theta == _HALF_PI:
            return (0.0, 1.0)
        return (math.cos(self.theta), math.sin(self.theta))

    @property
    def uperp(self) -> tuple[float, float]:
        ux, uy = self.u
        return (-uy, ux)

    def is_axis(self) -> bool:
        return self.theta == 0.0 or self.theta == _HALF_PI

    @classmethod
    def along(cls, dx: int, dy: int) -> Direction:
        """The direction whose chords run along the lattice vector +-(dx, dy)."""
        dx, dy = _along_uperp(dx, dy)
        return cls(math.atan2(-dx, dy))


def _along_uperp(dx: int, dy: int) -> tuple[int, int]:
    # the sign of (dx, dy) that points along uperp: theta in [0, pi) puts
    # uperp at x < 0, or at (0, 1) for theta = 0
    return (-dx, -dy) if dx > 0 or (dx == 0 and dy < 0) else (dx, dy)


@dataclass(frozen=True)
class Chord:
    """The full line {t*u + s*uperp : s real}, understood clipped to the board."""

    direction: Direction
    t: float


@dataclass(frozen=True)
class Projection:
    """Exact offset profile of one direction: breakpoints and values there."""

    direction: Direction
    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("breakpoints", "values"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def chord_segment(n: int, ch: Chord) -> Segment:
    """Clip the chord's line to [0, n]^2 (degenerate Segment if it misses)."""
    ux, uy = ch.direction.u
    vx, vy = ch.direction.uperp
    px, py = ch.t * ux, ch.t * uy
    rng = clip_line(px, py, vx, vy, n)
    if rng is None:
        return Segment((px, py), (px, py))
    lo, hi = rng
    return Segment((px + lo * vx, py + lo * vy), (px + hi * vx, py + hi * vy))


def breakpoint_offsets(n: int, direction: Direction) -> np.ndarray:
    """Sorted, deduplicated projections p.u of all lattice points p in {0..n}^2."""
    ux, uy = direction.u
    k = np.arange(n + 1, dtype=np.float64)
    t = (ux * k[:, None] + uy * k[None, :]).ravel()
    t.sort()
    keep = np.empty(t.size, dtype=bool)
    keep[0] = True
    np.greater(t[1:] - t[:-1], _DEDUP, out=keep[1:])
    return t[keep]


def tie_tolerance(c: Coloring) -> float:
    """Values within this of a maximum tie with it: _TIE * n * max|z|.

    It lies far above the rounding of a sum along a chord and far below the
    gap between distinct values of a +-1 board (about 1/n at least), so no
    tie rule depends on how a kernel rounds.
    """
    return _TIE * c.n * float(np.abs(c.cells).max())


def _first_max(values, tie: float) -> int:
    # index of the first value within tie of the maximum
    v = np.asarray(values)
    return int(np.argmax(v >= v.max() - tie))


class OffsetScan(NamedTuple):
    """Kernel output for one direction: per-offset arrays over `offsets`.

    The chord at offset t is {t*u + s*uperp}; positions s are arclengths
    along uperp from t*u.  `top` and `bottom` are the largest and smallest
    prefix integrals along the chord (the empty prefix, 0, included) and
    `s_top` / `s_bottom` the positions where the first prefix within `tie`
    of them ends (lattice_scan fills them only on the offset best_segment
    picks).
    """

    direction: Direction
    tie: float
    offsets: np.ndarray
    chord: np.ndarray
    top: np.ndarray
    bottom: np.ndarray
    s_top: np.ndarray
    s_bottom: np.ndarray

    def best_chord(self) -> tuple[float, float]:
        """(t*, v*) maximizing |chord integral|; ties go to the smaller offset."""
        v = np.abs(self.chord)
        i = _first_max(v, self.tie)
        return float(self.offsets[i]), float(v[i])

    def best_segment(self) -> tuple[Segment, float]:
        """Best sub-segment over the offsets: the prefix range top - bottom.

        Ties go to the smaller offset, then to the smaller crossing index.
        """
        r = self.top - self.bottom
        i = _first_max(r, self.tie)
        t = float(self.offsets[i])
        ux, uy = self.direction.u
        s0, s1 = sorted((float(self.s_bottom[i]), float(self.s_top[i])))
        a = (t * ux - s0 * uy + 0.0, t * uy + s0 * ux + 0.0)  # + 0.0: no -0.0 in reports
        b = (t * ux - s1 * uy + 0.0, t * uy + s1 * ux + 0.0)
        return Segment(a, b), float(r[i])


def offset_scan(c: Coloring, direction: Direction, ts) -> OffsetScan:
    """Evaluate the chords of one direction at offsets `ts`, _BLOCK at a time.

    Off-axis, each chord's gridline crossings are computed, clipped to the
    board and sorted as one event row, so a block of offsets is a handful of
    array operations.  Axis chords run along a column or a row and use its
    prefix sums directly (see _axis_scan).
    """
    ts = np.asarray(ts, dtype=np.float64)
    tie = tie_tolerance(c)
    out = np.empty((5, ts.size))
    if direction.is_axis():
        _axis_scan(c, direction, ts, tie, out)
    else:
        for lo in range(0, ts.size, _BLOCK):
            _oblique_block(c, direction, ts[lo:lo + _BLOCK], tie, out[:, lo:lo + _BLOCK])
    return OffsetScan(direction, tie, ts, *out)


def _fill(prefix: np.ndarray, pos: np.ndarray, tie: float, out: np.ndarray) -> None:
    # Per row: chord value, top/bottom prefix and the positions where the
    # first prefix within tie of them ends.
    rows = np.arange(prefix.shape[0])
    top = prefix.max(axis=1)
    bottom = prefix.min(axis=1)
    out[0] = prefix[:, -1]
    out[1] = top
    out[2] = bottom
    out[3] = pos[rows, np.argmax(prefix >= (top - tie)[:, None], axis=1)]
    out[4] = pos[rows, np.argmax(prefix <= (bottom + tie)[:, None], axis=1)]


def _oblique_block(c: Coloring, direction: Direction, ts: np.ndarray, tie: float,
                   out: np.ndarray) -> None:
    n = c.n
    ux, uy = direction.u  # uy > 0 and ux != 0 off-axis
    tx = ts[:, None] * ux
    ty = ts[:, None] * uy
    # the chord point at s is (tx - s uy, ty + s ux); clip both coordinates
    # to [0, n] for the in-board window [s_lo, s_hi]
    if ux > 0:
        y_lo, y_hi = -ty / ux, (n - ty) / ux
    else:
        y_lo, y_hi = (n - ty) / ux, -ty / ux
    s_lo = np.maximum((tx - n) / uy, y_lo)
    s_hi = np.maximum(np.minimum(tx / uy, y_hi), s_lo)
    k = np.arange(n + 1, dtype=np.float64)
    ev = np.concatenate([(tx - k) / uy, (k - ty) / ux], axis=1)
    np.maximum(ev, s_lo, out=ev)
    np.minimum(ev, s_hi, out=ev)
    ev.sort(axis=1)
    # piece p spans ev[:, p] .. ev[:, p+1]; its midpoint names its cell
    mid = ev[:, :-1] + ev[:, 1:]
    mid *= 0.5
    x = tx - mid * uy
    y = np.multiply(mid, ux, out=mid)
    y += ty
    for w in (x, y):
        np.maximum(w, 0, out=w)
        np.minimum(w, n - 1, out=w)
    cell = x.astype(np.intp)
    cell *= n
    cell += y.astype(np.intp)
    piece = c.cells.ravel().take(cell)
    piece *= ev[:, 1:] - ev[:, :-1]
    prefix = np.zeros_like(ev)  # prefix[:, p] = integral from s_lo to ev[:, p]
    np.cumsum(piece, axis=1, out=prefix[:, 1:])
    _fill(prefix, ev, tie, out)


def _axis_scan(c: Coloring, direction: Direction, ts: np.ndarray, tie: float,
               out: np.ndarray) -> None:
    # theta = 0: the chord x = t crosses column floor(t) upward from y = 0.
    # theta = pi/2: the chord y = t crosses row floor(t) from x = n down to
    # x = 0 (s runs from -n to 0).  Half-open ownership: the gridline t = k
    # belongs to line k, and t = n (or any offset off the board) to none.
    n = c.n
    if direction.theta == 0.0:
        lines, s0 = c.cells, 0.0
    else:
        lines, s0 = c.cells[::-1].T, -float(n)
    prefix = np.zeros((n + 1, n + 1))  # row n: the empty chord
    np.cumsum(lines, axis=1, out=prefix[:n, 1:])
    k = np.floor(ts)
    line = np.where((k >= 0) & (k < n), k, n).astype(np.intp)
    pos = s0 + np.arange(n + 1, dtype=np.float64)
    _fill(prefix[line], np.broadcast_to(pos, (ts.size, n + 1)), tie, out)


def project(c: Coloring, direction: Direction) -> Projection:
    """Exact piecewise-linear offset profile t -> integral over the chord at t."""
    ts = breakpoint_offsets(c.n, direction)
    return Projection(direction, ts, offset_scan(c, direction, ts).chord)


def max_chord_in_direction(c: Coloring, direction: Direction) -> tuple[float, float]:
    """Exact maximizer of |chord integral| over offsets: (t*, v*).

    The profile is piecewise linear in t (a step function on the axes, whose
    gridline values are the owned line sums), so |profile| attains its
    maximum at a breakpoint; ties break toward smaller t.
    """
    return offset_scan(c, direction, breakpoint_offsets(c.n, direction)).best_chord()


def max_segment_in_direction(c: Coloring, direction: Direction) -> tuple[Segment, float]:
    """Exact maximizer of |sub-segment integral| over all chords of a direction.

    Per offset, each prefix sum is linear in t between breakpoints and the
    prefix range (max minus min) is convex there, so breakpoint offsets are
    exact.  Ties break toward smaller offset, then smaller crossing index.
    """
    return offset_scan(c, direction, breakpoint_offsets(c.n, direction)).best_segment()


def lattice_scan(c: Coloring, dx: int, dy: int) -> OffsetScan:
    """Evaluate every breakpoint chord of the primitive lattice direction (dx, dy).

    The chords run along v = +-(dx, dy), signed to point along uperp, and the
    breakpoint chords are the lattice lines m = x*dy - y*dx through a point
    of {0..n}^2, at offsets t = m / |v|.  A step v from a lattice point p
    crosses the cells p + d_q over lengths l_q, q < P = |dx| + |dy| - 1, in
    an order fixed by an exact integer merge.  So the prefix after piece q
    of the period at p is S(p) + acc_q(p): acc_q(p) is a partial period sum,
    built for every p at once from P shifted slices of the zero-padded
    board, and S(p) sums the whole periods before p on its line.  Periods
    off the board add exact zeros, so they change no value and no first
    crossing.  Every temporary has one entry per lattice point (or per line
    and step), whatever P is: no pieces x points array is formed.

    Positions come only on the line best_segment picks; s_top and s_bottom
    are NaN on the others.
    """
    if math.gcd(dx, dy) != 1:
        raise ValueError(f"lattice direction must be primitive, got ({dx}, {dy})")
    dx, dy = _along_uperp(dx, dy)
    n = c.n
    a, b = abs(dx), abs(dy)
    l2 = dx * dx + dy * dy
    ln = math.sqrt(l2)
    # piece q of a step runs from keys[q] / den to keys[q + 1] / den of it
    # (the merge of i / a and j / b); its midpoint names its cell p + d_q
    den = max(a, 1) * max(b, 1)
    keys = np.array(sorted({*range(0, den + 1, max(b, 1)), *range(0, den + 1, max(a, 1))}))
    mid = keys[:-1] + keys[1:]
    ox, oy = mid * dx // (2 * den), mid * dy // (2 * den)
    ell = (keys[1:] - keys[:-1]) * (ln / den)

    # the box of lattice points whose period meets the board: point (i, j)
    # is p = (x0 + i, y0 + j), and its piece q is pad[i + sx[q], j + sy[q]]
    sx, sy = ox - ox.min(), oy - oy.min()
    ex, ey = int(sx.max()), int(sy.max())
    nx, ny = n + ex, n + ey
    x0, y0 = -int(ox.max()), -int(oy.max())
    pad = np.zeros((n + 2 * ex, n + 2 * ey))
    pad[ex:ex + n, ey:ey + n] = c.cells
    sums = np.zeros((3, nx * ny + 1))  # the extra zero stands for "no point"
    acc, hi, lo = (f[:-1].reshape(nx, ny) for f in sums)  # hi, lo: 0 included
    tmp = np.empty((nx, ny))
    for i, j, w in zip(sx.tolist(), sy.tolist(), ell.tolist()):
        np.multiply(pad[i:i + nx, j:j + ny], w, out=tmp)
        acc += tmp
        np.maximum(hi, acc, out=hi)
        np.minimum(lo, acc, out=lo)

    # lines p = m*w + k*v with w.(dy, -dx) = 1 through a point of {0..n}^2,
    # one column each; a row per step from the line's first box point
    wx = 1 if dx == 0 else pow(dy, -1, a)
    wy = 0 if dx == 0 else (wx * dy - 1) // dx
    m0 = n * (min(dy, 0) + min(-dx, 0))
    x = np.arange(n + 1)
    hit = np.zeros(n * (a + b) + 1, dtype=bool)
    hit[(x[:, None] * dy - x * dx).ravel() - m0] = True
    m = np.flatnonzero(hit) + m0
    first, last = _steps(m, (wx, wy), (dx, dy), (x0, y0), (x0 + nx - 1, y0 + ny - 1))
    count = np.maximum(last - first + 1, 0)
    j = np.arange(max(int(count.max()), 1))[:, None]
    box = (m * wx - x0) * ny + (m * wy - y0) + (first + j) * (dx * ny + dy)
    box[j >= count] = nx * ny
    whole, up, down = np.take(sums, box, axis=1)
    run = np.zeros_like(whole)  # S: the whole periods before each point
    for step in range(1, run.shape[0]):
        np.add(run[step - 1], whole[step - 1], out=run[step])
    chord = run[-1] + whole[-1]
    up += run
    down += run
    top, bottom = up.max(axis=0), down.min(axis=0)

    # the witness of the line best_segment picks (the others keep NaN), in
    # steps along it: the board entry when the empty prefix ties, else the
    # end of the first piece that does (the bottom searched as -prefix)
    tie = tie_tolerance(c)
    i = _first_max(top - bottom, tie)
    mi = int(m[i])
    pos = np.full((2, m.size), np.nan)
    sides = ((up[:, i], top[i] - tie), (-down[:, i], -bottom[i] - tie))
    for side, (vals, thr) in enumerate(sides):
        if thr <= 0.0:
            k_end = max(((0 if vi > 0 else n) - mi * wi) / vi
                        for wi, vi in ((wx, dx), (wy, dy)) if vi)
        else:
            at = int(np.argmax(vals >= thr))
            ki = int(first[i]) + at
            bx, by = mi * wx + ki * dx - x0 + sx, mi * wy + ki * dy - y0 + sy
            sign = 1 - 2 * side
            prefix = sign * np.cumsum(pad[bx, by] * ell) + sign * run[at, i]
            k_end = ki + int(keys[int(np.argmax(prefix >= thr)) + 1]) / den
        pos[side, i] = (mi * (wx * dx + wy * dy) + k_end * l2) / ln
    return OffsetScan(Direction.along(dx, dy), tie, m / ln, chord, top, bottom, *pos)


def _steps(m, w, v, lo, hi):
    # Per line m: the first and last step k with lo <= m*w + k*v <= hi on
    # both axes, in integers; first > last when there is none.
    first, last = -(1 << 62), 1 << 62
    for wi, vi, l, h in zip(w, v, lo, hi):
        e = m * wi
        if vi < 0:
            e, vi, l, h = -e, -vi, -h, -l
        if vi:
            first = np.maximum(first, -((e - l) // vi))
            last = np.minimum(last, (h - e) // vi)
        else:
            last = np.where((l <= e) & (e <= h), last, -(1 << 62))
    return first, last


def _walk_direction(c: Coloring, direction: Direction):
    # Scalar oracle, independent of both kernels: walk cell_crossings along
    # the chord at every breakpoint (plus interval midpoints on the axes,
    # where the profile steps) and return ((t*, chord max), (witness,
    # segment max)) with the same tie rules.
    tie = tie_tolerance(c)
    ts = breakpoint_offsets(c.n, direction)
    if direction.is_axis() and ts.size > 1:
        ts = np.sort(np.concatenate([ts, (ts[:-1] + ts[1:]) / 2]))
    cells = c.cells
    chords, segs = [], []
    for t in ts.tolist():
        seg = chord_segment(c.n, Chord(direction, t))
        cl = cell_crossings(seg, c.n)
        pos = [cl.entries[0].t_in] if len(cl) else [0.0]
        prefix = [0.0]
        acc = 0.0
        for e in cl:
            acc += cells[e.i, e.j] * e.length
            prefix.append(acc)
            pos.append(e.t_out)
        arr = np.asarray(prefix)
        s_lo, s_hi = sorted((pos[_first_max(arr, tie)], pos[_first_max(-arr, tie)]))
        chords.append(abs(acc))
        segs.append((Segment(seg.point_at(s_lo), seg.point_at(s_hi)),
                     float(arr.max() - arr.min())))
    i = _first_max(chords, tie)
    return (float(ts[i]), float(chords[i])), segs[_first_max([v for _, v in segs], tie)]
