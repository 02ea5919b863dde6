"""Projections onto directions and exact per-direction probe maximization.

For a direction with unit vector u, chords are full lines along u-perp at
signed offset t (measured from the origin: the chord through t*u).  The
offset profile of the board's line integrals is piecewise linear with
breakpoints exactly at lattice-point projections p.u, so per-direction
maximization reduces to scanning breakpoints.

One kernel, offset_scan, evaluates a direction at many offsets at once: per
offset the chord integral and the largest and smallest prefix integrals
along the chord, with the positions where those prefixes end.  project,
max_chord_in_direction and max_segment_in_direction (and the direction
search) read their values and witnesses from it.  Off-axis it sorts the
gridline crossings of a block of chords at a time; at the two axis
directions (theta = 0, pi/2) chords run along columns or rows and may lie on
gridlines, so it uses column and row prefix sums with half-open ownership:
the gridline t = k belongs to line k and t = n to none, and the profile
steps at integer offsets instead of staying continuous.

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


class OffsetScan(NamedTuple):
    """Kernel output for one direction: per-offset arrays over `offsets`.

    The chord at offset t is {t*u + s*uperp}; positions s are arclengths
    along uperp from t*u.  `top` and `bottom` are the largest and smallest
    prefix integrals along the chord (the empty prefix, 0, included) and
    `s_top` / `s_bottom` the positions where those prefixes end.
    """

    direction: Direction
    offsets: np.ndarray
    chord: np.ndarray
    top: np.ndarray
    bottom: np.ndarray
    s_top: np.ndarray
    s_bottom: np.ndarray

    def best_chord(self) -> tuple[float, float]:
        """(t*, v*) maximizing |chord integral|; ties go to the smaller offset."""
        v = np.abs(self.chord)
        i = int(np.argmax(v))
        return float(self.offsets[i]), float(v[i])

    def best_segment(self) -> tuple[Segment, float]:
        """Best sub-segment over the offsets: the prefix range top - bottom.

        Ties go to the smaller offset, then to the smaller crossing index.
        """
        r = self.top - self.bottom
        i = int(np.argmax(r))
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
    out = np.empty((5, ts.size))
    if direction.is_axis():
        _axis_scan(c, direction, ts, out)
    else:
        for lo in range(0, ts.size, _BLOCK):
            _oblique_block(c, direction, ts[lo:lo + _BLOCK], out[:, lo:lo + _BLOCK])
    return OffsetScan(direction, ts, *out)


def _fill(prefix: np.ndarray, pos: np.ndarray, out: np.ndarray) -> None:
    # Per row: chord value, top/bottom prefix (first index on ties) and the
    # positions where they end.
    rows = np.arange(prefix.shape[0])
    itop = prefix.argmax(axis=1)
    ibot = prefix.argmin(axis=1)
    out[0] = prefix[:, -1]
    out[1] = prefix[rows, itop]
    out[2] = prefix[rows, ibot]
    out[3] = pos[rows, itop]
    out[4] = pos[rows, ibot]


def _oblique_block(c: Coloring, direction: Direction, ts: np.ndarray, out: np.ndarray) -> None:
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
    _fill(prefix, ev, out)


def _axis_scan(c: Coloring, direction: Direction, ts: np.ndarray, out: np.ndarray) -> None:
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
    _fill(prefix[line], np.broadcast_to(pos, (ts.size, n + 1)), out)


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


def _walk_direction(c: Coloring, direction: Direction):
    # Scalar oracle, independent of offset_scan: walk cell_crossings along
    # the chord at every breakpoint (plus interval midpoints on the axes,
    # where the profile steps) and return ((t*, chord max), (witness,
    # segment max)) with the same tie rules.
    ts = breakpoint_offsets(c.n, direction)
    if direction.is_axis() and ts.size > 1:
        ts = np.sort(np.concatenate([ts, (ts[:-1] + ts[1:]) / 2]))
    cells = c.cells
    best_chord = (0.0, -1.0)
    best_seg = (Segment((0.0, 0.0), (0.0, 0.0)), -1.0)
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
        if abs(acc) > best_chord[1]:
            best_chord = (t, float(abs(acc)))
        arr = np.asarray(prefix)
        imax, imin = int(np.argmax(arr)), int(np.argmin(arr))
        v = float(arr[imax] - arr[imin])
        if v > best_seg[1]:
            s_lo, s_hi = sorted((pos[imin], pos[imax]))
            best_seg = (Segment(seg.point_at(s_lo), seg.point_at(s_hi)), v)
    return best_chord, best_seg
