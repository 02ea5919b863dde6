"""Projections onto directions and exact per-direction probe maximization.

For a direction with unit vector u, chords are full lines along u-perp at
signed offset t (measured from the origin: the chord through t*u).  The
offset profile of the board's line integrals is piecewise linear with
breakpoints exactly at lattice-point projections p.u, so per-direction
maximization reduces to scanning breakpoints.

Two scans give per offset the chord integral and the largest and smallest
prefix integrals along the chord; lattice_scan adds the witness segment of
the one line best_segment picks, in an OffsetScan.  That holds the one tie
rule (smaller offset, then the first crossing along uperp; values within
tie_tolerance of a maximum tie with it).  lattice_scan and the scalar
oracle rebuild the winning line alone as positions along it, from the board
entry, with the prefix integral up to each (0 at the entry), and _witness
picks both ends: the first position where the prefix comes within the tie
of its top, and of its bottom.

- One kernel core, _lattice_core, serves every lattice direction: it
  evaluates every breakpoint chord of one primitive vector (A, B) with
  A >= B >= 0 from shifted sums over the zero-padded board, with no float
  sort, clip or deduplication, for a stack of boards at once.  It sums
  integer piece lengths and scales by |v|/den once, so on a +-1 board
  chord, top and bottom are exact integers times fl(|v|/den).  The sums
  along each line are taken in place, one block of A rows of lattice
  points after another, and read off at the line's ends; every array the
  size of the lattice box is carved from one byte buffer that the caller
  passes in, viewed at the pass's dtype: int16 or int32 on an integer
  board, wherever a proved bound on the sums fits, and float64 otherwise.
- orbit_scan is the core's only caller, and the only code that knows the
  dihedral orbits {(+-A, +-B), (+-B, +-A)}: it groups a list of directions
  by orbit and runs the core once per orbit, over all of them in one
  buffer.  _onto, the only code that orients a board, moves each member's
  board by the signed permutation that carries the member onto (A, B),
  which keeps every piece and its order, so its chord and prefix arrays
  equal those of the member itself bit for bit.  A zero entry keeps its
  sign, so axis chords, which run along columns or rows and may lie on
  gridlines, keep half-open ownership: the gridline t = k belongs to line
  k and t = n to none, so the profile steps at integer offsets instead of
  staying continuous.  It builds no witnesses.
- lattice_scan is orbit_scan's call for one board and one direction, plus
  the witness of the best segment, walked on the winning line alone in
  exact integers.  It serves the search's two winners and the two axis
  directions (theta = 0, pi/2) of project and the per-direction maxima.
- Off the axes, project and max_chord_in_direction read the chord profile
  from ramp moments (_ramp_profile): running sums of the board's mixed
  second difference in the order of the breakpoints, exact integers on a
  +-1 board.  max_segment_in_direction runs the scalar oracle there.

_walk_direction is the scalar oracle: it walks cell_crossings chord by chord
and is used by search.brute_force, max_segment_in_direction off the axes and
the tests.  It shares only the tie rule (_first_max, _witness) with the
kernels.
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
_TIE = 1e-12  # ties: see tie_tolerance
# box points per _lattice_core pass over a stack of boards: the pass carves
# five arrays of about this many entries from its buffer (pad, acc, hi, lo
# and tmp: 1.3 MB in float64, 655 kB in int32, 328 kB in int16), which stay
# in a 2 MB L2
_STACK = 1 << 15


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


def _projections(n: int, direction: Direction):
    # The projections p.u of the lattice points p in {0..n}^2, sorted; their
    # order (point k1 * (n + 1) + k2 is (k1, k2)); and the mask keeping the
    # first point of each run closer than _DEDUP.
    ux, uy = direction.u
    k = np.arange(n + 1, dtype=np.float64)
    t = (ux * k[:, None] + uy * k[None, :]).ravel()
    order = np.argsort(t, kind="stable")
    t = t[order]
    keep = np.empty(t.size, dtype=bool)
    keep[0] = True
    np.greater(t[1:] - t[:-1], _DEDUP, out=keep[1:])
    return t, order, keep


def breakpoint_offsets(n: int, direction: Direction) -> np.ndarray:
    """Sorted, deduplicated projections p.u of all lattice points p in {0..n}^2."""
    t, _, keep = _projections(n, direction)
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


def _witness(s: list, prefix, tie: float) -> tuple:
    # the positions s where the first prefix within tie of the top, and of
    # the bottom, ends
    return s[_first_max(prefix, tie)], s[_first_max(-prefix, tie)]


def _first_maxima(values: np.ndarray, tie: float) -> np.ndarray:
    # _first_max of each row, as the values it picks
    i = np.argmax(values >= values.max(axis=1, keepdims=True) - tie, axis=1)
    return values[np.arange(len(values)), i]


class OffsetScan(NamedTuple):
    """Kernel output for one direction: per-offset arrays and one witness.

    The chord at offset t is {t*u + s*uperp}.  Per offset, `chord` is the
    chord integral and `top` and `bottom` the largest and smallest prefix
    integrals along the chord (the empty prefix, 0, included).  `witness`
    is the best segment of the one line best_segment picks: it runs along
    uperp between the ends of that line's first prefix within `tie` of its
    top and of its bottom.
    """

    direction: Direction
    tie: float
    offsets: np.ndarray
    chord: np.ndarray
    top: np.ndarray
    bottom: np.ndarray
    witness: Segment

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
        return self.witness, float(r[_first_max(r, self.tie)])


def _axis_lattice_scan(c: Coloring, direction: Direction) -> OffsetScan:
    # axis chords are lattice lines: theta = 0 runs along (0, 1), pi/2 along (1, 0)
    return lattice_scan(c, *((0, 1) if direction.theta == 0.0 else (1, 0)))


def _ramp_profile(c: Coloring, direction: Direction):
    # The off-axis profile at its breakpoints, from ramp moments.  The board
    # is sum_q w_q [x >= q1, y >= q2] over the lattice points q, with w the
    # mixed second difference of the zero-padded board, and for u = (c, s)
    # with c > 0 the chord at t meets that corner over (t - q.u)+ / (c s).
    # Past pi/2 (c < 0) the board is minus sum_q w_q [x >= q1, y < q2], as
    # w sums to 0 over each column, and the chord meets that corner over
    # (q.u - t)+ / |c s|; since sum_q w_q (t - q.u) = 0 for every t, the
    # profile is sum_q w_q (t - q.u)+ / (c s) in both quadrants.  At the
    # breakpoint t = p.u that is (p1 A - B1) / s + (p2 A - B2) / c, with A,
    # B1 and B2 the sums of w_q, w_q q1 and w_q q2 over the q sorted before
    # p.  On a +-1 board |w| <= 4, so they are integers of at most
    # 4n(n + 1)^2, far below 2^53, and exact: only the sort and the last
    # three roundings depend on floats.
    ux, uy = direction.u
    t, order, keep = _projections(c.n, direction)
    w = np.diff(np.diff(np.pad(c.cells, 1), axis=0), axis=1).ravel()[order]
    q1, q2 = np.divmod(order, c.n + 1)
    sums = np.zeros((3, t.size))  # exclusive: the q sorted before each point
    np.cumsum([w[:-1], w[:-1] * q1[:-1], w[:-1] * q2[:-1]], axis=1, out=sums[:, 1:])
    a, b1, b2 = sums
    return t[keep], ((q1 * a - b1) / uy + (q2 * a - b2) / ux)[keep]


def project(c: Coloring, direction: Direction) -> Projection:
    """Exact piecewise-linear offset profile t -> integral over the chord at t.

    Off-axis the values come from integer ramp moments of the board (exact
    sums on a +-1 board) at breakpoint_offsets; on the axes they are the
    column or row sums of lattice_scan at its offsets.
    """
    if direction.is_axis():
        scan = _axis_lattice_scan(c, direction)
        return Projection(direction, scan.offsets, scan.chord)
    return Projection(direction, *_ramp_profile(c, direction))


def max_chord_in_direction(c: Coloring, direction: Direction) -> tuple[float, float]:
    """Exact maximizer of |chord integral| over offsets: (t*, v*).

    The profile is piecewise linear in t (a step function on the axes, whose
    gridline values are the owned line sums), so |profile| attains its
    maximum at a breakpoint of project; ties break toward smaller t.
    """
    p = project(c, direction)
    v = np.abs(p.values)
    i = _first_max(v, tie_tolerance(c))
    return float(p.breakpoints[i]), float(v[i])


def max_segment_in_direction(c: Coloring, direction: Direction) -> tuple[Segment, float]:
    """Exact maximizer of |sub-segment integral| over all chords of a direction.

    Per offset, each prefix sum is linear in t between breakpoints and the
    prefix range (max minus min) is convex there, so breakpoint offsets are
    exact.  Ties break toward smaller offset, then smaller crossing index.
    On the axes this is lattice_scan's best segment.  At other angles it is
    the scalar walk of _walk_direction, one cell_crossings walk per
    breakpoint chord: O(n^3) Python steps, about 18 ms at n = 16 and
    0.65-0.8 s at n = 64 on a 2-core x86 host.  Every segment maximum over
    all directions lies on a lattice direction, which search scans with
    lattice_scan instead.
    """
    if direction.is_axis():
        return _axis_lattice_scan(c, direction).best_segment()
    return _walk_direction(c, direction)[1]


def lattice_scan(c: Coloring, dx: int, dy: int) -> OffsetScan:
    """Evaluate every breakpoint chord of the primitive lattice direction (dx, dy).

    The chords run along v = +-(dx, dy), signed to point along uperp, and the
    breakpoint chords are the lattice lines m = x*dy - y*dx through a point
    of {0..n}^2, at offsets t = m / |v|.  The values come from orbit_scan
    on the board alone; see there.  The witness is the best segment of the
    line best_segment picks, walked alone in exact integers.
    """
    ((_, out),) = orbit_scan(c, [(dx, dy)])
    chord, top, bottom = out[:, 0]
    dx, dy = _along_uperp(dx, dy)
    m = _lines(c.n, dx, dy)
    # the line m is the points m*w + k*v, with w.(dy, -dx) = 1
    wx = 1 if dx == 0 else pow(dy, -1, abs(dx))
    w = (wx, 0 if dx == 0 else (wx * dy - 1) // dx)
    den = max(abs(dx), 1) * max(abs(dy), 1)
    ln = math.sqrt(dx * dx + dy * dy)

    # The witness: the line p = mi*w + (K / den)*v that best_segment picks.
    # K runs over its board entry, its gridline crossings and its exit, all
    # integers (den / v_i is one); a piece's cell is the floor of its
    # midpoint, so a line on x = n or y = n reads the pad's zeros and owns
    # no cell.  The prefix up to each K is sum(z*dK) * |v| / den, and each
    # end is the rational (mi*w*den + K*v) / den, rounded once.  With
    # |m| <= 2n^2, |w| <= n and den <= n^2, numerators stay below about
    # 4n^5, far inside int64.
    tie = tie_tolerance(c)
    i = _first_max(top - bottom, tie)
    base = [int(m[i]) * wi * den for wi in w]  # the point mi*w, times den
    cross = [(np.arange(c.n + 1) * den - e) // vi for e, vi in zip(base, (dx, dy)) if vi]
    lo, hi = max(int(k.min()) for k in cross), min(int(k.max()) for k in cross)
    keys = np.unique(np.clip(np.concatenate(cross), lo, hi))
    mid = keys[:-1] + keys[1:]
    ix, iy = ((2 * e + mid * vi) // (2 * den) for e, vi in zip(base, (dx, dy)))
    prefix = np.zeros(keys.size)
    np.cumsum(np.pad(c.cells, (0, 1))[ix, iy] * np.diff(keys), out=prefix[1:])
    prefix *= ln / den
    a, b = (((base[0] + k * dx) / den, (base[1] + k * dy) / den)
            for k in sorted(_witness(keys.tolist(), prefix, tie)))
    return OffsetScan(Direction.along(dx, dy), tie, m / ln, chord, top, bottom, Segment(a, b))


def orbit_scan(c: Coloring, dirs):
    """Chord, top and bottom per line of each lattice direction in `dirs`.

    Groups `dirs` by dihedral orbit {(+-A, +-B), (+-B, +-A)}, A >= B >= 0,
    in order of first appearance.  Each member v (signed to point along
    uperp) and the board are carried by the signed permutation g with
    g v = (A, B) (_onto), which keeps every piece of a step and their
    order: one _lattice_core pass over the stack of moved boards serves
    the whole orbit (or a few passes, past about n = 90, to keep each
    stack within _STACK box points).  The lines come back by
    m -> det(g)*m + const, reversed where det(g) = -1.  Every pass of the
    scan works in one byte buffer, which at least doubles when a stack needs
    more, so a scan grows it a few times, not once per orbit.  Each pass
    views it at the dtype _sum_dtype picks for the orbit: whether the board
    is integer is decided once per scan.

    Yields, per orbit, the indices into `dirs` of its members and a
    (3, len(indices), lines) array: row [:, k] equals the chord, top and
    bottom of lattice_scan(c, *dirs[indices[k]]) bit for bit.  No
    witnesses.
    """
    orbits: dict[tuple[int, int], list[int]] = {}
    for k, v in enumerate(dirs):
        orbits.setdefault(tuple(sorted(map(abs, v), reverse=True)), []).append(k)
    integer = bool(np.array_equal(c.cells, np.rint(c.cells)))
    zmax = max(float(np.abs(c.cells).max()), 1.0)
    ws = np.empty(0, dtype=np.uint8)
    for (A, B), ks in orbits.items():
        if math.gcd(A, B) != 1:
            raise ValueError(f"lattice direction must be primitive, got {tuple(dirs[ks[0]])}")
        boards, flip = [], []
        for k in ks:
            board, det = _onto(c.cells, _along_uperp(*dirs[k]))
            boards.append(board)
            flip.append(det < 0)
        dtype = _sum_dtype(zmax * c.n * max(B, 1)) if integer else np.float64
        per = max(1, _STACK // ((c.n + A) * (c.n + B)))
        parts = []
        for lo in range(0, len(boards), per):
            part, ws = _lattice_core(boards[lo:lo + per], A, B, ws, dtype)
            parts.append(part)
        out = np.concatenate(parts, axis=1)
        out[:, flip] = out[:, flip, ::-1]
        yield ks, out


def _sum_dtype(bound: float):
    # the narrowest of int16, int32 and float64 that holds every integer of
    # magnitude at most bound (the bound of _lattice_core's comment)
    if bound < 1 << 15:
        return np.int16
    return np.int32 if bound < 1 << 31 else np.float64


def _onto(cells: np.ndarray, v: tuple[int, int]):
    # The board moved by the signed permutation g with g v = (A, B), A >= B
    # >= 0, and det(g).  g swaps the coordinates when |v_x| < |v_y|, then
    # flips the sign of each negative coordinate; a zero entry keeps its
    # sign, which keeps the axes' half-open ownership (the line x = k owns
    # column k, y = k owns row k).  The board maps cell by cell: cells.T
    # swaps, [::-1] flips x -> n - x.
    det = 1
    if abs(v[0]) < abs(v[1]):
        v, cells, det = v[::-1], cells.T, -1
    if v[0] < 0:
        cells, det = cells[::-1], -det
    if v[1] < 0:
        cells, det = cells[:, ::-1], -det
    return cells, det


def _lines(n: int, dx: int, dy: int) -> np.ndarray:
    # the lines m = x*dy - y*dx through a point of {0..n}^2, ascending
    m0 = n * (min(dy, 0) + min(-dx, 0))
    x = np.arange(n + 1)
    hit = np.zeros(n * (abs(dx) + abs(dy)) + 1, dtype=bool)
    hit[(x[:, None] * dy - x * dx).ravel() - m0] = True
    return np.flatnonzero(hit) + m0


def _lattice_core(boards, A: int, B: int, ws: np.ndarray, dtype):
    # The kernel: every lattice line of the primitive v = (A, B), A >= B >= 0,
    # on each of the K (n, n) boards at once.  A step v from a lattice point
    # p crosses the cells p + d_q over lengths l_q, q < P = A + B - 1,
    # in an order fixed by an exact integer merge.  So the prefix after
    # piece q of the period at p is S(p) + acc_q(p): acc_q(p) is a partial
    # period sum, built for every p at once from P shifted slices of the
    # zero-padded boards, and S(p) sums the whole periods before p on its
    # line.  Periods off the board add exact zeros, so they change no value
    # and no first crossing.  Every large array has one entry per board and
    # box point, whatever P is (no pieces x points array is formed), and is
    # carved from the byte buffer ws, viewed at dtype, or from one at least
    # twice its size made in its place when ws is too small.  Lengths are
    # integers in units of |v| / den, so on an integer board every sum is
    # an integer until the one scaling at the end, and the sums run in
    # dtype: float64, or an integer dtype that holds each of them.  They go
    # back to float64 before that scaling, so every dtype that holds the
    # sums gives the same bits.  Returns chord, top and bottom as a (3, K,
    # lines) array, lines in the order of _lines, and the buffer.
    #
    # The bound: on integer boards with |z| <= Z, every value the pass
    # stores is at most Z * n * max(B, 1) in magnitude, so orbit_scan picks
    # dtype by _sum_dtype of that (Z at least 1, so that each l_q fits as
    # well).  Every pad entry is a z or 0, and every tmp entry one z * l_q
    # with l_q <= max(B, 1).  Every acc entry, during the piece loop and
    # after the line stage, is a sum of z * l_q over pieces of one line;
    # every hi and lo entry is 0 or one of those sums, or the max or min of
    # some.  A piece adds a nonzero only if its cell is on the board, and
    # then it lies in the strip 0 <= x <= n.  The pieces of one line are
    # disjoint, and x grows along the line (A >= 1), so their x-extents add
    # up to at most n.  A step spans den units and A in x, so those pieces
    # hold at most n * den / A = n * max(B, 1) units, and each sum is at
    # most Z times that.  The diagonal chord of a constant board meets it.
    K, n = len(boards), boards[0].shape[0]
    # piece q of a step runs from keys[q] / den to keys[q + 1] / den of it
    # (the merge of i / A and j / B), over keys[q + 1] - keys[q] units; its
    # midpoint names its cell p + d_q, d_q >= 0
    den = A * max(B, 1)
    keys = np.array(sorted({*range(0, den + 1, max(B, 1)), *range(0, den + 1, A)}))
    mid = keys[:-1] + keys[1:]
    ox, oy = mid * A // (2 * den), mid * B // (2 * den)
    # in dtype's kind: numpy multiplies float64 by a float scalar faster
    # than by an int
    ell = np.diff(keys).astype(dtype).tolist()

    # the box of lattice points whose period meets the board: point (i, j)
    # is p = (i - ex, j - ey), and its piece q is pad[:, i + ox[q], j + oy[q]]
    ex, ey = int(ox.max()), int(oy.max())
    nx, ny = n + ex, n + ey
    size, box = K * (n + 2 * ex) * (n + 2 * ey), K * nx * ny
    need = (size + 4 * box + 1) * np.dtype(dtype).itemsize
    if ws.size < need:
        ws = np.empty(max(need, 2 * ws.size), dtype=np.uint8)
    buf = ws[:need].view(dtype)
    buf[:size + 3 * box + 1] = 0
    pad = buf[:size].reshape(K, n + 2 * ex, n + 2 * ey)
    for k, board in enumerate(boards):
        pad[k, ex:ex + n, ey:ey + n] = board
    # acc, hi and lo (hi, lo: 0 included), then a zero that stands for "no
    # point", and tmp
    flat = buf[size:size + 3 * box + 1]
    sums = flat[:-1].reshape(3, K, nx, ny)
    acc, hi, lo = sums
    tmp = buf[size + 3 * box + 1:].reshape(K, nx, ny)
    for i, j, w in zip(ox.tolist(), oy.tolist(), ell):
        piece = pad[:, i:i + nx, j:j + ny]
        acc += piece if w == 1 else np.multiply(piece, w, out=tmp)
        np.maximum(hi, acc, out=hi)
        np.minimum(lo, acc, out=lo)

    # Along the lines: each point's predecessor p - v lies one block of A
    # rows back.  Block by block, acc becomes the running sum through each
    # point (S plus its whole period) and hi and lo gain S; then, backward,
    # each point takes the max (min) of its successor, so a line's top and
    # bottom end at its first box point and its chord at its last.
    cols = ny - B
    blocks = [(s, min(s + A, nx)) for s in range(A, nx, A)]
    for s, e in blocks:
        sums[:, :, s:e, B:] += acc[:, s - A:e - A, :cols]
    for s, e in reversed(blocks):
        back = (slice(None), slice(s - A, e - A), slice(0, cols))
        np.maximum(hi[back], hi[:, s:e, B:], out=hi[back])
        np.minimum(lo[back], lo[:, s:e, B:], out=lo[back])

    # lines p = m*w + k*v with w.(B, -A) = 1 through a point of {0..n}^2:
    # the chord is acc at a line's last box point, top and bottom are hi
    # and lo at its first, in every board; a line with no box point (first
    # > last, where last may be -2^62: the max keeps int64 from wrapping)
    # reads the zero
    wx = pow(B, -1, A)
    wy = (wx * B - 1) // A
    m = _lines(n, A, B)
    first, last = _steps(m, (wx, wy), (A, B), (-ex, -ey), n - 1)
    at = np.stack([np.maximum(last, first), first, first]) * (A * ny + B)
    at += (m * wx + ex) * ny + m * wy + ey  # the line's step 0, in the box
    at = np.arange(0, 3 * box, nx * ny).reshape(3, K, 1) + at[:, None]
    at[:, :, first > last] = 3 * box
    out = np.take(flat, at).astype(np.float64, copy=False)
    out *= math.sqrt(A * A + B * B) / den
    return out, ws


def _steps(m, w, v, lo, hi):
    # Per line m: the first and last step k with lo_i <= m*w_i + k*v_i <= hi
    # on both axes (v_i >= 0), in integers; first > last when there is none.
    first, last = -(1 << 62), 1 << 62
    for wi, vi, l in zip(w, v, lo):
        e = m * wi
        if vi:
            first = np.maximum(first, -((e - l) // vi))
            last = np.minimum(last, (hi - e) // vi)
        else:
            last = np.where((l <= e) & (e <= hi), last, -(1 << 62))
    return first, last


def _walk_direction(c: Coloring, direction: Direction):
    # Scalar oracle, independent of the kernels: walk cell_crossings along
    # the chord at every breakpoint (plus interval midpoints on the axes,
    # where the profile steps) and return ((t*, chord max), (witness,
    # segment max)) with the same tie rules.  Witness ends are clamped to
    # [0, n] (+ 0.0, so that no -0.0 enters a report): a point along a
    # float chord can round just off the board.
    tie = tie_tolerance(c)
    ts = breakpoint_offsets(c.n, direction)
    if direction.is_axis() and ts.size > 1:
        ts = np.sort(np.concatenate([ts, (ts[:-1] + ts[1:]) / 2]))
    cells = c.cells
    chords, segs = [], []
    for t in ts.tolist():
        seg = chord_segment(c.n, Chord(direction, t))
        cl = cell_crossings(seg, c.n)
        pos = [cl[0].t_in] if cl else [0.0]
        prefix = [0.0]
        acc = 0.0
        for e in cl:
            acc += cells[e.i, e.j] * e.length
            prefix.append(acc)
            pos.append(e.t_out)
        arr = np.asarray(prefix)
        s_lo, s_hi = sorted(_witness(pos, arr, tie))
        chords.append(abs(acc))
        a, b = (tuple(min(max(x, 0.0), c.n) + 0.0 for x in seg.point_at(s))
                for s in (s_lo, s_hi))
        segs.append((Segment(a, b), float(arr.max() - arr.min())))
    i = _first_max(chords, tie)
    return (float(ts[i]), float(chords[i])), segs[_first_max([v for _, v in segs], tie)]
