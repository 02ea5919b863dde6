"""Properties of radon's kernels against the scalar cell walk.

Hypothesis boards (strategies.boards, shared with the search tests) have n
from 1 to 12 and are random +-1, tie-heavy +-1 (constant, parity or
stripes) or real.  project, the chord maximum (against the walk) and both
per-direction witnesses (against integrate) are checked at generic angles,
primitive lattice directions and both axes; generic angles stay 1e-3 away
from the axes: near an axis the profile's slope grows like 1/sin, so the
walk agrees only to the conditioning of the offset itself.  Fixed boards
at n = 24 and 32 (625 and 1,089 breakpoints) check them on larger
profiles.  Off the axes the profile comes from ramp moments: its
breakpoints are breakpoint_offsets bit for bit on any board and at any
angle, and on +-1 boards (n <= 8, angles down to 1e-9 from either axis)
each value is within a few ulps of the same sum in exact rationals.  lattice_scan is checked at every primitive lattice
direction, axes included, values and witnesses both, and every line's
chord, top and bottom against project and a cell_crossings walk.  On +-1
boards it is checked bit for bit against exact integers: every line's
chord, top and bottom are integers times fl(|v|/den), and both witness ends
are the exact rationals of an integer walk of the winning line, each
rounded once; every witness end lies on the board, at lattice directions
and at generic angles.  orbit_scan, the search's batched call of the same
kernel, is checked against lattice_scan bit for bit, with a shuffled subset
of a board's directions in one call (orbits cut as a budget cuts them, one
reused buffer) and at n = 96, where an orbit's boards split into two
stacks.  On integer boards (strategies.integer_boards, |z| up to 2^40)
every kernel pass at the dtype orbit_scan picks (int16, int32 or float64)
gives the bytes of the same pass in float64, at n 1-12 over every
direction and at n = 100 where one scan mixes int16 and int32 orbits; the
float64 pass never stores a value above the bound that picked the dtype,
constant boards meet that bound, and boards whose bound sits just below
and at 2^15 get int16 and int32.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from needleboard import radon
from needleboard.board import Coloring, make_constant, make_parity, make_random
from needleboard.geom import cell_crossings, integrate
from needleboard.radon import (
    Chord,
    Direction,
    _walk_direction,
    breakpoint_offsets,
    chord_segment,
    lattice_scan,
    max_chord_in_direction,
    max_segment_in_direction,
    orbit_scan,
    project,
)
from needleboard.search import _lattice_directions, brute_force, scan_report
from strategies import boards, integer_boards

_GAP = 1e-3  # generic angles keep this distance from 0, pi/2 and pi


@st.composite
def directions(draw, n):
    kind = draw(st.sampled_from(["angle", "lattice", "axis"]))
    if kind == "axis":
        return Direction(draw(st.sampled_from([0.0, math.pi / 2])))
    if kind == "lattice":
        dx = draw(st.integers(-n, n))
        dy = draw(st.integers(1, n))
        g = math.gcd(dx, dy)
        return Direction(math.atan2(-dx // g, dy // g))
    theta = draw(st.floats(_GAP, math.pi / 2 - _GAP)
                 | st.floats(math.pi / 2 + _GAP, math.pi - _GAP))
    return Direction(theta)


@st.composite
def cases(draw):
    c = draw(boards())
    return c, draw(directions(c.n))


@settings(max_examples=100)
@given(cases())
def test_project_equals_chord_integrals_at_every_breakpoint(case):
    c, d = case
    p = project(c, d)
    want = [integrate(c, chord_segment(c.n, Chord(d, t))) for t in p.breakpoints.tolist()]
    assert np.max(np.abs(p.values - np.array(want))) <= 1e-9 * c.n


@settings(max_examples=100)
@given(cases())
def test_direction_chord_maximum_equals_the_scalar_oracle(case):
    # the segment maximum is the walk itself off the axes and lattice_scan
    # on them, which test_lattice_kernel_equals_the_scalar_oracle checks
    c, d = case
    (_, vc_walk), _ = _walk_direction(c, d)
    _, vc = max_chord_in_direction(c, d)
    assert abs(vc - vc_walk) <= 1e-9 * c.n


@settings(max_examples=100)
@given(cases())
def test_witnesses_integrate_to_the_reported_values(case):
    c, d = case
    t, vc = max_chord_in_direction(c, d)
    assert abs(abs(integrate(c, chord_segment(c.n, Chord(d, t)))) - vc) <= 1e-9 * c.n
    seg, vs = max_segment_in_direction(c, d)
    assert abs(abs(integrate(c, seg)) - vs) <= 1e-9 * c.n


_LARGE_ANGLES = (0.3, 1.1, 2.0, 2.9)  # generic: every breakpoint distinct


def _large_board(n: int, real: bool) -> Coloring:
    if not real:
        return make_random(n, seed=n)
    return Coloring(n, np.random.default_rng(n).uniform(-4.0, 4.0, (n, n)))


@pytest.mark.parametrize("theta", _LARGE_ANGLES)
@pytest.mark.parametrize("n, real", [(24, False), (24, True), (32, False), (32, True)])
def test_project_on_large_boards_equals_chord_integrals(n, real, theta):
    c, d = _large_board(n, real), Direction(theta)
    p = project(c, d)
    assert p.breakpoints.size == (n + 1) ** 2
    for k in range(0, p.breakpoints.size, 37):
        t = float(p.breakpoints[k])
        assert abs(p.values[k] - integrate(c, chord_segment(n, Chord(d, t)))) <= 1e-9 * n


@pytest.mark.parametrize("theta", _LARGE_ANGLES)
@pytest.mark.parametrize("n, real", [(24, False), (24, True), (32, False), (32, True)])
def test_direction_maxima_on_large_boards_equal_the_scalar_oracle(n, real, theta):
    # the chord maximum against one walk, which is max_segment_in_direction
    # at these angles, and both witnesses integrating to their values
    c, d = _large_board(n, real), Direction(theta)
    tol = 1e-9 * c.n
    (_, vc_walk), (seg, vs) = _walk_direction(c, d)
    t, vc = max_chord_in_direction(c, d)
    assert abs(vc - vc_walk) <= tol
    assert abs(abs(integrate(c, chord_segment(c.n, Chord(d, t)))) - vc) <= tol
    assert abs(abs(integrate(c, seg)) - vs) <= tol


@st.composite
def lattice_cases(draw, real=True):
    # a board and any primitive (dx, dy) with |dx|, |dy| <= n, either sign,
    # both axes
    c = draw(boards(real=real))
    dx = draw(st.integers(-c.n, c.n))
    dy = draw(st.integers(-c.n, c.n).filter(lambda y: y or dx))
    g = math.gcd(dx, dy)
    return c, (dx // g, dy // g)


@settings(max_examples=200)
@given(lattice_cases())
def test_lattice_kernel_equals_the_scalar_oracle(case):
    # values and both witnesses of lattice_scan against _walk_direction,
    # on the breakpoint offsets of the same direction
    c, v = case
    tol = 1e-9 * c.n
    d = Direction.along(*v)
    scan = lattice_scan(c, *v)
    assert scan.direction == d
    assert np.max(np.abs(scan.offsets - breakpoint_offsets(c.n, d))) <= tol
    (t_walk, vc_walk), (seg_walk, vs_walk) = _walk_direction(c, d)
    t, vc = scan.best_chord()
    seg, vs = scan.best_segment()
    assert abs(t - t_walk) <= tol
    assert abs(vc - vc_walk) <= tol
    assert abs(vs - vs_walk) <= tol
    assert max(abs(p - q) for p, q in zip(seg.a + seg.b, seg_walk.a + seg_walk.b)) <= tol


def _prefix_range(c, seg):
    # the largest and smallest prefix integrals of a cell_crossings walk of
    # seg from its start, the empty prefix (0) included
    prefix = np.cumsum([0.0] + [c.cells[e.i, e.j] * e.length for e in cell_crossings(seg, c.n)])
    return prefix.max(), prefix.min()


@settings(max_examples=50)
@given(lattice_cases())
def test_lattice_chords_equal_project_and_the_walk_at_every_line(case):
    # every line, not only the best: its chord against project (the ramp
    # profile off the axes), its top and bottom against a cell_crossings
    # walk of the line's chord_segment
    c, v = case
    tol = 1e-9 * c.n
    d = Direction.along(*v)
    scan = lattice_scan(c, *v)
    p = project(c, d)
    assert np.max(np.abs(scan.offsets - p.breakpoints)) <= tol
    assert np.max(np.abs(scan.chord - p.values)) <= tol
    walks = np.array([_prefix_range(c, chord_segment(c.n, Chord(d, t)))
                      for t in scan.offsets.tolist()])
    assert np.max(np.abs(scan.top - walks[:, 0])) <= tol
    assert np.max(np.abs(scan.bottom - walks[:, 1])) <= tol


_NEAR = 1e-9  # off-axis angles come this close to an axis
_OFF_AXIS = (st.floats(_NEAR, math.pi / 2 - _NEAR)
             | st.floats(math.pi / 2 + _NEAR, math.pi - _NEAR)
             | st.sampled_from([_NEAR, math.pi / 2 - _NEAR, math.pi / 2 + _NEAR, math.pi - _NEAR]))


@settings(max_examples=100)
@given(boards(), _OFF_AXIS)
def test_ramp_breakpoints_are_breakpoint_offsets_bit_for_bit(c, theta):
    d = Direction(theta)
    assert project(c, d).breakpoints.tobytes() == breakpoint_offsets(c.n, d).tobytes()


@settings(max_examples=100)
@given(boards(8, real=False), _OFF_AXIS)
def test_ramp_profile_is_the_exact_ramp_sum_on_sign_boards(c, theta):
    # At a breakpoint b the profile is the sum, over the lattice points q
    # sorted before b (float projection below b, computed as
    # breakpoint_offsets does), of w_q ((p1 - q1) / s + (p2 - q2) / c) for
    # the point p of projection b; w is the mixed second difference of the
    # zero-padded board.  In Fractions at the float c and s that is
    # X / s + Y / c with integers X and Y, and the float route rounds only
    # the two quotients and their sum: within a few ulps of |X/s| + |Y/c|.
    # Points whose float projections tie give values a rounding apart, so
    # one of them must match.
    n, d = c.n, Direction(theta)
    ux, uy = d.u
    w = np.diff(np.diff(np.pad(c.cells, 1), axis=0), axis=1).astype(int)
    pts = [(k1, k2, ux * k1 + uy * k2, int(w[k1, k2]))
           for k1 in range(n + 1) for k2 in range(n + 1)]
    p = project(c, d)
    for b, value in zip(p.breakpoints.tolist(), p.values.tolist()):
        before = [(q1, q2, wq) for q1, q2, t, wq in pts if t < b]
        near = []
        for p1, p2, _, _ in (q for q in pts if q[2] == b):
            x = sum(wq * (p1 - q1) for q1, _, wq in before)
            y = sum(wq * (p2 - q2) for _, q2, wq in before)
            exact = Fraction(x) / Fraction(uy) + Fraction(y) / Fraction(ux)
            near.append(abs(Fraction(value) - exact) <= 4 * math.ulp(abs(x / uy) + abs(y / ux)))
        assert any(near), (b, value)


def _exact_line(c, m, w, v, den):
    # The line p = m*w + (K / den)*v of a +-1 board in exact integers: the
    # board entry K, then each piece's end K, and the prefix integral up to
    # each in units of |v| / den (0 at the entry).  A piece's cell is the
    # floor of its midpoint, so a line on the gridline x = n (or y = n)
    # owns no cells.
    n = c.n
    ends = [[(e - m * wi) * den // vi for e in range(n + 1)] for wi, vi in zip(w, v) if vi]
    lo, hi = max(map(min, ends)), min(map(max, ends))
    keys = sorted({k for axis in ends for k in axis if lo <= k <= hi})
    at, prefix = [lo], [0]
    for ka, kb in zip(keys, keys[1:]):
        i, j = ((2 * den * m * wi + (ka + kb) * vi) // (2 * den) for wi, vi in zip(w, v))
        z = int(c.cells[i, j]) if 0 <= i < n and 0 <= j < n else 0
        at.append(kb)
        prefix.append(prefix[-1] + z * (kb - ka))
    return at, prefix


@settings(max_examples=200)
@given(lattice_cases(real=False))
# every swap and flip of radon._onto: |dx| >= |dy| or not, each sign, and
# the axes, whose zero entry keeps its sign
@example((make_random(7, seed=3), (3, 2)))
@example((make_random(7, seed=3), (-3, 2)))
@example((make_random(7, seed=3), (2, 3)))
@example((make_random(7, seed=3), (-2, 3)))
@example((make_random(7, seed=3), (1, 0)))
@example((make_random(7, seed=3), (0, 1)))
@example((make_random(7, seed=3), (1, 1)))
@example((make_random(7, seed=3), (-1, 1)))
def test_lattice_witness_is_the_exact_integer_pick(case):
    # On a +-1 board every prefix along a lattice line is an integer times
    # |v| / den.  So every line's chord, top and bottom are its exact
    # integers times fl(|v| / den), bit for bit (a check by division would
    # not do: dividing a rounded product need not give the integer back).
    # The witness ends are the points m*w + (K / den)*v at the entry or
    # first piece end K where the integer prefix of the line best_segment
    # picks reaches its maximum and its minimum, each rounded once from the
    # exact rational.
    c, v = case
    n = c.n
    scan = lattice_scan(c, *v)
    dx, dy = radon._along_uperp(*v)
    den = max(abs(dx), 1) * max(abs(dy), 1)
    # any w with w.(dy, -dx) = 1 names the same points
    w = next((x, y) for x in range(-n, n + 1) for y in range(-n - 1, n + 2)
             if x * dy - y * dx == 1)
    lines = sorted({x * dy - y * dx for x in range(n + 1) for y in range(n + 1)})
    walks = [(m, *_exact_line(c, m, w, (dx, dy), den)) for m in lines]
    scale = math.sqrt(dx * dx + dy * dy) / den
    for row, pick in ((scan.chord, lambda p: p[-1]), (scan.top, max), (scan.bottom, min)):
        assert np.array_equal(row, np.array([pick(walk[2]) for walk in walks], float) * scale)
    # max keeps the first of equal ranges: the smaller offset m / |v|
    m, at, prefix = max(walks, key=lambda walk: max(walk[2]) - min(walk[2]))
    ends = sorted((at[prefix.index(max(prefix))], at[prefix.index(min(prefix))]))
    want = [float(Fraction(m * wi * den + k * vi, den)).hex()
            for k in ends for wi, vi in zip(w, (dx, dy))]
    assert [p.hex() for p in scan.witness.a + scan.witness.b] == want


@pytest.mark.parametrize("n", range(1, 11))
def test_lattice_witness_ends_lie_on_the_board(n):
    # every direction of a parity, a random and a constant board: the ends
    # of every lattice_scan witness, and of scan_report's, lie in [0, n]^2
    for c in (make_parity(n), make_random(n, seed=n), make_constant(n, 1.0)):
        segs = [lattice_scan(c, *v).witness for v in _lattice_directions(n)]
        segs.append(scan_report(c).best_segment[0])
        for seg in segs:
            assert all(0.0 <= p <= n for p in seg.a + seg.b), seg


@pytest.mark.parametrize("n", range(1, 11))
def test_direction_witness_ends_lie_on_the_board(n):
    # the same boards at 30 seeded angles: the ends of every
    # max_segment_in_direction witness, and of brute_force's, lie in
    # [0, n]^2, and none is -0.0
    angles = np.random.default_rng(n).uniform(0.0, math.pi, 30).tolist()
    for c in (make_parity(n), make_random(n, seed=n), make_constant(n, 1.0)):
        segs = [max_segment_in_direction(c, Direction(theta))[0] for theta in angles]
        segs.append(brute_force(c).best_segment[0])
        for seg in segs:
            assert all(0.0 <= p <= n and math.copysign(1.0, p) > 0 for p in seg.a + seg.b), seg


@st.composite
def orbit_cases(draw):
    # a board and a shuffled, non-empty subset of its lattice directions:
    # an orbit may be cut, as a budget cuts it, and one scan's buffer
    # serves larger and smaller boxes in any order
    c = draw(boards())
    rnd = draw(st.randoms(use_true_random=False))
    dirs = _lattice_directions(c.n)
    rnd.shuffle(dirs)
    return c, dirs[:rnd.randint(1, len(dirs))]


@settings(max_examples=60)
@given(orbit_cases())
# at n = 96 a 4-member orbit of these long vectors splits into stacks of 3
# and 1 boards, and the short orbits between them shrink the box
@example((make_random(96, seed=9), [(10, 1), (-1, 10), (1, 0), (1, 10), (-7, 3), (3, 7),
                                    (-10, 1), (7, 3), (1, 1), (-3, 7), (-1, 1), (9, 2),
                                    (-2, 9), (2, 9), (-9, 2)]))
def test_orbit_scan_equals_lattice_scan_bit_for_bit(case):
    # bit identity, not closeness: the search's tie rule across directions
    # and every report rest on it; all directions go to one orbit_scan call,
    # and its orbits name each of them exactly once
    c, dirs = case
    seen = []
    for ks, out in orbit_scan(c, dirs):
        assert out.shape[1] == len(ks)
        for k, i in enumerate(ks):
            scan = lattice_scan(c, *dirs[i])
            assert np.array_equal(out[0, k], scan.chord)
            assert np.array_equal(out[1, k], scan.top)
            assert np.array_equal(out[2, k], scan.bottom)
        seen += ks
    assert sorted(seen) == list(range(len(dirs)))


@st.composite
def integer_orbit_cases(draw):
    # an integer board and all its lattice directions, shuffled
    c = draw(integer_boards())
    dirs = _lattice_directions(c.n)
    draw(st.randoms(use_true_random=False)).shuffle(dirs)
    return c, dirs


def _mixed_board(n: int, z: int) -> Coloring:
    # integer cells in [-z, z], both ends included
    cells = np.random.default_rng(n).integers(-z, z + 1, (n, n)).astype(float)
    cells[0, 0], cells[-1, -1] = z, -z
    return Coloring(n, cells)


@settings(max_examples=60)
@given(integer_orbit_cases())
# z = 300 at n = 12: orbits with B <= 9 sum in int16, B >= 10 in int32
@example((_mixed_board(12, 300), [(1, 1), (11, 10), (2, 1), (-10, 11), (1, 0), (12, 11)]))
# z = 5 at n = 100: B <= 65 in int16 (the bound is 32,500), B >= 66 in
# int32; the long orbits run one board per pass, and the scan's buffer
# switches dtype at every orbit
@example((_mixed_board(100, 5), [(1, 1), (67, 66), (65, 64), (-70, 97), (1, 0), (-66, 67),
                                 (99, 65), (97, 70), (-1, 1), (100, 99), (-64, 65)]))
def test_integer_sums_equal_float64_sums_bit_for_bit(case):
    # every _lattice_core pass at the dtype orbit_scan picks gives the bytes
    # of the same pass at float64, and orbit_scan stays lattice_scan's
    c, dirs = case
    core = radon._lattice_core

    def both(boards, A, B, ws, dtype):
        out, ws = core(boards, A, B, ws, dtype)
        want, _ = core(boards, A, B, np.empty(0, np.uint8), np.float64)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
        return out, ws

    with mock.patch.object(radon, "_lattice_core", both):
        scans = list(orbit_scan(c, dirs))
    for ks, out in scans:
        for k, i in enumerate(ks):
            scan = lattice_scan(c, *dirs[i])
            assert out[:, k].tobytes() == np.stack([scan.chord, scan.top, scan.bottom]).tobytes()


class _Watch:
    # numpy for radon, recording the largest magnitude in the float arrays
    # that np.maximum, np.minimum and np.multiply read or write (the int64
    # line indices of _steps are not sums)
    def __init__(self):
        self.peak = 0.0

    def _see(self, *arrays):
        for a in arrays:
            if isinstance(a, np.ndarray) and a.dtype.kind == "f" and a.size:
                self.peak = max(self.peak, float(np.abs(a).max()))

    def __getattr__(self, name):
        f = getattr(np, name)
        if name not in ("maximum", "minimum", "multiply"):
            return f

        def watched(*args, **kwargs):
            self._see(*args)
            out = f(*args, **kwargs)
            self._see(out)
            return out
        return watched


def _peaks(c, dirs):
    # Per orbit of orbit_scan(c, dirs): the bound that picked its dtype,
    # and the largest magnitude its passes store when they run at float64.
    # That is every value the watched calls read or write (each piece's
    # tmp, each acc of the piece loop, each hi and lo before and after a
    # max or min) and every entry of the buffer at the end (the line
    # stage's acc); the buffer starts zeroed and large enough that the
    # pass makes no other.
    pick, core, peaks = radon._sum_dtype, radon._lattice_core, []

    def sum_dtype(bound):
        peaks.append([bound, 0.0])
        return pick(bound)

    def float_core(boards, A, B, ws, dtype):
        n = boards[0].shape[0]
        buf = np.zeros(5 * len(boards) * (n + 2 * A) * (n + 2 * B) + 1)
        watch = _Watch()
        with mock.patch.object(radon, "np", watch):
            out, ws = core(boards, A, B, buf.view(np.uint8), np.float64)
        assert ws.base is buf
        peaks[-1][1] = max(peaks[-1][1], watch.peak, float(np.abs(buf).max()))
        return out, ws

    with mock.patch.object(radon, "_sum_dtype", sum_dtype), \
            mock.patch.object(radon, "_lattice_core", float_core):
        for _ in orbit_scan(c, dirs):
            pass
    return peaks


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_kernel_sums_stay_within_the_bound_that_picks_their_dtype(n):
    # on a constant board every orbit meets its bound (the diagonal chord
    # from the origin); on random integer boards none exceeds it
    dirs = _lattice_directions(n)
    for z in (1.0, -3.0, 40.0):
        for bound, peak in _peaks(make_constant(n, z), dirs):
            assert peak == bound
    for z in (1, 7, 1000):
        for bound, peak in _peaks(_mixed_board(n, z), dirs):
            assert peak <= bound


@pytest.mark.parametrize("c, dirs, want", [
    # the bound 4681 * 7 * max(B, 1) is 2^15 - 1 at B <= 1, 2 (2^15 - 1) at B = 2
    (make_constant(7, 4681.0), [(1, 1), (2, 1), (3, 2), (1, 0)], ["int16", "int16", "int32", "int16"]),
    (make_constant(7, -4681.0), [(1, 1)], ["int16"]),
    # 4096 * 8 = 2^15
    (make_constant(8, 4096.0), [(1, 1), (1, 0)], ["int32", "int32"]),
    (make_constant(8, 4096.5), [(1, 1)], ["float64"]),
])
def test_sums_at_the_int16_edge_pick_int16_below_it_and_int32_at_it(c, dirs, want):
    # the int16 board reaches 2^15 - 1 on its diagonal and still gives the
    # float64 bytes
    core, got = radon._lattice_core, []

    def spy(boards, A, B, ws, dtype):
        got.append(np.dtype(dtype).name)
        return core(boards, A, B, ws, dtype)

    with mock.patch.object(radon, "_lattice_core", spy):
        scans = list(orbit_scan(c, dirs))
    assert got == want
    with mock.patch.object(radon, "_sum_dtype", lambda bound: np.float64):
        assert [out.tobytes() for _, out in scans] == [
            out.tobytes() for _, out in orbit_scan(c, dirs)]
    chord = lattice_scan(c, 1, 1).chord
    assert np.abs(chord).max() == abs(c.cells[0, 0]) * c.n * math.sqrt(2)


def test_lattice_scan_rejects_non_primitive_vectors():
    c = make_random(4, seed=0)
    for v in ((2, 2), (0, 0), (-3, 6)):
        with pytest.raises(ValueError, match=rf"\({v[0]}, {v[1]}\)"):
            lattice_scan(c, *v)
    with pytest.raises(ValueError):
        list(orbit_scan(c, [(2, 2)]))
