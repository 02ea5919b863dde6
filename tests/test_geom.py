import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from needleboard.board import Coloring, make_constant, make_parity, make_random, make_stripes
from needleboard.geom import Segment, cell_crossings, clip_line, integrate, integrate_mc

SQRT2 = math.sqrt(2.0)

# Frozen oracle-agreement constant: max of |integrate - integrate_mc(m)|*m/|s|
# measured over 900 random (board, segment, m) cases came out at 4.13.
MC_AGREEMENT_C = 8.0


def _clip_length_oracle(seg: Segment, n: int) -> float:
    # Independent reference: intersect the per-axis admissible parameter
    # intervals of the segment's line with [0, n] slabs.
    (ax, ay), (bx, by) = seg.a, seg.b
    lo, hi = 0.0, 1.0
    for p0, d in ((ax, bx - ax), (ay, by - ay)):
        if d == 0.0:
            if not (0.0 <= p0 <= n):
                return 0.0
        else:
            r0, r1 = sorted(((0.0 - p0) / d, (n - p0) / d))
            lo, hi = max(lo, r0), min(hi, r1)
    return max(0.0, hi - lo) * seg.length()


def _random_segment(rng, n, pad=1.0):
    a = tuple(rng.uniform(-pad, n + pad, 2))
    b = tuple(rng.uniform(-pad, n + pad, 2))
    return Segment(a, b)


def test_crossings_axis_aligned_example():
    cl = cell_crossings(Segment((0, 0.5), (2, 0.5)), 2)
    assert [(e.i, e.j, e.length) for e in cl] == [(0, 0, 1.0), (1, 0, 1.0)]


def test_crossings_diagonal_example():
    cl = cell_crossings(Segment((0, 0), (2, 2)), 2)
    assert [(e.i, e.j) for e in cl] == [(0, 0), (1, 1)]
    assert all(abs(e.length - SQRT2) < 1e-15 for e in cl)


def test_crossings_outside_example():
    assert len(cell_crossings(Segment((-1, 0.5), (0, 0.5)), 2)) == 0


def test_crossings_degenerate():
    assert len(cell_crossings(Segment((0.5, 0.5), (0.5, 0.5)), 2)) == 0


def test_crossings_lattice_point_pass():
    # Passing exactly through (1,1) advances both indices at once: no sliver.
    cl = cell_crossings(Segment((0.5, 0.5), (1.5, 1.5)), 2)
    assert [(e.i, e.j) for e in cl] == [(0, 0), (1, 1)]


def test_crossings_of_very_long_segments():
    # A row probe far longer than the board still meets all 16 cells: the
    # tie tolerance applies to the clipped segment, not to the whole one.
    c = make_parity(16)
    for length in (1e14, 1e15, 1e100):
        s = Segment((0.0, 0.5), (length, 0.5))
        cl = cell_crossings(s, 16)
        assert [(e.i, e.j) for e in cl] == [(i, 0) for i in range(16)]
        assert cl.total_length() == 16.0
        assert integrate(c, s) == 0.0


def test_crossings_from_a_far_first_endpoint():
    # The clip is anchored at the endpoint nearer the board, so a far first
    # endpoint loses nothing.  Segments with both endpoints far from the
    # board are best effort: the clip's precision is relative to the nearer
    # endpoint's distance.
    c = make_constant(16, 1)
    for s in (Segment((1e20, 0.5), (0, 0.5)), Segment((1e100, 0.5), (0, 0.5)),
              Segment((0.5, 1e20), (0.5, 0))):
        cl = cell_crossings(s, 16)
        assert len(cl) == 16
        assert cl.total_length() == 16.0
        assert integrate(c, s) == 16.0


def test_walk_starts_at_the_nearer_endpoint():
    # The line from (0.5, 1) toward (1e20, 0) runs just below y = 1.  Clipped
    # from its far end, its entry point rounds onto y = 1 and would land in
    # row 1; walked from (0.5, 1) it stays in row 0 in both orientations.
    for s in (Segment((0.5, 1.0), (1e20, 0.0)), Segment((1e20, 0.0), (0.5, 1.0))):
        assert {e.j for e in cell_crossings(s, 16)} == {0}


def test_clip_line_examples():
    assert clip_line(0.5, 0.5, 1.0, 0.0, 4) == (-0.5, 3.5)
    assert clip_line(0.5, 0.5, 1.0, 0.0, 4, 0.0, 1.0) == (0.0, 1.0)
    assert clip_line(-1.0, 0.5, 1.0, 0.0, 4, 0.0, 0.5) is None
    assert clip_line(0.5, 5.0, 1.0, 0.0, 4) is None
    # a line through a corner only: a single point
    assert clip_line(0.0, 4.0, 1.0, 1.0, 4) == (0.0, 0.0)


def test_half_open_ownership():
    # A piece on gridline y = 1 belongs to row 1.
    cl = cell_crossings(Segment((0.25, 1.0), (1.75, 1.0)), 2)
    assert all(e.j == 1 for e in cl)
    # A piece on x = 0 belongs to column 0.
    cl = cell_crossings(Segment((0.0, 0.25), (0.0, 1.75)), 2)
    assert all(e.i == 0 for e in cl)
    # Pieces on the far gridlines x = n and y = n belong to no cell.
    assert len(cell_crossings(Segment((0.25, 2.0), (1.75, 2.0)), 2)) == 0
    assert len(cell_crossings(Segment((2.0, 0.25), (2.0, 1.75)), 2)) == 0


def test_crossings_reverse_direction_ownership():
    # Starting on an interior gridline and moving down: piece lies below it.
    cl = cell_crossings(Segment((0.5, 1.0), (0.5, 0.25)), 2)
    assert [(e.i, e.j) for e in cl] == [(0, 0)]


def test_crossings_random_invariants():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 17))
        s = _random_segment(rng, n)
        cl = cell_crossings(s, n)
        want = _clip_length_oracle(s, n)
        got = cl.total_length()
        assert abs(got - want) <= 1e-12 * max(want, 1e-30)
        prev_out = None
        for e in cl:
            assert 0 <= e.i < n and 0 <= e.j < n
            assert e.length <= SQRT2 * (1 + 1e-12)
            assert abs((e.t_out - e.t_in) - e.length) <= 1e-9
            if prev_out is not None:
                assert e.t_in >= prev_out - 1e-9
            prev_out = e.t_out


def test_integrate_examples():
    assert integrate(make_constant(2, 1), Segment((0, 0.5), (2, 0.5))) == 2.0
    assert integrate(make_parity(2), Segment((0, 0.5), (2, 0.5))) == 0.0
    got = integrate(make_parity(2), Segment((0, 0), (2, 2)))
    assert abs(got - 2 * SQRT2) < 1e-12


def test_integrate_stripes_row_probe():
    # A horizontal probe inside one stripe row picks up exactly its length.
    c = make_stripes(4, "horizontal")
    s = Segment((0.5, 2.5), (3.5, 2.5))
    assert abs(abs(integrate(c, s)) - s.length()) < 1e-12


def test_integrate_linearity_and_sign():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        c1 = make_random(n, int(rng.integers(0, 2**32)))
        c2 = make_random(n, int(rng.integers(0, 2**32)))
        al, be = rng.normal(size=2)
        mix = Coloring(n, al * c1.cells + be * c2.cells)
        neg = Coloring(n, -c1.cells)
        s = _random_segment(rng, n)
        v1, v2 = integrate(c1, s), integrate(c2, s)
        assert abs(integrate(mix, s) - (al * v1 + be * v2)) < 1e-12 * (1 + abs(v1) + abs(v2))
        assert integrate(neg, s) == -v1


def test_integrate_bound():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        c = make_random(n, int(rng.integers(0, 2**32)))
        s = _random_segment(rng, n)
        assert abs(integrate(c, s)) <= _clip_length_oracle(s, n) + 1e-12


def test_integrate_additivity_at_split():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        c = make_random(n, int(rng.integers(0, 2**32)))
        s = _random_segment(rng, n)
        f = float(rng.uniform(0.05, 0.95))
        mid = (s.a[0] + f * (s.b[0] - s.a[0]), s.a[1] + f * (s.b[1] - s.a[1]))
        whole = integrate(c, s)
        parts = integrate(c, Segment(s.a, mid)) + integrate(c, Segment(mid, s.b))
        assert abs(whole - parts) < 1e-10


def test_integrate_reflection_equivariance():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        c = make_random(n, int(rng.integers(0, 2**32)))
        s = _random_segment(rng, n)
        v = integrate(c, s)
        # Mirror across x = n/2.
        cm = Coloring(n, c.cells[::-1, :])
        sm = Segment((n - s.a[0], s.a[1]), (n - s.b[0], s.b[1]))
        assert abs(integrate(cm, sm) - v) < 1e-12 * (1 + abs(v))
        # Mirror across the main diagonal.
        cd = Coloring(n, c.cells.T)
        sd = Segment((s.a[1], s.a[0]), (s.b[1], s.b[0]))
        assert abs(integrate(cd, sd) - v) < 1e-12 * (1 + abs(v))


def test_integrate_mc_constant_exact():
    c = make_constant(3, 1)
    s = Segment((0.25, 0.5), (2.5, 2.25))
    for m in (1, 3, 10, 97):
        assert abs(integrate_mc(c, s, m) - s.length()) < 1e-12


def test_integrate_mc_parity_diagonal():
    got = integrate_mc(make_parity(2), Segment((0, 0), (2, 2)), 10**4)
    assert abs(got - 2 * SQRT2) < 1e-2


def test_integrate_mc_degenerate():
    assert integrate_mc(make_parity(2), Segment((1, 1), (1, 1)), 1) == 0.0
    with pytest.raises(ValueError):
        integrate_mc(make_parity(2), Segment((0, 0), (1, 1)), 0)


def test_integrate_mc_far_samples_cast_without_warning():
    # every sample of this segment lies far above the board; they are masked
    # out before the int64 cast, so numpy has nothing to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate_mc(make_constant(16, 1), Segment((0.5, 0.0), (0.5, 1e100)), 1000)
    assert got == 0.0


def test_integrate_mc_oracle_agreement():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 17))
        c = make_random(n, int(rng.integers(0, 2**32)))
        s = _random_segment(rng, n, pad=0.0)
        ln = s.length()
        if ln < 1e-9:
            continue
        for m in (100, 1000):
            err = abs(integrate(c, s) - integrate_mc(c, s, m))
            assert err <= MC_AGREEMENT_C / m * ln


# Properties under the suite's derandomized hypothesis profile.  Near-board
# coordinates are multiples of 1/_GRAIN, so reflections, translations and
# dyadic split points are exact; the far strategy reaches |coordinate| 1e20.
_GRAIN = 64


@st.composite
def boards(draw):
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return Coloring(n, rng.normal(size=(n, n)))
    return Coloring(n, rng.choice([-1.0, 1.0], size=(n, n)))


def near_points(n):
    # integers half the time, so gridlines and lattice points come up often
    coord = (st.integers(-2, n + 2).map(float)
             | st.integers(-2 * _GRAIN, (n + 2) * _GRAIN).map(lambda k: k / _GRAIN))
    return st.tuples(coord, coord)


far_points = st.tuples(*[st.floats(-1e20, 1e20, allow_nan=False)] * 2)


@st.composite
def board_and_segment(draw):
    c = draw(boards())
    return c, Segment(draw(near_points(c.n)), draw(near_points(c.n)))


def _on_gridline(s):
    # A segment along a gridline belongs to the cells on its upper/right
    # side (half-open ownership), which no reflection preserves.
    return any(s.a[k] == s.b[k] and s.a[k] == math.floor(s.a[k]) for k in (0, 1))


@given(st.data())
def test_reversal_property(data):
    c = data.draw(boards())
    near, far = data.draw(near_points(c.n)), data.draw(far_points)
    s = Segment(near, far) if data.draw(st.booleans()) else Segment(far, near)
    back = Segment(s.b, s.a)
    fwd, rev = cell_crossings(s, c.n), cell_crossings(back, c.n)
    assert [(e.i, e.j) for e in fwd] == [(e.i, e.j) for e in reversed(rev.entries)]
    assert abs(fwd.total_length() - rev.total_length()) <= 1e-12 * c.n
    assert abs(integrate(c, s) - integrate(c, back)) <= 1e-9 * c.n


@given(board_and_segment(), st.integers(0, _GRAIN))
def test_additivity_property(case, k):
    c, s = case
    f = k / _GRAIN  # exact: the split point lies on the segment
    mid = (s.a[0] + f * (s.b[0] - s.a[0]), s.a[1] + f * (s.b[1] - s.a[1]))
    parts = integrate(c, Segment(s.a, mid)) + integrate(c, Segment(mid, s.b))
    assert abs(integrate(c, s) - parts) <= 1e-9 * c.n


_DIHEDRAL = [
    lambda x, y, n: (x, y), lambda x, y, n: (n - x, y),
    lambda x, y, n: (x, n - y), lambda x, y, n: (n - x, n - y),
    lambda x, y, n: (y, x), lambda x, y, n: (n - y, x),
    lambda x, y, n: (y, n - x), lambda x, y, n: (n - y, n - x),
]


@given(board_and_segment(), st.sampled_from(_DIHEDRAL))
def test_dihedral_property(case, g):
    c, s = case
    assume(not _on_gridline(s))
    n = c.n
    cells = np.empty_like(c.cells)
    for i in range(n):
        for j in range(n):
            x, y = g(i + 0.5, j + 0.5, n)
            cells[math.floor(x), math.floor(y)] = c.cells[i, j]
    moved = Segment(g(*s.a, n), g(*s.b, n))
    assert abs(integrate(Coloring(n, cells), moved) - integrate(c, s)) <= 1e-9 * n


@given(board_and_segment(), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_translation_into_padded_board_property(case, p, q, extra):
    c, s = case
    big = np.zeros((c.n + max(p, q) + extra,) * 2)
    big[p:p + c.n, q:q + c.n] = c.cells
    moved = Segment((s.a[0] + p, s.a[1] + q), (s.b[0] + p, s.b[1] + q))
    got = integrate(Coloring(big.shape[0], big), moved)
    assert abs(got - integrate(c, s)) <= 1e-9 * big.shape[0]
