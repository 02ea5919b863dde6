"""Properties of radon's two kernels against the scalar cell walk.

Boards are +-1 or real with n from 1 to 12.  offset_scan is checked at
generic angles, primitive lattice directions and both axes; generic angles
stay 1e-3 away from the axes: near an axis the profile's slope grows like
1/sin, so both paths agree only to the conditioning of the offset itself.
lattice_scan is checked at every primitive lattice direction, axes included,
values and witnesses both.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from needleboard.board import Coloring
from needleboard.geom import integrate
from needleboard.radon import (
    Chord,
    Direction,
    _walk_direction,
    breakpoint_offsets,
    chord_segment,
    lattice_scan,
    max_chord_in_direction,
    max_segment_in_direction,
    offset_scan,
    project,
)

_GAP = 1e-3  # generic angles keep this distance from 0, pi/2 and pi


@st.composite
def boards(draw):
    n = draw(st.integers(1, 12))
    cell = draw(st.sampled_from([
        st.sampled_from([-1.0, 1.0]),
        st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
    ]))
    values = draw(st.lists(cell, min_size=n * n, max_size=n * n))
    return Coloring(n, np.array(values).reshape(n, n))


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
def test_direction_maxima_equal_the_scalar_oracle(case):
    c, d = case
    (_, vc_walk), (_, vs_walk) = _walk_direction(c, d)
    _, vc = max_chord_in_direction(c, d)
    _, vs = max_segment_in_direction(c, d)
    assert abs(vc - vc_walk) <= 1e-9 * c.n
    assert abs(vs - vs_walk) <= 1e-9 * c.n


@settings(max_examples=100)
@given(cases())
def test_witnesses_integrate_to_the_reported_values(case):
    c, d = case
    t, vc = max_chord_in_direction(c, d)
    assert abs(abs(integrate(c, chord_segment(c.n, Chord(d, t)))) - vc) <= 1e-9 * c.n
    seg, vs = max_segment_in_direction(c, d)
    assert abs(abs(integrate(c, seg)) - vs) <= 1e-9 * c.n


@settings(max_examples=30)
@given(cases())
def test_any_offset_in_any_block(case):
    # offsets off the breakpoints and off the board, over several blocks:
    # chord values match the walk, and each offset's row does not depend on
    # the block it lands in
    c, d = case
    ts = np.linspace(-0.5, 1.5 * c.n, 1201)
    whole = offset_scan(c, d, ts)
    for k in range(0, ts.size, 150):
        assert abs(whole.chord[k] - integrate(c, chord_segment(c.n, Chord(d, float(ts[k]))))) \
            <= 1e-9 * c.n
    for lo in range(0, ts.size, 7):
        part = offset_scan(c, d, ts[lo:lo + 7])
        for a, b in zip(whole[2:], part[2:]):
            assert np.array_equal(a[lo:lo + 7], b)


@st.composite
def lattice_cases(draw):
    # any primitive (dx, dy) with |dx|, |dy| <= n, either sign, both axes
    c = draw(boards())
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


@settings(max_examples=50)
@given(lattice_cases())
def test_lattice_chords_equal_offset_scan_at_every_breakpoint(case):
    # every line's chord value and prefix range, not only the best
    c, v = case
    d = Direction.along(*v)
    scan = lattice_scan(c, *v)
    ref = offset_scan(c, d, breakpoint_offsets(c.n, d))
    for a, b in zip(scan[3:6], ref[3:6]):
        assert np.max(np.abs(a - b)) <= 1e-9 * c.n
