import math

import numpy as np
import pytest

from needleboard.board import make_constant, make_parity, make_random, make_stripes
from needleboard.geom import Segment, cell_crossings, integrate
from needleboard.radon import (
    Chord,
    Direction,
    breakpoint_offsets,
    chord_segment,
    max_chord_in_direction,
    max_segment_in_direction,
    project,
)

SQRT2 = math.sqrt(2.0)


def test_direction_normalization():
    assert Direction(0.0).theta == 0.0
    assert Direction(math.pi).theta == 0.0
    assert Direction(-0.25).theta == math.pi - 0.25
    assert Direction(math.pi + 0.25).theta == 0.25
    # Near-axis angles snap so axis chords lie exactly on gridlines.
    assert Direction(1e-13).theta == 0.0
    assert Direction(math.pi - 1e-13).theta == 0.0
    assert Direction(math.pi / 2 + 1e-13).theta == math.pi / 2
    assert Direction(math.pi / 2).u == (0.0, 1.0)
    assert Direction(math.pi / 2).uperp == (-1.0, 0.0)
    assert Direction(0.0).uperp == (0.0, 1.0)


def test_direction_rejects_nonfinite_angle():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Direction(theta)


def test_chord_segment_horizontal_example():
    seg = chord_segment(2, Chord(Direction(math.pi / 2), 0.5))
    ends = sorted([seg.a, seg.b])
    assert ends[0] == (0.0, 0.5) and ends[1] == (2.0, 0.5)


def test_chord_segment_miss_example():
    assert chord_segment(2, Chord(Direction(0.0), -1.0)).length() == 0.0


def test_chord_segment_diagonal_analytic_clip():
    # theta = pi/4: chords run along uperp = (-1,1)/sqrt2; the one through the
    # origin only touches the corner, and the clipped length at offset t is
    # 2t up to the center offset sqrt2, then decreases symmetrically.
    d = Direction(math.pi / 4)
    assert chord_segment(2, Chord(d, 0.0)).length() == 0.0
    for t in (0.3, 0.9, SQRT2, 1.9, 2.5):
        want = 2 * t if t <= SQRT2 else 2 * (2 * SQRT2 - t)
        assert abs(chord_segment(2, Chord(d, t)).length() - want) < 1e-12


def test_breakpoints_dedup_rational_direction():
    # At theta = pi/4 the (n+1)^2 lattice projections collapse to 2n+1 nodes.
    assert breakpoint_offsets(2, Direction(math.pi / 4)).size == 5
    assert breakpoint_offsets(4, Direction(math.pi / 4)).size == 9


def test_project_constant_axis():
    p = project(make_constant(2, 1), Direction(0.0))
    assert np.array_equal(p.breakpoints, [0.0, 1.0, 2.0])
    # Owned-side values at integer offsets; multiset {0, 2, 2}.
    assert np.array_equal(p.values, [2.0, 2.0, 0.0])
    mid = integrate(make_constant(2, 1), chord_segment(2, Chord(Direction(0.0), 1.0)))
    assert mid == 2.0


def test_project_parity_axis_vanishes():
    p = project(make_parity(2), Direction(0.0))
    assert np.all(p.values == 0.0)


def test_project_stripes_explicit_chords():
    c = make_stripes(2, "horizontal")
    d = Direction(math.pi / 2)
    assert integrate(c, chord_segment(2, Chord(d, 0.5))) == 2.0
    assert integrate(c, chord_segment(2, Chord(d, 1.5))) == -2.0


def test_projection_mass_conservation():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        c = make_random(n, int(rng.integers(0, 2**32)))
        p = project(c, Direction(float(rng.uniform(0.01, math.pi - 0.01))))
        t, v = p.breakpoints, p.values
        trapezoid = float(np.sum((t[1:] - t[:-1]) * (v[1:] + v[:-1]) / 2))
        assert abs(trapezoid - float(c.cells.sum())) <= 1e-9 * n * n


def test_projection_piecewise_linear_midpoints():
    rng = np.random.default_rng(37)
    c = make_random(4, 99)
    for _ in range(100):
        d = Direction(float(rng.uniform(0.01, math.pi - 0.01)))
        p = project(c, d)
        t, v = p.breakpoints, p.values
        for k in range(t.size - 1):
            mid = (t[k] + t[k + 1]) / 2
            got = integrate(c, chord_segment(4, Chord(d, float(mid))))
            assert abs(got - (v[k] + v[k + 1]) / 2) < 1e-9


def test_projection_vanishes_at_support_edges_generic():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        c = make_random(n, int(rng.integers(0, 2**32)))
        p = project(c, Direction(float(rng.uniform(0.01, math.pi / 2 - 0.01))))
        assert abs(p.values[0]) < 1e-9 and abs(p.values[-1]) < 1e-9


def test_max_chord_examples():
    t_star, v = max_chord_in_direction(make_constant(2, 1), Direction(math.pi / 4))
    assert abs(v - 2 * SQRT2) < 1e-12
    assert abs(t_star - SQRT2) < 1e-12
    _, v0 = max_chord_in_direction(make_parity(2), Direction(0.0))
    assert v0 == 0.0


def test_max_chord_equals_profile_max():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        c = make_random(n, int(rng.integers(0, 2**32)))
        d = Direction(float(rng.uniform(0.01, math.pi - 0.01)))
        _, v = max_chord_in_direction(c, d)
        assert abs(v - float(np.max(np.abs(project(c, d).values)))) < 1e-12


def test_max_segment_parity_halfrow():
    seg, v = max_segment_in_direction(make_parity(2), Direction(math.pi / 2))
    assert v == 1.0
    assert abs(abs(integrate(make_parity(2), seg)) - v) < 1e-12
    # The explicit half-row chord value from the contract.
    assert integrate(make_parity(2), Segment((0.0, 0.5), (1.0, 0.5))) == 1.0


def test_max_segment_constant_equals_longest_chord():
    c = make_constant(3, 1)
    for th in (0.0, 0.4, math.pi / 4, 1.2, math.pi / 2):
        _, vc = max_chord_in_direction(c, Direction(th))
        seg, vs = max_segment_in_direction(c, Direction(th))
        assert abs(vs - vc) < 1e-12
        assert abs(seg.length() - vs) < 1e-12


def _exhaustive_subsegment_max(c, d):
    # Independent oracle: enumerate every chord offset and every pair of
    # crossing boundaries, summing signed lengths directly.
    ts = breakpoint_offsets(c.n, d)
    if d.is_axis():
        ts = np.sort(np.concatenate([ts, (ts[:-1] + ts[1:]) / 2]))
    best = 0.0
    for t in ts.tolist():
        cl = cell_crossings(chord_segment(c.n, Chord(d, t)), c.n)
        k = len(cl)
        pieces = [c.cells[e.i, e.j] * e.length for e in cl]
        for r1 in range(k + 1):
            for r2 in range(r1 + 1, k + 1):
                best = max(best, abs(sum(pieces[r1:r2])))
    return best


def test_max_segment_exhaustive_oracle():
    rng = np.random.default_rng(47)
    for seed in range(5):
        c = make_random(4, seed)
        for d in (Direction(math.pi / 2), Direction(0.7), Direction(float(rng.uniform(0.1, 3.0)))):
            _, v = max_segment_in_direction(c, d)
            assert abs(v - _exhaustive_subsegment_max(c, d)) < 1e-9


def test_max_segment_dominates_max_chord():
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        c = make_random(n, int(rng.integers(0, 2**32)))
        d = Direction(float(rng.uniform(0.0, math.pi)))
        _, vc = max_chord_in_direction(c, d)
        _, vs = max_segment_in_direction(c, d)
        assert vs >= vc - 1e-12


def test_parity_quarter_turn_consistency():
    # Rotating an even parity board by 90 degrees negates it, so the value
    # multiset at theta + pi/2 is the negated multiset at theta.
    for n in (2, 4):
        c = make_parity(n)
        for th in (0.3, 0.9, 1.4):
            a = np.sort(project(c, Direction(th)).values)
            b = np.sort(-project(c, Direction(th + math.pi / 2)).values)
            assert np.allclose(a, b, atol=1e-9)
