"""Search tests: both routes against each other, analytic anchors, symmetry
properties, and strategy monotonicity."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from needleboard.board import (
    Coloring,
    make_constant,
    make_parity,
    make_random,
    make_stripes,
)
from needleboard.radon import (
    Chord,
    Direction,
    _first_max,
    _walk_direction,
    lattice_scan,
    max_chord_in_direction,
    tie_tolerance,
)
from needleboard.search import (
    DiscrepancyReport,
    best_chord,
    best_segment,
    brute_force,
    default_angles,
    scan_report,
    _lattice_directions,
    _scan,
)
from needleboard.spectral import certified_lower_bound
from strategies import boards


def test_tie_heavy_boards_pick_the_same_witnesses_on_both_routes():
    # Boards whose chords and prefixes tie exactly: at every lattice
    # direction lattice_scan picks the ramp profile's chord, offset included,
    # and at the two directions scan_report picks its winners are the scalar
    # walk's, witnesses included.
    for n in range(2, 13):
        tol = 1e-12 * n
        dirs = _lattice_directions(n)
        for c in (make_constant(n, +1), make_parity(n), make_stripes(n, "horizontal"),
                  make_stripes(n, "vertical")):
            for v in dirs:
                t, vc = lattice_scan(c, *v).best_chord()
                t_ramp, vc_ramp = max_chord_in_direction(c, Direction.along(*v))
                assert abs(t - t_ramp) <= tol and abs(vc - vc_ramp) <= tol
            rep = scan_report(c)
            ch, vc = rep.best_chord
            (t_walk, vc_walk), _ = _walk_direction(c, ch.direction)
            assert abs(ch.t - t_walk) <= tol and abs(vc - vc_walk) <= tol
            seg, vs = rep.best_segment
            ex, ey = seg.b[0] - seg.a[0], seg.b[1] - seg.a[1]
            v = min(dirs, key=lambda v: abs(v[0] * ey - v[1] * ex) / math.hypot(*v))
            _, (seg_walk, vs_walk) = _walk_direction(c, Direction.along(*v))
            assert abs(vs - vs_walk) <= tol
            assert max(abs(p - q) for p, q in zip(seg.a + seg.b, seg_walk.a + seg_walk.b)) <= tol


def _per_direction_route(c, angles):
    # one lattice_scan per direction: each direction's best chord and
    # segment, then the first max across directions (ties to the smaller
    # angle)
    dirs = _lattice_directions(c.n, default_angles(c.n) if angles is None else angles)
    tie = tie_tolerance(c)
    scans = [lattice_scan(c, *v) for v in dirs]
    chords = [s.best_chord() for s in scans]
    segs = [s.best_segment() for s in scans]
    k = _first_max([v for _, v in chords], tie)
    t, v = chords[k]
    chord = (Chord(Direction.along(*dirs[k]), t), v)
    seg = segs[_first_max([v for _, v in segs], tie)]
    return dirs, [v for _, v in chords], [v for _, v in segs], chord, seg


@pytest.mark.parametrize("angles", [None, 1, 2, 3, 5, 7])
def test_orbit_batched_search_equals_the_per_direction_route(angles):
    # exact equality, witnesses included: budgets 1..7 split orbits, and at
    # n = 1 and 2 the orbits are the degenerate pairs (axes, diagonals)
    real = Coloring(6, np.random.default_rng(6).uniform(-4.0, 4.0, (6, 6)))
    for c in (make_constant(1, -1), make_random(2, 0), make_parity(2), make_random(3, 1),
              make_random(7, 2), make_constant(8, 1), make_stripes(5, "vertical"),
              make_parity(6), real):
        dirs, chords, segs, chord, seg = _per_direction_route(c, angles)
        got_dirs, got_chords, got_segs = _scan(c, angles)
        assert got_dirs == dirs
        assert got_chords.tolist() == chords and got_segs.tolist() == segs
        rep = scan_report(c, angles)
        assert rep.best_chord == chord
        assert rep.best_segment == seg
        assert best_chord(c, angles) == chord
        assert best_segment(c, angles) == seg


def test_search_builds_witnesses_only_for_the_winners(monkeypatch):
    import needleboard.search as search

    calls = []

    def counted(c, dx, dy):
        calls.append((dx, dy))
        return lattice_scan(c, dx, dy)

    monkeypatch.setattr(search, "lattice_scan", counted)
    for c in (make_random(9, 3), make_parity(4)):
        for fn, most in ((scan_report, 2), (best_chord, 1), (best_segment, 1)):
            calls.clear()
            fn(c)
            assert 1 <= len(calls) <= most


@settings(max_examples=40)
@given(boards(9))
def test_scan_report_is_invariant_under_the_dihedral_group(c):
    # the 8 symmetries of the square move every chord and segment onto one
    # of the same length and integral; the values agree within the tie
    # tolerance, not bit for bit, since moved chords are summed in another
    # order
    tie = tie_tolerance(c)
    rep = scan_report(c)
    for k in range(4):
        for cells in (np.rot90(c.cells, k), np.rot90(c.cells.T, k)):
            moved = scan_report(Coloring(c.n, np.ascontiguousarray(cells)))
            assert abs(moved.best_chord[1] - rep.best_chord[1]) <= tie
            assert abs(moved.best_segment[1] - rep.best_segment[1]) <= tie


def test_best_chord_constant_board_is_the_diagonal():
    for n in (2, 4, 8):
        _, v = best_chord(make_constant(n, +1), angles=64)
        assert v == pytest.approx(n * math.sqrt(2.0), abs=1e-9)


def test_best_chord_parity_diagonal_floor():
    for n in (2, 4, 6):
        _, v = best_chord(make_parity(n), angles=128)
        assert v >= n * math.sqrt(2.0) - 1e-9


def test_best_segment_stripes_in_strip_diagonal():
    # a full row gives n, but the strip's own diagonal stays inside one
    # constant-sign strip with length sqrt(n^2 + 1), so that is the optimum
    n = 4
    _, v = best_segment(make_stripes(n, "horizontal"), angles=128)
    assert v >= float(n)
    assert v == pytest.approx(math.sqrt(n * n + 1.0), abs=1e-9)


def test_best_segment_never_below_best_chord():
    for seed in (0, 5):
        c = make_random(5, seed)
        _, vc = best_chord(c, angles=128)
        _, vs = best_segment(c, angles=128)
        assert vs >= vc - 1e-12


def test_brute_force_parity_2():
    rep = brute_force(make_parity(2))
    assert rep.best_segment[1] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert rep.best_chord[1] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert rep.strategy.oracle


def test_brute_force_constant_2():
    rep = brute_force(make_constant(2, +1))
    assert rep.best_chord[1] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert rep.best_segment[1] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_brute_force_never_reaches_the_kernel(monkeypatch):
    # the oracle must stay independent of the arithmetic it checks
    import needleboard.radon as radon
    import needleboard.search as search

    def kernel(*args):
        raise AssertionError("brute_force reached a kernel")

    monkeypatch.setattr(radon, "_ramp_profile", kernel)
    monkeypatch.setattr(radon, "_lattice_core", kernel)
    monkeypatch.setattr(radon, "lattice_scan", kernel)
    monkeypatch.setattr(search, "lattice_scan", kernel)
    monkeypatch.setattr(search, "orbit_scan", kernel)
    rep = brute_force(make_random(3, 5))
    assert rep.best_segment[1] >= rep.best_chord[1] > 0.0


def test_dense_scan_matches_oracle_on_random_boards():
    cases = [(make_random(4, seed), 512) for seed in range(5)]
    for n in (8, 12):
        cases += [(make_random(n, n), None), (make_parity(n), None),
                  (make_stripes(n, "horizontal"), None)]
    for c, angles in cases:
        rep = brute_force(c)
        ch, vc = best_chord(c, angles=angles)
        seg, vs = best_segment(c, angles=angles)
        assert vc == pytest.approx(rep.best_chord[1], abs=1e-9)
        assert vs == pytest.approx(rep.best_segment[1], abs=1e-9)
        both = scan_report(c, angles=angles)
        assert both.best_chord == (ch, vc)
        assert both.best_segment == (seg, vs)


def test_lattice_directions_are_the_lattice_pair_directions():
    # independent enumeration: every direction spanned by two distinct points
    # of the (n+1) x (n+1) lattice, reduced by gcd and sign-normalized
    for n in range(1, 7):
        pts = [(x, y) for x in range(n + 1) for y in range(n + 1)]
        spanned = set()
        for (ax, ay), (bx, by) in itertools.combinations(pts, 2):
            dx, dy = bx - ax, by - ay
            g = math.gcd(dx, dy)
            dx, dy = dx // g, dy // g
            if dy < 0 or (dy == 0 and dx < 0):
                dx, dy = -dx, -dy
            spanned.add((dx, dy))
        got = _lattice_directions(n)
        assert len(got) == len(spanned)
        assert set(got) == spanned
        thetas = [Direction.along(*v).theta for v in got]
        assert thetas == sorted(thetas)
        for dx, dy in spanned:
            # the chord of a direction runs along its uperp
            ux, uy = Direction.along(dx, dy).uperp
            assert abs(ux * dy - uy * dx) < 1e-9


def test_smaller_budget_is_a_prefix_of_a_larger_one():
    n = 6
    full = _lattice_directions(n)
    prev: set = set()
    for budget in range(1, len(full) + 3):
        dirs = _lattice_directions(n, budget)
        assert len(dirs) == min(budget, len(full))
        assert prev <= set(dirs)
        thetas = [Direction.along(*v).theta for v in dirs]
        assert thetas == sorted(thetas)
        prev = set(dirs)
    assert prev == set(full)


def _lattice_directions_oracle(n, budget=None):
    # the enumeration _lattice_directions replaced: gcd per candidate in
    # Python, a sort by length, and angles for the vectors the cut keeps
    vecs = [(dx, dy) for dy in range(n + 1) for dx in range(-n, n + 1)
            if (dy == 0 and dx == 1) or (dy > 0 and math.gcd(dx, dy) == 1)]
    vecs.sort(key=lambda v: v[0] * v[0] + v[1] * v[1])
    if budget is not None and budget < len(vecs):
        r2 = vecs[budget - 1][0] ** 2 + vecs[budget - 1][1] ** 2
        vecs = [v for v in vecs if v[0] * v[0] + v[1] * v[1] <= r2]
    theta = {v: Direction.along(*v).theta for v in vecs}
    vecs.sort(key=lambda v: (v[0] * v[0] + v[1] * v[1], theta[v]))
    return sorted(vecs[:budget], key=theta.__getitem__)


@pytest.mark.parametrize("n", [*range(1, 40), 64, 100])
def test_lattice_directions_equal_the_python_enumeration(n):
    # the same pairs in the same order, as Python ints, at every budget
    # shape: one vector, a cut inside a ring of equal lengths, and none
    for budget in (None, 1, 2, 5, 256, 1024, 10**6):
        got = _lattice_directions(n, budget)
        assert got == _lattice_directions_oracle(n, budget)
        assert all(type(x) is int for v in got for x in v)


def test_best_segment_witness_integral_matches_value():
    from needleboard.geom import integrate

    c = make_random(4, seed=2)
    seg, v = best_segment(c, angles=256)
    assert abs(integrate(c, seg)) == pytest.approx(v, abs=1e-9)


def test_values_monotone_in_angle_count():
    c = make_random(6, seed=11)
    prev = -1.0
    for angles in (64, 128, 256):
        _, v = best_segment(c, angles=angles)
        assert v >= prev - 1e-12
        prev = v


def test_negation_invariance():
    c = make_random(5, seed=4)
    neg = Coloring(5, -c.cells)
    for fn in (best_chord, best_segment):
        _, v = fn(c, angles=128)
        _, w = fn(neg, angles=128)
        assert v == pytest.approx(w, abs=1e-12)


def test_dihedral_equivariance():
    c = make_random(4, seed=8)
    grids = []
    for k in range(4):
        grids.append(np.rot90(c.cells, k))
        grids.append(np.rot90(c.cells.T, k))
    vals_c = [brute_force(Coloring(4, g)).best_chord[1] for g in grids]
    vals_s = [brute_force(Coloring(4, g)).best_segment[1] for g in grids]
    assert max(vals_c) - min(vals_c) <= 1e-9
    assert max(vals_s) - min(vals_s) <= 1e-9


def test_best_chord_beats_certificate():
    for n in (4, 8):
        for c in (make_parity(n), make_random(n, seed=1)):
            bound, _ = certified_lower_bound(c)
            _, v = best_chord(c, angles=256)
            assert v >= bound > 0.0


def test_report_shape_and_ratios():
    c = make_random(4, seed=6)
    rep = scan_report(c, angles=128)
    assert isinstance(rep, DiscrepancyReport)
    assert rep.n == 4
    assert rep.best_segment[1] >= rep.best_chord[1] >= 0.0
    assert rep.ratio_sqrt_n == pytest.approx(rep.best_segment[1] / 2.0, rel=1e-12)
    assert rep.ratio_sqrt_n_log_n == pytest.approx(
        rep.best_segment[1] / math.sqrt(4.0 * math.log(4.0)), rel=1e-12
    )
    assert not rep.strategy.oracle
    assert rep.strategy.angles == 128


def test_single_cell_report_has_no_log_ratio():
    rep = brute_force(make_constant(1, +1))
    assert rep.ratio_sqrt_n_log_n is None
    assert rep.best_chord[1] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_default_angles_rule():
    assert default_angles(4) == 128
    assert default_angles(200) == 200_000


def test_rejects_bad_parameters():
    c = make_parity(2)
    with pytest.raises(ValueError):
        best_chord(c, angles=0)
    with pytest.raises(ValueError):
        brute_force(make_random(17, seed=0))
