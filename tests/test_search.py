"""Search tests: both routes against each other, analytic anchors, symmetry
properties, and strategy monotonicity."""

import itertools
import math

import numpy as np
import pytest

from needleboard.board import (
    Coloring,
    make_constant,
    make_parity,
    make_random,
    make_stripes,
)
from needleboard.radon import (
    Direction,
    _walk_direction,
    max_chord_in_direction,
    max_segment_in_direction,
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
    _scan_direction,
)
from needleboard.spectral import certified_lower_bound


def test_vectorized_direction_scan_matches_scalar_path():
    # generic angles (and the axes as angles) run offset_scan through
    # max_*_in_direction; every lattice pair, axes included, runs
    # lattice_scan through _scan_direction
    rng = np.random.default_rng(3)
    for n, seed in ((2, 1), (4, 3), (6, 0), (8, 9)):
        c = make_random(n, seed)
        thetas = list(rng.uniform(0.01, math.pi - 0.01, 6)) + [0.0, math.pi / 2]
        for theta in thetas:
            d = Direction(float(theta))
            _, vc_fast = max_chord_in_direction(c, d)
            _, vs_fast = max_segment_in_direction(c, d)
            (_, vc_exact), (_, vs_exact) = _walk_direction(c, d)
            assert vc_fast == pytest.approx(vc_exact, abs=1e-12)
            assert vs_fast == pytest.approx(vs_exact, abs=1e-12)
        for v in _lattice_directions(n):
            (_, vc_fast), (_, vs_fast) = _scan_direction(c, v)
            (_, vc_exact), (_, vs_exact) = _walk_direction(c, Direction.along(*v))
            assert vc_fast == pytest.approx(vc_exact, abs=1e-12)
            assert vs_fast == pytest.approx(vs_exact, abs=1e-12)


def test_tie_heavy_boards_pick_the_same_witnesses_on_both_routes():
    # Boards whose chords and prefixes tie exactly: every direction's
    # lattice_scan winners (search route) equal the offset_scan winners of
    # max_*_in_direction, and scan_report reports one of them.
    for n in range(2, 13):
        tol = 1e-12 * n
        for c in (make_constant(n, +1), make_parity(n), make_stripes(n, "horizontal"),
                  make_stripes(n, "vertical")):
            dirs, results = _scan(c, None, 1)
            rep = scan_report(c)
            for v, ((t, vc), (seg, vs)) in zip(dirs, results):
                d = Direction.along(*v)
                t_ref, vc_ref = max_chord_in_direction(c, d)
                seg_ref, vs_ref = max_segment_in_direction(c, d)
                assert abs(t - t_ref) <= tol and abs(vc - vc_ref) <= tol
                assert abs(vs - vs_ref) <= tol
                assert max(abs(p - q) for p, q in zip(seg.a + seg.b, seg_ref.a + seg_ref.b)) <= tol
            ch, vc = rep.best_chord
            k = [Direction.along(*v) for v in dirs].index(ch.direction)
            assert (ch.t, vc) == results[k][0]
            assert rep.best_segment in [r[1] for r in results]


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

    monkeypatch.setattr(radon, "offset_scan", kernel)
    monkeypatch.setattr(radon, "lattice_scan", kernel)
    monkeypatch.setattr(search, "lattice_scan", kernel)
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


def test_threaded_scan_is_identical():
    c = make_random(6, seed=13)
    seg1, v1 = best_segment(c, angles=64, threads=1)
    seg4, v4 = best_segment(c, angles=64, threads=4)
    assert v1 == v4
    assert seg1 == seg4
    ch1, w1 = best_chord(c, angles=64, threads=1)
    ch4, w4 = best_chord(c, angles=64, threads=4)
    assert w1 == w4
    assert ch1 == ch4
