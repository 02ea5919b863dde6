"""Verification-layer tests: tail experiments against exact small-sum facts,
scaling scan shape, certificate floors, and snapping stability."""

import math
import re

import numpy as np
import pytest

from needleboard.board import make_random, make_stripes
from needleboard.geom import Segment, cell_crossings, integrate
from needleboard.search import best_chord
from needleboard.verify import (
    PerturbationReport,
    ScalingReport,
    TailExperiment,
    hoeffding_tail,
    lower_bound_scan,
    lower_scan_angles,
    perturbation_check,
    upper_bound_scan,
    _snap,
    _trial_signs,
)


def test_sigma_axis_segment_through_cell_centers():
    te = hoeffding_tail(Segment((0, 0.5), (4, 0.5)), 4, trials=16, seed=0, lambdas=(0.0,))
    assert te.sigma == pytest.approx(2.0, abs=1e-12)


def test_sigma_matches_exact_crossings():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.uniform(-1, 9, 2)
        b = rng.uniform(-1, 9, 2)
        seg = Segment(tuple(a), tuple(b))
        cr = cell_crossings(seg, 8)
        ss = sum(e.length**2 for e in cr)
        if ss == 0.0:
            continue
        te = hoeffding_tail(seg, 8, trials=4, seed=0, lambdas=(1.0,))
        assert te.sigma == pytest.approx(math.sqrt(ss), rel=1e-14)


def test_sigma_chain_bound():
    # sigma <= sqrt(2) sqrt(total length) <= sqrt(2) sqrt(sqrt(2) n):
    # each piece is at most sqrt(2) long and the total is at most sqrt(2) n
    rng = np.random.default_rng(9)
    n = 6
    for _ in range(30):
        seg = Segment(tuple(rng.uniform(0, n, 2)), tuple(rng.uniform(0, n, 2)))
        cr = cell_crossings(seg, n)
        total = sum(e.length for e in cr)
        if total == 0.0:
            continue
        te = hoeffding_tail(seg, n, trials=2, seed=1, lambdas=(1.0,))
        assert te.sigma <= math.sqrt(2.0 * total) + 1e-12
        assert te.sigma <= math.sqrt(2.0) * math.sqrt(math.sqrt(2.0) * n) + 1e-12


def test_trials_reproduce_per_seed_colorings():
    # row t of the sign matrix must equal the coloring make_random builds
    # for seed seed+1+t, restricted to the crossed cells
    seg = Segment((0.3, 0.2), (7.4, 6.9))
    cr = cell_crossings(seg, 8)
    lengths = np.array([e.length for e in cr])
    i = np.array([e.i for e in cr])
    j = np.array([e.j for e in cr])
    signs = _trial_signs(42, 4, i, j)
    for t in range(4):
        c = make_random(8, 42 + 1 + t)
        assert float(signs[t] @ lengths) == pytest.approx(integrate(c, seg), abs=1e-12)


def test_tail_frequencies_nonincreasing_and_bounded():
    te = hoeffding_tail(Segment((0, 0), (8, 8)), 8, trials=2000, seed=0,
                        lambdas=(0.0, 0.5, 1.0, 2.0))
    assert all(b <= a for a, b in zip(te.frequencies, te.frequencies[1:]))
    assert 0.0 < te.frequencies[0] < 1.0


def test_tail_hoeffding_envelope_holds():
    te = hoeffding_tail(Segment((0, 0), (16, 16)), 16, trials=20000, seed=0,
                        lambdas=(1.0, 2.0, 3.0))
    for k, lam in enumerate(te.lambdas):
        assert te.frequencies[k] <= te.envelope(lam) + te.allowance(k)


def test_tail_rejects_degenerate_input():
    with pytest.raises(ValueError, match="sigma"):
        hoeffding_tail(Segment((-5, -5), (-4, -5)), 2, trials=10, seed=0, lambdas=(1.0,))
    with pytest.raises(ValueError, match="trials"):
        hoeffding_tail(Segment((0, 0), (2, 2)), 2, trials=0, seed=0, lambdas=(1.0,))


def test_upper_bound_scan_deterministic_and_shaped():
    r1 = upper_bound_scan((4, 8), trials=2, seed=5)
    r2 = upper_bound_scan((4, 8), trials=2, seed=5)
    assert r1 == r2
    assert isinstance(r1, ScalingReport)
    assert r1.exponent is not None
    assert len(r1.values) == 2 and all(len(row) == 2 for row in r1.values)
    assert all(c > 0 for c in r1.constants)
    assert all(v > 0 for row in r1.values for v in row)


def test_upper_bound_scan_exponent_fits_envelope():
    rep = upper_bound_scan((4, 8, 16), trials=3, seed=2)
    xs = [math.log(n) for n in rep.n_values]
    ys = [math.log(max(row)) for row in rep.values]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    assert rep.exponent == pytest.approx(slope, rel=1e-12)


def test_upper_bound_scan_rejects_bad_parameters():
    with pytest.raises(ValueError, match="n=1"):
        upper_bound_scan((1, 2), trials=1)
    with pytest.raises(ValueError, match="trials"):
        upper_bound_scan((4,), trials=0)


def test_upper_bound_scan_single_n_has_no_exponent():
    rep = upper_bound_scan((8,), trials=1, seed=0)
    assert rep.exponent is None
    assert len(rep.constants) == 1


def test_lower_bound_scan_rows_and_floor():
    rows = lower_bound_scan(("constant", "parity", "random:3"), (4, 8))
    assert len(rows) == 6
    for row in rows:
        assert row.best_chord_value >= row.certificate > 0.0
        assert row.ratio_sqrt_n == pytest.approx(
            row.best_chord_value / math.sqrt(row.n), rel=1e-12
        )
    const4 = next(r for r in rows if r.fixture == "constant" and r.n == 4)
    assert const4.best_chord_value == pytest.approx(4 * math.sqrt(2.0), abs=1e-9)


def test_lower_bound_scan_rejects_unknown_fixture():
    with pytest.raises(ValueError, match="bogus"):
        lower_bound_scan(("bogus",), (4,))


def test_lower_bound_scan_rejects_bad_seed_before_scanning():
    # the bad descriptor comes last, at a size that would take minutes to scan
    with pytest.raises(ValueError, match="random:x"):
        lower_bound_scan(("parity", "random:x"), (256,))


@pytest.mark.parametrize("descriptor, message", [
    ("random", "unknown fixture descriptor 'random'"),
    ("parity:3", "unknown fixture descriptor 'parity:3'"),
    ("Parity", "unknown fixture descriptor 'Parity'"),
    ("random:", "fixture 'random:': seed '' is not an integer"),
    ("random:1:2", "fixture 'random:1:2': seed '1:2' is not an integer"),
], ids=["random", "parity:3", "Parity", "random:", "random:1:2"])
def test_lower_bound_scan_rejects_each_bad_descriptor_before_scanning(descriptor, message):
    # as above: scanning the parity board first would take minutes
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lower_bound_scan(("parity", descriptor), (256,))


def test_lower_bound_scan_fixtures_are_their_generators():
    rows = lower_bound_scan(("random:-5", "stripes"), (3,))
    assert [row.fixture for row in rows] == ["random:-5", "stripes"]
    for row, c in zip(rows, (make_random(3, -5), make_stripes(3, "horizontal"))):
        assert row.best_chord_value == best_chord(c, angles=lower_scan_angles(3))[1]


def test_snap_is_identity_on_grid_points():
    scale = float(8**10)
    for x in (0.0, 1.0, 3.25, 7.0 + 1234.0 / scale):
        assert _snap(x, scale) == x
    assert _snap(0.3, scale) != 0.3  # 0.3 is not representable on the grid
    assert abs(_snap(0.3, scale) - 0.3) <= 0.5 / scale


def test_perturbation_check_deviation_well_below_one():
    rep = perturbation_check(4, 100, seed=1)
    assert isinstance(rep, PerturbationReport)
    assert rep.max_deviation <= 1.0
    assert rep.max_deviation < 1e-3  # snapping moves endpoints by ~4^-10
    assert rep.max_deviation == max(rep.generic_max, rep.strip_max, rep.split_max)


def test_perturbation_check_deterministic():
    assert perturbation_check(4, 20, seed=9) == perturbation_check(4, 20, seed=9)


def test_perturbation_check_rejects_bad_parameters():
    with pytest.raises(ValueError, match="n <= 8"):
        perturbation_check(9, 10, seed=0)
    with pytest.raises(ValueError, match="n=1"):
        perturbation_check(1, 10, seed=0)
    with pytest.raises(ValueError, match="trials"):
        perturbation_check(4, 0, seed=0)
    with pytest.raises(ValueError, match="seed=-1"):
        perturbation_check(4, 10, seed=-1)
