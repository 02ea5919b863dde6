"""Frequency-side tests: closed forms against quadrature oracles, the slice
identity, energy accounting, and the certificate."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv

from needleboard.board import (
    Coloring,
    make_constant,
    make_parity,
    make_random,
    make_stripes,
    sum_squares,
)
from needleboard.radon import Direction
from needleboard.search import brute_force
from needleboard.spectral import (
    EnergyReport,
    certified_lower_bound,
    chi_q_hat,
    f_hat,
    line_energy,
    phi,
    slice_residual,
    tail_energy,
    _f_hat_points,
)

# Frozen from a one-time sweep of A * tail / total over the fixture suite
# (constant/parity/stripes/random at n in {4, 8, 16, 32}, A in {4, ..., 64}):
# measured max 0.3989 (parity boards), flat in A.
DECAY_RATIO_BOUND = 0.45


def _quad_unit_square(xi1, xi2, g=512):
    t = (np.arange(g) + 0.5) / g
    ph = np.exp(-2j * math.pi * xi1 * t)[:, None] * np.exp(-2j * math.pi * xi2 * t)[None, :]
    return complex(ph.sum() / g**2)


def test_chi_q_hat_known_values():
    assert chi_q_hat((0.0, 0.0)) == pytest.approx(1.0 + 0.0j)
    # integral of e^(-2 pi i x/2) over [0,1] is -2i/pi in the first factor
    assert chi_q_hat((0.5, 0.0)) == pytest.approx(-2j / math.pi, abs=1e-15)
    assert chi_q_hat((1.0, 0.0)) == pytest.approx(0.0 + 0.0j, abs=1e-15)
    assert chi_q_hat((0.5, 0.5)) == pytest.approx(-4.0 / math.pi**2, abs=1e-15)


def test_chi_q_hat_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x1, x2 = rng.uniform(-3, 3, 2)
        assert chi_q_hat((-x1, -x2)) == pytest.approx(
            chi_q_hat((x1, x2)).conjugate(), abs=1e-14
        )


def test_chi_q_hat_matches_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(6):
        x1, x2 = rng.uniform(-2, 2, 2)
        assert chi_q_hat((x1, x2)) == pytest.approx(_quad_unit_square(x1, x2), abs=5e-5)


def test_phi_matches_direct_sum():
    c = make_random(4, seed=9)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x1, x2 = rng.uniform(-2, 2, 2)
        direct = 0.0 + 0.0j
        for i in range(4):
            for j in range(4):
                direct += c.cells[i, j] * complex(
                    math.cos(-2 * math.pi * (i * x1 + j * x2)),
                    math.sin(-2 * math.pi * (i * x1 + j * x2)),
                )
        assert phi(c, (x1, x2)) == pytest.approx(direct, abs=1e-12)


def test_phi_is_periodic_on_the_integer_lattice():
    c = make_random(5, seed=12)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x1, x2 = rng.uniform(-2, 2, 2)
        base = phi(c, (x1, x2))
        assert phi(c, (x1 + 1.0, x2)) == pytest.approx(base, abs=1e-11)
        assert phi(c, (x1, x2 - 3.0)) == pytest.approx(base, abs=1e-11)


def test_phi_parseval_on_period_grid():
    # Mean of |phi|^2 over an M x M uniform grid on the unit period cell is
    # exactly the squared mass once M exceeds every difference frequency.
    for n, seed in ((3, 1), (6, 4)):
        c = make_random(n, seed)
        m = 2 * n + 1
        g = np.arange(m) / m
        ph = np.array([phi(c, (x1, x2)) for x1 in g for x2 in g])
        mean = float(np.mean(np.abs(ph) ** 2))
        assert mean == pytest.approx(sum_squares(c), rel=1e-12)


def test_f_hat_points_matches_scalar_path():
    c = make_random(6, seed=3)
    rng = np.random.default_rng(8)
    x1s = rng.uniform(-8, 8, 40)
    x2s = rng.uniform(-8, 8, 40)
    fast = _f_hat_points(c, x1s, x2s)
    for k in range(40):
        assert abs(fast[k] - f_hat(c, (x1s[k], x2s[k]))) <= 1e-10


def test_f_hat_matches_quadrature_on_small_board():
    c = make_random(3, seed=5)
    g = 900
    t = (np.arange(g) + 0.5) * (3.0 / g)
    cell = np.minimum(t.astype(int), 2)
    vals = c.cells[np.ix_(cell, cell)]
    for xi in ((0.37, -1.21), (0.05, 0.4)):
        ph = np.exp(-2j * math.pi * (xi[0] * t[:, None] + xi[1] * t[None, :]))
        num = complex((vals * ph).sum() * (3.0 / g) ** 2)
        assert f_hat(c, xi) == pytest.approx(num, abs=5e-5)


def test_slice_residual_is_tiny_for_generic_and_axis_directions():
    grid = np.arange(-8.0, 8.0 + 0.125, 0.25)
    for n, seed in ((2, 0), (4, 6), (5, 2)):
        c = make_random(n, seed)
        for theta in (0.0, math.pi / 2, 0.3, 0.9, 1.4):
            assert slice_residual(c, Direction(theta), grid) <= 1e-9


def test_slice_residual_empty_grid():
    assert slice_residual(make_parity(2), Direction(0.5), []) == 0.0


def test_line_energy_unit_square_analytic():
    c = make_constant(1, +1)
    # axis profile is the indicator of [0,1]; diagonal profile is a tent of
    # height sqrt(2) over [0, sqrt(2)] whose squared integral is 2 sqrt(2)/3
    assert line_energy(c, Direction(0.0)) == pytest.approx(1.0, abs=1e-12)
    assert line_energy(c, Direction(math.pi / 2)) == pytest.approx(1.0, abs=1e-12)
    assert line_energy(c, Direction(math.pi / 4)) == pytest.approx(
        2.0 * math.sqrt(2.0) / 3.0, abs=1e-12
    )


def test_line_energy_axis_steps_use_interior_values():
    # stripes along rows: chords at theta = pi/2 run horizontally, picking up
    # a constant +-n on each unit offset interval, so the squared profile
    # integrates to n^2 * n; the perpendicular direction cancels to zero
    n = 4
    c = make_stripes(n, "horizontal")
    assert line_energy(c, Direction(math.pi / 2)) == pytest.approx(n**3, abs=1e-12)
    assert line_energy(c, Direction(0.0)) == pytest.approx(0.0, abs=1e-12)


def test_line_energy_agrees_with_frequency_quadrature():
    # 1-D Parseval: integral of |f_hat(t u)|^2 over the line equals the
    # squared profile integral.  Truncating at |t| <= 64 with step 1/(16 n)
    # reproduced line_energy to 0.24% worst case in a frozen sweep; assert 1%.
    for n, seed in ((2, 0), (4, 3), (8, 5)):
        c = make_random(n, seed)
        for theta in (0.0, math.pi / 2, 0.3, 1.2):
            d = Direction(theta)
            le = line_energy(c, d)
            step = 1.0 / (16 * n)
            m = int(round(128.0 / step))
            ts = -64.0 + (np.arange(m) + 0.5) * step
            ux, uy = d.u
            quad = float(np.sum(np.abs(_f_hat_points(c, ts * ux, ts * uy)) ** 2) * step)
            assert quad == pytest.approx(le, rel=1e-2)


def test_tail_energy_one_cell_matches_asymptote():
    # Outside radius A the unit-square energy behaves like 2/(pi^2 A); at
    # A = 200 that is 1.01e-3, so the computed tail must land inside a
    # bracket around it.
    rep = tail_energy(make_constant(1, +1), 200.0)
    assert rep.total == 1.0
    assert 5e-4 <= rep.tail <= 2e-3
    assert rep.disk_energy + rep.tail == pytest.approx(rep.total, abs=1e-15)


def test_tail_energy_disk_monotone_in_radius():
    c = make_parity(4)
    disks = [tail_energy(c, a).disk_energy for a in (1.0, 2.0, 4.0, 8.0)]
    for lo, hi in zip(disks, disks[1:]):
        assert hi >= lo - 1e-9
    assert all(0.0 < d < sum_squares(c) for d in disks)


def test_tail_energy_decay_ratio_bound():
    for n in (4, 8):
        suite = [
            make_constant(n, +1),
            make_parity(n),
            make_stripes(n, "vertical"),
            make_random(n, seed=0),
        ]
        for c in suite:
            for a in (4.0, 16.0):
                rep = tail_energy(c, a)
                assert rep.ratio is not None
                assert 0.0 <= rep.ratio <= DECAY_RATIO_BOUND


def test_tail_energy_rejects_nonpositive_radius():
    c = make_parity(2)
    with pytest.raises(ValueError):
        tail_energy(c, 0.0)
    with pytest.raises(ValueError):
        tail_energy(c, -3.0)


def test_tail_energy_rejects_nonfinite_radius():
    c = make_parity(2)
    for a in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="radius"):
            tail_energy(c, a)


def test_tail_energy_zero_board():
    z = Coloring(2, np.zeros((2, 2)))
    rep = tail_energy(z, 4.0)
    assert rep == EnergyReport(0.0, 4.0, 0.0, 0.0, None, 0)


def test_certified_lower_bound_fixtures():
    for n in (2, 4, 8, 16):
        for c in (make_constant(n, +1), make_parity(n), make_random(n, seed=1)):
            bound, a_used = certified_lower_bound(c)
            assert 0.0 < bound <= math.sqrt(2.0) * n
            assert a_used == 1.0
            # independent numeric oracle for the half-energy condition
            assert tail_energy(c, a_used).tail <= 0.5 * sum_squares(c) + 1e-9


def test_certified_lower_bound_formula():
    c = make_parity(8)
    bound, a_used = certified_lower_bound(c)
    expect = math.sqrt(sum_squares(c) / (2.0 * math.pi * a_used * math.sqrt(2.0) * 8))
    assert bound == pytest.approx(expect, rel=1e-15)


def test_certified_lower_bound_rejects_zero_board():
    z = Coloring(2, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        certified_lower_bound(z)


def _m_in_lower_bound(b1: int, b2: int, boxes: int):
    # Rigorous lower bound of m_in on the box [b1, b1+1] x [b2, b2+1] / boxes.
    # Shifted by k in {-1, 0}, each coordinate interval lies in [0, 1] or in
    # [-1, 0], where sinc^2 falls with |x|: its minimum is at the endpoint
    # farthest from 0.  A term counts only when that farthest corner lies
    # strictly inside the unit disk, so the whole box does; the other terms
    # are >= 0 and are dropped.
    def sinc2(x):
        px = iv.pi * x
        return (iv.sin(px) / px) ** 2

    total = iv.mpf(0)
    for k1 in (-1, 0):
        far1 = iv.mpf(b1 + 1) / boxes if k1 == 0 else iv.mpf(b1) / boxes - 1
        for k2 in (-1, 0):
            far2 = iv.mpf(b2 + 1) / boxes if k2 == 0 else iv.mpf(b2) / boxes - 1
            if (far1 * far1 + far2 * far2).b < 1:
                total += sinc2(far1) * sinc2(far2)
    return total.a


def test_unit_disk_holds_half_the_energy_of_every_board():
    # The proof behind certified_lower_bound's radius 1.0 (spectral module
    # docstring): inf m_in > 1/2 on [0, 1]^2, in interval arithmetic over
    # 32 x 32 boxes (16 x 16 boxes give only 0.5088).  At the worst point,
    # eta = (1/2, 1/2), all four shifts weigh sinc(1/2)^4 = (4/pi^2)^2, so
    # the proved bound must stay below 64/pi^4.
    boxes = 32
    lows = [_m_in_lower_bound(b1, b2, boxes) for b1 in range(boxes) for b2 in range(boxes)]
    assert all(low > 0.5 for low in lows)
    assert 0.5788 < min(lows) < 64.0 / math.pi**4


@st.composite
def real_boards(draw):
    n = draw(st.integers(1, 6))
    cell = draw(st.sampled_from([
        st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
        st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False),
    ]))
    values = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n)))
    if not np.any(values**2 > 0.0):
        values[0] = 1.0
    return Coloring(n, values.reshape(n, n))


@given(real_boards())
def test_certificate_is_sound_on_real_boards(c):
    bound, a_used = certified_lower_bound(c)
    assert a_used == 1.0
    assert 0.0 < bound <= brute_force(c).best_chord[1]
