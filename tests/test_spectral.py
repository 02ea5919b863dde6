"""Frequency-side tests: closed forms against quadrature oracles, the slice
identity, energy accounting, and the certificate."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
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
    interval_profile,
    line_energy,
    phi,
    slice_residual,
    tail_energy,
    _disk_energy_grid,
    _f_hat_points,
    _phase_table,
    _row_kernel,
)
from needleboard import spectral

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
            assert slice_residual(c, interval_profile(c, Direction(theta)), grid) <= 1e-9


def test_slice_residual_empty_grid():
    c = make_parity(2)
    assert slice_residual(c, interval_profile(c, Direction(0.5)), []) == 0.0


def test_slice_residual_rejects_a_nonfinite_frequency():
    c = make_random(3, 1)
    profile = interval_profile(c, Direction(0.7))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"frequency {bad} is not finite"):
            slice_residual(c, profile, [0.25, bad, 1.0])


def _reference_transform(a, b, va, vb, xis):
    # One pass over the whole (frequency x interval) grid, every xi
    # evaluated on its own: the transform before the conjugate fold and
    # the blocking.
    mid = ((a + b) / 2)[None, :]
    h = ((b - a) / 2)[None, :]
    vbar = ((va + vb) / 2)[None, :]
    slope = ((vb - va) / (b - a))[None, :]
    om = 2.0 * math.pi * xis[:, None]
    x = om * h
    even = vbar * 2.0 * h * np.sinc(2.0 * xis[:, None] * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (np.sin(x) - x * np.cos(x)) / (om * om)
    series = om * h**3 * (1.0 / 3.0 - x * x / 30.0 + x**4 / 840.0)
    odd = -2j * np.where(np.abs(x) < 1e-3, series, exact)
    return np.sum(np.exp(-1j * om * mid) * (even + slope * odd), axis=1)


@st.composite
def transform_cases(draw):
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        c = Coloring(n, rng.normal(size=(n, n)))
    else:
        c = Coloring(n, rng.choice([-1.0, 1.0], size=(n, n)))
    theta = draw(st.sampled_from([0.0, math.pi / 2]) | st.floats(0.01, 3.13))
    step = draw(st.sampled_from([0.25, 0.1, 1.0 / 3.0, 0.7]))
    k = draw(st.integers(1, 40))
    half = step * np.arange(1, k + 1)
    shape = draw(st.sampled_from(["symmetric", "positive", "negative", "repeated"]))
    if shape == "symmetric":
        grid = np.concatenate([-half[::-1], [0.0], half])
    elif shape == "positive":
        grid = half
    elif shape == "negative":
        grid = -half
    else:
        grid = np.concatenate([half, -half, half[::2], [0.0, -0.0, 0.0]])
        rng.shuffle(grid)
    block = draw(st.integers(1, 4 * n * (n + 2)))
    return c, Direction(theta), grid, block


@given(transform_cases())
def test_folded_blocked_transform_equals_one_pass(case):
    # The fold to distinct |xi| and the row blocks change no bit of the
    # transform: the slice residual of every report depends on it.
    c, d, grid, block = case
    p = interval_profile(c, d)
    saved = spectral._BLOCK
    spectral._BLOCK = block
    try:
        got = spectral._profile_transform(p, grid)
    finally:
        spectral._BLOCK = saved
    want = _reference_transform(p.a, p.b, p.va, p.vb, grid)
    assert np.array_equal(got, want)


def test_line_energy_unit_square_analytic():
    c = make_constant(1, +1)
    # axis profile is the indicator of [0,1]; diagonal profile is a tent of
    # height sqrt(2) over [0, sqrt(2)] whose squared integral is 2 sqrt(2)/3
    def energy(theta):
        return line_energy(interval_profile(c, Direction(theta)))

    assert energy(0.0) == pytest.approx(1.0, abs=1e-12)
    assert energy(math.pi / 2) == pytest.approx(1.0, abs=1e-12)
    assert energy(math.pi / 4) == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)


def test_line_energy_axis_steps_use_interior_values():
    # stripes along rows: chords at theta = pi/2 run horizontally, picking up
    # a constant +-n on each unit offset interval, so the squared profile
    # integrates to n^2 * n; the perpendicular direction cancels to zero
    n = 4
    c = make_stripes(n, "horizontal")
    vertical = interval_profile(c, Direction(math.pi / 2))
    assert line_energy(vertical) == pytest.approx(n**3, abs=1e-12)
    assert line_energy(interval_profile(c, Direction(0.0))) == pytest.approx(0.0, abs=1e-12)


def test_line_energy_agrees_with_frequency_quadrature():
    # 1-D Parseval: integral of |f_hat(t u)|^2 over the line equals the
    # squared profile integral.  Truncating at |t| <= 64 with step 1/(16 n)
    # reproduced line_energy to 0.24% worst case in a frozen sweep; assert 1%.
    for n, seed in ((2, 0), (4, 3), (8, 5)):
        c = make_random(n, seed)
        for theta in (0.0, math.pi / 2, 0.3, 1.2):
            d = Direction(theta)
            le = line_energy(interval_profile(c, d))
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


def test_tail_energy_rejects_radius_past_the_grid_cap():
    # 8 A n above 2^15 samples per axis would undersample the integrand,
    # and at 1e308 it overflows to inf; the message names the largest
    # radius the board allows, 2^15 / (8 n).
    for c, a, largest in ((make_parity(4), 1e308, "1024.0"), (make_random(1, 1), 1e6, "4096.0")):
        with pytest.raises(ValueError, match=rf"radius {re.escape(str(a))}.* at most {largest}"):
            tail_energy(c, a)
    assert tail_energy(make_random(1, 1), 4096.0).grid == 1 << 15


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


def _tensor_grid_energy(c, a_radius, grid):
    # Reference oracle for _disk_energy_grid: the midpoint tensor-grid sum
    # it replaced.  It forms phi at every sample of the lower-half rows and
    # masks the open disk with the float predicate xi1^2 + xi2^2 < A^2.
    h = 2.0 * a_radius / grid
    xi = -a_radius + (np.arange(grid) + 0.5) * h
    s2 = np.sinc(xi) ** 2
    ee = np.exp(-2j * math.pi * np.outer(np.arange(c.n), xi))
    m = c.cells @ ee
    r2 = a_radius * a_radius
    block = max(1, (1 << 20) // grid)
    half = grid // 2
    total = 0.0
    for lo in range(0, half, block):
        hi = min(half, lo + block)
        ph = ee[:, lo:hi].T @ m
        w = (ph.real**2 + ph.imag**2) * s2[None, :] * s2[lo:hi, None]
        inside = (xi[lo:hi, None] ** 2 + xi[None, :] ** 2) < r2
        total += float(np.sum(w, where=inside))
    return 2.0 * total * h * h


@st.composite
def quadrature_cases(draw):
    n = draw(st.integers(1, 12))
    cell = draw(st.sampled_from([
        st.sampled_from([-1.0, 1.0]),
        st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
    ]))
    values = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n)))
    if not np.any(values**2 > 0.0):
        values[0] = 1.0
    a = draw(st.one_of(
        st.sampled_from([0.5, 1.0, 2.0, 5.5, 16.0, 32.0]),
        st.floats(0.3, 40.0),
    ))
    grid = draw(st.sampled_from([32, 64, 128, 256, 512, 1024, 2048, 4096]))
    return Coloring(n, values.reshape(n, n)), a, grid


@settings(max_examples=60)
@given(quadrature_cases())
def test_lag_domain_quadrature_matches_the_tensor_grid(case):
    c, a, grid = case
    got = _disk_energy_grid(c, a, grid)
    assert abs(got - _tensor_grid_energy(c, a, grid)) <= 1e-12 * sum_squares(c)


def test_lag_domain_quadrature_at_the_benchmark_grid():
    # G = 8192, the grid of the benchmark's n = 64 boards, on a board small
    # enough for the tensor-grid oracle.
    c = make_random(4, 3)
    got = _disk_energy_grid(c, 16.0, 8192)
    assert abs(got - _tensor_grid_energy(c, 16.0, 8192)) <= 1e-12 * sum_squares(c)


@given(
    st.integers(1, 64),
    st.floats(0.3, 40.0),
    st.sampled_from([32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]),
)
def test_split_phase_table_matches_the_direct_exponential(n, a, grid):
    h = 2.0 * a / grid
    xi = (np.arange(grid // 2) + 0.5) * h
    got = _phase_table(n, xi, h)
    want = np.exp(2j * math.pi * np.outer(np.arange(n), xi))
    eps = np.finfo(np.float64).eps
    assert got.shape == (n, grid // 2)
    assert np.max(np.abs(got - want)) <= 8.0 * 2.0 * math.pi * max(n - 1, 1) * a * eps


def _row_kernel_per_row(w, b):
    # _row_kernel as a plain loop over the rows: row k1's running sum, the
    # sum of its first b_k1 samples, is formed on its own, the rows' sums
    # are concatenated, and each row adds w[:, k1] times its sum.
    sums = np.concatenate([w[:, :count].sum(axis=1, keepdims=True) for count in b], axis=1)
    out = np.zeros((w.shape[0], w.shape[0]))
    for k1 in range(b.size):
        out += np.outer(w[:, k1], sums[:, k1])
    return out


@pytest.mark.parametrize("n, grid", [(1, 32), (3, 64), (7, 256), (16, 512), (33, 4096)])
def test_row_kernel_equals_the_concatenated_running_sums(n, grid):
    b = spectral._disk_rows(grid)
    w = np.random.default_rng(n).standard_normal((n, grid // 2))
    # Both sum the same products in other orders: each of the two sums of at
    # most G/2 terms rounds by at most G/2 eps times its sum of magnitudes.
    scale = np.abs(w).sum(axis=1)
    tol = 2 * w.shape[1] * np.finfo(np.float64).eps * np.outer(scale, scale)
    got, want = _row_kernel(w, b), _row_kernel_per_row(w, b)
    assert got.shape == (n, n)
    assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("grid", [1 << k for k in range(5, 16)])
def test_disk_rows_equal_the_float_predicate(grid):
    # The integer rows against xi1^2 + xi2^2 < A^2 evaluated as written on
    # the half-axis samples, at radii log-spread over 1e-150..1e150 and the
    # CLI's radii.  Up to G = 2^11 the whole quadrant is compared; above,
    # each row's boundary samples b - 1 (inside) and b (outside), which
    # settle the row since xi2^2 grows along the half axis.
    b = spectral._disk_rows(grid)
    half = grid // 2
    assert b.shape == (half,)
    # No sample is within 2 of the circle in units of h/2: o1^2 + o2^2 is
    # 2 mod 8 and G^2 is 0 mod 8.  Along a row |o1^2 + o2^2 - G^2| is least
    # at one of the boundary samples, so checking them covers the row.
    o = np.arange(1, grid, 2)
    for k2 in (b - 1, b):
        ok = (k2 >= 0) & (k2 < half)
        gap = o[ok] ** 2 + o[k2[ok]] ** 2 - grid * grid
        assert np.all(np.abs(gap) >= 2)
    rows = np.arange(half)
    for a in [*np.logspace(-150, 150, 61), 3.3, 4.0, 16.0]:
        h = 2.0 * a / grid
        xi = (np.arange(half) + 0.5) * h
        r2 = a * a
        if grid <= 1 << 11:
            inside = xi[:, None] ** 2 + xi[None, :] ** 2 < r2
            assert np.array_equal(inside, rows[None, :] < b[:, None]), a
        else:
            last = b > 0
            assert np.all(xi[rows[last]] ** 2 + xi[b[last] - 1] ** 2 < r2), a
            first = b < half
            assert not np.any(xi[rows[first]] ** 2 + xi[b[first]] ** 2 < r2), a


def _criterion_7_fixtures(n):
    yield make_constant(n, +1)
    yield make_parity(n)
    yield make_stripes(n, "horizontal")
    for seed in range(5):
        yield make_random(n, seed)


@pytest.mark.parametrize("boards, a, grid", [
    # the benchmark's spectrum workload: A = 16 on n = 32 and n = 64
    ([make_random(32, 1)], 16.0, 4096),
    ([make_random(64, 1)], 16.0, 8192),
    # the CLI default radius
    ([make_random(16, 0), make_parity(16)], 8.0, 1024),
    # criterion 7: n in (4, 8, 16), A in (4, 8, 16)
    *[(list(_criterion_7_fixtures(n)), a, grid) for n, a, grid in (
        (4, 4.0, 128), (4, 8.0, 256), (4, 16.0, 512),
        (8, 4.0, 256), (8, 8.0, 512), (8, 16.0, 1024),
        (16, 4.0, 512), (16, 8.0, 1024), (16, 16.0, 2048),
    )],
    # the one-cell board far out
    ([make_constant(1, +1)], 200.0, 2048),
])
def test_tail_energy_grid_sizes_are_pinned(boards, a, grid):
    for c in boards:
        rep = tail_energy(c, a)
        assert rep.grid == grid
        assert abs(rep.disk_energy + rep.tail - rep.total) <= 1e-15 * rep.total
