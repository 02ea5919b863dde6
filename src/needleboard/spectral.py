"""Frequency-side analysis and the certified lower bound for chord discrepancy.

The board function is a sum of unit-cell indicators weighted by z_ij, so its
transform factors into the unit-square transform times a Z^2-periodic
trigonometric polynomial in the cell weights.  Convention here:
F(xi) = integral f(x) e^(-2 pi i xi.x) dx.  Under it the unit-square factor
is e^(-i pi (xi1+xi2)) sinc(xi1) sinc(xi2) and the weight polynomial uses
e^(-2 pi i p.xi) terms; both signs matter, since the projection-slice check
compares complex values, not magnitudes.

Energy bookkeeping (Parseval): the squared mass of the board equals the
integral of |F|^2, so the energy outside a frequency disk is total minus the
disk integral.  Once a disk captures half the energy, a polar-coordinates
estimate turns that into a positive lower bound on the best chord integral.

The unit disk always captures half, whatever the real weights.  Fold the
plane onto the period cell: since phi is Z^2-periodic,
integral over |xi| < 1 of |F|^2 = integral over [0, 1)^2 of |phi(eta)|^2 m_in(eta),
where m_in(eta) is the sum of sinc^2(eta1 + k1) sinc^2(eta2 + k2) over the
k in {-1, 0}^2 with |eta + k| < 1 (no other shift reaches the disk).  Summed
over all k the same weights give 1, because the sum of sinc^2(x + k) over
the integers is 1 on each axis; so the cell integral of |phi|^2 is the total
and the tail is at most (1 - inf m_in) * total, with no truncation.
tests/test_spectral.py proves inf m_in > 0.5788 in interval arithmetic; on a
fine grid the infimum is 4 (4/pi^2)^2 = 64/pi^4 ~ 0.6570, at eta = (1/2, 1/2).

The quadrature in tail_energy sums a midpoint grid of spacing h = 2A/G over
the open disk.  Its samples are built on the positive half axis only,
xi_k = (k + 1/2) h for k < G/2, and the full axis is -xi[::-1], xi, an
exact mirror by construction.  |F|^2 = sinc^2(xi1) sinc^2(xi2) |phi|^2, and
by Wiener-Khinchin |phi(xi)|^2 = sum_d R(d) cos(2 pi d.xi), where
R(d) = sum_q z_(q+d) z_q is the board's autocorrelation on |d1|, |d2| < n
(one zero-padded FFT).  The integrand and the disk are even in each axis,
so the disk sum is 4 times the sum over one quadrant, where the four mirror
images of a sample turn cos(2 pi d.xi) into 4 cos(2 pi d1 xi1)
cos(2 pi d2 xi2); folding R(-d) = R(d) onto d1, d2 >= 0 leaves one
lag-by-lag kernel.  Each quadrant row keeps the first samples of the half
axis, up to the circle, so that row's sums of sinc^2 cos(2 pi d2 xi2) come
from one running sum along the half axis; one (n x G/2)(G/2 x n) product
then sums the rows.  The rows are counted in integers: in units of h/2
the samples are the odd integers below G and the circle is G, whatever A,
and no sample lies within 2/G^2 (relative) of the circle, so the float
predicate xi1^2 + xi2^2 < A^2 gives the same rows (_disk_rows) wherever
the squares are not subnormal.  A grid costs O(n^2 log n + G n^2), against
O(G^2 n) for forming phi at every sample, and no G x G array is built.

The cosine table is the real part of one phase table e^(2 pi i d xi_k),
d < n, on the half axis, built by split angle addition: with k = B q + r
and B = gcd(G/2, 64), it is a coarse table at the samples xi_(Bq) times a
fine one at the offsets r h.  n (G/(2B) + B) exponentials and n G/2 complex
products replace n G/2 cosines; a direct np.cos table was slower (4.9 ms
against 1.0 ms at n = 64, G = 8192, on a 2-core x86 host).  The table
stays within 2 * 2 pi max(n-1, 1) A eps of a direct np.exp (1.97 the
largest factor seen over 300 random draws of n <= 128, A in [0.3, 40] and
G from 32 to 2^15), the order of the rounding already in 2 pi d xi_k.
Against direct tables, disk energies move only in their last digits: at
most 2.6e-15 of the total on random and parity boards up to n = 64.

The slice check works from one projection per direction: interval_profile
runs project once, and line_energy and slice_residual both read the
IntervalProfile it returns.  slice_residual transforms that profile in
closed form, interval by interval.  The profile is real, so the transform at
-xi is the conjugate of the one at xi; each distinct |xi| is evaluated once,
in blocks of at most 2^13 frequency x interval elements.  A block's ten or
so complex temporaries (128 KB each) then stay in a core's L2 cache; on a
2-core x86 host with 2 MB of L2 per core, 2^13 took half the time of 2^15
at n = 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .board import Coloring, sum_squares
from .geom import integrate  # noqa: F401  (kept as a module attribute; perfbench/spans.py hooks it)
from .radon import Direction, project

_REL_TOL = 1e-4  # quadrature: relative stability target under grid doubling
_GRID_CAP = 1 << 15  # quadrature: max midpoint samples per axis
_BLOCK = 1 << 13  # slice transform: max frequency x interval elements per block
_PHASE_STEP = 64  # quadrature: fine-table length of the split phase table


def chi_q_hat(xi) -> complex:
    """Transform of the unit-square indicator at xi = (xi1, xi2)."""
    x1, x2 = xi
    return complex(np.exp(-1j * math.pi * (x1 + x2)) * np.sinc(x1) * np.sinc(x2))


def phi(c: Coloring, xi) -> complex:
    """Cell-weight polynomial sum of z_p e^(-2 pi i p.xi); Z^2-periodic.

    Direct summation of the n^2 terms (numpy pairwise reduction).
    """
    x1, x2 = xi
    k = np.arange(c.n)
    e1 = np.exp(-2j * math.pi * x1 * k)
    e2 = np.exp(-2j * math.pi * x2 * k)
    return complex(np.sum(c.cells * e1[:, None] * e2[None, :]))


def f_hat(c: Coloring, xi) -> complex:
    """Transform of the board function: chi_q_hat(xi) * phi(c, xi)."""
    return chi_q_hat(xi) * phi(c, xi)


def _f_hat_points(c: Coloring, x1s: np.ndarray, x2s: np.ndarray) -> np.ndarray:
    # Vectorized f_hat over an arbitrary list of frequency points.
    # Must match the direct per-point evaluation to 1e-10.
    k = np.arange(c.n)
    e1 = np.exp(-2j * math.pi * np.outer(k, x1s))
    e2 = np.exp(-2j * math.pi * np.outer(k, x2s))
    ph = np.sum(e1 * (c.cells @ e2), axis=0)
    chi = np.exp(-1j * math.pi * (x1s + x2s)) * np.sinc(x1s) * np.sinc(x2s)
    return chi * ph


@dataclass(frozen=True)
class IntervalProfile:
    """Offset profile of one direction on its breakpoint intervals [a_k, b_k].

    va_k and vb_k are the one-sided interior limits at a_k and b_k; the
    profile is linear between them.  Generic directions: the profile is
    continuous piecewise linear, so the limits are the breakpoint values.
    Axis directions: the profile is constant on [k, k+1] at the sum of line
    k, which is also the value the gridline t = k owns in the projection.
    """

    direction: Direction
    a: np.ndarray
    b: np.ndarray
    va: np.ndarray
    vb: np.ndarray


def interval_profile(c: Coloring, direction: Direction) -> IntervalProfile:
    """The board's offset profile in one direction, from one projection."""
    p = project(c, direction)
    t, v = p.breakpoints, p.values
    vb = v[:-1] if direction.is_axis() else v[1:]
    return IntervalProfile(direction, t[:-1], t[1:], v[:-1], vb)


def _transform_rows(mid, h, vbar, slope, xis: np.ndarray) -> np.ndarray:
    # Closed-form 1-D transform of a piecewise-linear profile: per interval,
    # integral of (linear) * e^(-2 pi i xi t) about the interval midpoint,
    # one row per frequency, each row summed whole.
    om = 2.0 * math.pi * xis[:, None]
    x = om * h
    even = vbar * 2.0 * h * np.sinc(2.0 * xis[:, None] * h)
    # Odd part integral( tau e^(-i om tau), -h..h ) = -2i (sin x - x cos x)/om^2;
    # series in x below 1e-3 avoids the 0/0 cancellation.
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (np.sin(x) - x * np.cos(x)) / (om * om)
    series = om * h**3 * (1.0 / 3.0 - x * x / 30.0 + x**4 / 840.0)
    odd = -2j * np.where(np.abs(x) < 1e-3, series, exact)
    return np.sum(np.exp(-1j * om * mid) * (even + slope * odd), axis=1)


def _profile_transform(p: IntervalProfile, xis: np.ndarray) -> np.ndarray:
    # Each distinct |xi| once, in blocks of whole rows, and -xi as the
    # conjugate (module docstring).  numpy's sin, cos and exp are odd or
    # even to the bit, and a row's sum does not depend on its block, so the
    # values are those of one pass over the whole grid
    # (tests/test_spectral.py pins this).
    mags, index = np.unique(np.abs(xis), return_inverse=True)
    mid = ((p.a + p.b) / 2)[None, :]
    h = ((p.b - p.a) / 2)[None, :]
    vbar = ((p.va + p.vb) / 2)[None, :]
    slope = ((p.vb - p.va) / (p.b - p.a))[None, :]
    rows = max(1, _BLOCK // p.a.size)
    out = np.empty(mags.size, dtype=np.complex128)
    for s in range(0, mags.size, rows):
        out[s : s + rows] = _transform_rows(mid, h, vbar, slope, mags[s : s + rows])
    lhs = out[index]
    return np.where(xis < 0.0, np.conj(lhs), lhs)


def slice_residual(c: Coloring, profile: IntervalProfile, freq_grid) -> float:
    """Max over the grid of |1-D transform of the profile - f_hat on the ray|.

    The projection-slice identity makes this zero in exact arithmetic, so the
    residual is a two-sided consistency oracle for both code paths.  The
    profile must be interval_profile(c, direction); a frequency that is not
    finite raises ValueError.
    """
    xis = np.asarray(list(freq_grid), dtype=np.float64)
    bad = xis[~np.isfinite(xis)]
    if bad.size:
        raise ValueError(f"frequency {bad[0]} is not finite")
    if xis.size == 0:
        return 0.0
    lhs = _profile_transform(profile, xis)
    ux, uy = profile.direction.u
    rhs = _f_hat_points(c, xis * ux, xis * uy)
    return float(np.max(np.abs(lhs - rhs)))


def line_energy(profile: IntervalProfile) -> float:
    """Integral of the squared offset profile, exact per linear interval."""
    a, b, va, vb = profile.a, profile.b, profile.va, profile.vb
    return float(np.sum((b - a) / 3.0 * (va * va + va * vb + vb * vb)))


@dataclass(frozen=True)
class EnergyReport:
    """Energy split at one disk radius; tail = total - disk_energy."""

    total: float
    a: float
    disk_energy: float
    tail: float
    ratio: float | None  # a * tail / total; None when total == 0
    grid: int  # midpoint samples per axis used by the quadrature


def _pow2_at_least(x: float) -> int:
    g = 64
    while g < x:
        g *= 2
    return g


def _disk_rows(grid: int) -> np.ndarray:
    # Row k1 keeps the half-axis samples with xi1^2 + xi2^2 < A^2.  In units
    # of h/2 = A/G the samples are the odd integers o < G and the circle is
    # G, so row o1 keeps the o2 with o1^2 + o2^2 < G^2, the same set for
    # every A; o2^2 grows along the half axis, so they are its first b_o1
    # samples: return b.  A sum of two odd squares is 2 mod 8 and G^2 is
    # 0 mod 8, so no sample comes within 2/G^2 (relative) of the circle,
    # far above float rounding: the predicate as written gives these counts
    # (tests/test_spectral.py checks A from 1e-150 to 1e150).
    o = np.arange(1, grid, 2)
    return np.searchsorted(o * o, grid * grid - o * o)


def _row_kernel(w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # K[d1, d2] = sum over rows k1 of w[d1, k1] times the sum of w[d2, k2]
    # over the row's first b_k1 samples, read off one running sum.  The
    # running sum goes straight into columns 1.. of an array whose column 0
    # is the empty sum.
    run = np.zeros((w.shape[0], w.shape[1] + 1))
    np.cumsum(w, axis=1, out=run[:, 1:])
    return w @ np.take(run, b, axis=1).T


def _phase_table(n: int, xi: np.ndarray, h: float) -> np.ndarray:
    # e^(2 pi i d xi_k) for lags d < n on midpoint samples xi_k spaced h
    # apart, by split angle addition: with k = B q + r and B = gcd(K, 64)
    # for K samples, xi_k = xi_(Bq) + r h, so row d is a coarse table
    # e^(2 pi i d xi_(Bq)) times a fine one e^(2 pi i d r h).  That is
    # n (K/B + B) exponentials and n K complex products, not n K cosines
    # and n K sines.  The result is within 2 * 2 pi max(n-1, 1) max|xi_k|
    # eps of the direct table e^(2 pi i outer(d, xi)) (module docstring);
    # tests/test_spectral.py bounds it by 8 * 2 pi max(n-1, 1) A eps.
    step = math.gcd(xi.size, _PHASE_STEP)
    d = np.arange(n)
    coarse = np.exp((2j * math.pi) * np.outer(d, xi[::step]))
    fine = np.exp((2j * math.pi * h) * np.outer(d, np.arange(step)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(n, xi.size)


def _disk_energy_grid(c: Coloring, a_radius: float, grid: int) -> float:
    # Midpoint grid on [-A, A]^2 restricted to the open disk, summed in the
    # lag domain: |phi(xi)|^2 = sum_d R(d) cos(2 pi d.xi), module docstring.
    # Only the half axis xi_k = (k + 1/2) h, k < G/2, is sampled; the full
    # axis is -xi[::-1], xi, an exact mirror, and the integrand is even in
    # each axis, so the disk sum is 4 h^2 times the quadrant sum.  Row k1
    # keeps the first b_k1 samples of the second half axis, counted in
    # integers by _disk_rows.
    n = c.n
    h = 2.0 * a_radius / grid
    xi = (np.arange(grid // 2) + 0.5) * h
    # Table sinc^2(xi_k) cos(2 pi d xi_k), d < n, from the phase table.
    w = _phase_table(n, xi, h).real * np.sinc(xi) ** 2
    kernel = _row_kernel(w, _disk_rows(grid))
    # Autocorrelation R(d) = sum_q z_(q+d) z_q on |d1|, |d2| < n, from one
    # zero-padded FFT; p = R(d1, d2) and m = R(-d1, d2) for d1, d2 >= 0.
    # Over a quadrant's four mirror images cos(2 pi d.xi) sums to
    # 4 cos cos, which is even in each lag coordinate; R(-d) = R(d) then
    # folds the sign variants of a lag (two per nonzero coordinate) to
    # (p + m)/2 per variant.
    spec = np.fft.rfft2(c.cells, s=(2 * n, 2 * n))
    corr = np.fft.irfft2(spec.real**2 + spec.imag**2, s=(2 * n, 2 * n))
    p = corr[:n, :n]
    m = corr[(-np.arange(n)) % (2 * n), :n]
    mult = np.where(np.arange(n) > 0, 2.0, 1.0)
    weight = 0.5 * mult[:, None] * mult[None, :]
    return 4.0 * float(np.sum(weight * (p + m) * kernel)) * h * h


def tail_energy(c: Coloring, a_radius: float) -> EnergyReport:
    """Energy inside/outside the disk |xi| < A, by adaptive 2-D quadrature.

    The disk integral is a midpoint sum over the open disk on a G x G grid
    of [-A, A]^2, taken in the lag domain (module docstring) at
    O(n^2 log n + G n^2) cost.  G starts at the least power of two, at
    least 64, covering 8 samples per unit per n, and doubles until the
    sums at G and G/2 agree to 1e-4 relative (against the total, which
    Parseval pins exactly), capped at 2^15 samples per axis.  A radius
    whose starting grid would pass that cap, 8 A n > 2^15, raises
    ValueError: a coarser step would undersample the integrand.
    """
    if not (math.isfinite(a_radius) and a_radius > 0):
        raise ValueError(f"disk radius must be positive and finite, got {a_radius}")
    n = max(c.n, 1)
    if 8.0 * a_radius * n > _GRID_CAP:
        raise ValueError(
            f"disk radius {a_radius} is too large for an n={c.n} board: "
            f"the quadrature grid allows at most {_GRID_CAP / (8 * n)}"
        )
    total = sum_squares(c)
    if total == 0.0:
        return EnergyReport(0.0, float(a_radius), 0.0, 0.0, None, 0)
    # The trig-polynomial factor has difference frequencies below n per
    # axis, so 8 samples per unit per n oversamples it 4x; the grid scales
    # with the radius to keep that density.
    grid = _pow2_at_least(8.0 * a_radius * n)
    prev = _disk_energy_grid(c, a_radius, grid // 2)
    cur = _disk_energy_grid(c, a_radius, grid)
    while abs(cur - prev) > _REL_TOL * max(total, abs(cur)) and grid < _GRID_CAP:
        grid *= 2
        prev, cur = cur, _disk_energy_grid(c, a_radius, grid)
    tail = total - cur
    return EnergyReport(total, float(a_radius), cur, tail, float(a_radius) * tail / total, grid)


def certified_lower_bound(c: Coloring) -> tuple[float, float]:
    """Positive lower bound on the best chord integral, with the radius used.

    The unit disk holds at least half the total energy for every real board
    (module docstring), and in polar coordinates the disk integral is at most
    A * pi * (sqrt(2) n) * (best chord)^2 with A = 1, giving
    bound = sqrt(total / (2 pi sqrt(2) n)).  The radius is always 1.0.
    """
    total = sum_squares(c)
    if total <= 0.0:
        raise ValueError("certificate needs a board with positive squared mass")
    return math.sqrt(total / (2.0 * math.pi * math.sqrt(2.0) * c.n)), 1.0
