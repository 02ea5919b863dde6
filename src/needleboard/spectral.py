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

The quadrature in tail_energy sums a midpoint grid xi_k = -A + (k + 1/2) h,
h = 2A/G, over the open disk, sampling the lower half of the first axis and
doubling.  |F|^2 = sinc^2(xi1) sinc^2(xi2) |phi|^2, and by Wiener-Khinchin
|phi(xi)|^2 = sum_d R(d) cos(2 pi d.xi), where R(d) = sum_q z_(q+d) z_q is the
board's autocorrelation on |d1|, |d2| < n (one zero-padded FFT).  Expanding
cos(2 pi d.xi) = cos cos - sin sin and folding R(-d) = R(d) onto d1, d2 >= 0
leaves two lag-by-lag kernels.  Each grid row keeps the second-axis samples
of one index interval, so that row's sums of sinc^2 cos(2 pi d2 xi2) and
sinc^2 sin(2 pi d2 xi2) over it come from running sums along the half axes,
accumulated from the centre outward; one (n x G/2)(G/2 x n) product per
kernel then sums the rows.  A grid costs O(n^2 log n + G n^2), against
O(G^2 n) for forming phi at every sample, and no G x G array is built.  The
sine sums vanish on a symmetric interval of exactly mirrored samples; they
are kept so that the sample set is the disk predicate's, whatever the
rounding of the sample points.

The cosine and sine tables are the real and imaginary parts of one phase
table e^(2 pi i d xi_k), d < n, built by split angle addition: with
k = B q + r and B = gcd(G, 64), it is a coarse table at the samples xi_(Bq)
times a fine one at the offsets r h.  n (G/B + B) exponentials and n G
complex products replace n G cosines and n G sines.  The table stays within
3.2 * 2 pi max(n-1, 1) A eps of a direct np.exp (the largest seen for
n <= 128, A in [0.3, 40] and G from 32 to 2^15), the order of the rounding
already in 2 pi d xi_k.  Against direct tables, disk energies move only in
their last digits: at most 2.2e-15 of the total on random and parity
boards up to n = 64.

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


def _disk_rows(xi: np.ndarray, r2: float) -> tuple[np.ndarray, np.ndarray]:
    # Row k1 < G/2 keeps the second-axis samples with xi1^2 + xi2^2 < r2,
    # the predicate evaluated as written.  Along each half axis, from the
    # centre outward, xi2^2 never decreases, so they form one index
    # interval: return how many lie below the centre and how many above.
    # searchsorted on the rounded threshold places each boundary; the
    # fix-up steps across the rounding until the predicate holds at the
    # last counted sample and fails at the first uncounted one.
    half = xi.size // 2
    sq = xi**2
    x1sq = sq[:half]
    counts = []
    for q in (sq[half - 1 :: -1], sq[half:]):
        m = np.searchsorted(q, r2 - x1sq)
        while True:
            down = (m > 0) & ~(x1sq + q[np.maximum(m - 1, 0)] < r2)
            up = ~down & (m < half) & (x1sq + q[np.minimum(m, half - 1)] < r2)
            if not (down.any() or up.any()):
                break
            m = m - down + up
        counts.append(m)
    return counts[0], counts[1]


def _row_kernel(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # K[d1, d2] = sum over rows k1 < G/2 of w[d1, k1] times the sum of
    # w[d2, k2] over the row's interval: a_k1 samples below the centre and
    # b_k1 above it, read off running sums from the centre outward.  Each
    # running sum goes straight into columns 1.. of an array whose column 0
    # is the empty sum.
    half = w.shape[1] // 2
    below = np.zeros((w.shape[0], half + 1))
    above = np.zeros((w.shape[0], half + 1))
    np.cumsum(w[:, half - 1 :: -1], axis=1, out=below[:, 1:])
    np.cumsum(w[:, half:], axis=1, out=above[:, 1:])
    return w[:, :half] @ (np.take(below, a, axis=1) + np.take(above, b, axis=1)).T


def _phase_table(n: int, xi: np.ndarray, h: float) -> np.ndarray:
    # e^(2 pi i d xi_k) for lags d < n on midpoint samples xi_k spaced h
    # apart, by split angle addition: with k = B q + r and B = gcd(G, 64),
    # xi_k = xi_(Bq) + r h, so row d is a coarse table e^(2 pi i d xi_(Bq))
    # times a fine one e^(2 pi i d r h).  That is n (G/B + B) exponentials
    # and n G complex products, not n G cosines and n G sines.  The result
    # is within 3.2 * 2 pi max(n-1, 1) max|xi_k| eps of the direct table
    # e^(2 pi i outer(d, xi)) (module docstring); tests/test_spectral.py
    # bounds it by 8 times that.
    step = math.gcd(xi.size, _PHASE_STEP)
    d = np.arange(n)
    coarse = np.exp((2j * math.pi) * np.outer(d, xi[::step]))
    fine = np.exp((2j * math.pi * h) * np.outer(d, np.arange(step)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(n, xi.size)


def _disk_energy_grid(c: Coloring, a_radius: float, grid: int) -> float:
    # Midpoint grid on [-A, A]^2 restricted to the open disk, with only the
    # lower half of the first axis sampled and doubled (real weights), summed
    # in the lag domain: |phi(xi)|^2 = sum_d R(d) cos(2 pi d.xi), module
    # docstring.  Row k1 keeps the axis-2 samples of one index interval,
    # a_k1 of them below the centre and b_k1 above it.
    n = c.n
    h = 2.0 * a_radius / grid
    xi = -a_radius + (np.arange(grid) + 0.5) * h
    s2 = np.sinc(xi) ** 2
    a, b = _disk_rows(xi, a_radius * a_radius)
    # Tables s2(xi_k) cos(2 pi d xi_k) and s2(xi_k) sin(2 pi d xi_k), d < n,
    # from one phase table.
    phase = _phase_table(n, xi, h)
    k_cos = _row_kernel(s2 * phase.real, a, b)
    k_sin = _row_kernel(s2 * phase.imag, a, b)
    # Autocorrelation R(d) = sum_q z_(q+d) z_q on |d1|, |d2| < n, from one
    # zero-padded FFT; p = R(d1, d2) and m = R(-d1, d2) for d1, d2 >= 0.
    # cos(2 pi d.xi) = cos cos - sin sin; over the sign variants of a lag
    # (two per nonzero coordinate) R(-d) = R(d) folds the even term to
    # (p + m)/2 and the odd one to (p - m)/2 per variant.
    spec = np.fft.rfft2(c.cells, s=(2 * n, 2 * n))
    corr = np.fft.irfft2(spec.real**2 + spec.imag**2, s=(2 * n, 2 * n))
    p = corr[:n, :n]
    m = corr[(-np.arange(n)) % (2 * n), :n]
    mult = np.where(np.arange(n) > 0, 2.0, 1.0)
    weight = 0.5 * mult[:, None] * mult[None, :]
    total = np.sum(weight * ((p + m) * k_cos - (p - m) * k_sin))
    return 2.0 * float(total) * h * h


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
