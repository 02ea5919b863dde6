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


def _interval_profile(c: Coloring, direction: Direction):
    # One-sided interior limits of the offset profile on each breakpoint
    # interval.  Generic directions: the profile is continuous piecewise
    # linear, so limits are the breakpoint values.  Axis directions: the
    # profile is constant on [k, k+1] at the sum of line k, which is also the
    # value the gridline t = k owns in the projection.
    p = project(c, direction)
    t, v = p.breakpoints, p.values
    if direction.is_axis():
        return t[:-1], t[1:], v[:-1], v[:-1]
    return t[:-1], t[1:], v[:-1], v[1:]


def _profile_transform(a, b, va, vb, xis: np.ndarray) -> np.ndarray:
    # Closed-form 1-D transform of a piecewise-linear profile: per interval,
    # integral of (linear) * e^(-2 pi i xi t) about the interval midpoint.
    mid = ((a + b) / 2)[None, :]
    h = ((b - a) / 2)[None, :]
    vbar = ((va + vb) / 2)[None, :]
    slope = ((vb - va) / (b - a))[None, :]
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


def slice_residual(c: Coloring, direction: Direction, freq_grid) -> float:
    """Max over the grid of |1-D transform of the profile - f_hat on the ray|.

    The projection-slice identity makes this zero in exact arithmetic, so the
    residual is a two-sided consistency oracle for both code paths.
    """
    xis = np.asarray(list(freq_grid), dtype=np.float64)
    if xis.size == 0:
        return 0.0
    a, b, va, vb = _interval_profile(c, direction)
    lhs = _profile_transform(a, b, va, vb, xis)
    ux, uy = direction.u
    rhs = _f_hat_points(c, xis * ux, xis * uy)
    return float(np.max(np.abs(lhs - rhs)))


def line_energy(c: Coloring, direction: Direction) -> float:
    """Integral of the squared offset profile, exact per linear interval."""
    a, b, va, vb = _interval_profile(c, direction)
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


def _disk_energy_grid(c: Coloring, a_radius: float, grid: int) -> float:
    # Midpoint tensor grid on [-A, A]^2 masked to the open disk.  Only
    # magnitudes enter, so the phase factors drop out.  The integrand is
    # symmetric under xi -> -xi (real weights), so sample the lower half
    # of the first axis and double.
    h = 2.0 * a_radius / grid
    xi = -a_radius + (np.arange(grid) + 0.5) * h
    s2 = np.sinc(xi) ** 2
    ee = np.exp(-2j * math.pi * np.outer(np.arange(c.n), xi))
    m = c.cells @ ee
    r2 = a_radius * a_radius
    block = max(1, (1 << 22) // grid)
    half = grid // 2
    total = 0.0
    for lo in range(0, half, block):
        hi = min(half, lo + block)
        ph = ee[:, lo:hi].T @ m
        w = (ph.real**2 + ph.imag**2) * s2[None, :] * s2[lo:hi, None]
        inside = (xi[lo:hi, None] ** 2 + xi[None, :] ** 2) < r2
        total += float(np.sum(w, where=inside))
    return 2.0 * total * h * h


def tail_energy(c: Coloring, a_radius: float) -> EnergyReport:
    """Energy inside/outside the disk |xi| < A, by adaptive 2-D quadrature.

    Resolution doubles until the disk integral is stable to 1e-4 relative
    (against the total, which Parseval pins exactly), capped at 2^15 samples
    per axis.
    """
    if not (math.isfinite(a_radius) and a_radius > 0):
        raise ValueError(f"disk radius must be positive and finite, got {a_radius}")
    total = sum_squares(c)
    if total == 0.0:
        return EnergyReport(0.0, float(a_radius), 0.0, 0.0, None, 0)
    # The trig-polynomial factor has difference frequencies below n per
    # axis, so 8 samples per unit per n oversamples it 4x; the grid scales
    # with the radius to keep that density.
    grid = min(_GRID_CAP, _pow2_at_least(8.0 * a_radius * max(c.n, 1)))
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
