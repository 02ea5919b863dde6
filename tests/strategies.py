"""Hypothesis board strategies shared by the kernel and search tests, and
the per-line oracle of radon.orbit_scan's maxima."""

import math

import numpy as np
from hypothesis import strategies as st

from needleboard.board import Coloring, make_constant, make_parity, make_stripes
from needleboard.radon import lattice_scan, tie_tolerance


@st.composite
def boards(draw, max_n=12, real=True):
    # a board with n <= max_n: random +-1 cells, a tie-heavy +-1 board
    # (constant, parity or stripes) or, if real, uniform real cells; random
    # and real boards are drawn twice as often as tie-heavy ones
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["random", "random", "tie"] + (["real", "real"] if real else [])))
    if kind == "tie":
        tie = draw(st.sampled_from(["constant", "parity", "stripes"]))
        if tie == "constant":
            return make_constant(n, draw(st.sampled_from([-1.0, 1.0])))
        if tie == "parity":
            return make_parity(n)
        return make_stripes(n, draw(st.sampled_from(["horizontal", "vertical"])))
    cell = (st.sampled_from([-1.0, 1.0]) if kind == "random"
            else st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
    values = draw(st.lists(cell, min_size=n * n, max_size=n * n))
    return Coloring(n, np.array(values).reshape(n, n))


@st.composite
def integer_boards(draw, max_n=12):
    # a board with n <= max_n of integer cells in [-z, z]: at n = 12, z = 1
    # and 5 keep the kernel's sums in int16, z = 300 puts the directions
    # with min(|dx|, |dy|) >= 10 in int32, 3000 and 2^20 put nearly all of
    # them there, and 2^40 every one in float64
    n = draw(st.integers(1, max_n))
    z = draw(st.sampled_from([1, 5, 300, 3000, 1 << 20, 1 << 40]))
    values = draw(st.lists(st.integers(-z, z), min_size=n * n, max_size=n * n))
    return Coloring(n, np.array(values, dtype=np.float64).reshape(n, n))


def row_maxima(c, v):
    # What orbit_scan must give for the lattice direction v, from the rows
    # of lattice_scan(c, *v): the largest |chord|, the largest prefix range
    # and the tolerance.  On an integer board the tolerance is 0 (bit for
    # bit): the chord is the rows' largest |chord|, and the range is fl(K *
    # s), K the rows' largest integer range top / s - bottom / s and s =
    # fl(|v| / den), the one scale of both.  On a real board the range is
    # the rows' largest top - bottom, and the tolerance tie_tolerance.
    scan = lattice_scan(c, *v)
    a, b = sorted(map(abs, v), reverse=True)
    s = math.sqrt(a * a + b * b) / (a * max(b, 1))
    chord = float(np.abs(scan.chord).max())
    if np.array_equal(c.cells, np.rint(c.cells)):
        k = np.rint(scan.top / s) - np.rint(scan.bottom / s)
        return chord, float(k.max()) * s, 0.0
    return chord, float((scan.top - scan.bottom).max()), tie_tolerance(c)


def assert_row_maxima(c, dirs, maxima):
    # maxima, orbit_scan's (2, len(dirs)) array, against row_maxima
    assert maxima.shape == (2, len(dirs))
    for v, got in zip(dirs, maxima.T.tolist()):
        *want, tol = row_maxima(c, v)
        for g, w in zip(got, want):
            assert g.hex() == w.hex() if tol == 0 else abs(g - w) <= tol, (v, got, want)
