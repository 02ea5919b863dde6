"""Hypothesis board strategies shared by the kernel and search tests."""

import numpy as np
from hypothesis import strategies as st

from needleboard.board import Coloring, make_constant, make_parity, make_stripes


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
