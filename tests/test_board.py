import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from needleboard.board import (
    KINDS,
    BoardFormatError,
    Coloring,
    make_board,
    make_constant,
    make_parity,
    make_random,
    make_stripes,
    mix64,
    random_cell_values,
    read_text,
    sum_squares,
    write_text,
)


def test_make_constant_examples():
    assert np.all(make_constant(2, 1).cells == 1.0)
    assert make_constant(1, -1).cells[0, 0] == -1.0
    assert sum_squares(make_constant(3, 0)) == 0.0
    with pytest.raises(ValueError):
        make_constant(0, 1)


def test_make_parity_examples():
    c = make_parity(2)
    assert c.cells[0, 0] == 1.0
    assert c.cells[1, 0] == -1.0
    assert c.cells[0, 1] == -1.0
    assert c.cells[1, 1] == 1.0
    assert make_parity(1).cells[0, 0] == 1.0
    for n in range(1, 12):
        assert make_parity(n).cells.sum() in (0.0, 1.0)


def test_parity_transpose_invariant():
    for n in (2, 3, 5, 8):
        cells = make_parity(n).cells
        assert np.array_equal(cells, cells.T)


def test_make_stripes_examples():
    h = make_stripes(2, "horizontal")
    assert np.all(h.cells[:, 0] == 1.0) and np.all(h.cells[:, 1] == -1.0)
    v = make_stripes(2, "vertical")
    assert np.all(v.cells[0, :] == 1.0) and np.all(v.cells[1, :] == -1.0)
    with pytest.raises(ValueError):
        make_stripes(2, "diagonal")


def test_make_board_is_each_kinds_generator():
    for n in range(1, 7):
        for value in (1.0, -1.0):
            assert make_board("constant", n, value=value) == make_constant(n, value)
        assert make_board("constant", n) == make_constant(n, 1.0)
        assert make_board("parity", n) == make_parity(n)
        for axis in ("horizontal", "vertical"):
            assert make_board("stripes", n, axis=axis) == make_stripes(n, axis)
        assert make_board("stripes", n) == make_stripes(n, "horizontal")
        for seed in (0, 1, 7, -5, 2**64 - 1):
            assert make_board("random", n, seed=seed) == make_random(n, seed)
        assert make_board("random", n) == make_random(n, 0)
    assert set(KINDS) == {"constant", "parity", "stripes", "random"}


def test_make_stripes_rejects_an_unknown_axis_naming_both():
    with pytest.raises(ValueError, match="^axis must be 'horizontal' or 'vertical', got 'diagonal'$"):
        make_stripes(2, "diagonal")


def test_make_board_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown board kind 'checker'"):
        make_board("checker", 4)


@pytest.mark.parametrize("make", [
    lambda n: make_constant(n, 1), make_parity, lambda n: make_stripes(n, "vertical"),
    lambda n: make_random(n, 3),
], ids=["constant", "parity", "stripes", "random"])
def test_generators_check_the_side_before_allocating(make):
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"^board side must be a positive integer, got {n}$"):
            make(n)
    # numpy could not describe these arrays, let alone allocate them
    for n in (2**30, 10**30):
        with pytest.raises(ValueError, match=f"^board side {n} is too large"):
            make(n)


def test_make_random_deterministic():
    a = make_random(8, 123)
    b = make_random(8, 123)
    assert a == b
    assert not np.array_equal(make_random(8, 124).cells, a.cells)


def test_make_random_codomain():
    for seed in (0, 1, 2**63, 2**64 - 1):
        vals = set(np.unique(make_random(2, seed).cells))
        assert vals <= {-1.0, 1.0}


def test_make_random_matches_scalar_mixing_rule():
    # Vectorized generator against the stated per-cell rule, term by term.
    n, seed = 5, 987654321
    c = make_random(n, seed)
    for i in range(n):
        for j in range(n):
            h = mix64(seed ^ mix64((i << 32) + j + 1))
            want = 1.0 if (h >> 63) == 0 else -1.0
            assert c.cells[i, j] == want


def test_make_random_mean_oracle():
    # Monte-Carlo sanity: per-board mean over 100 seeds; SE ~ 1/64.
    means = [abs(float(make_random(64, s).cells.mean())) for s in range(100)]
    assert max(means) < 0.1


def test_random_cell_values_subset():
    c = make_random(9, 42)
    ii = np.array([0, 3, 8, 1])
    jj = np.array([5, 0, 8, 1])
    assert np.array_equal(random_cell_values(42, ii, jj), c.cells[ii, jj])


def test_sum_squares_generators():
    for c in (make_parity(4), make_random(6, 7), make_stripes(5, "vertical"), make_constant(3, 1)):
        assert sum_squares(c) == c.n**2
    assert sum_squares(make_constant(2, 2)) == 16.0


def test_cells_immutable():
    c = make_parity(2)
    with pytest.raises(ValueError):
        c.cells[0, 0] = 5.0


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring(2, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Coloring(0, np.zeros((0, 0)))


def test_write_text_parity2():
    buf = io.StringIO()
    write_text(make_parity(2), buf)
    assert buf.getvalue() == "needleboard v1\n2\n-+\n+-\n"


def test_round_trip_random():
    for seed in range(5):
        c = make_random(7, seed)
        buf = io.StringIO()
        write_text(c, buf)
        buf.seek(0)
        assert read_text(buf) == c


def test_write_text_rejects_non_sign_values():
    with pytest.raises(ValueError, match="not \\+-1"):
        write_text(make_constant(2, 0.5), io.StringIO())


@pytest.mark.parametrize(
    "text,where",
    [
        ("nope\n2\n++\n++\n", "line 1"),
        ("needleboard v1\nx\n++\n++\n", "line 2"),
        ("needleboard v1\n-2\n", "line 2"),
        ("needleboard v1\n2\n++\n", "line 4"),
        ("needleboard v1\n2\n++\n++\n++\n", "line 5"),
        ("needleboard v1\n2\n+++\n++\n", "line 3"),
        ("needleboard v1\n2\n++\n+x\n", "line 4"),
        ("needleboard v1\r\n2\r\n++\r\n++\r\n", "line 1"),
    ],
)
def test_read_text_malformed(text, where):
    with pytest.raises(BoardFormatError, match=where):
        read_text(io.StringIO(text))


@pytest.mark.parametrize("side", ["\u0663", "\uff13", "\u00b2"],
                         ids=["arabic-indic-3", "fullwidth-3", "superscript-2"])
def test_read_text_board_side_is_ascii_decimal(side):
    # str.isdigit accepts these; int() reads the first two as 3 and fails
    # on the third with a message that names no line
    text = f"needleboard v1\n{side}\n+++\n+++\n+++\n"
    with pytest.raises(BoardFormatError, match="line 2: board side must be a decimal integer"):
        read_text(io.StringIO(text))


# Reference loops for the text format: the character-by-character writer
# and row parser that write_text and read_text replace with array code.
def _reference_text(c):
    rows = ["".join("+" if c.cells[i, c.n - 1 - r] > 0 else "-" for i in range(c.n))
            for r in range(c.n)]
    return f"needleboard v1\n{c.n}\n" + "".join(row + "\n" for row in rows)


def _reference_row_error(rows, n):
    for r, row in enumerate(rows):
        if len(row) != n:
            return f"line {3 + r}: row has length {len(row)}, expected {n}"
        for i, ch in enumerate(row):
            if ch not in "+-":
                return f"line {3 + r}: illegal character {ch!r} at column {i + 1}"
    return None


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_text_round_trip_property(n, seed):
    c = Coloring(n, np.random.default_rng(seed).choice([-1.0, 1.0], size=(n, n)))
    buf = io.StringIO()
    write_text(c, buf)
    assert buf.getvalue() == _reference_text(c)
    buf.seek(0)
    assert read_text(buf) == c


@given(st.integers(1, 8), st.data())
def test_row_errors_match_the_reference_parser(n, data):
    # Rows of any length over an alphabet with illegal characters (a space,
    # a tab, non-ASCII, a lone surrogate): read_text reports the first
    # faulty row, and in it a wrong length before an illegal character.
    chars = st.sampled_from(["+", "-", "+", "-", "x", " ", "\t", "\u00e9", "\ud800", "\U0001f600"])
    rows = data.draw(st.lists(st.text(chars, min_size=n - 1, max_size=n + 1),
                              min_size=n, max_size=n))
    want = _reference_row_error(rows, n)
    text = f"needleboard v1\n{n}\n" + "".join(row + "\n" for row in rows)
    if want is None:
        assert read_text(io.StringIO(text)).n == n
    else:
        with pytest.raises(BoardFormatError) as err:
            read_text(io.StringIO(text))
        assert str(err.value) == want
