"""Signed checkerboards: data model, deterministic generators, text I/O.

A board of side n covers [0, n]^2 with unit cells.  Cell (i, j) is the
half-open square [i, i+1) x [j, j+1) -- column index i along x, row index
j along y -- and carries a real value z_ij.  Generators produce +-1 boards;
the container accepts arbitrary reals so downstream analysis can probe
non-sign inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

_MASK64 = (1 << 64) - 1
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

HEADER = "needleboard v1"
KINDS = ("constant", "parity", "stripes", "random")  # the names make_board takes
AXES = ("horizontal", "vertical")  # the orientations make_stripes takes


def mix64(x: int) -> int:
    """64-bit avalanche finalizer (splitmix64 style), arithmetic mod 2^64."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MULT1) & _MASK64
    x ^= x >> 27
    x = (x * _MULT2) & _MASK64
    x ^= x >> 31
    return x


def _mix64_u64(x: np.ndarray) -> np.ndarray:
    # Vectorized twin of mix64; numpy uint64 arithmetic wraps mod 2^64.
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(_MULT1)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(_MULT2)
    x = x ^ (x >> np.uint64(31))
    return x


def _check_side(n: int) -> None:
    # Before any allocation: numpy's own errors for these sides name neither
    # the side nor the board.  A side that numpy can describe but not
    # allocate still raises MemoryError.
    if n < 1:
        raise ValueError(f"board side must be a positive integer, got {n}")
    if 8 * int(n) ** 2 > np.iinfo(np.intp).max:
        raise ValueError(f"board side {n} is too large for an n x n float64 array")


@dataclass(frozen=True)
class Coloring:
    """Immutable n x n board of cell values, indexed cells[i, j]."""

    n: int
    cells: np.ndarray

    def __post_init__(self) -> None:
        _check_side(self.n)
        cells = np.array(self.cells, dtype=np.float64, copy=True)
        if cells.shape != (self.n, self.n):
            raise ValueError(f"cells must have shape ({self.n}, {self.n}), got {cells.shape}")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.cells, other.cells))


def _cells(n: int, v: float = 1.0) -> np.ndarray:
    # The n x n cells, all v, requested before any length-n vector: a side
    # that numpy can describe but not allocate raises MemoryError here,
    # before gigabytes of index vectors are filled.
    _check_side(n)
    return np.full((n, n), float(v))


def make_constant(n: int, v: float) -> Coloring:
    """Board with every cell equal to v."""
    return Coloring(n, _cells(n, v))


def make_parity(n: int) -> Coloring:
    """Checkerboard: z_ij = +1 for even i+j, -1 for odd."""
    cells = _cells(n)
    cells[::2, 1::2] = cells[1::2, ::2] = -1.0
    return Coloring(n, cells)


def make_stripes(n: int, axis: str) -> Coloring:
    """Stripes of constant sign: horizontal rows (-1)^j or vertical columns (-1)^i."""
    if axis not in AXES:
        raise ValueError(f"axis must be {' or '.join(map(repr, AXES))}, got {axis!r}")
    cells = _cells(n)
    if axis == "horizontal":
        cells[:, 1::2] = -1.0
    else:
        cells[1::2] = -1.0
    return Coloring(n, cells)


def random_cell_values(seed: int | np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Values make_random(n, seed) would assign at cells (i, j), computed directly.

    Counter-based: each cell's sign is a pure function of (seed, i, j), so any
    subset of cells can be generated without materializing the board.  `seed`
    may also be an array of integer seeds, broadcast against i and j.
    """
    ctr = (np.asarray(i, dtype=np.uint64) << np.uint64(32)) + np.asarray(j, dtype=np.uint64) + np.uint64(1)
    seeds = np.asarray(np.asarray(seed, dtype=object) & _MASK64, dtype=np.uint64)
    h = _mix64_u64(seeds ^ _mix64_u64(ctr))
    return np.where((h >> np.uint64(63)) == 0, 1.0, -1.0)


def make_random(n: int, seed: int) -> Coloring:
    """Deterministic +-1 board: sign of cell (i, j) from mixing (seed, i, j)."""
    cells = _cells(n)
    i = np.arange(n)
    cells[...] = random_cell_values(seed, i[:, None], i[None, :])
    return Coloring(n, cells)


def make_board(kind: str, n: int, seed: int = 0, value: float = 1.0,
               axis: str = "horizontal") -> Coloring:
    """The n x n board of a kind named in KINDS.

    `value` is read only by "constant", `axis` only by "stripes" and `seed`
    only by "random"; each kind is its generator called with them.
    """
    if kind == "constant":
        return make_constant(n, value)
    if kind == "parity":
        return make_parity(n)
    if kind == "stripes":
        return make_stripes(n, axis)
    if kind == "random":
        return make_random(n, seed)
    raise ValueError(f"unknown board kind {kind!r}, expected one of {', '.join(KINDS)}")


def sum_squares(c: Coloring) -> float:
    """Sum of squared cell values (the board's total squared mass)."""
    return float(np.sum(c.cells * c.cells))


class BoardFormatError(ValueError):
    """Malformed board text; message names the offending line."""


def write_text(c: Coloring, stream: TextIO) -> None:
    """Serialize a +-1 board: header, side, then rows top-to-bottom.

    File row r (0-based) holds board row j = n-1-r; '+' is +1, '-' is -1.
    Only sign boards are representable.
    """
    cells = c.cells
    if not np.all(np.abs(cells) == 1.0):
        bad = np.argwhere(np.abs(cells) != 1.0)[0]
        raise ValueError(
            f"cell ({bad[0]}, {bad[1]}) = {cells[bad[0], bad[1]]!r} is not +-1; "
            "text format encodes sign boards only"
        )
    # text[r, i] is the character of cell (i, n-1-r); the last column is "\n"
    text = np.full((c.n, c.n + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = np.where(cells.T[::-1] > 0, ord("+"), ord("-"))
    stream.write(f"{HEADER}\n{c.n}\n" + text.tobytes().decode("ascii"))


def read_text(stream: TextIO) -> Coloring:
    """Parse the text format written by write_text; errors carry line numbers."""
    text = stream.read()
    if "\r" in text:
        line = text[: text.index("\r")].count("\n") + 1
        raise BoardFormatError(f"line {line}: carriage return found; Unix newlines required")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != HEADER:
        got = lines[0] if lines else "<empty>"
        raise BoardFormatError(f"line 1: expected header {HEADER!r}, got {got!r}")
    if len(lines) < 2:
        raise BoardFormatError("line 2: missing board side")
    if not (lines[1].isascii() and lines[1].isdigit()):
        raise BoardFormatError(f"line 2: board side must be a decimal integer, got {lines[1]!r}")
    n = int(lines[1])
    if n < 1:
        raise BoardFormatError(f"line 2: board side must be >= 1, got {n}")
    if len(lines) != 2 + n:
        if len(lines) < 2 + n:
            raise BoardFormatError(f"line {len(lines) + 1}: expected {n} rows, found {len(lines) - 2}")
        raise BoardFormatError(f"line {3 + n}: unexpected content after {n} rows")
    rows = lines[2:]
    # Rows are checked in file order, each for its length and then for its
    # characters: the first faulty row is the one reported.
    short = next((r for r, row in enumerate(rows) if len(row) != n), n)
    # one code point per character, so an index into codes is a column
    codes = np.frombuffer("".join(rows[:short]).encode("utf-32-le", "surrogatepass"),
                          dtype=np.uint32).reshape(short, n)
    plus = codes == ord("+")
    bad = np.flatnonzero(~plus & (codes != ord("-")))
    if bad.size:
        r, i = divmod(int(bad[0]), n)
        raise BoardFormatError(f"line {3 + r}: illegal character {rows[r][i]!r} at column {i + 1}")
    if short < n:
        raise BoardFormatError(
            f"line {3 + short}: row has length {len(rows[short])}, expected {n}")
    return Coloring(n, np.where(plus, 1.0, -1.0)[::-1].T)
