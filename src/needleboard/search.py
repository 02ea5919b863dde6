"""Global maximization of chord and sub-segment discrepancy over directions.

Chord and sub-segment maxima of a checkerboard are both attained along a
primitive lattice direction (dx, dy) with |dx|, |dy| <= n, so those
directions are the only candidates.  best_chord / best_segment / scan_report
evaluate each candidate with radon's blocked kernel (offset_scan, every
breakpoint offset at once) and take the witness chord and segment from the
winning offset's events, so nothing is recomputed.  brute_force is the
small-n oracle: it shares the enumeration of directions but evaluates every
one of them through radon's scalar cell walk only.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .board import Coloring
from .geom import Segment
from .radon import (
    Chord,
    Direction,
    _walk_direction,
    breakpoint_offsets,
    max_chord_in_direction,
    max_segment_in_direction,
    offset_scan,
)

_BRUTE_LIMIT = 16  # lattice-pair enumeration cost guard
_ANGLE_CAP = 200_000


@dataclass(frozen=True)
class SearchStrategy:
    """How a report was produced: direction budget and oracle flag."""

    angles: int
    oracle: bool


@dataclass(frozen=True)
class DiscrepancyReport:
    n: int
    best_chord: tuple[Chord, float]
    best_segment: tuple[Segment, float]
    strategy: SearchStrategy
    ratio_sqrt_n: float
    ratio_sqrt_n_log_n: float | None  # None for n = 1 (log 1 = 0)


def default_angles(n: int) -> int:
    """Default direction budget: all ~1.2 n^2 primitive directions for n <= 405."""
    return min(8 * n * n, _ANGLE_CAP)


def _scan_direction(c: Coloring, direction: Direction):
    # ((t*, chord max), (witness, segment max)) for one direction.  Axis
    # directions take radon's closed forms; the others run the kernel on the
    # breakpoints looked up here.
    if direction.is_axis():
        return max_chord_in_direction(c, direction), max_segment_in_direction(c, direction)
    scan = offset_scan(c, direction, breakpoint_offsets(c.n, direction))
    return scan.best_chord(), scan.best_segment()


def _scan(c: Coloring, angles: int | None, threads: int):
    # One pass over the budgeted lattice directions: the directions and their
    # _scan_direction results.
    if angles is None:
        angles = default_angles(c.n)
    if angles < 1:
        raise ValueError(f"angle count must be at least 1, got {angles}")
    dirs = _lattice_directions(c.n, angles)
    if threads <= 1:
        return dirs, [_scan_direction(c, d) for d in dirs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return dirs, list(pool.map(lambda d: _scan_direction(c, d), dirs))


def _chord_winner(dirs: list[Direction], results) -> tuple[Chord, float]:
    # first max: ties across directions go to smaller theta
    k = int(np.argmax([r[0][1] for r in results]))
    t, v = results[k][0]
    return Chord(dirs[k], t), v


def _segment_winner(results) -> tuple[Segment, float]:
    return results[int(np.argmax([r[1][1] for r in results]))][1]


def best_chord(c: Coloring, angles: int | None = None,
               threads: int = 1) -> tuple[Chord, float]:
    """Maximize |integral over a full chord| over primitive lattice directions.

    Scans the first `angles` primitive directions (shortest lattice vector
    first; all of them at the default budget, which makes the result exact)
    and reports the winning offset of the winning direction.  Deterministic
    for fixed inputs.
    """
    dirs, results = _scan(c, angles, threads)
    return _chord_winner(dirs, results)


def best_segment(c: Coloring, angles: int | None = None,
                 threads: int = 1) -> tuple[Segment, float]:
    """Maximize |integral over any sub-segment|; same strategy as best_chord."""
    _, results = _scan(c, angles, threads)
    return _segment_winner(results)


def _ratios(n: int, seg_val: float) -> tuple[float, float | None]:
    r1 = seg_val / math.sqrt(n)
    r2 = seg_val / math.sqrt(n * math.log(n)) if n > 1 else None
    return r1, r2


def scan_report(c: Coloring, angles: int | None = None,
                threads: int = 1) -> DiscrepancyReport:
    """DiscrepancyReport from one lattice-direction scan (chords and segments)."""
    dirs, results = _scan(c, angles, threads)
    ch, vc = _chord_winner(dirs, results)
    seg, vs = _segment_winner(results)
    r1, r2 = _ratios(c.n, vs)
    used = angles if angles is not None else default_angles(c.n)
    return DiscrepancyReport(
        c.n, (ch, vc), (seg, vs), SearchStrategy(used, False), r1, r2
    )


def _lattice_directions(n: int, budget: int | None = None) -> list[Direction]:
    # One direction per primitive lattice vector (dx, dy) with |dx|, |dy| <= n
    # and dy > 0, or (dx, dy) = (1, 0); the chord runs along (dx, dy), so the
    # offset axis is its normal.  A budget keeps the shortest vectors (ties
    # to the smaller angle); the result is sorted by angle.
    vecs = [
        (dx, dy)
        for dy in range(n + 1)
        for dx in range(-n, n + 1)
        if (dy == 0 and dx == 1) or (dy > 0 and math.gcd(dx, dy) == 1)
    ]
    keyed = [(dx * dx + dy * dy, Direction(math.atan2(-dx, dy))) for dx, dy in vecs]
    keyed.sort(key=lambda kd: (kd[0], kd[1].theta))
    return sorted((d for _, d in keyed[:budget]), key=lambda d: d.theta)


def brute_force(c: Coloring) -> DiscrepancyReport:
    """Exact oracle over every lattice-pair direction; scalar path only.

    Enumerates each direction spanned by two distinct points of the
    (n+1) x (n+1) lattice (axes included), maximizing chords and segments
    exactly per direction by walking cell_crossings chord by chord, so it
    shares no arithmetic with the kernel.  Ground truth for small boards.
    """
    if c.n > _BRUTE_LIMIT:
        raise ValueError(f"brute_force is limited to n <= {_BRUTE_LIMIT}, got {c.n}")
    dirs = _lattice_directions(c.n)
    bc: tuple[Chord, float] | None = None
    bs: tuple[Segment, float] | None = None
    for d in dirs:
        (t, vc), (seg, vs) = _walk_direction(c, d)
        if bc is None or vc > bc[1]:
            bc = (Chord(d, t), vc)
        if bs is None or vs > bs[1]:
            bs = (seg, vs)
    r1, r2 = _ratios(c.n, bs[1])
    return DiscrepancyReport(
        c.n, bc, bs, SearchStrategy(len(dirs), True), r1, r2
    )
