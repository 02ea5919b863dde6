"""Global maximization of chord and sub-segment discrepancy over directions.

Chord and sub-segment maxima of a checkerboard are both attained along a
primitive lattice direction (dx, dy) with |dx|, |dy| <= n, so those
directions are the only candidates, carried as integer pairs: the search
never rounds an angle.  best_chord / best_segment / scan_report evaluate
each candidate, axes included, with radon.lattice_scan (every breakpoint
chord from shifted board sums) and take the witness chord and segment from
the winning line, so nothing is recomputed.  Ties between directions go to
the smaller angle, with radon's tie_tolerance.  brute_force is the small-n
oracle: it shares the enumeration of directions but evaluates every one of
them through radon's scalar cell walk only.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .board import Coloring
from .geom import Segment
from .radon import Chord, Direction, _first_max, _walk_direction, lattice_scan, tie_tolerance
from .radon import (  # noqa: F401  (kept as module attributes; perfbench/run.py hooks them)
    breakpoint_offsets,
    max_chord_in_direction,
    max_segment_in_direction,
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


def _scan_direction(c: Coloring, v: tuple[int, int]):
    # ((t*, chord max), (witness, segment max)) for the lattice direction v.
    scan = lattice_scan(c, *v)
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
        return dirs, [_scan_direction(c, v) for v in dirs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return dirs, list(pool.map(lambda v: _scan_direction(c, v), dirs))


def _chord_winner(dirs: list[tuple[int, int]], results, tie: float) -> tuple[Chord, float]:
    # first max: ties across directions go to smaller theta
    k = _first_max([r[0][1] for r in results], tie)
    t, v = results[k][0]
    return Chord(Direction.along(*dirs[k]), t), v


def _segment_winner(results, tie: float) -> tuple[Segment, float]:
    return results[_first_max([r[1][1] for r in results], tie)][1]


def best_chord(c: Coloring, angles: int | None = None,
               threads: int = 1) -> tuple[Chord, float]:
    """Maximize |integral over a full chord| over primitive lattice directions.

    Scans the first `angles` primitive directions (shortest lattice vector
    first; all of them at the default budget, which makes the result exact)
    and reports the winning offset of the winning direction.  Deterministic
    for fixed inputs.
    """
    dirs, results = _scan(c, angles, threads)
    return _chord_winner(dirs, results, tie_tolerance(c))


def best_segment(c: Coloring, angles: int | None = None,
                 threads: int = 1) -> tuple[Segment, float]:
    """Maximize |integral over any sub-segment|; same strategy as best_chord."""
    _, results = _scan(c, angles, threads)
    return _segment_winner(results, tie_tolerance(c))


def _report(c: Coloring, dirs: list[tuple[int, int]], results,
            strategy: SearchStrategy) -> DiscrepancyReport:
    # Both winners (first max) of one pass over dirs, plus the segment ratios.
    n, tie = c.n, tie_tolerance(c)
    seg = _segment_winner(results, tie)
    r2 = seg[1] / math.sqrt(n * math.log(n)) if n > 1 else None
    return DiscrepancyReport(n, _chord_winner(dirs, results, tie), seg, strategy,
                             seg[1] / math.sqrt(n), r2)


def scan_report(c: Coloring, angles: int | None = None,
                threads: int = 1) -> DiscrepancyReport:
    """DiscrepancyReport from one lattice-direction scan (chords and segments)."""
    dirs, results = _scan(c, angles, threads)
    used = angles if angles is not None else default_angles(c.n)
    return _report(c, dirs, results, SearchStrategy(used, False))


def _lattice_directions(n: int, budget: int | None = None) -> list[tuple[int, int]]:
    # One primitive lattice vector (dx, dy) per direction, with |dx|, |dy|
    # <= n and dy > 0, or (dx, dy) = (1, 0); the chord runs along (dx, dy),
    # so the offset axis is its normal.  A budget keeps the shortest vectors
    # (ties to the smaller angle); the result is sorted by angle.
    vecs = [
        (dx, dy)
        for dy in range(n + 1)
        for dx in range(-n, n + 1)
        if (dy == 0 and dx == 1) or (dy > 0 and math.gcd(dx, dy) == 1)
    ]
    vecs.sort(key=lambda v: v[0] * v[0] + v[1] * v[1])
    if budget is not None and budget < len(vecs):  # angles only where the cut needs them
        r2 = vecs[budget - 1][0] ** 2 + vecs[budget - 1][1] ** 2
        vecs = [v for v in vecs if v[0] * v[0] + v[1] * v[1] <= r2]
    theta = {v: Direction.along(*v).theta for v in vecs}
    vecs.sort(key=lambda v: (v[0] * v[0] + v[1] * v[1], theta[v]))
    return sorted(vecs[:budget], key=theta.__getitem__)


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
    results = [_walk_direction(c, Direction.along(*v)) for v in dirs]
    return _report(c, dirs, results, SearchStrategy(len(dirs), True))
