"""Global maximization of chord and sub-segment discrepancy over directions.

Chord and sub-segment maxima of a checkerboard are both attained along a
primitive lattice direction (dx, dy) with |dx|, |dy| <= n, so those
directions are the only candidates, carried as integer pairs: the search
never rounds an angle.  best_chord / best_segment / scan_report evaluate
the candidates, axes included, in one radon.orbit_scan call, which groups
them by dihedral orbit: one kernel pass per orbit (every breakpoint chord
from shifted board sums), all passes in one reused buffer, keeping only
each direction's best chord and segment values.  Ties between
directions go to the smaller angle, with radon's tie_tolerance.  Only the
winning directions are scanned again, by radon.lattice_scan, for the
witness chord and segment.  brute_force is the small-n oracle: it shares
the enumeration of directions but evaluates every one of them through
radon's scalar cell walk only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .board import Coloring
from .geom import Segment
from .radon import (
    Chord,
    Direction,
    _first_max,
    _first_maxima,
    _walk_direction,
    lattice_scan,
    orbit_scan,
    tie_tolerance,
)
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


def _scan(c: Coloring, angles: int | None):
    # One serial pass over the budgeted lattice directions, one orbit_scan
    # call over all of them: the directions and, per direction,
    # the best chord and segment values that lattice_scan's best_chord and
    # best_segment would report (the first line within tie of the maximum).
    if angles is None:
        angles = default_angles(c.n)
    if angles < 1:
        raise ValueError(f"angle count must be at least 1, got {angles}")
    dirs = _lattice_directions(c.n, angles)
    tie = tie_tolerance(c)
    chord, seg = np.empty(len(dirs)), np.empty(len(dirs))
    for ks, (ch, top, bottom) in orbit_scan(c, dirs):
        chord[ks] = _first_maxima(np.abs(ch), tie)
        seg[ks] = _first_maxima(top - bottom, tie)
    return dirs, chord, seg


def _chord_winner(c: Coloring, dirs: list[tuple[int, int]], chord) -> tuple[Chord, float]:
    # first max: ties across directions go to smaller theta; the witness
    # comes from one lattice_scan of the winning direction
    v = dirs[_first_max(chord, tie_tolerance(c))]
    t, value = lattice_scan(c, *v).best_chord()
    return Chord(Direction.along(*v), t), value


def _segment_winner(c: Coloring, dirs: list[tuple[int, int]], seg) -> tuple[Segment, float]:
    return lattice_scan(c, *dirs[_first_max(seg, tie_tolerance(c))]).best_segment()


def best_chord(c: Coloring, angles: int | None = None) -> tuple[Chord, float]:
    """Maximize |integral over a full chord| over primitive lattice directions.

    Scans the first `angles` primitive directions (shortest lattice vector
    first; all of them at the default budget, which makes the result exact)
    and reports the winning offset of the winning direction.  Deterministic
    for fixed inputs.
    """
    dirs, chord, _ = _scan(c, angles)
    return _chord_winner(c, dirs, chord)


def best_segment(c: Coloring, angles: int | None = None) -> tuple[Segment, float]:
    """Maximize |integral over any sub-segment|; same strategy as best_chord."""
    dirs, _, seg = _scan(c, angles)
    return _segment_winner(c, dirs, seg)


def _report(n: int, chord: tuple[Chord, float], seg: tuple[Segment, float],
            strategy: SearchStrategy) -> DiscrepancyReport:
    # Both winners, plus the segment ratios.
    r2 = seg[1] / math.sqrt(n * math.log(n)) if n > 1 else None
    return DiscrepancyReport(n, chord, seg, strategy, seg[1] / math.sqrt(n), r2)


def scan_report(c: Coloring, angles: int | None = None) -> DiscrepancyReport:
    """DiscrepancyReport from one lattice-direction scan (chords and segments)."""
    dirs, chord, seg = _scan(c, angles)
    used = angles if angles is not None else default_angles(c.n)
    return _report(c.n, _chord_winner(c, dirs, chord), _segment_winner(c, dirs, seg),
                   SearchStrategy(used, False))


def _lattice_directions(n: int, budget: int | None = None) -> list[tuple[int, int]]:
    # One primitive lattice vector (dx, dy) per direction, with |dx|, |dy|
    # <= n and dy > 0, or (dx, dy) = (1, 0); the chord runs along (dx, dy),
    # so the offset axis is its normal.  A budget keeps the shortest vectors
    # (ties to the smaller angle); the result is sorted by angle.
    dx, dy = np.meshgrid(np.arange(-n, n + 1), np.arange(n + 1))
    keep = (np.gcd(dx, dy) == 1) & ((dy > 0) | (dx == 1))
    dx, dy = dx[keep], dy[keep]
    r2 = dx * dx + dy * dy
    if budget is not None and budget < r2.size:  # angles only where the cut needs them
        cut = r2 <= np.partition(r2, budget - 1)[budget - 1]
        dx, dy, r2 = dx[cut], dy[cut], r2[cut]
    vecs = list(zip(dx.tolist(), dy.tolist()))
    ranked = sorted(zip(r2.tolist(), [Direction.along(*v).theta for v in vecs], vecs))
    return [v for _, _, v in sorted(ranked[:budget], key=lambda e: e[1])]


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
    tie = tie_tolerance(c)
    k = _first_max([r[0][1] for r in results], tie)
    t, v = results[k][0]
    seg = results[_first_max([r[1][1] for r in results], tie)][1]
    return _report(c.n, (Chord(Direction.along(*dirs[k]), t), v), seg,
                   SearchStrategy(len(dirs), True))
