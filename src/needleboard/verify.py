"""Statistical validation of the random-coloring route and the certificates.

Random colorings concentrate: a fixed segment's integral is a sum of
independent +-length terms, so its tail beyond lambda * sigma must fall under
the explicit Hoeffding envelope 2 exp(-lambda^2 / 2) once Monte-Carlo noise
is allowed for.  Across board sizes the best-segment value grows like a power
of n sandwiched between sqrt(n) and sqrt(n log n); the scan here measures the
exponent.  Certificates from the frequency side must stay below the observed
chord maxima on every fixture.  Finally, integrals must be stable when
segment endpoints snap to an n^-10 grid, including segments split across a
horizontal strip boundary.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .board import KINDS, Coloring, make_board, make_random, random_cell_values
from .geom import Segment, cell_crossings, integrate
from .search import best_chord, best_segment, default_angles
from .spectral import certified_lower_bound

_SNAP_EXP = 10  # endpoint grid spacing n^-10
_PERTURB_LIMIT = 8  # keeps n^-10 comfortably inside double precision
_SCAN_ANGLE_CAP = 256  # per-n direction budget of the scaling scan
_LOWER_ANGLE_CAP = 1024  # per-n direction budget of the certificate scan


@dataclass(frozen=True)
class TailExperiment:
    """Empirical exceedance of |integral| over lambda * sigma thresholds."""

    segment: Segment
    n: int
    trials: int
    seed: int
    lambdas: tuple[float, ...]
    frequencies: tuple[float, ...]
    sigma: float

    @staticmethod
    def envelope(lam: float) -> float:
        """Hoeffding tail 2 exp(-lambda^2/2) for +-1 weights."""
        return 2.0 * math.exp(-lam * lam / 2.0)

    def allowance(self, lam_index: int) -> float:
        """Three binomial standard errors around the empirical frequency."""
        p = self.frequencies[lam_index]
        return 3.0 * math.sqrt(p * (1.0 - p) / self.trials)


def _trial_signs(seed: int, trials: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    # (trials x cells) sign matrix; row t is random_cell_values with seed
    # seed+1+t on cells (i, j), so each row is a slice of the coloring
    # make_random would build for that trial.
    seeds = seed + np.arange(1, trials + 1, dtype=object)
    return random_cell_values(seeds[:, None], i[None, :], j[None, :])


def hoeffding_tail(seg: Segment, n: int, trials: int, seed: int,
                   lambdas) -> TailExperiment:
    """Tail frequencies of the segment integral over random colorings.

    Draws `trials` colorings with seeds seed+1, seed+2, ... and reports the
    fraction with |integral| > lambda * sigma for each lambda, where
    sigma^2 is the exact sum of squared crossing lengths.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    crossings = cell_crossings(seg, n)
    lengths = np.array([e.length for e in crossings], dtype=np.float64)
    sigma = math.sqrt(float(np.sum(lengths**2)))
    if sigma == 0.0:
        raise ValueError("segment does not cross the board (sigma = 0)")
    i, j = np.array([(e.i, e.j) for e in crossings], dtype=np.int64).T
    signs = _trial_signs(seed, trials, i, j)
    sums = signs @ lengths
    lams = tuple(float(x) for x in lambdas)
    freqs = tuple(float(np.mean(np.abs(sums) > lam * sigma)) for lam in lams)
    return TailExperiment(seg, n, trials, seed, lams, freqs, sigma)


@dataclass(frozen=True)
class ScalingReport:
    """Best-segment values across board sizes and their fitted growth."""

    n_values: tuple[int, ...]
    trials: int
    seed: int
    angles: tuple[int, ...]  # per-n direction budget actually used
    values: tuple[tuple[float, ...], ...]  # per n, per trial
    exponent: float | None  # envelope fit; None when fewer than two distinct n
    constants: tuple[float, ...]  # per n: max value / sqrt(n log n)


def upper_bound_scan(n_list, trials: int = 10, seed: int = 0,
                     angles: int | None = None) -> ScalingReport:
    """Measure best-segment growth over random colorings.

    Coloring seeds are seed+1 ... seed+trials, reused across n (the boards
    differ by size anyway).  With `angles` unset each n uses its default
    direction budget capped at 256: the fit needs consistent relative
    coverage, not per-board exactness.  Needs n >= 2 (the sqrt(n log n)
    normalization vanishes at n = 1) and trials >= 1.
    """
    ns = tuple(int(n) for n in n_list)
    if ns and min(ns) < 2:
        raise ValueError(f"board sizes must be at least 2, got n={min(ns)}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    used: list[int] = []
    values: list[tuple[float, ...]] = []
    for n in ns:
        a = angles if angles is not None else min(default_angles(n), _SCAN_ANGLE_CAP)
        used.append(a)
        row = []
        for t in range(1, trials + 1):
            c = make_random(n, seed + t)
            _, v = best_segment(c, angles=a)
            row.append(v)
        values.append(tuple(row))
    constants = tuple(
        max(row) / math.sqrt(n * math.log(n)) for n, row in zip(ns, values)
    )
    # Fit the growth of the per-n envelope, the same statistic the constants
    # table summarizes.  A pooled per-trial fit would tilt toward the trial
    # mean, which grows with a different constant than the maximum.
    exponent = None
    if len(set(ns)) >= 2:
        xs = np.log(ns)
        ys = np.log([max(row) for row in values])
        exponent = float(np.polyfit(xs, ys, 1)[0])
    return ScalingReport(ns, trials, seed, tuple(used), tuple(values), exponent, constants)


@dataclass(frozen=True)
class LowerBoundRow:
    fixture: str
    n: int
    best_chord_value: float
    ratio_sqrt_n: float
    certificate: float
    radius: float


def _fixture_maker(descriptor: str) -> Callable[[int], Coloring]:
    # The board maker of one fixture descriptor, a board kind with ":SEED"
    # after "random" and nothing after the others; a bad descriptor fails
    # here, before any board is scanned.
    kind, colon, seed_text = descriptor.partition(":")
    if kind not in KINDS or bool(colon) != (kind == "random"):
        raise ValueError(f"unknown fixture descriptor {descriptor!r}")
    try:
        seed = int(seed_text) if colon else 0
    except ValueError:
        raise ValueError(
            f"fixture {descriptor!r}: seed {seed_text!r} is not an integer"
        ) from None
    return lambda n: make_board(kind, n, seed)


def lower_scan_angles(n: int) -> int:
    """Direction budget of the chord scan that certificates are checked against."""
    return min(default_angles(n), _LOWER_ANGLE_CAP)


def lower_bound_scan(fixtures, n_list) -> tuple[LowerBoundRow, ...]:
    """Chord maxima against certificates on the named fixtures.

    Raises RuntimeError if any certificate exceeds the chord maximum found,
    since the certificate is a proven lower bound for it.  Needs n >= 1.
    """
    ns = tuple(int(n) for n in n_list)
    if ns and min(ns) < 1:
        raise ValueError(f"board sizes must be at least 1, got n={min(ns)}")
    rows = []
    makers = [(descriptor, _fixture_maker(descriptor)) for descriptor in fixtures]
    for descriptor, make in makers:
        for n in ns:
            c = make(n)
            _, v = best_chord(c, angles=lower_scan_angles(c.n))
            bound, radius = certified_lower_bound(c)
            if v < bound:
                raise RuntimeError(
                    f"certificate {bound} exceeds chord maximum {v} "
                    f"on fixture {descriptor} at n={n}"
                )
            rows.append(
                LowerBoundRow(descriptor, c.n, v, v / math.sqrt(c.n), bound, radius)
            )
    return tuple(rows)


@dataclass(frozen=True)
class PerturbationReport:
    """Largest |integral(I) - integral(J)| seen per snapping branch."""

    n: int
    trials: int
    seed: int
    generic_max: float
    strip_max: float
    split_max: float

    @property
    def max_deviation(self) -> float:
        return max(self.generic_max, self.strip_max, self.split_max)


def _snap(x: float, scale: float) -> float:
    return round(x * scale) / scale


def _snap_segment(s: Segment, scale: float) -> Segment:
    ax, ay = s.a
    bx, by = s.b
    return Segment(
        (_snap(ax, scale), _snap(ay, scale)), (_snap(bx, scale), _snap(by, scale))
    )


def perturbation_check(n: int, trials: int, seed: int = 0) -> PerturbationReport:
    """Integral stability under endpoint snapping to the n^-10 grid.

    Three branches: segments at a generic angle in [1/n, pi/2 - 1/n] with
    the x-axis; nearly horizontal segments inside one strip [0,n] x [i,i+1];
    and segments crossing one strip boundary, split at the crossing and
    snapped per strip.  Each deviation must stay at most 1.
    """
    if not 2 <= n <= _PERTURB_LIMIT:
        raise ValueError(f"perturbation_check needs 2 <= n <= {_PERTURB_LIMIT}, got n={n}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got seed={seed}")
    scale = float(n**_SNAP_EXP)
    rng = np.random.default_rng(seed)
    margin = 1e-6

    generic_max = strip_max = split_max = 0.0
    for t in range(1, trials + 1):
        c = make_random(n, seed + t)

        angle = rng.uniform(1.0 / n, math.pi / 2.0 - 1.0 / n)
        flip = 1.0 if rng.integers(0, 2) == 0 else -1.0
        ax, ay = rng.uniform(0.0, n, 2)
        span = rng.uniform(0.1, n * math.sqrt(2.0))
        b = (ax + flip * span * math.cos(angle), ay + span * math.sin(angle))
        seg = Segment((ax, ay), b)
        dev = abs(integrate(c, seg) - integrate(c, _snap_segment(seg, scale)))
        generic_max = max(generic_max, dev)

        i = int(rng.integers(0, n))
        ya, yb = rng.uniform(i + margin, i + 1 - margin, 2)
        xa, xb = rng.uniform(0.0, n, 2)
        seg = Segment((xa, ya), (xb, yb))
        dev = abs(integrate(c, seg) - integrate(c, _snap_segment(seg, scale)))
        strip_max = max(strip_max, dev)

        k = int(rng.integers(1, n))
        ya = rng.uniform(k - 1 + margin, k - margin)
        yb = rng.uniform(k + margin, k + 1 - margin)
        xa, xb = rng.uniform(0.0, n, 2)
        tcross = (k - ya) / (yb - ya)
        px = xa + tcross * (xb - xa)
        lower = Segment((xa, ya), (px, float(k)))
        upper = Segment((px, float(k)), (xb, yb))
        for part in (lower, upper):
            dev = abs(integrate(c, part) - integrate(c, _snap_segment(part, scale)))
            split_max = max(split_max, dev)

    return PerturbationReport(n, trials, seed, generic_max, strip_max, split_max)
