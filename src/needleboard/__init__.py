"""Line-segment discrepancy on signed checkerboards.

Exact segment/grid geometry, Radon-style projections, Fourier-side energy
certificates, global probe search, and randomized statistical verification,
with a reproducible CLI front end.
"""

__version__ = "0.1.0"

from .board import (
    BoardFormatError,
    Coloring,
    make_constant,
    make_parity,
    make_random,
    make_stripes,
    random_cell_values,
    read_text,
    sum_squares,
    write_text,
)
from .geom import (
    Crossing, CrossingList, Segment, cell_crossings, clip_line, integrate, integrate_mc,
)
from .radon import (
    Chord,
    Direction,
    OffsetScan,
    Projection,
    breakpoint_offsets,
    chord_segment,
    max_chord_in_direction,
    max_segment_in_direction,
    offset_scan,
    project,
)
from .search import (
    DiscrepancyReport,
    SearchStrategy,
    best_chord,
    best_segment,
    brute_force,
    default_angles,
    scan_report,
)
from .spectral import (
    EnergyReport,
    certified_lower_bound,
    chi_q_hat,
    f_hat,
    line_energy,
    phi,
    slice_residual,
    tail_energy,
)
from .verify import (
    LowerBoundRow,
    PerturbationReport,
    ScalingReport,
    TailExperiment,
    hoeffding_tail,
    lower_bound_scan,
    perturbation_check,
    upper_bound_scan,
)

__all__ = [
    "__version__",
    "BoardFormatError",
    "Chord",
    "Coloring",
    "Crossing",
    "CrossingList",
    "Direction",
    "DiscrepancyReport",
    "EnergyReport",
    "LowerBoundRow",
    "OffsetScan",
    "PerturbationReport",
    "Projection",
    "ScalingReport",
    "SearchStrategy",
    "Segment",
    "TailExperiment",
    "best_chord",
    "best_segment",
    "breakpoint_offsets",
    "brute_force",
    "cell_crossings",
    "certified_lower_bound",
    "chi_q_hat",
    "chord_segment",
    "clip_line",
    "default_angles",
    "f_hat",
    "hoeffding_tail",
    "integrate",
    "integrate_mc",
    "line_energy",
    "lower_bound_scan",
    "make_constant",
    "make_parity",
    "make_random",
    "make_stripes",
    "max_chord_in_direction",
    "max_segment_in_direction",
    "offset_scan",
    "perturbation_check",
    "phi",
    "project",
    "random_cell_values",
    "read_text",
    "scan_report",
    "slice_residual",
    "sum_squares",
    "tail_energy",
    "upper_bound_scan",
    "write_text",
]
