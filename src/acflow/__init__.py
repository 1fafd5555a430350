"""acflow: a numerical laboratory for diffuse-interface curvature flow.

Spectral solver for the scaled reaction-diffusion flow of a double-well
energy, plus the geometric-measure diagnostics (excess functionals,
weighted monotonicity, level-set graphs, good/bad partitions) used to
verify the identities and inequalities the sharp-interface limit rests on.
"""

from .grid import (
    WAVE_ENERGY,
    Grid,
    ParabolicCylinder,
    ScalarField,
    Trajectory,
)
from .solver import (
    SCHEMES,
    FlowDivergedError,
    InterfaceDataError,
    SolverConfig,
    SolverConfigError,
    evolve,
    prepare_interface,
)
from .diagnostics import (
    BrakkeResidual,
    DiagnosticsRecord,
    FrameBundle,
    Hyperplane,
    brakke_residual,
    caccioppoli_ratio,
    diagnostics_record,
    divergence_defect,
    height_excess,
    radial_bump,
    sobolev_defect,
    stress_energy,
    tilt_excess,
    willmore,
)
from .monotonicity import (
    KernelPoint,
    gaussian_density,
    kernel_on_grid,
    monotonicity_residual,
)
from .levelset import (
    ExcessDecayReport,
    GoodBadPartition,
    GraphExtractionError,
    LevelSetGraph,
    distance_function,
    distance_gradient_max,
    excess_decay_ratio,
    extract_graph,
    heat_compare,
    partition_good_bad,
)
from .io import read_field, write_field

__version__ = "0.1.0"
