"""acflow: a numerical laboratory for diffuse-interface curvature flow.

Spectral solver for the scaled reaction-diffusion flow of a double-well
energy, plus the geometric-measure diagnostics (excess functionals,
weighted monotonicity, level-set graphs, good/bad partitions) used to
verify the identities and inequalities the sharp-interface limit rests on.
"""

from .grid import (
    DOUBLE_WELL,
    WAVE_ENERGY,
    Grid,
    ParabolicCylinder,
    PotentialSpec,
    ScalarField,
    Trajectory,
)
from .operators import gradient, integrate, laplacian
from .solver import (
    SCHEMES,
    InterfaceDataError,
    SolverConfig,
    SolverConfigError,
    ac_residual,
    evolve,
    prepare_interface,
    step,
)
from .diagnostics import (
    BrakkeResidual,
    DiagnosticsRecord,
    FrameBundle,
    Hyperplane,
    brakke_residual,
    caccioppoli_ratio,
    constant_one,
    cylinder_cutoff,
    diagnostics_record,
    discrepancy,
    divergence_defect,
    energy_density,
    exponential_decay_profile,
    height_excess,
    radial_bump,
    sobolev_defect,
    stress_energy,
    tilt_excess,
    willmore,
)
from .monotonicity import (
    GaussianDensity,
    KernelPoint,
    gaussian_density,
    huisken_kernel,
    kernel_on_grid,
    l2_linfty_ratio,
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
    graph_derivative_relations,
    heat_compare,
    parabolic_maximal,
    partition_good_bad,
)
from .io import read_field, write_field

__version__ = "0.1.0"
