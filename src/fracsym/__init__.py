"""fracsym: spectral fractional Laplacians, harmonic extensions, Schwarz
rearrangement and mass-concentration comparison checks on desk-scale grids."""

from .grid import (
    Grid,
    ScalarField,
    build_interval,
    build_radial_ball,
    build_rectangle,
    unit_ball_measure,
)
from .rearrange import (
    ConcentrationCurve,
    RearrangedProfile,
    concentration,
    decreasing_rearrangement,
    distribution_function,
    less_concentrated,
    median,
    median_split,
    schwarz_rearrangement,
)
from .spectral import (
    EigendecompositionError,
    IncompatibleData,
    SpectralOperator,
    apply_fractional,
    build_operator,
    solve_elliptic,
)
from .extension import (
    ExtensionField,
    dtn_residual,
    extend,
    kappa,
    rho,
    rho_prime,
)
from .compare import (
    ComparisonReport,
    DominanceViolated,
    NonFiniteData,
    dominated_compare,
    elliptic_compare,
    gamma_constant,
    lp_check,
    oscillation_check,
    symmetrized_data,
)
from .parabolic import (
    Trajectory,
    implicit_step,
    mild_solve,
    parabolic_compare,
    symmetrized_parabolic_problem,
)

__version__ = "0.1.0"
