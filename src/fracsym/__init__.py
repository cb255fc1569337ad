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
    convex_comparison_check,
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
    heat_semigroup,
    solve_elliptic,
)
from .extension import (
    ExtensionField,
    beta,
    dtn_residual,
    extend,
    kappa,
    nu,
    rho,
    rho_prime,
    y_of_z,
    z_of_y,
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
    effective_gamma,
    implicit_step,
    mild_solve,
    parabolic_compare,
    symmetrized_parabolic_problem,
)

__version__ = "0.1.0"
