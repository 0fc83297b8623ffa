"""Walk-sum functionals, Fourier-Galerkin spectra and Riesz-basis criteria
for Hill operators with trigonometric-polynomial potentials."""

from .numerics import (
    DEFAULT_PRECISION,
    GaussianRational,
    gamma_product_identity,
    to_mpc,
)
from .potential import (
    FourierPotential,
    TwoTermParams,
    parse_potential,
    potential_to_json,
    two_term,
)
from .walks import (
    ShellSteps,
    Walk,
    WalkKind,
    WalkSingularityError,
    enumerate_closed,
    shell_step_counts,
    shell_sum,
    vertices,
    weight,
)
from .beta import (
    A_alpha,
    BetaValue,
    H_minus,
    H_plus,
    alpha_n,
    beta_equal_rs_leading_exact,
    beta_minus,
    beta_plus,
    beta_plus_leading,
    beta_plus_leading_exact,
    h_star_minus,
    h_star_plus,
    ratio_H,
)
from .spectra import (
    BoundaryCondition,
    ConvergenceError,
    DirichletUniquenessError,
    LocalizationError,
    LocalizationResult,
    SpectralPair,
    TruncatedOperator,
    assemble,
    attach_dirichlet,
    dirichlet_close,
    eigenvalues,
    find_working_N,
    localize_pairs,
    pair_couplings,
    reduction_residual,
    refined_dirichlet,
    refined_pair,
    spectrum_csv,
)
from .criteria import (
    BasisVerdict,
    ConcordanceReport,
    DegenerateRatioError,
    IndexSet,
    concordance_report,
    criterion1_verdict,
    criterion3_ratio,
    prop20_verdict,
    structurally_zero,
    t_n_squared,
    theorem31_report,
    theorem5_report,
)
from .verify import CheckResult, VerifyReport, run_verify

__version__ = "0.1.0"
