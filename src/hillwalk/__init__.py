"""Walk-sum functionals, Fourier-Galerkin spectra and Riesz-basis criteria
for Hill operators with trigonometric-polynomial potentials."""

from .numerics import (
    DEFAULT_PRECISION,
    GammaRatio,
    GaussianRational,
    binomial,
    gamma_product_identity,
    gamma_value,
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
    enumerate_shell,
    is_admissible,
    shell_size_bound,
    shell_step_counts,
    shell_sum,
    vertices,
    weight,
)
from .beta import (
    A_alpha,
    AsymptoticValue,
    BetaValue,
    H_minus,
    H_plus,
    alpha_n,
    beta_equal_rs_leading,
    beta_equal_rs_leading_exact,
    beta_minus,
    beta_minus_leading,
    beta_plus,
    beta_plus_leading,
    beta_plus_leading_exact,
    h_star_minus,
    h_star_plus,
    ratio_H,
    tail_bound_report,
)
from .spectra import (
    BoundaryCondition,
    DirichletUniquenessError,
    LocalizationError,
    LocalizationResult,
    RefinedPair,
    SpectralPair,
    TruncatedOperator,
    assemble,
    attach_dirichlet,
    dirichlet_close,
    eigenvalues,
    find_working_N,
    localize_pairs,
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
    VerdictThresholds,
    concordance_report,
    criterion1_verdict,
    criterion2_quantity,
    criterion3_ratio,
    prop20_verdict,
    structurally_zero,
    t_n,
    t_n_squared,
    theorem31_report,
    theorem5_report,
)
from .verify import CheckResult, VerifyReport, run_verify

__version__ = "0.1.0"
