"""Design-matrix condition auditing for l1-penalized least squares.

Computes, bounds, and cross-validates the Gram-matrix conditions behind
sparse-recovery guarantees (compatibility, restricted eigenvalue, restricted
regression and orthogonality, isometry, leverage/irrepresentable, coherence),
solves the noiseless and noisy Lasso and basis pursuit, and numerically audits
the implication graph tying the conditions together.
"""

__version__ = "0.1.0"

from .core import (
    DEFAULT_SUBSET_CAP,
    BoundedValue,
    Certificate,
    ConeSpec,
    GramMatrix,
    PerturbationPair,
    SubsetN,
    block,
    cone_membership,
    d_infinity,
    derived_rng,
    inverse_11,
    superset_count,
    top_nset,
)
from .errors import (
    AuditError,
    CapExceeded,
    DenominatorNonPositive,
    InvalidParameter,
    MaxItersExceeded,
    ParseError,
    SingularBlock,
)
from .solvers import (
    DEFAULT_CONFIG,
    LPProblem,
    SimplexResult,
    SolverConfig,
    coordinate_descent_lasso,
    project_l1_ball,
    projected_gradient_qp,
    simplex_lp,
    soft_threshold,
)
from .constants import (
    DEFAULT_SIGN_CAP,
    ConditionReport,
    alpha_constant,
    block_norm_2q,
    coherence,
    irrepresentable_signed,
    irrepresentable_uniform,
    restricted_diagonal_holds,
    restricted_isometry,
    restricted_orthogonality,
    rip_constant,
    theta_uniform,
    uniform_eigenvalue,
    weak_rip_constant,
)
from .estimators import (
    certified_lower_phi,
    compatibility_constant,
    evaluate_regression_ratio,
    evaluate_restricted_ratio,
    lower_phi_routes,
    regression_upper,
    restricted_eigenvalue,
    restricted_regression,
)
from .lasso import (
    ApproximationVerdict,
    LassoSolution,
    NoisyProblem,
    OracleVerdict,
    SelectionReport,
    antiprojection_identity_check,
    approximation_verdict,
    basis_pursuit_recover,
    kkt_residual,
    lambda0_bound,
    lambda0_of_data,
    oracle_verdict,
    selection_report,
    solve_noiseless,
    solve_noisy,
)
from .implications import (
    EDGE_IDS,
    ImplicationVerdict,
    check_all,
    check_edge,
    perturbation_transfer,
)
from .experiments import (
    GENERATOR_KINDS,
    GeneratorSpec,
    MonteCarloResult,
    concentration_experiment,
    generate,
    lambda_tilde,
    noise_bound_experiment,
    sample_gaussian_design,
)
