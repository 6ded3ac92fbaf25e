"""sensact: periodic sensing/actuation schedules for linear systems in
which sensors and actuators cannot operate in the same time step.

Construct a discrete-time plant and stabilizing gains, certify binary
switching schedules (exact monodromy contraction or fast dwell-time
screens), solve for steady periodic covariances, verify distribution-free
chance constraints, search exhaustively for the cheapest admissible
schedule, and validate everything with seeded Monte-Carlo ensembles.
"""

__version__ = "0.1.0"

from .exceptions import (
    DimensionError,
    DomainError,
    NilpotencyError,
    NumericsError,
    SchemaError,
    SensactError,
    StabilityError,
)
from .linalg import (
    matrix_exponential,
    solve_dare,
    solve_discrete_lyapunov,
    spectral_radius,
)
from .plant import (
    CwParams,
    GainSet,
    ModeMatrices,
    SystemModel,
    TargetSpec,
    build_cw_continuous,
    discretize_zoh,
    mode_matrices,
    synthesize_gains,
    synthesize_lqr_gain,
    synthesize_observer_gain,
)
from .sequence import (
    AdmissibilityReport,
    DwellSummary,
    SwitchSequence,
    admissibility,
    dwell_counts,
    dwell_feasible,
    growth_constant,
    irreducible_core,
    proper_divisors,
)
from .covariance import (
    ContractionCertificate,
    contraction_certificate,
    propagate_error_cov,
    steady_augmented_cov,
    steady_error_cov,
    steady_mean_phases,
    transient,
)
from .chance import (
    BoxConstraint,
    ChanceReport,
    chebyshev_alpha,
    verify_chance,
)
from .search import (
    CostWeights,
    SearchResult,
    SequenceEvaluator,
    search_fixed_length,
    search_up_to,
)
from .sim import (
    EnsembleStats,
    SimConfig,
    empirical_violation,
    run_ensemble,
    step_closed_loop,
)
