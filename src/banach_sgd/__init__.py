"""Stochastic gradient descent for linear inverse problems in l^r spaces."""

from .exceptions import (
    ConfigurationError,
    DataFormatError,
    DimensionMismatchError,
    InvalidInputError,
    IterationInvariantError,
)
from .spaces import (
    SpaceDescriptor,
    bregman_distance,
    dual_pairing,
    duality_map,
    inverse_duality_map,
    lr_norm,
)
from .operators import (
    BlockOperator,
    CsrMatrix,
    NormEstimate,
    ObservationSet,
    RadonGeometry,
    block_norms,
    boyd_operator_norm,
    build_integral_operator,
    build_radon_operator,
    exact_sparse_signal,
    load_matrix_csv,
    max_block_norm,
    partition_rows,
    save_matrix_csv,
    sparse_disk_phantom,
)
from .noise import GaussianNoise, ImpulseNoise, SaltPepperNoise, corrupt
from .solver import (
    APrioriStop,
    ConstantSchedule,
    ConstantsConfig,
    IterationState,
    PolynomialSchedule,
    RunResult,
    SlowDecaySchedule,
    SolverConfig,
    a_priori_stop_index,
    estimate_constants,
    initial_state,
    iterate_n,
    landweber_step,
    run,
    sgd_step,
    step_size,
    stochastic_gradient,
    theoretical_max_step,
    with_seed,
)
from .diagnostics import (
    ConvergenceRecord,
    EnsembleTrace,
    StabilityResult,
    delta_metrics,
    minimum_norm_solution,
    monte_carlo_mean,
    objective,
    polyak_bound,
    rate_envelope,
    stability_probe,
    support_f1,
)

__version__ = "0.1.0"
