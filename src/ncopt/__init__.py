"""Nonconvex optimization with descent and negative-curvature steps.

Library layout:

- `problems` / `finite_sum`: analytic test problems, finite-sum objectives,
  mini-batch oracles, CSV dataset ingestion.
- `linalg`: leftmost eigenpair, truncated CG with curvature detection, the
  modified-Newton spectral shift.
- `steps`: direction computation and certification; `UpperModel`, the
  quadratic or cubic upper model along one direction, which gives its
  optimal stepsize, model reduction and constant estimate; the
  curvature-constant updates.
- `deterministic`: the fixed-stepsize two-step method, the adaptive dynamic
  method, and the complexity census.
- `stochastic`: curvature-noise SGD and the dynamic stochastic method.
- `harness` / `cli`: configured experiments, comparison measures, campaigns.
"""

from ncopt.deterministic import (
    ComplexityCensus,
    InnerLoopStall,
    IterationRecord,
    SolverReport,
    TerminationReason,
    TerminationSpec,
    complexity_census,
    dynamic_solve,
    two_step_solve,
)
from ncopt.finite_sum import (
    FiniteSumProblem,
    LinearLeastSquaresProblem,
    QuadraticFiniteSum,
    StochasticOracle,
    TwoLayerNetProblem,
    load_dataset,
    random_quadratic_finite_sum,
    synthetic_two_layer_net,
)
from ncopt.harness import (
    ComparisonRow,
    ExperimentConfig,
    UsageError,
    campaign,
    compare,
    run_experiment,
    standard_campaign_pairs,
)
from ncopt.linalg import (
    CgOutcome,
    CgStatus,
    EigenResult,
    KernelError,
    leftmost_eigenpair,
    modified_newton_shift,
    symmetric_extreme_eigenvalues,
    truncated_cg,
)
from ncopt.problems import (
    EvaluationError,
    ObjectiveProblem,
    list_problems,
    make_problem,
)
from ncopt.steps import (
    ConditionViolation,
    LipschitzState,
    UpperModel,
    descent_direction,
    negative_curvature_direction,
    optimal_stepsizes,
    upper_models,
)
from ncopt.stochastic import (
    LIPSCHITZ_INIT,
    MomentBounds,
    StochasticReport,
    StochasticStepConfig,
    admissible_constant_step,
    constant_step_mean_square_bound,
    curvature_noise_step,
    dynamic_stochastic_solve,
    expected_decrease_bound,
    measure_moment_constants,
    two_step_stochastic_solve,
)

__version__ = "0.1.0"
