"""Stochastic solvers: curvature noise over mini-batch estimates.

The two-step method adds a zero-mean multiple of an estimated
negative-curvature direction to each stochastic gradient step, taking
each sampled Hessian batch's checked eigenpair from the problem
(`FiniteSumProblem.sampled_eigenpair`, which may keep it).  The dynamic
method extracts both the step and the curvature direction from a
truncated CG solve on the sampled system and drives the stepsizes 1/L_k
and 1/sigma_k with stochastic value estimates.  Their `StochasticReport`
gives the harness its own summary fields and trace rows (see
`ncopt.harness`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ncopt.deterministic import TRACE_COLUMNS, _partial_report_on_failure, _step_point
from ncopt.finite_sum import FiniteSumProblem, StochasticOracle
from ncopt.linalg import CgStatus, norm, truncated_cg
from ncopt.problems import (
    EvaluationError,
    finite_gradient,
    finite_hessian,
    integer_argument,
)
from ncopt.steps import (
    ZERO_CURVATURE_TOL,
    LipschitzState,
    certify_curvature_direction,
)

_TINY = 1e-12
# CG iterations per sampled system of the dynamic method
CG_MAX_ITERATIONS = 10
# headroom factor of the measured moment bounds
_MOMENT_MARGIN = 1.5
# bytes of batch matrices (b n-by-n per draw) the moment probe gathers at once
_PROBE_CHUNK_BYTES = 1 << 18
# the dynamic method's factor for inflating a constant after a predicted
# increase, and its safeguards: largest ||s|| and ||beta d|| / ||alpha s||
INFLATE_FACTOR, MAX_S_NORM, MAX_RATIO_D_TO_S = 1.2, 10.0, 0.2
# the dynamic method's default first constants L and sigma; read, never changed
LIPSCHITZ_INIT = LipschitzState(L_current=80.0, sigma_current=100.0)


class ExpectedDecreaseViolation(RuntimeError):
    """The Monte Carlo single-step decrease exceeded its theoretical bound."""


@dataclass(frozen=True)
class MomentBounds:
    """Second-moment envelope of the stochastic directions.

    E||s||^2 <= M1 + M2 ||grad f||^2.  The curvature direction d is scaled
    to ||s||, so the same envelope bounds E||d||^2.
    """

    M1: float
    M2: float

    def __post_init__(self):
        # written so that NaN fails it; M2 divides the admissible stepsize
        if not (0.0 <= self.M1 < math.inf and 0.0 < self.M2 < math.inf):
            raise ValueError("moment bounds need a finite M1 >= 0 and a finite M2 > 0")


@dataclass
class StochasticStepConfig:
    """Constant stepsize of the two-step method.

    `alpha_constant` is required, positive and finite, and sizes both the
    gradient step and the curvature step.  With moment bounds and a
    gradient Lipschitz constant it must not exceed
    `admissible_constant_step`.
    """

    alpha_constant: float | None = None
    moment_bounds: MomentBounds | None = None
    gradient_lipschitz: float | None = None

    def __post_init__(self):
        # written so that NaN fails each check
        if self.alpha_constant is None or not 0.0 < self.alpha_constant < math.inf:
            raise ValueError("alpha_constant must be set, positive and finite")
        if self.gradient_lipschitz is not None and \
                not 0.0 < self.gradient_lipschitz < math.inf:
            raise ValueError("gradient_lipschitz must be positive and finite")
        if self.moment_bounds is not None and self.gradient_lipschitz is not None:
            cap = admissible_constant_step(self.moment_bounds,
                                           self.gradient_lipschitz)
            if self.alpha_constant > cap * (1.0 + 1e-12):
                raise ValueError(
                    "constant stepsize %.3e exceeds admissible bound %.3e"
                    % (self.alpha_constant, cap)
                )


def admissible_constant_step(moments, gradient_lipschitz):
    """Largest constant stepsize admitted by the mean-square gradient bound
    (s = -(gradient estimate) has descent constant delta = 1)."""
    return 1.0 / (2.0 * gradient_lipschitz * moments.M2)


def constant_step_mean_square_bound(moments, gradient_lipschitz, delta, alpha,
                                    iterations, initial_gap):
    """Bound on the average squared gradient norm over `iterations` iterates
    of the constant-stepsize two-step method."""
    iterations = integer_argument("iterations", iterations, 1)
    return (
        2.0 * alpha * gradient_lipschitz * moments.M1 / delta
        + 2.0 * initial_gap / (iterations * delta * alpha)
    )


def apply_safeguards(s, d, alpha, beta):
    """Scale s to norm at most MAX_S_NORM and d so ||beta d|| stays within
    MAX_RATIO_D_TO_S of ||alpha s||.  Idempotent."""
    s = np.asarray(s, dtype=float)
    d = np.asarray(d, dtype=float)
    snorm = norm(s)
    if snorm > MAX_S_NORM:
        s = s * (MAX_S_NORM / snorm)
        snorm = MAX_S_NORM
    dnorm = norm(d)
    if dnorm > 0.0:
        cap = MAX_RATIO_D_TO_S * alpha * snorm
        if beta * dnorm > cap:
            d = d * (cap / (beta * dnorm))
    return s, d


@dataclass
class StochasticIterationRecord:
    index: int
    x: np.ndarray
    alpha: float
    beta: float
    s_norm: float
    d_norm: float
    omega: float | None = None
    sampled_lambda: float | None = None
    cg_status: CgStatus | None = None
    value_before: float | None = None
    value_after_descent: float | None = None
    value_after_curvature: float | None = None
    lipschitz_L: float | None = None
    lipschitz_sigma: float | None = None
    reverted_curvature_step: bool = False


@dataclass
class StochasticReport:
    """A fixed-budget stochastic solve.  `problem`, the finite sum it was
    solved on, serves the exact diagnostics after the solve; it is not part
    of the report's repr, comparison or summary."""

    trace_columns = TRACE_COLUMNS

    problem_name: str
    records: list[StochasticIterationRecord] = field(default_factory=list)
    final_x: np.ndarray | None = None
    final_exact_f: float | None = None
    total_iterations: int = 0
    total_fevals: int = 0
    seed: int | None = None
    config: dict = field(default_factory=dict)
    problem: FiniteSumProblem | None = field(default=None, repr=False,
                                             compare=False)

    @property
    def used_negative_curvature(self):
        return any(r.d_norm > 0.0 for r in self.records)

    def summary(self, abnormal):
        """The JSON summary's fields; a finished solve ends on its budget."""
        return {
            "problem": self.problem_name, "kind": "stochastic",
            "termination_reason": None if abnormal else "iteration_budget",
            "abnormal": abnormal,
            "final_f": self.final_exact_f,
            "total_iterations": self.total_iterations,
            "total_fevals": self.total_fevals,
            "used_negative_curvature": self.used_negative_curvature,
            "seed": self.seed, "config": self.config,
        }

    def trace_rows(self, gradient_norms=None):
        """One row per record, `gnorm` empty unless `gradient_norms` are given."""
        if gradient_norms is None:
            gradient_norms = [None] * len(self.records)
        for r, gnorm in zip(self.records, gradient_norms, strict=True):
            yield (r.index, r.value_before, gnorm, r.sampled_lambda, r.alpha,
                   r.beta, r.cg_status.value if r.cg_status else "noise",
                   r.lipschitz_L, r.lipschitz_sigma, None)

    def close_partial(self):
        """Close a report cut short by a failure: its records counted."""
        self.total_iterations = len(self.records)

    def exact_gradient_norms(self):
        """The exact gradient norm at each recorded iterate, one full-batch
        `problem.gradient` per record; the solve itself never evaluates
        them.  A non-finite norm raises EvaluationError."""
        gradient = self.problem.gradient
        return np.array([norm(gradient(r.x))
                         for r in self.records], dtype=float)

    def mean_square_gradient(self):
        """The mean of the squared exact gradient norms over the records;
        a report without records is a ValueError."""
        if not self.records:
            raise ValueError("report has no records")
        return float(np.mean(self.exact_gradient_norms() ** 2))


def _require_finite(x, value, gradient=None):
    """Raise EvaluationError at x when a sampled estimate fails the rule its
    exact counterpart meets in `ObjectiveProblem`, before it can steer the
    iteration: a finite value, then a finite gradient norm
    (`finite_gradient`).  A sampled Hessian is checked where it is made,
    by `finite_hessian`, after them."""
    if not math.isfinite(value):
        raise EvaluationError("sampled value is %r" % value, x)
    if gradient is not None:
        finite_gradient(gradient, x, "sampled gradient")


def _sampled_estimates(x, oracle):
    """The checked value and gradient estimates at x on a fresh gradient
    batch, that batch, and an independent Hessian batch."""
    grad_batch = oracle.next_gradient_batch()
    hess_batch = oracle.next_hessian_batch()
    value_est, g_est = oracle.problem.batch_value_gradient(x, grad_batch)
    _require_finite(x, value_est, g_est)
    return value_est, g_est, grad_batch, hess_batch


def curvature_noise_step(x, oracle, alpha):
    """One iteration of the stochastic two-step method.

    Draws a gradient-batch step s = -(gradient estimate), an independent
    Hessian batch whose `FiniteSumProblem.sampled_eigenpair` gives the
    curvature direction (its leftmost eigenvector scaled to ||s||),
    certified without the norm cap, and a uniform omega in [-1, 1]; the
    step is x + alpha*(s + omega*d).  Returns (x_next, record); the
    record's index is 1, a lone step's, and `two_step_stochastic_solve`
    numbers each record by its own iteration.  A non-finite estimate
    raises EvaluationError, and a next iterate that overflows
    ConditionViolation.  An x of another shape than the problem's, or a
    stepsize that is not positive and finite, is a ValueError before any
    draw; the solvers check the finiteness of their start once.
    """
    # StochasticStepConfig's rule, written so that NaN fails it
    if not 0.0 < alpha < math.inf:
        raise ValueError("stepsize must be positive and finite")
    x = oracle.problem._check_dimension(np.asarray(x, dtype=float))

    value_est, g_est, _, hess_batch = _sampled_estimates(x, oracle)
    eig = oracle.problem.sampled_eigenpair(x, hess_batch)
    omega = oracle.next_omega()
    s = -g_est
    lam = eig.leftmost_value
    snorm = norm(s)
    if lam >= -ZERO_CURVATURE_TOL or snorm == 0.0:
        d = np.zeros_like(x)
    else:
        # leftmost_vector has a fixed sign (largest entry positive), which
        # keeps replays stable; omega makes the step zero-mean
        d = snorm * eig.leftmost_vector
        certify_curvature_direction(d, eig, None, check_norm_cap=False)

    # x + alpha*s + alpha*omega*d, in the same operations and order
    x_next = _step_point(_step_point(x, alpha, s), alpha * omega, d)
    record = StochasticIterationRecord(
        index=1, x=x.copy(), alpha=alpha, beta=alpha,
        s_norm=snorm, d_norm=norm(d), omega=omega,
        sampled_lambda=lam, value_before=value_est,
    )
    return x_next, record


def _iterate(oracle, iterations, x0, step, config):
    """The fixed-budget loop both stochastic solvers share; returns the report.

    `step(k, x)` returns the next iterate, the iteration's record and how
    many sampled values it evaluated; with the final exact f they make the
    report's total_fevals.  The final f is the loop's only full-batch
    evaluation.  `config` is the solver's part of the report's config echo.
    The budget and the start x0 (by default the problem's) are checked
    before any draw, x0 by the rule of `ObjectiveProblem`'s evaluations.
    """
    iterations = integer_argument("iterations", iterations, 1)
    problem = oracle.problem
    x = problem._check_point(
        np.array(problem.default_start if x0 is None else x0, dtype=float))
    report = StochasticReport(
        problem_name=problem.name,
        seed=oracle.seed,
        config={**config, "batch_size": oracle.batch_size, "iterations": iterations},
        problem=problem,
    )
    with _partial_report_on_failure(report):
        for k in range(1, iterations + 1):
            x_next, record, fevals = step(k, x)
            report.records.append(record)
            report.total_fevals += fevals
            x = x_next
        report.final_x = x
        report.final_exact_f = problem.evaluate(x)
        report.total_fevals += 1
    report.total_iterations = iterations
    return report


def two_step_stochastic_solve(oracle, config, iterations, x0=None):
    """Run the stochastic two-step method for a fixed iteration budget, with
    `config.alpha_constant` sizing both steps.

    The mean-square gradient bound is checked after the solve, with
    `report.mean_square_gradient()`.  An EvaluationError, KernelError or
    ConditionViolation raised mid-solve carries the partial report as
    `report`.
    """
    alpha = config.alpha_constant

    def step(k, x):
        x_next, record = curvature_noise_step(x, oracle, alpha)
        record.index = k
        # one value estimate, at x
        return x_next, record, 1

    return _iterate(oracle, iterations, x0, step, {
        "method": "stochastic_two_step",
        "alpha_constant": alpha,
    })


def dynamic_stochastic_solve(oracle, lipschitz_init=None, iterations=1000,
                             x0=None, use_curvature=True):
    """Dynamic stochastic method with CG-derived step and curvature direction.

    The first constants L_0 and sigma_0 are `lipschitz_init`'s, by default
    LIPSCHITZ_INIT's (80, 100); the solve reads them and changes neither.
    Per iteration: sample a gradient and an independent Hessian estimate,
    run CG on the sampled system for at most CG_MAX_ITERATIONS, take the
    safeguarded step alpha_k*s_k with alpha_k = 1/L_k, then the curvature
    step beta_k*d_k with beta_k = 1/sigma_k.  Value estimates on the
    iteration's gradient batch drive the constants: a predicted increase
    inflates the constant by INFLATE_FACTOR (never decreased) and a
    predicted increase from the curvature step also resets it.  With
    use_curvature=False the curvature step is suppressed (the descent-only
    twin used as a baseline).  A non-finite value, gradient norm or Hessian
    entry of an estimate raises EvaluationError, and a step to x_hat or to
    the curvature trial point that overflows ConditionViolation; each, and
    any KernelError raised mid-solve, carries the partial report as
    `report`.
    """
    lipschitz_init = lipschitz_init or LIPSCHITZ_INIT
    problem = oracle.problem
    L = lipschitz_init.L_current
    sigma = lipschitz_init.sigma_current

    def step(k, x):
        nonlocal L, sigma
        f_here, g_est, grad_batch, hess_batch = _sampled_estimates(x, oracle)
        H_est = finite_hessian(problem.batch_hessian(x, hess_batch), x,
                               "sampled Hessian")
        cg = truncated_cg(H_est, g_est, max_iterations=CG_MAX_ITERATIONS)
        s = cg.solution
        d = (cg.curvature_direction
             if use_curvature and cg.curvature_direction is not None
             else np.zeros_like(x))
        alpha_k = 1.0 / L
        beta_k = 1.0 / sigma
        s, d = apply_safeguards(s, d, alpha_k, beta_k)

        x_hat = _step_point(x, alpha_k, s)
        f_hat = problem.batch_value(x_hat, grad_batch)
        _require_finite(x_hat, f_hat)
        L_next = L * INFLATE_FACTOR if f_hat > f_here else L

        reverted = False
        curvature_trial = bool(d.any())
        if curvature_trial:
            x_next = _step_point(x_hat, beta_k, d)
            f_next = problem.batch_value(x_next, grad_batch)
            _require_finite(x_next, f_next)
            if f_next > f_hat:
                sigma_next = sigma * INFLATE_FACTOR
                x_next = x_hat
                reverted = True
            else:
                sigma_next = sigma
        else:
            x_next, f_next, sigma_next = x_hat, f_hat, sigma

        record = StochasticIterationRecord(
            index=k, x=x.copy(), alpha=alpha_k, beta=beta_k,
            s_norm=norm(s), d_norm=norm(d),
            cg_status=cg.status, value_before=f_here,
            value_after_descent=f_hat, value_after_curvature=f_next,
            lipschitz_L=L, lipschitz_sigma=sigma,
            reverted_curvature_step=reverted,
        )
        L, sigma = L_next, sigma_next
        # value estimates at x, at x_hat and, after a curvature step, at x_next
        return x_next, record, 2 + curvature_trial

    return _iterate(oracle, iterations, x0, step, {
        "method": "stochastic_dynamic",
        "use_curvature": use_curvature,
        "L_init": lipschitz_init.L_current,
        "sigma_init": lipschitz_init.sigma_current,
        "inflate_factor": INFLATE_FACTOR, "max_s_norm": MAX_S_NORM,
        "max_ratio_d_to_s": MAX_RATIO_D_TO_S, "cg_max_iterations": CG_MAX_ITERATIONS,
    })


def measure_moment_constants(oracle, x, draws=10000):
    """Empirical second-moment envelope of (s, d) at a point.

    Uses the oracle's own streams; the squared-norm coefficients are set to
    1.5 (an unbiased mini-batch gradient has coefficient exactly 1) and
    the constant terms to 1.5 times the measured variance, so the
    envelope holds with headroom at the measured point.  The curvature
    direction is scaled to ||s|| and inherits the same bounds.  The
    batches are drawn one at a time, as a solve draws them, and evaluated
    `_probe_chunk(oracle)` at a time with `batch_gradients`; each squared
    deviation equals the one-draw dot product bit for bit.
    """
    draws = integer_argument("draws", draws, 1)
    x = np.asarray(x, dtype=float)
    problem = oracle.problem
    exact_g = problem.gradient(x)
    deviations = np.empty(draws)
    chunk = _probe_chunk(oracle)
    for start in range(0, draws, chunk):
        batches = np.array([oracle.next_gradient_batch()
                             for _ in range(min(chunk, draws - start))])
        e = exact_g - problem.batch_gradients(x, batches)
        # stacked dot products, each e_i @ e_i
        deviations[start:start + len(e)] = np.matmul(e[:, None, :],
                                                     e[:, :, None])[:, 0, 0]
    m1 = _MOMENT_MARGIN * float(np.mean(deviations)) + _TINY
    return MomentBounds(M1=m1, M2=_MOMENT_MARGIN)


def _probe_chunk(oracle):
    """How many draws the moment probe evaluates in one pass: as many as
    keep their gathered batch matrices within _PROBE_CHUNK_BYTES."""
    per_draw = 8 * oracle.batch_size * oracle.problem.dimension ** 2
    return max(1, _PROBE_CHUNK_BYTES // per_draw)


@dataclass
class DescentCheckResult:
    empirical_decrease: float
    bound: float
    standard_error: float
    replications: int


def expected_descent_check(problem, x, config, replications, seed=0,
                           batch_size=2, moments=None, measure_draws=2000):
    """Monte Carlo check of the expected single-step decrease bound.

    Estimates E[f(x + alpha s + alpha omega d)] - f(x) over fresh draws and
    compares against the bound built from the (measured) moment constants
    and the problem's documented gradient Lipschitz constant.  Raises
    ExpectedDecreaseViolation if the estimate exceeds the bound by more than
    three standard errors, or if the estimate is NaN.
    """
    replications = integer_argument("replications", replications, 1)
    x = np.asarray(x, dtype=float)
    L = config.gradient_lipschitz or problem.local_gradient_lipschitz
    if L is None:
        raise ValueError("a documented gradient Lipschitz constant is required")
    alpha = config.alpha_constant
    oracle = StochasticOracle(problem, batch_size=batch_size, seed=seed)
    if moments is None:
        moments = measure_moment_constants(oracle, x, draws=measure_draws)
    f_x = problem.evaluate(x)
    g = problem.gradient(x)
    gnorm2 = float(g @ g)

    decreases = np.empty(replications)
    for i in range(replications):
        x_next, _ = curvature_noise_step(x, oracle, alpha)
        decreases[i] = problem.evaluate(x_next) - f_x
    empirical = float(np.mean(decreases))
    stderr = float(np.std(decreases, ddof=1) / np.sqrt(replications)) \
        if replications > 1 else 0.0
    bound = (
        -(alpha - 0.5 * L * moments.M2 * alpha ** 2
          - L * moments.M2 * alpha ** 2 / 6.0) * gnorm2
        + 0.5 * L * moments.M1 * alpha ** 2
        + L * moments.M1 * alpha ** 2 / 6.0
    )
    # written so that a NaN estimate fails it
    if not empirical <= bound + 3.0 * stderr:
        raise ExpectedDecreaseViolation(
            "empirical decrease %.6e exceeds bound %.6e + 3*SE %.2e"
            % (empirical, bound, stderr)
        )
    return DescentCheckResult(empirical_decrease=empirical, bound=bound,
                              standard_error=stderr, replications=replications)
