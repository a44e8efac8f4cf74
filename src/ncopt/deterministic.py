"""Deterministic solvers combining descent and negative-curvature steps.

`two_step_solve` alternates a curvature step and a descent step with fixed
stepsizes; `dynamic_solve` picks per iteration whichever step's upper-model
reduction is larger, accepts it only if the objective decreases at least as
much as the model predicts, and inflates the corresponding curvature
constant otherwise.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ncopt.linalg import KernelError, leftmost_eigenpair
from ncopt.problems import EvaluationError
from ncopt.steps import (
    ConditionViolation,
    LipschitzState,
    default_criteria,
    descent_direction,
    lipschitz_hat,
    model_reduction_curvature,
    model_reduction_descent,
    negative_curvature_direction,
    optimal_stepsizes,
)


class TerminationReason(enum.Enum):
    SECOND_ORDER_POINT = "second_order_point"
    TOLERANCE_MET = "tolerance_met"
    MAX_ITERATIONS = "max_iterations"
    TINY_STEP = "tiny_step"


class InnerLoopStall(RuntimeError):
    """The dynamic method's inner loop exceeded its safety cap.

    The theory guarantees a finite loop, so this signals a defect; the
    partial report accumulated so far is attached for post-mortems.
    """


# passes of the dynamic method's inner loop before it raises InnerLoopStall
INNER_LOOP_CAP = 1000

# failures that end a solve abnormally; every solver attaches the partial
# report to each as `report`
SOLVER_FAILURES = (InnerLoopStall, EvaluationError, KernelError, ConditionViolation)


@dataclass
class TerminationSpec:
    """Stopping rules shared by the deterministic solvers.

    Relative tolerances follow the usual practice of scaling by the
    magnitudes at the starting point (floored at 1); `min_step_norm` stops on
    an accepted displacement smaller than the given norm.
    """

    grad_tol_rel: float = 1e-5
    curv_tol_rel: float = 1e-5
    max_iterations: int = 10000
    min_step_norm: float = 1e-16

    def __post_init__(self):
        if min(self.grad_tol_rel, self.curv_tol_rel, self.min_step_norm) <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass
class IterationRecord:
    index: int
    x: np.ndarray
    f_value: float
    gradient_norm: float
    lam: float
    s: np.ndarray
    d: np.ndarray
    step_taken: str  # descent | curvature | both | none
    x_hat: np.ndarray | None = None
    alpha: float | None = None
    beta: float | None = None
    model_reduction_s: float | None = None
    model_reduction_d: float | None = None
    inner_loop_count: int = 0
    feval_count: int = 0
    lipschitz_L: float | None = None
    lipschitz_sigma: float | None = None


@dataclass
class SolverReport:
    """Full per-iteration trace plus termination summary.

    A report is immutable by convention once a solve returns; `f` values
    along accepted steps are non-increasing for the deterministic solvers.
    """

    problem_name: str
    records: list[IterationRecord] = field(default_factory=list)
    termination_reason: TerminationReason | None = None
    final_f: float = np.nan
    final_gradient_norm: float = np.nan
    final_lambda: float = np.nan
    total_fevals: int = 0
    total_iterations: int = 0
    problem_lower_bound: float | None = None
    config: dict = field(default_factory=dict)

    @property
    def used_negative_curvature(self):
        return any(np.any(r.d != 0.0) for r in self.records)

    def finish(self, reason):
        last = self.records[-1]
        self.termination_reason = reason
        self.final_f = last.f_value
        self.final_gradient_norm = last.gradient_norm
        self.final_lambda = last.lam
        self.total_fevals = last.feval_count
        self.total_iterations = len(self.records)
        return self

    def close_partial(self):
        """Close a report cut short by a failure: no termination reason."""
        if self.records:
            self.finish(None)


def _neg(lam):
    return max(0.0, -lam)


@contextlib.contextmanager
def _partial_report_on_failure(report):
    """Close the report accumulated so far (`close_partial`) and attach it
    as `report` to a solver failure raised inside.  Every solver, the
    stochastic ones too, runs its loop under this."""
    try:
        yield
    except SOLVER_FAILURES as err:
        report.close_partial()
        err.report = report
        raise


def _terminal_record(k, x, f, gnorm, lam, problem):
    return IterationRecord(
        index=k, x=np.array(x, dtype=float), f_value=f, gradient_norm=gnorm,
        lam=lam, s=np.zeros_like(x), d=np.zeros_like(x), step_taken="none",
        feval_count=problem.evaluation_count,
    )


def _iterate(problem, x0, criteria, termination, step, use_curvature, echo):
    """The iteration both deterministic solvers share; returns the report.

    Each iterate evaluates f (unless the previous step carried it), g, H
    and one leftmost eigenpair, and certifies the curvature direction d.
    The solve stops at a second-order point (d = 0 and g = 0) or when both
    relative tolerances hold; otherwise `step(k, x, f, g, gnorm, H, eig, d)`
    returns the next iterate, f there (None if not evaluated) and the
    IterationRecord fields it sets.  A tiny step or the iteration cap ends
    the solve at the next iterate.  A step that finds no acceptable point
    raises InnerLoopStall, and the iterate is recorded as terminal.
    """
    report = SolverReport(
        problem_name=problem.name,
        problem_lower_bound=problem.lower_bound,
        config={"problem": problem.name, "criteria": asdict(criteria),
                "termination": asdict(termination), **echo},
    )
    x = np.array(problem.default_start if x0 is None else x0, dtype=float)
    f = stop = None
    with _partial_report_on_failure(report):
        for k in itertools.count(1):
            # f carried by the step is reused, but a tiny step or the cap
            # ends the solve at an iterate whose f is evaluated afresh
            if f is None or stop is not None:
                f = problem.evaluate(x)
            g = problem.gradient(x)
            H = problem.hessian(x)
            eig = leftmost_eigenpair(H, g)
            lam = eig.leftmost_value
            gnorm = float(np.linalg.norm(g))
            if k == 1:
                g1_scale, lam1_scale = max(1.0, gnorm), max(1.0, _neg(lam))

            if stop is None:
                d = (negative_curvature_direction(eig, H, g, criteria)
                     if use_curvature else np.zeros_like(x))
                if gnorm == 0.0 and not np.any(d != 0.0):
                    stop = TerminationReason.SECOND_ORDER_POINT
                elif gnorm <= termination.grad_tol_rel * g1_scale and \
                        _neg(lam) <= termination.curv_tol_rel * lam1_scale:
                    stop = TerminationReason.TOLERANCE_MET
            if stop is not None:
                report.records.append(_terminal_record(k, x, f, gnorm, lam, problem))
                return report.finish(stop)

            try:
                x_next, f_next, fields = step(k, x, f, g, gnorm, H, eig, d)
            except InnerLoopStall:
                report.records.append(_terminal_record(k, x, f, gnorm, lam, problem))
                raise
            report.records.append(IterationRecord(
                index=k, x=x.copy(), f_value=f, gradient_norm=gnorm, lam=lam, d=d,
                feval_count=problem.evaluation_count, **fields,
            ))
            step_norm = float(np.linalg.norm(x_next - x))
            x, f = x_next, f_next
            if step_norm < termination.min_step_norm:
                stop = TerminationReason.TINY_STEP
            elif k == termination.max_iterations:
                stop = TerminationReason.MAX_ITERATIONS


def two_step_solve(problem, criteria=None, alpha=None, beta=None,
                   termination=None, strategy="steepest", x0=None):
    """Alternate a fixed-size curvature step and a fixed-size descent step.

    The caller supplies the stepsizes; they are admissible when
    alpha < 2*delta*zeta/(L*eta^2) and beta < 3*gamma/(sigma*theta) for the
    problem's true curvature constants, which is only verifiable on problems
    with documented constants.  Returns the current iterate as soon as the
    curvature direction and the gradient vanish.  An EvaluationError, KernelError or
    ConditionViolation raised mid-solve carries the partial report as
    `report`.  Without criteria it uses `default_criteria(strategy)`.  A
    modified-Newton descent step must also keep ||s||/||g|| in
    [zeta, eta], which the default band [1, 1] admits only where H is a
    multiple of I, so a modified-Newton caller gives its own zeta and eta.
    """
    if alpha is None or beta is None or alpha <= 0.0 or beta <= 0.0:
        raise ValueError("two_step_solve needs positive fixed stepsizes")
    criteria = criteria or default_criteria(strategy)

    def step(k, x, f, g, gnorm, H, eig, d):
        has_d = bool(np.any(d != 0.0))
        x_hat = x + beta * d
        g_hat = problem.gradient(x_hat) if has_d else g
        if float(np.linalg.norm(g_hat)) == 0.0:
            s_hat = np.zeros_like(x)
        elif strategy == "modified_newton" and has_d:
            s_hat = descent_direction(strategy, g_hat, problem.hessian(x_hat),
                                      criteria)
        else:
            # x_hat is x when no curvature step was taken, so H and its
            # decomposition serve the descent step too
            s_hat = descent_direction(strategy, g_hat, H, criteria, eig=eig)
        has_s = bool(np.any(s_hat != 0.0))
        taken = "both" if has_d and has_s else "curvature" if has_d else "descent"
        return x_hat + alpha * s_hat, None, dict(
            s=s_hat, step_taken=taken, x_hat=x_hat.copy(), alpha=alpha, beta=beta)

    return _iterate(problem, x0, criteria, termination or TerminationSpec(), step,
                    True, dict(method="two_step", strategy=strategy,
                               alpha=alpha, beta=beta))


def dynamic_solve(problem, criteria=None, strategy="steepest",
                  lipschitz_init=None, termination=None, x0=None,
                  use_curvature=True):
    """Adaptive method choosing between descent and curvature steps.

    Each iteration compares the optimal model reductions of the two
    candidate steps, tests the chosen step's actual decrease against its
    model, and on failure inflates the corresponding constant (factor in
    [rho, 1e3]) and retries, at most INNER_LOOP_CAP times.  After
    acceptance the constant used is relaxed toward the value that made
    model and actual decrease agree.
    With use_curvature=False the curvature direction is suppressed, giving
    the descent-only twin used as a comparison baseline.  Every member of
    SOLVER_FAILURES raised mid-solve carries the partial report as `report`.
    Without criteria it uses `default_criteria(strategy)`.
    """
    criteria = criteria or default_criteria(strategy)
    state = replace(lipschitz_init or LipschitzState())

    def step(k, x, f, g, gnorm, H, eig, d):
        has_d = bool(np.any(d != 0.0))
        if gnorm == 0.0:
            s = np.zeros_like(x)
        else:
            s = descent_direction(strategy, g, H, criteria,
                                  enforce_norm_band=False, eig=eig)
        has_s = bool(np.any(s != 0.0))

        inner = 0
        while True:
            inner += 1
            if inner > INNER_LOOP_CAP:
                raise InnerLoopStall(
                    "inner loop exceeded %d passes at iteration %d (L=%g, sigma=%g)"
                    % (INNER_LOOP_CAP, k, state.L_current, state.sigma_current))
            sizes = optimal_stepsizes(g, s if has_s else None,
                                      d if has_d else None, H, state)
            m_s = (model_reduction_descent(g, s, state.L_current, sizes.alpha)
                   if has_s else -np.inf)
            m_d = (model_reduction_curvature(g, d, H, state.sigma_current, sizes.beta)
                   if has_d else -np.inf)
            # the step with the larger model reduction is tried
            kind, direction, stepsize, m, estimate = (
                ("gradient", s, sizes.alpha, m_s, state.L_current) if m_s >= m_d
                else ("hessian", d, sizes.beta, m_d, state.sigma_current))
            trial = x + stepsize * direction
            f_trial = problem.evaluate(trial)
            hat = lipschitz_hat(kind, f_trial, f, m, stepsize,
                                float(np.linalg.norm(direction)), estimate)
            if f_trial <= f - m:
                break
            state.inflate(kind, hat)

        fields = dict(
            s=s, step_taken="descent" if kind == "gradient" else "curvature",
            alpha=sizes.alpha, beta=sizes.beta,
            model_reduction_s=None if not has_s else m_s,
            model_reduction_d=None if not has_d else m_d,
            inner_loop_count=inner, lipschitz_L=state.L_current,
            lipschitz_sigma=state.sigma_current,
        )
        # accepted: relax the constant that was exercised, keep the other
        state.settle(kind, hat)
        return trial, f_trial, fields

    return _iterate(problem, x0, criteria, termination or TerminationSpec(), step,
                    use_curvature,
                    dict(method="dynamic", strategy=strategy,
                         use_curvature=use_curvature, L_init=state.L_current,
                         sigma_init=state.sigma_current, rho=state.rho))


@dataclass
class ComplexityCensus:
    count_G: int
    count_H: int
    bound_G: float | None
    bound_H: float | None


def complexity_census(report, epsilon_g, epsilon_H):
    """Count iterates with large gradient / strong negative curvature and the
    matching worst-case cardinality bounds.

    Counts come straight from the trace.  The bounds use the realized
    maxima of the constant estimates along the run and the problem's known
    lower bound; without a lower bound the counts are still returned and the
    bounds are None.
    """
    records = report.records
    if not records:
        raise ValueError("report has no records")
    count_G = sum(1 for r in records if r.gradient_norm > epsilon_g)
    count_H = sum(1 for r in records if _neg(r.lam) > epsilon_H)
    lower = report.problem_lower_bound
    if lower is None:
        return ComplexityCensus(count_G, count_H, None, None)
    gap = records[0].f_value - lower
    criteria = report.config.get("criteria", {})
    delta = criteria.get("delta", 1.0)
    gamma = criteria.get("gamma", 1.0)
    l_values = [r.lipschitz_L for r in records if r.lipschitz_L is not None]
    s_values = [r.lipschitz_sigma for r in records if r.lipschitz_sigma is not None]
    L_max = max(l_values) if l_values else report.config.get("L_init", 1.0)
    sigma_max = max(s_values) if s_values else report.config.get("sigma_init", 1.0)
    bound_G = (2.0 * L_max * gap / delta ** 2) / epsilon_g ** 2
    bound_H = (3.0 * sigma_max ** 2 * gap / (2.0 * gamma ** 3)) / epsilon_H ** 3
    return ComplexityCensus(count_G, count_H, bound_G, bound_H)
