"""Deterministic solvers combining descent and negative-curvature steps.

`two_step_solve` alternates a curvature step and a descent step with fixed
stepsizes; `dynamic_solve` picks per iteration whichever step's upper-model
reduction is larger, accepts it only if the objective decreases at least as
much as the model predicts, and inflates the corresponding curvature
constant otherwise.  Their `SolverReport` gives the harness its own summary
fields and trace rows (see `ncopt.harness`).
"""

from __future__ import annotations

import contextlib
import enum
import functools
import itertools
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ncopt.linalg import KernelError, all_finite, leftmost_eigenpair, norm
from ncopt.problems import EvaluationError, integer_argument, real_argument
from ncopt.steps import (
    DESCENT_COSINE,
    RHO,
    ConditionViolation,
    LipschitzState,
    check_strategy,
    descent_direction,
    negative_curvature_direction,
    optimal_stepsizes,
    upper_models,
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
# an accepted displacement shorter than this ends a solve with TINY_STEP
MIN_STEP_NORM = 1e-16

# failures that end a solve abnormally; every solver attaches the partial
# report to each as `report`
SOLVER_FAILURES = (InnerLoopStall, EvaluationError, KernelError, ConditionViolation)


@dataclass
class TerminationSpec:
    """Stopping rules shared by the deterministic solvers.

    Relative tolerances follow the usual practice of scaling by the
    magnitudes at the starting point (floored at 1); an accepted
    displacement shorter than MIN_STEP_NORM also stops a solve.
    """

    grad_tol_rel: float = 1e-5
    curv_tol_rel: float = 1e-5
    max_iterations: int = 10000

    def __post_init__(self):
        real_argument("grad_tol_rel", self.grad_tol_rel)
        real_argument("curv_tol_rel", self.curv_tol_rel)
        self.max_iterations = integer_argument("max_iterations", self.max_iterations, 1)


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


TRACE_COLUMNS = ("k", "f", "gnorm", "lambda", "alpha", "beta", "branch",
                 "Lk", "sigmak", "fevals")


@dataclass
class SolverReport:
    """Full per-iteration trace plus termination summary.

    A report is immutable by convention once a solve returns; `f` values
    along accepted steps are non-increasing for the deterministic solvers.
    """

    trace_columns = TRACE_COLUMNS

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
        return any(r.d.any() for r in self.records)

    def summary(self, abnormal):
        """The JSON summary's fields, abnormal without a termination reason."""
        reason = self.termination_reason
        # JSON has no NaN, so a report without records has null final values
        return {
            "problem": self.problem_name, "kind": "deterministic",
            "termination_reason": reason.value if reason else None,
            "abnormal": abnormal or reason is None,
            "final_f": self.final_f if self.records else None,
            "final_gradient_norm": self.final_gradient_norm if self.records else None,
            "final_lambda": self.final_lambda if self.records else None,
            "total_iterations": self.total_iterations,
            "total_fevals": self.total_fevals,
            "used_negative_curvature": self.used_negative_curvature,
            "config": self.config,
        }

    def trace_rows(self, gradient_norms=None):
        """One row per record; the records hold the exact gradient norms."""
        for r in self.records:
            yield (r.index, r.f_value, r.gradient_norm, r.lam, r.alpha, r.beta,
                   r.step_taken, r.lipschitz_L, r.lipschitz_sigma, r.feval_count)

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


def _terminal_record(k, x, f, gnorm, lam, fevals):
    return IterationRecord(
        index=k, x=np.array(x, dtype=float), f_value=f, gradient_norm=gnorm,
        lam=lam, s=np.zeros_like(x), d=np.zeros_like(x), step_taken="none",
        feval_count=fevals,
    )


def _step_point(x, t, p):
    """The point x + t*p a step moves to.  One that overflows ends the
    solve with ConditionViolation; a non-finite point a caller passes in is
    ObjectiveProblem's ValueError instead."""
    # x + t*p, with the sum made in the product's array
    point = t * p
    point += x
    if not all_finite(point):
        raise ConditionViolation("step to x + t*p has non-finite coordinates "
                                 "at t=%r" % float(t))
    return point


def _iterate(problem, x0, termination, step, use_curvature, echo):
    """The iteration both deterministic solvers share; returns the report.

    Each iterate evaluates f (unless the previous step carried it), g, H
    and one leftmost eigenpair, and certifies the curvature direction d.
    The solve stops at a second-order point (d = 0 and g = 0) or when both
    relative tolerances hold; otherwise `step(k, x, f, g, gnorm, eig, d)`
    returns the next iterate, f there (None if not evaluated) and the
    IterationRecord fields it sets.  A tiny step or the iteration cap ends
    the solve at the next iterate.  A step that raises one of
    SOLVER_FAILURES leaves the iterate recorded as terminal.
    """
    report = SolverReport(
        problem_name=problem.name,
        problem_lower_bound=problem.lower_bound,
        config={"problem": problem.name,
                "termination": {**asdict(termination), "min_step_norm": MIN_STEP_NORM},
                **echo},
    )
    x = np.array(problem.default_start if x0 is None else x0, dtype=float)
    f = stop = None
    fevals_before = problem.evaluation_count

    def fevals():
        return problem.evaluation_count - fevals_before

    with _partial_report_on_failure(report):
        for k in itertools.count(1):
            # f carried by the step is reused, but a tiny step or the cap
            # ends the solve at an iterate whose f is evaluated afresh
            if f is None or stop is not None:
                f = problem.evaluate(x)
            g = problem.gradient(x)
            eig = leftmost_eigenpair(problem.hessian(x), g)
            lam = eig.leftmost_value
            gnorm = norm(g)
            if k == 1:
                g1_scale, lam1_scale = max(1.0, gnorm), max(1.0, _neg(lam))

            if stop is None:
                d = (negative_curvature_direction(eig, g)
                     if use_curvature else np.zeros_like(x))
                if gnorm == 0.0 and not d.any():
                    stop = TerminationReason.SECOND_ORDER_POINT
                elif gnorm <= termination.grad_tol_rel * g1_scale and \
                        _neg(lam) <= termination.curv_tol_rel * lam1_scale:
                    stop = TerminationReason.TOLERANCE_MET
            if stop is not None:
                report.records.append(_terminal_record(k, x, f, gnorm, lam, fevals()))
                return report.finish(stop)

            try:
                x_next, f_next, fields = step(k, x, f, g, gnorm, eig, d)
            except SOLVER_FAILURES:
                report.records.append(_terminal_record(k, x, f, gnorm, lam, fevals()))
                raise
            report.records.append(IterationRecord(
                index=k, x=x.copy(), f_value=f, gradient_norm=gnorm, lam=lam, d=d,
                feval_count=fevals(), **fields,
            ))
            step_norm = norm(x_next - x)
            x, f = x_next, f_next
            if step_norm < MIN_STEP_NORM:
                stop = TerminationReason.TINY_STEP
            elif k == termination.max_iterations:
                stop = TerminationReason.MAX_ITERATIONS


def two_step_solve(problem, alpha=None, beta=None, termination=None, x0=None):
    """Alternate a fixed-size curvature step and a fixed-size steepest
    descent step.

    The caller supplies the stepsizes; they are admissible when
    alpha < 2/L and beta < 3/sigma for the problem's true curvature
    constants, which is only verifiable on problems with documented
    constants, and must be positive and finite.  Returns the current
    iterate as soon as the curvature direction and the gradient vanish.
    An EvaluationError, KernelError or ConditionViolation raised mid-solve
    carries the partial report as `report`.
    """
    real_argument("alpha", alpha)
    real_argument("beta", beta)

    def step(k, x, f, g, gnorm, eig, d):
        has_d = bool(d.any())
        x_hat = _step_point(x, beta, d)
        g_hat = problem.gradient(x_hat) if has_d else g
        s_hat = descent_direction("steepest", g_hat)
        has_s = bool(s_hat.any())
        taken = "both" if has_d and has_s else "curvature" if has_d else "descent"
        return _step_point(x_hat, alpha, s_hat), None, dict(
            s=s_hat, step_taken=taken, x_hat=x_hat.copy(), alpha=alpha, beta=beta)

    return _iterate(problem, x0, termination or TerminationSpec(), step,
                    True, dict(method="two_step", strategy="steepest",
                               alpha=alpha, beta=beta))


def dynamic_solve(problem, strategy="steepest", lipschitz_init=None,
                  termination=None, x0=None, use_curvature=True):
    """Adaptive method choosing between descent and curvature steps.

    Each iteration compares the optimal model reductions of the two
    candidate steps, tests the chosen step's actual decrease against its
    model, and on failure inflates the corresponding constant (factor in
    [RHO, 1e3]) and retries, at most INNER_LOOP_CAP times.  After
    acceptance the constant used is relaxed toward the value that made
    model and actual decrease agree.
    With use_curvature=False the curvature direction is suppressed, giving
    the descent-only twin used as a comparison baseline.  Every member of
    SOLVER_FAILURES raised mid-solve carries the partial report as `report`;
    an unknown strategy is a ValueError before any evaluation.
    """
    check_strategy(strategy)
    state = replace(lipschitz_init or LipschitzState())

    def step(k, x, f, g, gnorm, eig, d):
        s = descent_direction(strategy, g, eig)
        models = upper_models(g, s, d, eig.matrix)
        for inner in range(1, INNER_LOOP_CAP + 1):
            trials = optimal_stepsizes(models, state)
            # the larger model reduction is tried; the descent model, listed
            # first, wins a tie
            model, stepsize, m = functools.reduce(
                lambda a, b: a if a[2] >= b[2] else b, trials)
            trial = _step_point(x, stepsize, model.direction)
            f_trial = problem.evaluate(trial)
            hat = model.hat(state, stepsize, m, f_trial, f)
            if f_trial <= f - m:
                break
            state.inflate(model.estimate, hat)
        else:
            raise InnerLoopStall(
                "inner loop exceeded %d passes at iteration %d (L=%g, sigma=%g)"
                % (INNER_LOOP_CAP, k, state.L_current, state.sigma_current))

        sizes = {tried.kind: (t, r) for tried, t, r in trials}
        alpha, m_s = sizes.get("descent", (None, None))
        beta, m_d = sizes.get("curvature", (None, None))
        fields = dict(
            s=s, step_taken=model.kind, alpha=alpha, beta=beta,
            model_reduction_s=m_s, model_reduction_d=m_d, inner_loop_count=inner,
            lipschitz_L=state.L_current, lipschitz_sigma=state.sigma_current,
        )
        # accepted: relax the constant that was exercised, keep the other
        state.settle(model.estimate, hat)
        return trial, f_trial, fields

    return _iterate(problem, x0, termination or TerminationSpec(), step,
                    use_curvature,
                    dict(method="dynamic", strategy=strategy,
                         use_curvature=use_curvature, L_init=state.L_current,
                         sigma_init=state.sigma_current, rho=RHO))


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
    maxima of the constant estimates along the run (their initial values
    when no step was taken) and the problem's known lower bound.  Without a
    lower bound, or without constant estimates, as in a `two_step_solve`
    report, the counts are still returned and the bounds are None.
    """
    real_argument("epsilon_g", epsilon_g)
    real_argument("epsilon_H", epsilon_H)
    records = report.records
    if not records:
        raise ValueError("report has no records")
    count_G = sum(1 for r in records if r.gradient_norm > epsilon_g)
    count_H = sum(1 for r in records if _neg(r.lam) > epsilon_H)
    lower = report.problem_lower_bound
    L_max = max((r.lipschitz_L for r in records if r.lipschitz_L is not None),
                default=report.config.get("L_init"))
    sigma_max = max((r.lipschitz_sigma for r in records
                     if r.lipschitz_sigma is not None),
                    default=report.config.get("sigma_init"))
    if lower is None or L_max is None or sigma_max is None:
        return ComplexityCensus(count_G, count_H, None, None)
    gap = records[0].f_value - lower
    # the descent cosine the run's steps were certified at; the curvature
    # certificate's constant is 1
    delta = DESCENT_COSINE[report.config["strategy"]]
    bound_G = (2.0 * L_max * gap / delta ** 2) / epsilon_g ** 2
    bound_H = (3.0 * sigma_max ** 2 * gap / 2.0) / epsilon_H ** 3
    return ComplexityCensus(count_G, count_H, bound_G, bound_H)
