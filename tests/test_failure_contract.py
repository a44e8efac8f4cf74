"""Every solve ends by the failure contract, at any scale.

A solver either returns its report, which for a deterministic solve names
a TerminationReason, or raises a member of SOLVER_FAILURES that carries
the partial report as `report`.  Anything else fails these tests: an
untyped exception, or a typed one without its report.  The examples scale
each problem's value, argument and data, its constants and stepsizes over
hundreds of orders of magnitude, where overflow and underflow are the rule.

For a long run of fresh random examples, select the `fuzz` profile:

    PYTHONPATH=src python -m pytest tests/test_failure_contract.py \\
        --hypothesis-profile=fuzz
"""

import numpy as np
from hypothesis import example, given, strategies as st

from ncopt.deterministic import (
    SOLVER_FAILURES,
    SolverReport,
    TerminationReason,
    TerminationSpec,
    dynamic_solve,
    two_step_solve,
)
from ncopt.finite_sum import (
    FiniteSumProblem,
    LinearLeastSquaresProblem,
    StochasticOracle,
)
from ncopt.problems import ObjectiveProblem, list_problems, make_problem
from ncopt.steps import DESCENT_COSINE, LipschitzState
from ncopt.stochastic import (
    StochasticReport,
    StochasticStepConfig,
    dynamic_stochastic_solve,
    two_step_stochastic_solve,
)

ANALYTIC = [name for name in list_problems()
            if not isinstance(make_problem(name), FiniteSumProblem)]


def powers(low, high):
    """10**e for e drawn from [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0 ** e)


def scaled(name, a, b):
    """f(x) = a p(b x) for the registry problem p, wrapping p's own value,
    gradient and Hessian functions so that the outer problem makes every
    check."""
    problem = make_problem(name)
    value, gradient, hessian = (problem._value_fn, problem._gradient_fn,
                                problem._hessian_fn)
    return ObjectiveProblem(
        name, problem.dimension,
        value_fn=lambda x: a * value(b * x),
        gradient_fn=lambda x: a * b * gradient(b * x),
        hessian_fn=lambda x: a * b * b * hessian(b * x))


@st.composite
def deterministic_cases(draw):
    """(name, a, b, u, L, sigma, cap): a registry problem scaled as in
    `scaled`, a start x = u/b with u in [-4, 4]^n, the initial constants and
    an iteration cap."""
    name = draw(st.sampled_from(ANALYTIC))
    dimension = make_problem(name).dimension
    return (name, draw(powers(-150, 150)), draw(powers(-150, 150)),
            draw(st.lists(st.floats(-4.0, 4.0), min_size=dimension,
                          max_size=dimension)),
            draw(powers(-300, 300)), draw(powers(-300, 300)),
            draw(st.integers(1, 20)))


def deterministic_setup(case):
    """The problem, start, LipschitzState and TerminationSpec of a case."""
    name, a, b, u, L, sigma, cap = case
    return (scaled(name, a, b), np.array(u) / b, LipschitzState(L, sigma),
            TerminationSpec(max_iterations=cap))


@st.composite
def least_squares_cases(draw):
    """(oracle, start, iterations): least-squares data whose features and
    labels are scaled by powers of ten in [1e-150, 1e150]."""
    records, features = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0)
    phi = np.array(draw(st.lists(unit, min_size=records * features,
                                 max_size=records * features)))
    y = np.array(draw(st.lists(unit, min_size=records, max_size=records)))
    problem = LinearLeastSquaresProblem(
        phi.reshape(records, features) * draw(powers(-150, 150)),
        y * draw(powers(-150, 150)))
    oracle = StochasticOracle(problem, draw(st.integers(1, records)),
                              draw(st.integers(0, 2 ** 32 - 1)))
    start = np.array(draw(st.lists(unit, min_size=features, max_size=features)))
    return oracle, start * draw(powers(-150, 150)), draw(st.integers(1, 20))


def assert_ends_by_contract(solve, report_type):
    """Run `solve()` with numpy's floating-point warnings off; the report
    it returns or its failure's partial report is a `report_type`."""
    with np.errstate(all="ignore"):
        try:
            report = solve()
        except SOLVER_FAILURES as err:
            report = err.report
        else:
            if report_type is SolverReport:
                assert isinstance(report.termination_reason, TerminationReason)
    assert isinstance(report, report_type)


# a curvature stepsize of 2e300, whose cubed np.float64 overflowed the
# model reduction to NaN
@example(case=("quartic_saddle", 1.0, 1.0, [0.0, 0.0], 1.0, 1e-300, 20),
         strategy="steepest", use_curvature=True)
# L*s's underflows to 0 (s = -1e-150), so the descent stepsize divided by
# zero and raised a bare ZeroDivisionError
@example(case=("sphere", 1.0, 1e150, [1.0, 0.0], 1e-36, 1.0, 1),
         strategy="modified_newton", use_curvature=True)
@given(case=deterministic_cases(), strategy=st.sampled_from(sorted(DESCENT_COSINE)),
       use_curvature=st.booleans())
def test_dynamic_solve_ends_by_the_contract(case, strategy, use_curvature):
    problem, x0, lipschitz, termination = deterministic_setup(case)
    assert_ends_by_contract(lambda: dynamic_solve(
        problem, strategy, lipschitz, termination, x0, use_curvature),
        SolverReport)


@given(case=deterministic_cases(), alpha=powers(-300, 300), beta=powers(-300, 300))
def test_two_step_solve_ends_by_the_contract(case, alpha, beta):
    problem, x0, _, termination = deterministic_setup(case)
    assert_ends_by_contract(lambda: two_step_solve(
        problem, alpha, beta, termination, x0), SolverReport)


@given(case=least_squares_cases(), alpha=powers(-300, 300))
def test_two_step_stochastic_solve_ends_by_the_contract(case, alpha):
    oracle, start, iterations = case
    assert_ends_by_contract(lambda: two_step_stochastic_solve(
        oracle, StochasticStepConfig(alpha_constant=alpha), iterations, start),
        StochasticReport)


@given(case=least_squares_cases(), L=powers(-300, 300), sigma=powers(-300, 300),
       use_curvature=st.booleans())
def test_dynamic_stochastic_solve_ends_by_the_contract(case, L, sigma,
                                                       use_curvature):
    oracle, start, iterations = case
    assert_ends_by_contract(lambda: dynamic_stochastic_solve(
        oracle, LipschitzState(L, sigma), iterations, start, use_curvature),
        StochasticReport)
