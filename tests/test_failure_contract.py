"""Every solve ends by the failure contract, at any scale.

A solver either returns its report, which for a deterministic solve names
a TerminationReason, or raises a member of SOLVER_FAILURES that carries
the partial report as `report`.  Anything else fails these tests: an
untyped exception, or a typed one without its report.  Through `ncopt
run`, the same contract is exit 0, or exit 3 with the partial summary and
trace written.  The examples scale
each problem's value, argument and data, its constants and stepsizes over
hundreds of orders of magnitude, where overflow and underflow are the rule.

For a long run of fresh random examples, select the `fuzz` profile:

    PYTHONPATH=src python -m pytest tests/test_failure_contract.py \\
        --hypothesis-profile=fuzz
"""

import csv
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ncopt import finite_sum
from ncopt.cli import main
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
from ncopt.problems import (
    EvaluationError,
    ObjectiveProblem,
    list_problems,
    make_problem,
)
from ncopt.steps import DESCENT_COSINE, LipschitzState
from ncopt.stochastic import (
    StochasticReport,
    StochasticStepConfig,
    dynamic_stochastic_solve,
    two_step_stochastic_solve,
)
from test_fingerprints import fingerprint

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
    it returns or its failure's partial report is a `report_type`.
    Returns the report or the failure."""
    with np.errstate(all="ignore"):
        try:
            outcome = report = solve()
        except SOLVER_FAILURES as err:
            outcome, report = err, err.report
        else:
            if report_type is SolverReport:
                assert isinstance(report.termination_reason, TerminationReason)
    assert isinstance(report, report_type)
    return outcome


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
    # the second run replays the first on the same problem, whose table of
    # sampled eigenpairs the first filled, and ends the same way
    oracle, start, iterations = case
    config = StochasticStepConfig(alpha_constant=alpha)
    outcomes = [fingerprint(assert_ends_by_contract(
        lambda: two_step_stochastic_solve(
            StochasticOracle(oracle.problem, oracle.batch_size, oracle.seed),
            config, iterations, start),
        StochasticReport)) for _ in range(2)]
    assert outcomes[0] == outcomes[1]


def test_warm_table_stores_no_batch_whose_hessian_is_not_finite(monkeypatch):
    # at x = 0 every value and gradient estimate is 0, so x stays there,
    # while a Hessian batch holding record 0 overflows; the third batch
    # does, cold and warm alike, and only the two before it are decomposed
    decomposed, original = [], finite_sum.leftmost_eigenpair
    monkeypatch.setattr(finite_sum, "leftmost_eigenpair",
                        lambda H, g=None: decomposed.append(H) or original(H, g))
    with np.errstate(over="ignore"):
        problem = LinearLeastSquaresProblem(
            np.array([[1e155, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
            np.zeros(4))
        outcomes = []
        for _ in range(2):
            oracle = StochasticOracle(problem, batch_size=2, seed=1)
            with pytest.raises(EvaluationError, match="^sampled Hessian has "
                               "non-finite entries$") as info:
                two_step_stochastic_solve(
                    oracle, StochasticStepConfig(alpha_constant=0.1), 10,
                    np.zeros(2))
            assert len(info.value.report.records) == 2
            outcomes.append(fingerprint(info.value))
    assert outcomes[0] == outcomes[1]
    stored = [np.frombuffer(key, dtype=np.int64)
              for key in problem._eigenpair_tables[2]]
    assert len(stored) == 2 and all(0 not in batch for batch in stored)
    assert len(decomposed) == 2


@given(case=least_squares_cases(), L=powers(-300, 300), sigma=powers(-300, 300),
       use_curvature=st.booleans())
def test_dynamic_stochastic_solve_ends_by_the_contract(case, L, sigma,
                                                       use_curvature):
    oracle, start, iterations = case
    assert_ends_by_contract(lambda: dynamic_stochastic_solve(
        oracle, LipschitzState(L, sigma), iterations, start, use_curvature),
        StochasticReport)


@st.composite
def cli_cases(draw):
    """(problem, variant, start, l_init, sigma_init, cap): a registry
    problem, a dynamic variant, a start in [-4, 4]^n, the [lipschitz]
    values and an iteration cap."""
    name = draw(st.sampled_from(list_problems()))
    dimension = make_problem(name).dimension
    return (name, draw(st.sampled_from(["dynamic_sd", "dynamic_mn"])),
            draw(st.lists(st.floats(-4.0, 4.0), min_size=dimension,
                          max_size=dimension)),
            draw(powers(-300, 300)), draw(powers(-300, 300)),
            draw(st.integers(1, 20)))


@given(case=cli_cases())
def test_cli_run_ends_by_the_contract(case):
    # exit 0, or exit 3 with an abnormal summary naming a solver failure;
    # either way the trace has one row per record the summary counts
    name, variant, start, l_init, sigma_init, cap = case
    failures = {failure.__name__ for failure in SOLVER_FAILURES}
    with tempfile.TemporaryDirectory() as out, np.errstate(all="ignore"):
        config = os.path.join(out, "run.cfg")
        with open(config, "w") as handle:
            handle.write(
                "[experiment]\nproblem = %s\nvariant = %s\nstart = %s\n"
                "label = run\nout = %s\n[termination]\nmax_iterations = %d\n"
                "[lipschitz]\nl_init = %r\nsigma_init = %r\n"
                % (name, variant, ",".join(map(repr, start)), out, cap,
                   l_init, sigma_init))
        code = main(["run", "--config", config])
        with open(os.path.join(out, "run.json")) as handle:
            summary = json.load(handle)
        with open(os.path.join(out, "run.csv"), newline="") as handle:
            rows = list(csv.reader(handle))
    assert code in (0, 3)
    assert summary["abnormal"] is (code == 3)
    if code == 3:
        assert summary["error"]["type"] in failures
    assert len(rows) == 1 + summary["total_iterations"]
