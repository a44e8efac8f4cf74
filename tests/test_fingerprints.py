"""Every report bit for bit: a committed sweep of solver fingerprints.

Each case runs one solve and digests every record field and every report
field, so a change that moves any bit of any report moves that case's
digest.  A solve that ends abnormally digests the exception's type and
message with the partial report it carries.  The digests are pinned for
one build of numpy, BLAS, LAPACK and libm; another build may round
differently and move them.  To rewrite the golden file after a change that
is meant to move bits, run

    PYTHONPATH=src python tests/test_fingerprints.py

and name every moved case, with the reason, where the change is recorded.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from ncopt.deterministic import (
    SOLVER_FAILURES,
    TerminationSpec,
    dynamic_solve,
    two_step_solve,
)
from ncopt.finite_sum import (
    LinearLeastSquaresProblem,
    StochasticOracle,
    random_quadratic_finite_sum,
)
from ncopt.problems import ObjectiveProblem, list_problems, make_problem
from ncopt.steps import LipschitzState
from ncopt.stochastic import (
    LIPSCHITZ_INIT,
    StochasticStepConfig,
    dynamic_stochastic_solve,
    two_step_stochastic_solve,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "fingerprints.json")

DETERMINISTIC_CAP = 50
STOCHASTIC_ITERATIONS = 100


def _feed(digest, value):
    if isinstance(value, np.ndarray):
        digest.update(("%s%s" % (value.dtype.str, value.shape)).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            if f.compare:
                digest.update(f.name.encode())
                _feed(digest, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        digest.update(b"[%d" % len(value))
        for item in value:
            _feed(digest, item)
    else:
        # an enum digests as its value; repr tells a float from np.float64
        # and prints the shortest string that round-trips the bits
        digest.update(repr(getattr(value, "value", value)).encode())


def fingerprint(outcome):
    """sha256 of a report; for a solve that raised, the exception's type
    name, then the sha256 of its message and the partial report."""
    digest = hashlib.sha256()
    if isinstance(outcome, BaseException):
        digest.update(str(outcome).encode())
        _feed(digest, outcome.report)
        return "%s:%s" % (type(outcome).__name__, digest.hexdigest())
    _feed(digest, outcome)
    return digest.hexdigest()


def _run(solve):
    try:
        return solve()
    except SOLVER_FAILURES as err:
        return err


def _nan_hessian_problem():
    # the Hessian turns NaN at its second evaluation
    calls = []

    def hessian(x):
        calls.append(1)
        return np.eye(2) if len(calls) < 2 else np.full((2, 2), np.nan)

    return ObjectiveProblem("nan_hessian", 2, lambda x: 0.5 * float(x @ x),
                            lambda x: x, hessian)


def with_nan_center(problem, row):
    """`problem`, a quadratic finite sum, with `centers` rebound to a copy
    whose entry (row, 0) is NaN: a built problem's data are read-only."""
    centers = problem.centers.copy()
    centers[row, 0] = np.nan
    problem.centers = centers
    return problem


def _nan_center_sum():
    return with_nan_center(random_quadratic_finite_sum(n=3, components=6, seed=11), 4)


def _overflowing_hessian_sum():
    # at x = 0 the value and the gradient's entries stay finite and phi phi'
    # overflows, but so does g'g, so the solve stops on the sampled
    # gradient's norm before it reaches the Hessian
    return LinearLeastSquaresProblem(
        np.array([[1e200, 0.5], [1.0, 1.0], [0.5, -1.0], [2.0, 0.3]]), np.ones(4))


def cases():
    """case id -> zero-argument callable returning a report or raising one
    of SOLVER_FAILURES."""
    table = {}
    cap = TerminationSpec(max_iterations=DETERMINISTIC_CAP)
    for name in list_problems():
        for strategy in ("steepest", "modified_newton"):
            for use_curvature in (True, False):
                table["dynamic/%s/%s/%s" % (name, strategy, use_curvature)] = (
                    lambda name=name, strategy=strategy, use_curvature=use_curvature:
                    dynamic_solve(make_problem(name), strategy=strategy,
                                  termination=cap, use_curvature=use_curvature))
            # estimates far below the constants, so the inner loop inflates
            table["dynamic_small_init/%s/%s" % (name, strategy)] = (
                lambda name=name, strategy=strategy:
                dynamic_solve(make_problem(name), strategy=strategy,
                              lipschitz_init=LipschitzState(1e-3, 1e-3),
                              termination=cap))
    # the monkey_saddle run ends in an EvaluationError; the two_layer_net
    # run takes a curvature step at every iteration, so g at x_hat comes
    # between the full-batch f, g and H of consecutive iterates
    for name, alpha, beta, steps in (("quartic_saddle", 0.1, 0.5, 300),
                                     ("himmelblau", 0.01, 0.01, 300),
                                     ("monkey_saddle", 0.1, 0.5, 300),
                                     ("two_layer_net", 0.1, 0.1, 30)):
        table["two_step/%s" % name] = (
            lambda name=name, alpha=alpha, beta=beta, steps=steps:
            two_step_solve(make_problem(name), alpha=alpha, beta=beta,
                           termination=TerminationSpec(max_iterations=steps)))

    for name, batch in (("two_layer_net", 32), ("quadratic_sum", 2)):
        for use_curvature in (True, False):
            table["stoch_dynamic/%s/%s" % (name, use_curvature)] = (
                lambda name=name, batch=batch, use_curvature=use_curvature:
                dynamic_stochastic_solve(
                    StochasticOracle(make_problem(name), batch, seed=3),
                    LIPSCHITZ_INIT, iterations=STOCHASTIC_ITERATIONS,
                    use_curvature=use_curvature))
        table["stoch_two_step/%s" % name] = (
            lambda name=name, batch=batch:
            two_step_stochastic_solve(
                StochasticOracle(make_problem(name), batch, seed=3),
                StochasticStepConfig(alpha_constant=0.05), STOCHASTIC_ITERATIONS))
    for name, batch in (("quadratic_sum", 2), ("two_layer_net", 32)):
        table["exact_gradient_norms/%s" % name] = (
            lambda name=name, batch=batch: dynamic_stochastic_solve(
                StochasticOracle(make_problem(name), batch, seed=5),
                iterations=STOCHASTIC_ITERATIONS).exact_gradient_norms())

    table["abnormal/two_step/nan_hessian"] = lambda: two_step_solve(
        _nan_hessian_problem(), alpha=0.5, beta=0.5, x0=np.array([3.0, -4.0]))
    table["abnormal/dynamic/nan_hessian"] = lambda: dynamic_solve(
        _nan_hessian_problem(), x0=np.array([3.0, -4.0]))
    table["abnormal/stoch_dynamic/nan_center"] = lambda: dynamic_stochastic_solve(
        StochasticOracle(_nan_center_sum(), 2, seed=3), iterations=60)
    table["abnormal/stoch_two_step/nan_center"] = lambda: two_step_stochastic_solve(
        StochasticOracle(_nan_center_sum(), 2, seed=3),
        StochasticStepConfig(alpha_constant=0.05), 60)
    table["abnormal/stoch_dynamic/overflowing_hessian"] = (
        lambda: dynamic_stochastic_solve(
            StochasticOracle(_overflowing_hessian_sum(), 4, seed=0), iterations=5))
    return table


def sweep():
    """case id -> fingerprint, for every case."""
    with np.errstate(over="ignore", invalid="ignore"):
        return {case: fingerprint(_run(solve)) for case, solve in cases().items()}


def test_every_fingerprint_matches_the_golden_sweep():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    found = sweep()
    assert sorted(found) == sorted(golden)
    moved = sorted(case for case in golden if found[case] != golden[case])
    assert not moved, "%d of %d fingerprints moved: %s" % (
        len(moved), len(golden), ", ".join(moved))


def test_sweep_covers_every_kind_of_outcome():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    kinds = {case.split("/")[0] for case in golden}
    assert kinds == {"dynamic", "dynamic_small_init", "two_step", "stoch_dynamic", "stoch_two_step",
                     "exact_gradient_norms", "abnormal"}
    assert sum(case.startswith("dynamic/") for case in golden) == \
        len(list_problems()) * 2 * 2
    # every abnormal case, and the monkey_saddle two-step run, ended in a
    # solver failure carrying its partial report
    raised = {case for case, value in golden.items() if ":" in value}
    assert raised == {case for case in golden if case.startswith("abnormal/")} \
        | {"two_step/monkey_saddle"}


def _quadratic_sum_oracle(batch_size=2, seed=3):
    return StochasticOracle(make_problem("quadratic_sum"), batch_size, seed)


# each argument the integer rule checks: its name, its minimum and a solve
# that takes it
INTEGER_ARGUMENTS = {
    "batch_size": ("batch_size", 1, lambda n: dynamic_stochastic_solve(
        _quadratic_sum_oracle(batch_size=n), iterations=5)),
    "seed": ("seed", 0, lambda n: dynamic_stochastic_solve(
        _quadratic_sum_oracle(seed=n), iterations=5)),
    "max_iterations": ("max_iterations", 1, lambda n: dynamic_solve(
        make_problem("rosenbrock2"), termination=TerminationSpec(max_iterations=n))),
    "dynamic_budget": ("iterations", 1, lambda n: dynamic_stochastic_solve(
        _quadratic_sum_oracle(), iterations=n)),
    "two_step_budget": ("iterations", 1, lambda n: two_step_stochastic_solve(
        _quadratic_sum_oracle(), StochasticStepConfig(alpha_constant=0.05), n)),
}


@pytest.mark.parametrize("place", INTEGER_ARGUMENTS)
def test_one_integer_rule_everywhere(place):
    # any integral number gives the plain int's report; a bool, a fraction
    # or a value below the minimum is rejected, naming the argument
    name, minimum, solve = INTEGER_ARGUMENTS[place]
    expected = fingerprint(solve(2))
    assert fingerprint(solve(np.int64(2))) == fingerprint(solve(2.0)) == expected
    for bad in (True, 2.5, minimum - 1):
        with pytest.raises(ValueError, match="^%s must be a " % name):
            solve(bad)


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:
        json.dump(sweep(), handle, indent=1, sort_keys=True)
        handle.write("\n")
