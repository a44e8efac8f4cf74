import csv
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncopt import deterministic
from ncopt.deterministic import (
    SOLVER_FAILURES,
    InnerLoopStall,
    TerminationReason,
    TerminationSpec,
    complexity_census,
    dynamic_solve,
    two_step_solve,
)
from ncopt.problems import (
    EvaluationError,
    ObjectiveProblem,
    list_problems,
    make_problem,
    quartic_saddle,
    random_quadratic,
    sphere,
)
from ncopt.steps import DESCENT_COSINE, ConditionViolation, LipschitzState
from test_written_files import FUZZ_ROSENBROCK10_START


GOLDEN_TWO_STEP = os.path.join(os.path.dirname(__file__), "golden", "two_step.csv")

# run -> (problem, alpha, beta), each from the problem's default start with
# max_iterations=300; the golden file was written before the two
# deterministic solvers shared one loop, and its monkey_saddle run ends in
# an EvaluationError
GOLDEN_TWO_STEP_RUNS = {
    "quartic_saddle_sd": ("quartic_saddle", 0.1, 0.5),
    "himmelblau_sd": ("himmelblau", 0.01, 0.01),
    "monkey_saddle_sd": ("monkey_saddle", 0.1, 0.5),
}


def steps_taken(report):
    return [r for r in report.records if r.step_taken != "none"]


@st.composite
def quadratics_and_cubics(draw):
    """(problem, x0): f(x) = x'Ax/2 + b'x + c/3 ||x||^3 with A symmetric of
    either sign and c = 0 (a quadratic, unbounded below when A is
    indefinite) or c > 0 (a cubic)."""
    n = draw(st.integers(2, 6))
    w = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    c = draw(st.sampled_from([0.0, 0.5, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = (Q * w) @ Q.T
    A, b = 0.5 * (A + A.T), rng.normal(size=n)

    def hessian(x):
        r = float(np.linalg.norm(x))
        return A + c * (r * np.eye(n) + (np.outer(x, x) / r if r > 0.0 else 0.0))

    problem = ObjectiveProblem(
        "quadratic" if c == 0.0 else "cubic", n,
        lambda x: 0.5 * x @ A @ x + b @ x + c / 3.0 * np.linalg.norm(x) ** 3,
        lambda x: A @ x + b + c * np.linalg.norm(x) * x, hessian)
    return problem, rng.normal(size=n)


class TestTwoStep:
    def test_sphere_exact_gradient_step(self):
        p = sphere(1)
        report = two_step_solve(p, alpha=1.0, beta=0.5, x0=np.array([3.0]))
        assert report.termination_reason is TerminationReason.SECOND_ORDER_POINT
        assert report.total_iterations == 2
        assert report.final_f == 0.0
        assert report.final_gradient_norm == 0.0
        assert report.final_lambda >= 0.0
        assert report.records[0].step_taken == "descent"

    def test_immediate_return_at_second_order_point(self):
        p = sphere(2)
        report = two_step_solve(p, alpha=0.5, beta=0.5, x0=np.zeros(2))
        assert report.termination_reason is TerminationReason.SECOND_ORDER_POINT
        assert report.total_iterations == 1

    def test_quartic_saddle_first_curvature_step_decreases(self):
        p = quartic_saddle()
        beta = 0.5
        report = two_step_solve(p, alpha=0.15, beta=beta, x0=np.zeros(2))
        first = report.records[0]
        assert first.step_taken in ("curvature", "both")
        # one Hessian per record: the descent step at x_hat factors none
        assert p.hessian_count == report.total_iterations
        # moves along +-e1 by beta*|lambda|: f drops to (beta^2-1)^2/4
        f_hat = p.evaluate(first.x_hat)
        assert f_hat == pytest.approx(0.25 * (beta ** 2 - 1.0) ** 2, rel=1e-12)
        assert f_hat < 0.25
        # converges to one of the two minimizers
        assert report.final_f <= 1e-8

    def test_monotone_objective_with_admissible_stepsizes(self):
        p = random_quadratic(6, spectrum=np.linspace(1.0, 8.0, 6), seed=3)
        report = two_step_solve(p, alpha=0.2 / 8.0, beta=0.1,
                                x0=p.default_start,
                                termination=TerminationSpec(max_iterations=200))
        fs = [r.f_value for r in report.records]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))

    def test_tiny_step_termination(self, monkeypatch):
        p = sphere(2)
        monkeypatch.setattr(deterministic, "MIN_STEP_NORM", 10.0)
        report = two_step_solve(p, alpha=0.5, beta=0.5, x0=np.array([1.0, 1.0]))
        assert report.termination_reason is TerminationReason.TINY_STEP

    def test_max_iterations(self):
        p = make_problem("rosenbrock2")
        spec = TerminationSpec(max_iterations=3)
        report = two_step_solve(p, alpha=1e-4, beta=1e-3, termination=spec)
        assert report.termination_reason is TerminationReason.MAX_ITERATIONS
        assert report.total_iterations == 4

    def test_requires_stepsizes(self):
        with pytest.raises(ValueError):
            two_step_solve(sphere(1), alpha=None, beta=1.0)

    @pytest.mark.parametrize("alpha, beta", [
        (math.nan, 0.5), (math.inf, 0.5), (0.5, math.nan), (0.5, math.inf),
        (0.0, 0.5), (0.5, -1.0),
    ])
    def test_rejects_a_stepsize_that_is_not_positive_and_finite(self, alpha, beta):
        # NaN and inf used to pass and end at the first step as a
        # non-finite step point, after evaluating f, g and H
        problem = quartic_saddle()
        with pytest.raises(ValueError, match="^%s must be positive and finite$"
                           % ("beta" if alpha == 0.5 else "alpha")):
            two_step_solve(problem, alpha=alpha, beta=beta)
        assert (problem.evaluation_count, problem.gradient_count,
                problem.hessian_count) == (0, 0, 0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("run", sorted(GOLDEN_TWO_STEP_RUNS))
    def test_trace_matches_golden(self, run):
        name, alpha, beta = GOLDEN_TWO_STEP_RUNS[run]
        with open(GOLDEN_TWO_STEP, newline="") as handle:
            golden = [row for row in csv.DictReader(handle) if row["run"] == run]
        try:
            report = two_step_solve(make_problem(name), alpha=alpha, beta=beta,
                                    termination=TerminationSpec(max_iterations=300))
            end = report.termination_reason.value
        except EvaluationError as err:
            report, end = err.report, type(err).__name__
        assert len(report.records) == len(golden)
        for record, expected in zip(report.records, golden):
            assert record.index == int(expected["k"])
            assert record.step_taken == expected["step"]
            assert record.feval_count == int(expected["fevals"])
            for value, column in ((record.f_value, "f"),
                                  (record.gradient_norm, "gnorm"),
                                  (record.lam, "lambda")):
                assert value == pytest.approx(float(expected[column]), rel=1e-10,
                                              abs=0.0), (record.index, column)
            assert end == expected["end"]


class TestDynamic:
    def test_sphere_tight_model_accepted_first_pass(self):
        p = sphere(1)
        report = dynamic_solve(p, lipschitz_init=LipschitzState(L_current=1.0),
                               x0=np.array([3.0]))
        assert report.termination_reason is TerminationReason.SECOND_ORDER_POINT
        first = report.records[0]
        assert first.step_taken == "descent"
        assert first.inner_loop_count == 1
        assert first.alpha == pytest.approx(1.0)
        assert first.model_reduction_s == pytest.approx(4.5)
        assert report.total_iterations == 2
        assert report.final_f == 0.0

    def test_a_reused_instance_counts_each_solve_from_its_start(self):
        # the instance's counter runs on; each report counts its own solve
        p = make_problem("rosenbrock2")
        cap = TerminationSpec(max_iterations=30)
        first = dynamic_solve(p, termination=cap)
        second = dynamic_solve(p, termination=cap)
        assert first.total_fevals == second.total_fevals == 52
        assert [r.feval_count for r in first.records] == \
            [r.feval_count for r in second.records]
        assert first.records[0].feval_count == 4
        assert p.evaluation_count == 104

    def test_quartic_saddle_curvature_branch_forced_then_converges(self):
        p = quartic_saddle()
        report = dynamic_solve(p, x0=np.zeros(2))
        first = report.records[0]
        assert first.step_taken == "curvature"
        assert np.all(first.s == 0.0)
        assert np.any(first.d != 0.0)
        assert report.final_f <= 1e-10
        assert report.final_lambda >= 0.0
        xs = report.records[-1].x
        dists = [np.linalg.norm(xs - m) for m in p.known_minimizers]
        assert min(dists) < 1e-4

    def test_descent_only_twin_stalls_at_saddle(self):
        p = quartic_saddle()
        report = dynamic_solve(p, x0=np.zeros(2), use_curvature=False)
        assert report.termination_reason is TerminationReason.SECOND_ORDER_POINT
        assert report.total_iterations == 1
        assert report.final_f == pytest.approx(0.25)
        assert not report.used_negative_curvature

    def test_no_curvature_branch_when_hessian_psd(self):
        p = random_quadratic(5, spectrum=np.linspace(0.5, 4.0, 5), seed=8)
        report = dynamic_solve(p)
        assert all(r.step_taken != "curvature" for r in report.records)
        assert all(np.all(r.d == 0.0) for r in report.records)

    def test_descent_step_wins_an_exact_tie(self):
        # f = x'Hx/2 + b'x at 0: alpha = 1 and beta = 2 both predict 18
        H, b = np.diag([1.0, -3.0]), np.array([6.0, 0.0])
        problem = ObjectiveProblem("tie", 2, lambda x: 0.5 * x @ H @ x + b @ x,
                                   lambda x: H @ x + b, lambda x: H)
        report = dynamic_solve(problem, termination=TerminationSpec(max_iterations=1))
        first = report.records[0]
        assert first.model_reduction_s == first.model_reduction_d == 18.0
        assert (first.step_taken, first.alpha, first.beta) == ("descent", 1.0, 2.0)
        np.testing.assert_array_equal(report.records[1].x, [-6.0, 0.0])

    @given(quadratics_and_cubics(), st.sampled_from(["steepest", "modified_newton"]))
    def test_accepted_step_decreases_f_by_the_chosen_models_reduction(self, case,
                                                                      strategy):
        problem, x0 = case
        try:
            report = dynamic_solve(problem, strategy=strategy, x0=x0,
                                   termination=TerminationSpec(max_iterations=25))
        except SOLVER_FAILURES as err:   # an unbounded quadratic may overflow
            report = err.report
        for cur, nxt in zip(report.records[:-1], report.records[1:]):
            m_s, m_d = cur.model_reduction_s, cur.model_reduction_d
            # the larger reduction was tried; the descent step wins a tie
            if cur.step_taken == "descent":
                assert m_d is None or m_s >= m_d
                assert nxt.f_value <= cur.f_value - m_s
            else:
                assert cur.step_taken == "curvature"
                assert m_s is None or not m_s >= m_d
                assert nxt.f_value <= cur.f_value - m_d

    def test_accepted_decrease_never_below_model_guarantee(self):
        # the per-iteration decrease bound from the two model reductions
        for name in ("quartic_saddle", "himmelblau", "rosenbrock2"):
            p = make_problem(name)
            report = dynamic_solve(p, termination=TerminationSpec(max_iterations=400))
            recs = report.records
            for cur, nxt in zip(recs[:-1], recs[1:]):
                if cur.step_taken == "none":
                    continue
                delta = DESCENT_COSINE[report.config["strategy"]]
                bound = max(
                    delta ** 2 * cur.gradient_norm ** 2 / (2.0 * cur.lipschitz_L),
                    2.0 * max(0.0, -cur.lam) ** 3 / (3.0 * cur.lipschitz_sigma ** 2),
                )
                decrease = cur.f_value - nxt.f_value
                assert decrease >= bound - 1e-10 * max(1.0, abs(cur.f_value))

    def test_modified_newton_strategy_converges(self):
        p = make_problem("rosenbrock2")
        report = dynamic_solve(p, strategy="modified_newton")
        assert report.termination_reason is TerminationReason.TOLERANCE_MET
        assert report.final_f <= 1e-8

    @pytest.mark.parametrize("name", list_problems())
    def test_modified_newton_runs_at_default_criteria(self, name):
        # its steps are certified at DESCENT_COSINE["modified_newton"]: a
        # cosine of 1 would reject every shifted-Newton step whose Hessian
        # is not a multiple of I
        report = dynamic_solve(make_problem(name), strategy="modified_newton",
                               termination=TerminationSpec(max_iterations=200))
        assert report.termination_reason is not None
        assert report.config["strategy"] == "modified_newton"
        assert "criteria" not in report.config

    @pytest.mark.parametrize("name, x0", [("sphere", [0.0, 0.0]),
                                          ("quartic_saddle", [0.0, 0.0])])
    def test_unknown_strategy_rejected_before_any_evaluation(self, name, x0):
        # at a second-order point no descent step is ever built, and at the
        # saddle a curvature step came first
        problem = make_problem(name)
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            dynamic_solve(problem, strategy="bogus", x0=np.array(x0))
        assert (problem.evaluation_count, problem.gradient_count,
                problem.hessian_count) == (0, 0, 0)

    def test_inner_loop_bounded_on_quadratic_with_known_constants(self):
        p = random_quadratic(6, spectrum=np.linspace(2.0, 60.0, 6), seed=4)
        L_true = p.local_gradient_lipschitz
        report = dynamic_solve(p, lipschitz_init=LipschitzState(L_current=1.0))
        limit = 2 + int(np.ceil(np.log2(L_true / 1e-3)))
        for r in steps_taken(report):
            assert r.inner_loop_count <= limit

    def test_estimates_stay_positive_and_floored(self):
        p = make_problem("rosenbrock2")
        report = dynamic_solve(p, lipschitz_init=LipschitzState(L_current=1e-3),
                               termination=TerminationSpec(max_iterations=50))
        for r in steps_taken(report):
            assert r.lipschitz_L >= 1e-3
            assert r.lipschitz_sigma >= 1e-3

    def test_termination_identity_second_order(self):
        report = dynamic_solve(sphere(2), x0=np.zeros(2))
        assert report.termination_reason is TerminationReason.SECOND_ORDER_POINT
        assert report.final_gradient_norm == 0.0
        assert report.final_lambda >= -1e-12

    def test_inner_loop_stall_detector(self, monkeypatch):
        monkeypatch.setattr(deterministic, "INNER_LOOP_CAP", 0)
        with pytest.raises(InnerLoopStall) as err:
            dynamic_solve(sphere(2), x0=np.ones(2))
        assert err.value.report.termination_reason is None
        assert len(err.value.report.records) >= 1

    def test_direction_certificates_along_trace(self):
        p = make_problem("himmelblau")
        report = dynamic_solve(p, x0=np.array([0.0, 0.0]),
                               termination=TerminationSpec(max_iterations=300))
        for r in steps_taken(report):
            if np.any(r.d != 0.0):
                H = p.hessian(r.x)
                nd2 = r.d @ r.d
                assert r.d @ H @ r.d <= r.lam * nd2 + 1e-10 * max(1.0, abs(r.lam) * nd2)
                g = p.gradient(r.x)
                assert g @ r.d <= 1e-10 * max(1.0, np.linalg.norm(g) * np.sqrt(nd2))
                assert np.sqrt(nd2) <= abs(r.lam) * (1.0 + 1e-10)


@pytest.mark.parametrize("solve", [
    lambda p: two_step_solve(p, alpha=0.5, beta=0.5, x0=np.array([3.0, -4.0])),
    lambda p: dynamic_solve(p, x0=np.array([3.0, -4.0])),
], ids=["two_step", "dynamic"])
def test_evaluation_failure_carries_partial_report(solve):
    calls = []

    def hessian(x):
        calls.append(1)
        return np.eye(2) if len(calls) < 2 else np.full((2, 2), np.nan)

    p = ObjectiveProblem("nan_hessian", 2, lambda x: 0.5 * float(x @ x),
                         lambda x: x, hessian)
    with pytest.raises(EvaluationError) as info:
        solve(p)
    partial = info.value.report
    assert partial.termination_reason is None
    assert len(partial.records) == partial.total_iterations == 1


def _quadratic(name, H, b):
    """f(x) = 0.5 x'Hx + b'x."""
    return ObjectiveProblem(name, len(b), lambda x: 0.5 * x @ H @ x + b @ x,
                            lambda x: H @ x + b, lambda x: H)


# case -> (solve, message).  tiny_curvature: the modified-Newton step
# -1e300*g is certified, but ||s||^2 overflows and its stepsize is 0;
# tiny_initial_L: L*||s||^2 underflows and the stepsize is inf;
# small_initial_L: the stepsize 1e200 is finite, but its square in the
# model reduction overflows a Python float; tiny_initial_sigma: the
# curvature stepsize 2e300 is a np.float64, whose cube overflows the model
# reduction to NaN (it used to end as "objective evaluated to -inf")
STEPSIZE_OVERFLOWS = {
    "tiny_curvature": (lambda: dynamic_solve(
        _quadratic("tiny", np.diag([1e-300, 1e-300]), np.ones(2)),
        strategy="modified_newton"), "descent stepsize"),
    "tiny_initial_L": (lambda: dynamic_solve(
        sphere(2), lipschitz_init=LipschitzState(L_current=1e-320)),
        "descent stepsize"),
    "small_initial_L": (lambda: dynamic_solve(
        sphere(2), lipschitz_init=LipschitzState(L_current=1e-200)),
        "model reduction overflows"),
    "tiny_initial_sigma": (lambda: dynamic_solve(
        _quadratic("saddle", np.diag([-1.0, 1.0]), np.array([1.0, 0.0])),
        lipschitz_init=LipschitzState(1.0, 1e-300)), "model reduction overflows"),
}


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
@pytest.mark.parametrize("case", list(STEPSIZE_OVERFLOWS))
def test_stepsize_overflow_ends_typed_with_partial_report(case):
    solve, message = STEPSIZE_OVERFLOWS[case]
    with pytest.raises(ConditionViolation, match=message) as info:
        solve()
    # the iterate the step failed at is recorded, with f evaluated there
    partial = info.value.report
    assert partial.termination_reason is None
    assert len(partial.records) == partial.total_iterations == 1
    assert partial.records[0].step_taken == "none"
    assert partial.total_fevals == partial.records[0].feval_count >= 1


def _saddle_quadratic():
    H = np.diag([-4.0, 1.0])
    return ObjectiveProblem("saddle_quadratic", 2, lambda x: 0.5 * x @ H @ x,
                            lambda x: H @ x, lambda x: H,
                            default_start=np.array([1.0, 1.0]))


def _assert_ended_at_the_first_iterate(partial):
    assert partial.termination_reason is None
    assert len(partial.records) == partial.total_iterations == 1
    assert partial.records[0].step_taken == "none"
    assert np.isfinite(partial.records[0].x).all()


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
@pytest.mark.parametrize("solve", [
    # x - 1e308 * x overflows: the next iterate
    lambda: two_step_solve(sphere(2), alpha=1e308, beta=1.0, x0=[3.0, 3.0]),
    # x + 1e308 * d with ||d|| = 4: the point the curvature step reaches
    lambda: two_step_solve(_saddle_quadratic(), alpha=0.1, beta=1e308),
], ids=["two_step_next_iterate", "two_step_curvature_point"])
def test_non_finite_point_the_solver_makes_ends_typed(solve):
    # a point the caller passes in is ObjectiveProblem's ValueError; one the
    # solver computes is a solver failure with the partial report
    with pytest.raises(ConditionViolation, match="non-finite coordinates") as info:
        solve()
    _assert_ended_at_the_first_iterate(info.value.report)


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_infinite_curvature_stepsize_ends_typed():
    # a fuzzed start whose first curvature stepsize is inf: the solve ends
    # there, before it makes a trial point, with the partial report
    with pytest.raises(ConditionViolation,
                       match="curvature stepsize inf not positive and finite") as info:
        dynamic_solve(
            make_problem("rosenbrock10"), strategy="modified_newton",
            lipschitz_init=LipschitzState(3.186408192932628e+160,
                                          1.2654246362055915e+296),
            termination=TerminationSpec(max_iterations=50),
            x0=FUZZ_ROSENBROCK10_START)
    _assert_ended_at_the_first_iterate(info.value.report)


def test_non_finite_start_stays_a_value_error():
    with pytest.raises(ValueError, match="point has non-finite coordinates"):
        dynamic_solve(sphere(2), x0=[np.inf, 0.0])


class TestComplexityCensus:
    def test_sphere_counts_and_bound(self):
        p = sphere(1)
        report = dynamic_solve(p, lipschitz_init=LipschitzState(L_current=1.0),
                               x0=np.array([3.0]))
        census = complexity_census(report, epsilon_g=1.0, epsilon_H=1.0)
        assert census.count_G == 1
        assert census.bound_G == pytest.approx(9.0)
        assert census.count_G <= census.bound_G
        assert census.count_H == 0

    def test_count_H_bounded_by_curvature_steps(self):
        p = quartic_saddle()
        report = dynamic_solve(p, x0=np.zeros(2))
        census = complexity_census(report, epsilon_g=1e-3, epsilon_H=1e-3)
        with_d = sum(1 for r in report.records if np.any(r.d != 0.0))
        assert census.count_H <= with_d

    def test_missing_lower_bound_gives_counts_only(self):
        p = random_quadratic(3, spectrum=np.array([-1.0, 1.0, 2.0]), seed=2)
        report = dynamic_solve(p, termination=TerminationSpec(max_iterations=20))
        census = complexity_census(report, 1e-1, 1e-1)
        assert census.bound_G is None and census.bound_H is None
        assert census.count_G >= 0

    def test_all_gradients_small_gives_zero_count(self):
        report = dynamic_solve(sphere(2), x0=np.zeros(2))
        census = complexity_census(report, epsilon_g=1.0, epsilon_H=1.0)
        assert census.count_G == 0

    def test_two_step_report_gives_counts_only(self):
        # the two-step method estimates no constant, so a bound read at
        # L = sigma = 1 (5000 and 375000 here) would be made up
        report = two_step_solve(quartic_saddle(), alpha=0.1, beta=0.5)
        census = complexity_census(report, epsilon_g=1e-2, epsilon_H=1e-2)
        assert census.bound_G is None and census.bound_H is None
        assert census.count_G == sum(r.gradient_norm > 1e-2 for r in report.records)
        assert census.count_H == sum(r.lam < -1e-2 for r in report.records)
        assert census.count_H > 0
