import csv
import os

import numpy as np
import pytest

from ncopt import deterministic
from ncopt.deterministic import (
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
from ncopt.steps import DESCENT_COSINE, LipschitzState


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

    def test_tiny_step_termination(self):
        p = sphere(2)
        spec = TerminationSpec(min_step_norm=10.0)
        report = two_step_solve(p, alpha=0.5, beta=0.5, x0=np.array([1.0, 1.0]),
                                termination=spec)
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
