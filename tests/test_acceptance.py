"""Acceptance suite: one test per acceptance criterion.

Each test prints a PASS/FAIL line (visible under `pytest -s` or on failure);
every tolerance is pinned here, nothing is deferred to later calibration.
"""

import csv
import os
import time

import numpy as np
import pytest

from ncopt.deterministic import (
    TerminationReason,
    TerminationSpec,
    complexity_census,
    dynamic_solve,
    two_step_solve,
)
from ncopt.finite_sum import (
    StochasticOracle,
    random_quadratic_finite_sum,
    synthetic_two_layer_net,
)
from ncopt.harness import campaign, standard_campaign_pairs
from ncopt.linalg import leftmost_eigenpair, modified_newton_shift, truncated_cg
from ncopt.problems import list_problems, make_problem, random_quadratic, sphere
from ncopt.steps import (
    DESCENT_COSINE,
    LipschitzState,
    model_reduction_curvature,
    model_reduction_descent,
    negative_curvature_direction,
    optimal_stepsizes,
)
from ncopt.stochastic import (
    SafeguardConfig,
    StochasticStepConfig,
    admissible_constant_step,
    constant_step_mean_square_bound,
    dynamic_stochastic_solve,
    expected_descent_check,
    measure_moment_constants,
    two_step_stochastic_solve,
)
from reference_derivatives import central_gradient, central_hessian
from reference_eigen import reference_extreme_eigenvalues

STRATEGIES = ("steepest", "modified_newton")
STARTS_PER_PROBLEM = 5
GOLDEN_CAMPAIGN_SD = os.path.join(os.path.dirname(__file__), "golden",
                                  "campaign_sd.csv")
GOLDEN_CAMPAIGN_MN = os.path.join(os.path.dirname(__file__), "golden",
                                  "campaign_mn.csv")
# The measures are ratios of order one or scaled objective gaps.  A changed
# iteration or evaluation count moves a ratio by far more than this; the
# tolerance only absorbs last-digit differences between BLAS builds.
GOLDEN_MEASURE_ATOL = 1e-8


def _announce(number, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print("[acceptance] criterion %d %s (%.1fs): %s"
          % (number, status, time.time() - t0, detail))


def _neg(lam):
    return max(0.0, -lam)


def _starting_points(problem, count=STARTS_PER_PROBLEM):
    points = []
    for i in range(count):
        rng = np.random.default_rng([41, i, problem.dimension])
        points.append(problem.default_start
                      + rng.uniform(-0.5, 0.5, problem.dimension))
    return points


@pytest.fixture(scope="module")
def dynamic_suite_runs():
    """Every registry problem x both strategies x five starts."""
    runs = []
    termination = TerminationSpec(max_iterations=200)
    for name in list_problems():
        for strategy in STRATEGIES:
            for x0 in _starting_points(make_problem(name)):
                problem = make_problem(name)
                report = dynamic_solve(problem, strategy=strategy,
                                       termination=termination, x0=x0)
                runs.append(report)
    return runs


def test_criterion_1_dynamic_per_iteration_decrease(dynamic_suite_runs):
    """Accepted dynamic steps decrease f at least as much as the larger of
    the two model-reduction guarantees."""
    t0 = time.time()
    checked = 0
    worst = np.inf
    for report in dynamic_suite_runs:
        # the certificates' constants: the strategy's descent cosine, and 1
        # in the curvature condition
        delta = DESCENT_COSINE[report.config["strategy"]]
        records = report.records
        for cur, nxt in zip(records[:-1], records[1:]):
            if cur.step_taken == "none":
                continue
            guarantee = max(
                delta ** 2 * cur.gradient_norm ** 2 / (2.0 * cur.lipschitz_L),
                2.0 * _neg(cur.lam) ** 3 / (3.0 * cur.lipschitz_sigma ** 2),
            )
            slack = 1e-10 * max(1.0, abs(cur.f_value))
            margin = (cur.f_value - nxt.f_value) - guarantee
            worst = min(worst, margin + slack)
            assert margin >= -slack
            checked += 1
    ok = checked > 1000
    _announce(1, ok, "%d accepted steps over %d runs, worst margin %.2e"
              % (checked, len(dynamic_suite_runs), worst), t0)
    assert ok


def test_criterion_2_two_step_decrease_inequality():
    """Fixed-stepsize runs on quadratics with documented constants obey the
    per-iteration decrease with the proof's c1, c2 coefficients."""
    t0 = time.time()
    cases = [
        (sphere(3), 1.0, 0.0, 60),
        (random_quadratic(6, spectrum=np.linspace(0.5, 8.0, 6), seed=51), 8.0, 0.0, 80),
        (random_quadratic(6, spectrum=np.array([-3.0, -1.0, 0.5, 2.0, 5.0, 8.0]),
                          seed=52), 8.0, 0.0, 25),
    ]
    checked = curvature_steps = 0
    for problem, L_true, sigma_true, max_iter in cases:
        alpha = 1.0 / L_true          # inside (0, 2/L)
        beta = 0.3                    # any positive value when sigma = 0
        c1 = 0.5 * beta ** 2 * (1.0 - sigma_true * beta / 3.0)
        c2 = alpha * (1.0 - 0.5 * L_true * alpha)
        report = two_step_solve(problem, alpha=alpha, beta=beta,
                                termination=TerminationSpec(max_iterations=max_iter))
        records = report.records
        for cur, nxt in zip(records[:-1], records[1:]):
            if cur.step_taken == "none":
                continue
            used_d = bool(np.any(cur.d != 0.0))
            curvature_steps += used_d
            g_hat = problem.gradient(cur.x_hat)
            bound = (cur.f_value
                     - (c1 * _neg(cur.lam) ** 3 if used_d else 0.0)
                     - c2 * float(g_hat @ g_hat))
            assert nxt.f_value <= bound + 1e-10 * max(1.0, abs(cur.f_value))
            checked += 1
    ok = checked > 50 and curvature_steps > 10
    _announce(2, ok, "%d iterations checked, %d with a curvature step"
              % (checked, curvature_steps), t0)
    assert ok


def test_criterion_3_complexity_census(dynamic_suite_runs):
    """Iteration counts with large gradient / strong negative curvature stay
    within the worst-case cardinality bounds."""
    t0 = time.time()
    checked = 0
    for report in dynamic_suite_runs:
        if report.problem_lower_bound is None:
            continue
        for eps in (1e-1, 1e-2):
            census = complexity_census(report, epsilon_g=eps, epsilon_H=eps)
            assert census.bound_G is not None
            assert census.count_G <= census.bound_G
            assert census.count_H <= census.bound_H
            checked += 1
    ok = checked >= 2 * len(dynamic_suite_runs) * 0.9
    _announce(3, ok, "%d (run, epsilon) census checks" % checked, t0)
    assert ok


def test_criterion_4_saddle_escape():
    """From the exact quartic saddle the curvature-enabled method reaches the
    bottom while the descent-only twin stays put."""
    t0 = time.time()
    termination = TerminationSpec(max_iterations=200)
    escaping = dynamic_solve(make_problem("quartic_saddle"),
                             termination=termination, x0=np.zeros(2))
    assert escaping.final_f <= 1e-8
    assert escaping.total_iterations <= 200
    assert escaping.used_negative_curvature

    stuck = dynamic_solve(make_problem("quartic_saddle"), termination=termination,
                          x0=np.zeros(2), use_curvature=False)
    assert stuck.termination_reason is TerminationReason.SECOND_ORDER_POINT
    assert stuck.total_iterations == 1
    assert stuck.final_f == pytest.approx(0.25)
    _announce(4, True, "curvature run f=%.2e in %d iterations; descent-only "
              "stalls at f=0.25" % (escaping.final_f, escaping.total_iterations), t0)


def _assert_matches_golden(rows, path):
    """The campaign rows are the golden table's, in its order."""
    with open(path, newline="") as handle:
        golden = list(csv.DictReader(handle))
    assert [r.problem for r in rows] == [g["problem"] for g in golden]
    for row, expected in zip(rows, golden):
        for measure in ("f_measure", "iter_measure", "feval_measure"):
            assert getattr(row, measure) == pytest.approx(
                float(expected[measure]), rel=0.0, abs=GOLDEN_MEASURE_ATOL
            ), (row.problem, measure)
        assert str(row.used_negative_curvature) == expected["used_negative_curvature"]


def test_criterion_5_mini_campaign_medians():
    """Across the suite, curvature-using problems end no worse in objective
    and iterations at the median, and the table matches the golden one."""
    t0 = time.time()
    pairs = standard_campaign_pairs(strategy="sd", seed=0, max_iterations=2000)
    rows, _, _ = campaign(pairs)
    assert len(rows) >= 5
    _assert_matches_golden(rows, GOLDEN_CAMPAIGN_SD)
    f_median = float(np.median([r.f_measure for r in rows]))
    iter_median = float(np.median([r.iter_measure for r in rows]))
    ok = f_median >= 0.0 and iter_median >= 0.0
    _announce(5, ok, "%d curvature rows, median f_measure %.3e, median "
              "iter_measure %.3f" % (len(rows), f_median, iter_median), t0)
    assert f_median >= 0.0
    assert iter_median >= 0.0


def test_modified_newton_campaign_matches_golden():
    """The modified-Newton pairs, with and without curvature steps, give the
    golden table, so a change to their dispatch or to the shifted-Newton
    step shows up here."""
    pairs = standard_campaign_pairs(strategy="mn", seed=0, max_iterations=300)
    rows, _, _ = campaign(pairs)
    _assert_matches_golden(rows, GOLDEN_CAMPAIGN_MN)


def test_criterion_6_stepsize_optimality_oracle():
    """Closed-form stepsizes dominate a 10^4-point grid search of both models."""
    t0 = time.time()
    rng = np.random.default_rng(61)
    tuples = 0
    while tuples < 100:
        n = int(rng.integers(2, 9))
        g = rng.normal(size=n)
        s = -g + 0.3 * rng.normal(size=n)
        if float(g @ s) >= 0.0:
            s = -g
        A = rng.normal(size=(n, n))
        H = 0.5 * (A + A.T) - float(rng.uniform(0.0, 3.0)) * np.eye(n)
        state = LipschitzState(L_current=float(rng.uniform(0.5, 5.0)),
                               sigma_current=float(rng.uniform(0.5, 5.0)))
        d = negative_curvature_direction(leftmost_eigenpair(H, g), H, g)
        sizes = optimal_stepsizes(g, s, d if np.any(d != 0.0) else None, H, state)
        grid = np.linspace(0.0, 2.0 * sizes.alpha, 10000)
        best = np.max(-grid * (g @ s) - 0.5 * state.L_current * grid ** 2 * (s @ s))
        assert model_reduction_descent(g, s, state.L_current, sizes.alpha) \
            >= best - 1e-8
        if sizes.beta is not None:
            c = float(d @ H @ d)
            dn3 = float(np.linalg.norm(d)) ** 3
            gridb = np.linspace(0.0, 2.0 * sizes.beta, 10000)
            bestb = np.max(-gridb * (g @ d) - 0.5 * gridb ** 2 * c
                           - state.sigma_current / 6.0 * gridb ** 3 * dn3)
            assert model_reduction_curvature(g, d, H, state.sigma_current,
                                             sizes.beta) >= bestb - 1e-8
        tuples += 1
    _announce(6, True, "100 random tuples beat the grids within 1e-8", t0)


@pytest.fixture(scope="module")
def stochastic_quadratic():
    problem = random_quadratic_finite_sum(n=10, components=20, seed=314)
    probe = StochasticOracle(problem, batch_size=2, seed=9090)
    moments = measure_moment_constants(probe, problem.default_start, draws=10000)
    return problem, moments


def test_criterion_7_expected_decrease_monte_carlo(stochastic_quadratic):
    """Single-step expected decrease obeys the moment-constant bound."""
    t0 = time.time()
    problem, moments = stochastic_quadratic
    L = problem.local_gradient_lipschitz
    alpha = admissible_constant_step(moments, L)
    config = StochasticStepConfig(alpha_constant=alpha, moment_bounds=moments,
                                  gradient_lipschitz=L)
    result = expected_descent_check(problem, problem.default_start, config,
                                    replications=10000, seed=7100, batch_size=2,
                                    moments=moments)
    assert result.empirical_decrease <= result.bound + 3.0 * result.standard_error
    _announce(7, True, "empirical %.4e <= bound %.4e (SE %.1e, 10^4 replications)"
              % (result.empirical_decrease, result.bound, result.standard_error), t0)


def test_criterion_8_constant_step_mean_square_bound(stochastic_quadratic):
    """Average squared gradient norm over K iterations stays under the
    constant-stepsize bound across seeds."""
    t0 = time.time()
    problem, moments = stochastic_quadratic
    L = problem.local_gradient_lipschitz
    alpha = admissible_constant_step(moments, L)
    config = StochasticStepConfig(alpha_constant=alpha, moment_bounds=moments,
                                  gradient_lipschitz=L)
    K = 2000
    x0 = problem.default_start
    gap = problem.evaluate(x0) - problem.lower_bound
    bound = constant_step_mean_square_bound(moments, L, 1.0, alpha, K, gap)
    means = []
    for seed in range(20):
        oracle = StochasticOracle(problem, batch_size=2, seed=seed)
        report = two_step_stochastic_solve(oracle, config, iterations=K, x0=x0)
        means.append(report.mean_square_gradient())
    means = np.array(means)
    stderr = float(means.std(ddof=1) / np.sqrt(len(means)))
    ok = means.mean() <= bound + 3.0 * stderr
    _announce(8, ok, "mean %.4e <= bound %.4e + 3*SE %.1e over 20 seeds"
              % (means.mean(), bound, stderr), t0)
    assert means.mean() <= bound + 3.0 * stderr


def test_criterion_9_stochastic_dynamic_curvature_helps():
    """On the two-layer-net finite sum, the curvature-enabled dynamic method
    ends with mean training loss no worse than its descent-only twin."""
    t0 = time.time()
    problem_spec = dict(records=500, feature_dim=4, hidden_units=8, seed=7,
                        noise=0.02, teacher_scale=3.0)
    start_rng = np.random.default_rng(17)
    dimension = 8 * 4 + 2 * 8 + 1
    x0 = 1e-3 * start_rng.normal(size=dimension)
    finals = {True: [], False: []}
    used_curvature = []
    for seed in range(5):
        for use_curvature in (True, False):
            problem = synthetic_two_layer_net(**problem_spec)
            assert problem.dimension <= 100 and problem.component_count == 500
            oracle = StochasticOracle(problem, batch_size=32, seed=seed)
            report = dynamic_stochastic_solve(
                oracle, SafeguardConfig(), iterations=2000, x0=x0,
                use_curvature=use_curvature, track_exact=False,
            )
            finals[use_curvature].append(report.final_exact_f)
            if use_curvature:
                used_curvature.append(report.used_negative_curvature)
    mean_nc = float(np.mean(finals[True]))
    mean_sg = float(np.mean(finals[False]))
    ok = mean_nc <= mean_sg and all(used_curvature)
    _announce(9, ok, "mean final loss: curvature %.6f vs descent-only %.6f "
              "(5 seeds)" % (mean_nc, mean_sg), t0)
    assert all(used_curvature)
    assert mean_nc <= mean_sg


def test_criterion_10_kernel_oracles_and_determinism():
    """Derivative checks, kernel oracles, and replay determinism."""
    t0 = time.time()
    # derivative spot checks across the registry
    for name in list_problems():
        problem = make_problem(name)
        rng = np.random.default_rng([10, problem.dimension])
        for _ in range(10):
            x = problem.default_start + rng.uniform(-0.5, 0.5, problem.dimension)
            g = problem.gradient(x)
            fd_g = central_gradient(problem.evaluate, x, step=1e-6)
            assert np.linalg.norm(fd_g - g) <= 1e-5 * max(1.0, np.linalg.norm(g))
            H = problem.hessian(x)
            assert np.max(np.abs(H - H.T)) == 0.0
            fd_H = central_hessian(problem.gradient, x, step=1e-6)
            assert np.max(np.abs(fd_H - H)) <= 1e-4 * max(1.0, np.max(np.abs(H)))
    # eigenpair / CG / shift kernels against dense oracles
    rng = np.random.default_rng(1010)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        A = rng.normal(size=(n, n))
        H = 0.5 * (A + A.T)
        res = leftmost_eigenpair(H)
        assert res.residual <= 1e-10
        assert abs(res.leftmost_value - reference_extreme_eigenvalues(H)[0]) <= 1e-10
        spd = A @ A.T + n * np.eye(n)
        g = rng.normal(size=n)
        out = truncated_cg(spd, g, max_iterations=5 * n)
        direct = np.linalg.solve(spd, -g)
        assert np.linalg.norm(out.solution - direct) \
            <= 1e-8 * max(1.0, np.linalg.norm(direct))
        delta, _ = modified_newton_shift(H, res)
        lmin, lmax = reference_extreme_eigenvalues(H + delta * np.eye(n))
        assert lmin > 0.0 and lmax <= 1e8 * lmin
    # replay determinism for both stochastic solvers
    problem = random_quadratic_finite_sum(n=6, components=10, seed=5)
    final_pairs = []
    for _ in range(2):
        oracle = StochasticOracle(problem, batch_size=2, seed=123)
        config = StochasticStepConfig(alpha_constant=0.02)
        rep_a = two_step_stochastic_solve(oracle, config, iterations=50)
        oracle_b = StochasticOracle(problem, batch_size=2, seed=321)
        rep_b = dynamic_stochastic_solve(oracle_b, iterations=50)
        final_pairs.append((rep_a.final_x, rep_b.final_x))
    np.testing.assert_array_equal(final_pairs[0][0], final_pairs[1][0])
    np.testing.assert_array_equal(final_pairs[0][1], final_pairs[1][1])
    _announce(10, True, "derivatives, kernel oracles, and replays verified", t0)
