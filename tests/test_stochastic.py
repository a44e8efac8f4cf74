import csv
import math
import os

import numpy as np
import pytest

from ncopt import finite_sum, stochastic
from ncopt.finite_sum import (
    LinearLeastSquaresProblem,
    StochasticOracle,
    random_quadratic_finite_sum,
    synthetic_two_layer_net,
)
from ncopt.deterministic import dynamic_solve
from ncopt.problems import EvaluationError, make_problem
from ncopt.steps import ConditionViolation, LipschitzState
from ncopt.stochastic import (
    LIPSCHITZ_INIT,
    MomentBounds,
    StochasticReport,
    StochasticStepConfig,
    admissible_constant_step,
    apply_safeguards,
    constant_step_mean_square_bound,
    curvature_noise_step,
    dynamic_stochastic_solve,
    expected_descent_check,
    measure_moment_constants,
    two_step_stochastic_solve,
)
from reference_finite_sum import per_draw_moment_m1
from test_fingerprints import fingerprint

GOLDEN_DYNAMIC_NET = os.path.join(os.path.dirname(__file__), "golden",
                                  "stoch_dynamic_net.csv")
GOLDEN_TWO_STEP_QUAD = os.path.join(os.path.dirname(__file__), "golden",
                                    "stoch_two_step.csv")


def half_x_squared():
    """f(x) = x^2/2 as a two-component finite sum with zero variance."""
    return LinearLeastSquaresProblem(np.array([[1.0], [1.0]]), np.zeros(2))


def assert_streams_stand_at(oracle, gradient_draws=0):
    """The oracle's streams have handed out `gradient_draws` gradient
    batches and nothing else: each stream's next draw is its reference
    generator's next per-call draw after that many."""
    n, b = oracle.problem.component_count, oracle.batch_size
    gradient, hessian, omega = (
        np.random.default_rng(s)
        for s in np.random.SeedSequence(oracle.seed).spawn(3))
    for _ in range(gradient_draws):
        gradient.choice(n, size=b, replace=False)
    np.testing.assert_array_equal(oracle.next_gradient_batch(),
                                  gradient.choice(n, size=b, replace=False))
    np.testing.assert_array_equal(oracle.next_hessian_batch(),
                                  hessian.choice(n, size=b, replace=False))
    assert oracle.next_omega() == float(omega.uniform(-1.0, 1.0))


@pytest.fixture
def noisy_quadratic():
    return random_quadratic_finite_sum(n=10, components=20, seed=314)


class TestStepConfig:
    def test_exactly_one_schedule(self):
        with pytest.raises(ValueError):
            StochasticStepConfig()
        with pytest.raises(ValueError):
            StochasticStepConfig(alpha_constant=-0.1)

    def test_stepsize_must_be_positive_and_finite(self):
        # a zero stepsize used to pass here and fail at the first step
        for alpha in (0.0, -0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha_constant"):
                StochasticStepConfig(alpha_constant=alpha)

    def test_admissibility_check(self):
        moments = MomentBounds(1.0, 1.5)
        cap = admissible_constant_step(moments, gradient_lipschitz=2.0)
        assert cap == pytest.approx(1.0 / 6.0)
        StochasticStepConfig(alpha_constant=cap, moment_bounds=moments,
                             gradient_lipschitz=2.0)
        with pytest.raises(ValueError):
            StochasticStepConfig(alpha_constant=2.0 * cap, moment_bounds=moments,
                                 gradient_lipschitz=2.0)

    def test_nan_bounds_fail_the_admissibility_check(self):
        # a NaN cap fails no comparison, so it used to admit any stepsize
        with pytest.raises(ValueError, match="moment bounds"):
            StochasticStepConfig(alpha_constant=5.0,
                                 moment_bounds=MomentBounds(1.0, float("nan")),
                                 gradient_lipschitz=1.0)
        with pytest.raises(ValueError, match="gradient_lipschitz"):
            StochasticStepConfig(alpha_constant=5.0,
                                 moment_bounds=MomentBounds(1.0, 1.5),
                                 gradient_lipschitz=float("nan"))

    @pytest.mark.parametrize("m1, m2", [
        (float("nan"), 1.5), (-1.0, 1.5), (math.inf, 1.5),
        (1.0, 0.0), (1.0, -1.0), (1.0, math.inf),
    ])
    def test_moment_bounds_need_finite_m1_and_positive_m2(self, m1, m2):
        # a zero M2 divided the admissible stepsize; a NaN M1 made the
        # mean-square bound NaN
        with pytest.raises(ValueError, match="moment bounds"):
            MomentBounds(m1, m2)

    @pytest.mark.parametrize("lipschitz", [0.0, -2.0, math.inf])
    def test_gradient_lipschitz_must_be_positive_and_finite(self, lipschitz):
        # a zero constant divided the admissible stepsize
        with pytest.raises(ValueError, match="gradient_lipschitz"):
            StochasticStepConfig(alpha_constant=0.1, gradient_lipschitz=lipschitz)
        with pytest.raises(ValueError, match="gradient_lipschitz"):
            StochasticStepConfig(alpha_constant=0.1,
                                 moment_bounds=MomentBounds(1.0, 1.5),
                                 gradient_lipschitz=lipschitz)


class TestCurvatureNoiseStep:
    def test_spd_estimate_reduces_to_gradient_step(self):
        p = half_x_squared()
        oracle = StochasticOracle(p, batch_size=2, seed=0)
        x_next, record = curvature_noise_step(np.array([3.0]), oracle, 1.0)
        assert record.d_norm == 0.0
        assert record.sampled_lambda == pytest.approx(1.0)
        np.testing.assert_allclose(x_next, [0.0], atol=1e-15)

    def test_rejects_nonpositive_stepsize(self):
        # StochasticStepConfig's rule, checked before any draw; alpha = inf
        # used to pass and return an all-NaN iterate on quadratic_sum
        problem = make_problem("quadratic_sum")
        oracle = StochasticOracle(problem, batch_size=2, seed=0)
        for alpha in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="positive and finite"):
                curvature_noise_step(problem.default_start, oracle, alpha)
        assert_streams_stand_at(oracle)

    def test_replay_with_same_seed_is_identical(self, noisy_quadratic):
        x = noisy_quadratic.default_start
        outs = []
        for _ in range(2):
            oracle = StochasticOracle(noisy_quadratic, batch_size=2, seed=11)
            seq = []
            for _ in range(6):
                x_next, record = curvature_noise_step(x, oracle, 0.01)
                seq.append((x_next, record.s_norm, record.d_norm, record.omega))
            outs.append(seq)
        for (xa, sa, da, oa), (xb, sb, db, ob) in zip(*outs):
            np.testing.assert_array_equal(xa, xb)
            assert (sa, da, oa) == (sb, db, ob)

    def test_curvature_direction_norm_matches_step(self, noisy_quadratic):
        x = noisy_quadratic.default_start
        oracle = StochasticOracle(noisy_quadratic, batch_size=2, seed=5)
        seen = 0
        for _ in range(40):
            _, record = curvature_noise_step(x, oracle, 0.01)
            if record.d_norm > 0.0:
                assert record.d_norm == pytest.approx(record.s_norm, rel=1e-12)
                assert record.sampled_lambda < 0.0
                seen += 1
        assert seen > 0

    def test_omega_noise_has_zero_mean(self, noisy_quadratic):
        oracle = StochasticOracle(noisy_quadratic, batch_size=2, seed=9)
        draws = 100000
        omegas = np.array([oracle.next_omega() for _ in range(draws)])
        d = np.array([1.0, -2.0, 0.5])
        samples = omegas[:, None] * d
        mean_norm = np.linalg.norm(samples.mean(axis=0))
        std = np.linalg.norm(d) * omegas.std(ddof=1)
        assert mean_norm <= 4.0 * std / np.sqrt(draws)


class TestEigenpairTable:
    """A finite sum whose batch Hessian does not read x decomposes each
    sampled Hessian batch once; the steps stay bit for bit the same."""

    CONFIG = StochasticStepConfig(alpha_constant=0.02)

    @staticmethod
    def counted_eigenpairs(monkeypatch):
        """The list each step's leftmost_eigenpair call appends to."""
        calls, original = [], finite_sum.leftmost_eigenpair

        def counted(H, g=None):
            calls.append(H.shape)
            return original(H, g)

        monkeypatch.setattr(finite_sum, "leftmost_eigenpair", counted)
        return calls

    def solve(self, problem, seed, iterations=400, batch_size=2):
        oracle = StochasticOracle(problem, batch_size=batch_size, seed=seed)
        return two_step_stochastic_solve(oracle, self.CONFIG, iterations)

    def test_each_ordered_batch_is_decomposed_at_most_once(self, monkeypatch):
        # 800 draws of 20*19 = 380 ordered batches of 2: every repeat is
        # read from the table, and the warm run equals a cold one bit for bit
        calls = self.counted_eigenpairs(monkeypatch)
        problem = random_quadratic_finite_sum(n=10, components=20)
        self.solve(problem, seed=1)
        warm = self.solve(problem, seed=2)
        assert len(calls) <= 380
        assert len(problem._eigenpair_tables[2]) == len(calls)
        cold = self.solve(random_quadratic_finite_sum(n=10, components=20), seed=2)
        assert fingerprint(warm) == fingerprint(cold)

    @pytest.mark.parametrize("make", [
        lambda: random_quadratic_finite_sum(n=3, components=6),
        lambda: LinearLeastSquaresProblem(
            np.random.default_rng(4).normal(size=(6, 3)),
            np.random.default_rng(5).normal(size=6)),
    ], ids=["quadratic", "least_squares"])
    def test_solve_with_a_table_equals_one_without(self, monkeypatch, make):
        # batches of three: a key that ignored the order of the rows would
        # hand a permuted batch a pair its own sum rounds differently from
        with_table = self.solve(make(), seed=4, batch_size=3)
        monkeypatch.setattr(finite_sum, "_EIGEN_TABLE_BYTES", 0)
        problem = make()
        without = self.solve(problem, seed=4, batch_size=3)
        assert problem._eigenpair_tables == {3: None}
        assert fingerprint(with_table) == fingerprint(without)

    @pytest.mark.parametrize("make, batch_size", [
        # perm(20, 3) * 8 * (2*6^2 + 2*6) bytes is about 4.6 MB
        (lambda: random_quadratic_finite_sum(n=6, components=20), 3),
        (lambda: synthetic_two_layer_net(records=20, feature_dim=1,
                                         hidden_units=2), 2),
    ], ids=["over_the_byte_bound", "two_layer_net"])
    def test_no_table_means_one_decomposition_per_iteration(
            self, monkeypatch, make, batch_size):
        calls = self.counted_eigenpairs(monkeypatch)
        problem = make()
        self.solve(problem, seed=1, iterations=60, batch_size=batch_size)
        self.solve(problem, seed=1, iterations=60, batch_size=batch_size)
        assert len(calls) == 120
        assert problem._eigenpair_tables == {batch_size: None}

    def test_table_is_kept_exactly_where_it_fits_the_bound(self, monkeypatch):
        # perm(4, 2) = 12 entries of 2*3^2 + 2*3 doubles
        size = 12 * 8 * 24
        for bound, kept in ((size, True), (size - 1, False)):
            monkeypatch.setattr(finite_sum, "_EIGEN_TABLE_BYTES", bound)
            problem = random_quadratic_finite_sum(n=3, components=4)
            problem.sampled_eigenpair(np.zeros(3), np.array([0, 1]))
            assert (problem._eigenpair_tables[2] is not None) is kept

    def test_a_batch_met_again_reads_its_stored_pair(self, monkeypatch):
        # the same rows in another order are another batch, decomposed
        # afresh; the same rows in the same order at another point are not
        calls = self.counted_eigenpairs(monkeypatch)
        problem = random_quadratic_finite_sum(n=3, components=6)
        batch = np.array([4, 0, 2])
        first = problem.sampled_eigenpair(np.zeros(3), batch)
        permuted = problem.sampled_eigenpair(np.zeros(3), batch[::-1].copy())
        assert problem.sampled_eigenpair(np.ones(3), batch.copy()) is first
        assert permuted is not first and len(calls) == 2

    def test_a_non_finite_batch_hessian_raises_and_is_never_stored(self):
        # record 0's features overflow phi'phi; a batch without it is stored
        with np.errstate(over="ignore"):
            problem = LinearLeastSquaresProblem(
                np.array([[1e155, 0.0], [1.0, 1.0], [1.0, 0.0]]), np.zeros(3))
            for _ in range(2):
                with pytest.raises(EvaluationError, match="^sampled Hessian has "
                                   "non-finite entries$"):
                    problem.sampled_eigenpair(np.zeros(2), np.array([1, 0]))
        problem.sampled_eigenpair(np.zeros(2), np.array([1, 2]))
        assert list(problem._eigenpair_tables[2]) == [np.array([1, 2]).tobytes()]

    def test_stored_arrays_are_read_only(self):
        problem = random_quadratic_finite_sum(n=10, components=20)
        self.solve(problem, seed=1, iterations=5)
        for eig in problem._eigenpair_tables[2].values():
            for array in (eig.leftmost_vector, eig.values, eig.vectors,
                          eig.matrix):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0


class TestTwoStepStochastic:
    def test_noiseless_constant_step_decays_geometrically(self):
        p = half_x_squared()
        oracle = StochasticOracle(p, batch_size=2, seed=1)
        moments = MomentBounds(1e-12, 1.5)
        alpha = admissible_constant_step(moments, gradient_lipschitz=1.0)
        config = StochasticStepConfig(alpha_constant=alpha, moment_bounds=moments,
                                      gradient_lipschitz=1.0)
        report = two_step_stochastic_solve(oracle, config, iterations=50,
                                           x0=np.array([3.0]))
        norms = report.exact_gradient_norms()
        ratio = 1.0 - alpha
        np.testing.assert_allclose(norms, 3.0 * ratio ** np.arange(50), rtol=1e-10)
        # the mean-square bound holds at every prefix length
        for K in (1, 5, 20, 50):
            bound = constant_step_mean_square_bound(
                moments, 1.0, 1.0, alpha, K, initial_gap=4.5
            )
            assert np.mean(norms[:K] ** 2) <= bound

    def test_noisy_mean_square_bound_across_seeds(self, noisy_quadratic):
        p = noisy_quadratic
        L = p.local_gradient_lipschitz
        x0 = p.default_start
        probe = StochasticOracle(p, batch_size=2, seed=7777)
        moments = measure_moment_constants(probe, x0, draws=2000)
        alpha = admissible_constant_step(moments, L)
        config = StochasticStepConfig(alpha_constant=alpha, moment_bounds=moments,
                                      gradient_lipschitz=L)
        K = 400
        gap = p.evaluate(x0) - p.lower_bound
        bound = constant_step_mean_square_bound(moments, L, 1.0, alpha, K, gap)
        means = []
        for seed in range(8):
            oracle = StochasticOracle(p, batch_size=2, seed=seed)
            report = two_step_stochastic_solve(oracle, config, iterations=K, x0=x0)
            means.append(report.mean_square_gradient())
        means = np.array(means)
        stderr = means.std(ddof=1) / np.sqrt(len(means))
        assert means.mean() <= bound + 3.0 * stderr

    def test_solver_replay_bitwise_identical(self, noisy_quadratic):
        config = StochasticStepConfig(alpha_constant=0.02)
        finals = []
        for _ in range(2):
            oracle = StochasticOracle(noisy_quadratic, batch_size=2, seed=3)
            report = two_step_stochastic_solve(oracle, config, iterations=40)
            finals.append(report.final_x)
        np.testing.assert_array_equal(finals[0], finals[1])

    @pytest.mark.parametrize("solve", [
        lambda o: two_step_stochastic_solve(
            o, StochasticStepConfig(alpha_constant=0.02), iterations=3),
        lambda o: dynamic_stochastic_solve(o, iterations=3),
    ], ids=["two_step", "dynamic"])
    def test_records_count_from_one_on_a_used_oracle(self, noisy_quadratic,
                                                     solve):
        # a moment probe draws from the oracle first; the records count the
        # solve's own iterations
        oracle = StochasticOracle(noisy_quadratic, batch_size=2, seed=3)
        measure_moment_constants(oracle, noisy_quadratic.default_start, draws=5)
        report = solve(oracle)
        assert [r.index for r in report.records] == [1, 2, 3]

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    def test_next_iterate_that_overflows_ends_typed(self, noisy_quadratic):
        # alpha * s overflows although alpha and s are finite
        oracle = StochasticOracle(noisy_quadratic, batch_size=2, seed=3)
        with pytest.raises(ConditionViolation,
                           match="step to x \\+ t\\*p has non-finite") as info:
            two_step_stochastic_solve(
                oracle, StochasticStepConfig(alpha_constant=1e308), 1)
        assert info.value.report.records == []

    def test_quadratic_sum_trace_matches_golden(self):
        # 50 iterations on the registry quadratic_sum from its default
        # start, batch 2, oracle seed 3, alpha 0.05, on the oracle's
        # persistent spawned streams
        oracle = StochasticOracle(make_problem("quadratic_sum"), batch_size=2, seed=3)
        report = two_step_stochastic_solve(
            oracle, StochasticStepConfig(alpha_constant=0.05), 50)
        with open(GOLDEN_TWO_STEP_QUAD, newline="") as handle:
            golden = list(csv.DictReader(handle))
        assert len(report.records) == len(golden) == 50
        assert sum(r.d_norm > 0.0 for r in report.records) == 8
        # the constant stepsize sizes both steps
        assert all(r.alpha == r.beta == 0.05 for r in report.records)
        # the exact norms are evaluated after the solve, on the stored iterates
        norms = report.exact_gradient_norms()
        for record, norm, expected in zip(report.records, norms, golden):
            assert record.index == int(expected["k"])
            for name in ("value_before", "s_norm", "d_norm", "omega",
                         "sampled_lambda"):
                assert getattr(record, name) == pytest.approx(
                    float(expected[name]), rel=1e-10, abs=0.0), (record.index, name)
            assert norm == pytest.approx(float(expected["exact_gradient_norm"]),
                                         rel=1e-10, abs=0.0), record.index


class TestExactNorms:
    """The solvers are driven by samples alone; the exact gradient norms
    are evaluated after the solve, on the stored iterates."""

    @pytest.mark.parametrize("solve", [
        lambda o: dynamic_stochastic_solve(o, iterations=30),
        lambda o: two_step_stochastic_solve(
            o, StochasticStepConfig(alpha_constant=0.05), 30),
    ], ids=["dynamic", "two_step"])
    def test_solve_evaluates_no_exact_gradient(self, solve):
        problem = make_problem("quadratic_sum")
        report = solve(StochasticOracle(problem, batch_size=2, seed=3))
        assert problem.gradient_count == 0
        norms = report.exact_gradient_norms()
        assert problem.gradient_count == len(report.records) == 30
        expected = [np.linalg.norm(problem.gradient(r.x)) for r in report.records]
        np.testing.assert_array_equal(norms, expected)
        assert report.mean_square_gradient() == float(np.mean(norms ** 2))

    def test_mean_square_gradient_needs_records(self):
        # a solve that fails at its first iteration leaves no records, whose
        # mean used to be NaN with two numpy warnings
        p = LinearLeastSquaresProblem(
            np.array([[1e200, 1.0], [0.5, -1.0], [2.0, 0.3], [-1.0, 2.0]]),
            np.array([1.0, 1.0, -1.0, 0.5]))
        with np.errstate(over="ignore"), pytest.raises(EvaluationError) as info:
            two_step_stochastic_solve(StochasticOracle(p, batch_size=2, seed=1),
                                      StochasticStepConfig(alpha_constant=0.01), 5)
        with pytest.raises(ValueError, match="^report has no records$"):
            info.value.report.mean_square_gradient()

    def test_problem_is_left_out_of_repr_and_comparison(self):
        problem = make_problem("quadratic_sum")
        report = StochasticReport("quadratic_sum", problem=problem)
        assert report == StochasticReport("quadratic_sum")
        assert repr(report) == repr(StochasticReport("quadratic_sum"))


class TestSafeguards:
    def test_long_step_scaled_to_cap(self):
        s, d = apply_safeguards(np.array([20.0, 0.0]), np.zeros(2), 1.0, 1.0)
        assert np.linalg.norm(s) == pytest.approx(10.0)

    def test_ratio_rule(self):
        # ||alpha s|| = 2, raw ||beta d|| = 1  ->  d rescaled to norm 0.4
        s, d = apply_safeguards(np.array([2.0, 0.0]), np.array([0.0, 2.0]),
                                alpha=1.0, beta=0.5)
        np.testing.assert_allclose(s, [2.0, 0.0])
        assert 0.5 * np.linalg.norm(d) == pytest.approx(0.4)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = rng.normal(size=4) * 30.0
            d = rng.normal(size=4) * 30.0
            alpha, beta = rng.uniform(0.01, 2.0, size=2)
            s1, d1 = apply_safeguards(s, d, alpha, beta)
            s2, d2 = apply_safeguards(s1, d1, alpha, beta)
            np.testing.assert_allclose(s1, s2, rtol=1e-14)
            np.testing.assert_allclose(d1, d2, rtol=1e-14)


class TestDynamicStochastic:
    def test_full_batch_convex_matches_descent_only_twin(self):
        p = half_x_squared()
        runs = []
        for use_curvature in (True, False):
            oracle = StochasticOracle(p, batch_size=2, seed=4)
            report = dynamic_stochastic_solve(
                oracle, LipschitzState(2.0, 2.0),
                iterations=30, x0=np.array([5.0]), use_curvature=use_curvature,
            )
            runs.append(report)
        with_c, without_c = runs
        assert not with_c.used_negative_curvature
        np.testing.assert_array_equal(with_c.final_x, without_c.final_x)
        for a, b in zip(with_c.records, without_c.records):
            np.testing.assert_array_equal(a.x, b.x)

    def test_constants_monotone_and_inflate_by_exact_factor(self, noisy_quadratic,
                                                            monkeypatch):
        oracle = StochasticOracle(noisy_quadratic, batch_size=2, seed=8)
        # a single CG iteration leaves the sampled system unsolved, so value
        # estimates do predict increases and exercise both inflations
        monkeypatch.setattr(stochastic, "CG_MAX_ITERATIONS", 1)
        report = dynamic_stochastic_solve(
            oracle, LipschitzState(0.05, 1.0), iterations=150,
        )
        Ls = [r.lipschitz_L for r in report.records]
        sigmas = [r.lipschitz_sigma for r in report.records]
        for seq in (Ls, sigmas):
            for a, b in zip(seq, seq[1:]):
                assert b == a or b == pytest.approx(1.2 * a, rel=1e-12)
                assert b >= a
        assert Ls[-1] > Ls[0]  # the noisy run must have triggered inflation

    def test_step_norm_safeguard_active_in_solver(self, noisy_quadratic):
        oracle = StochasticOracle(noisy_quadratic, batch_size=2, seed=21)
        report = dynamic_stochastic_solve(
            oracle, LipschitzState(0.01, 0.01),
            iterations=40,
        )
        for r in report.records:
            assert r.s_norm <= 10.0 + 1e-12
            assert r.beta * r.d_norm <= 0.2 * r.alpha * r.s_norm + 1e-12

    def test_reverted_steps_follow_value_estimates(self, noisy_quadratic):
        oracle = StochasticOracle(noisy_quadratic, batch_size=2, seed=13)
        report = dynamic_stochastic_solve(
            oracle, LipschitzState(1.0, 1.0), iterations=200,
        )
        reverted = [r for r in report.records if r.reverted_curvature_step]
        for r in reverted:
            assert r.value_after_curvature > r.value_after_descent
        kept = [r for r in report.records
                if r.d_norm > 0.0 and not r.reverted_curvature_step]
        for r in kept:
            assert r.value_after_curvature <= r.value_after_descent

    def test_replay_bitwise_identical(self, noisy_quadratic):
        finals = []
        for _ in range(2):
            oracle = StochasticOracle(noisy_quadratic, batch_size=2, seed=99)
            report = dynamic_stochastic_solve(oracle, iterations=60)
            finals.append(report.final_x)
        np.testing.assert_array_equal(finals[0], finals[1])

    def test_two_layer_net_trace_matches_golden(self):
        # 50 iterations on the registry two_layer_net from its default start,
        # batch 32, oracle seed 2017, on the oracle's persistent spawned
        # streams
        problem = make_problem("two_layer_net")
        oracle = StochasticOracle(problem, batch_size=32, seed=2017)
        report = dynamic_stochastic_solve(oracle, iterations=50)
        with open(GOLDEN_DYNAMIC_NET, newline="") as handle:
            golden = list(csv.DictReader(handle))
        assert len(report.records) == len(golden) == 50
        for record, expected in zip(report.records, golden):
            assert record.index == int(expected["k"])
            for name, attr in (("value_before", "value_before"),
                               ("s_norm", "s_norm"), ("d_norm", "d_norm")):
                assert getattr(record, attr) == pytest.approx(
                    float(expected[name]), rel=1e-10, abs=0.0), (record.index, name)
            assert record.cg_status.value == expected["cg_status"]
            assert str(record.reverted_curvature_step) == expected["reverted"]

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    def test_step_that_overflows_ends_typed(self, noisy_quadratic):
        # x_hat = x + s/L overflows at L = 1e-308; it is a step that failed,
        # not a bad sample, as in the deterministic solvers
        oracle = StochasticOracle(noisy_quadratic, batch_size=2, seed=3)
        with pytest.raises(ConditionViolation,
                           match="non-finite coordinates at t=1e[+]308") as info:
            dynamic_stochastic_solve(oracle, LipschitzState(1e-308, 1e-308),
                                     iterations=5)
        assert info.value.report.records == []

    def test_cg_first_iteration_case_uses_negative_gradient(self):
        # an indefinite sampled Hessian with p0'Hp0 <= 0 must fall back to -g
        p = random_quadratic_finite_sum(n=4, components=4, seed=5,
                                        spectrum=np.array([0.5, 1.0, 2.0, 3.0]),
                                        perturbation=6.0)
        oracle = StochasticOracle(p, batch_size=1, seed=2)
        report = dynamic_stochastic_solve(oracle, LIPSCHITZ_INIT, iterations=50)
        statuses = {r.cg_status for r in report.records}
        assert statuses  # runs recorded a CG status every iteration
        assert all(r.cg_status is not None for r in report.records)


class TestNonFiniteEstimates:
    """A non-finite sampled estimate ends a stochastic solve with an
    EvaluationError that carries the partial report."""

    BAD = 2  # the component whose center is NaN

    @pytest.fixture
    def nan_center(self):
        p = random_quadratic_finite_sum(n=3, components=6, seed=11)
        p.centers[self.BAD, 0] = np.nan
        return p

    def first_bad_iterate(self, problem, seed):
        # replay the gradient stream, which both solvers draw from once
        # per iterate, until a batch holds the NaN component
        oracle = StochasticOracle(problem, batch_size=2, seed=seed)
        for k in range(1, 100):
            if self.BAD in oracle.next_gradient_batch():
                return k
        raise AssertionError("no batch holds the bad component")

    @pytest.mark.parametrize("solve", [
        lambda o: dynamic_stochastic_solve(o, iterations=60),
        lambda o: two_step_stochastic_solve(
            o, StochasticStepConfig(alpha_constant=0.05), 60),
    ], ids=["dynamic", "two_step"])
    def test_raises_at_first_non_finite_estimate(self, nan_center, solve):
        seed = 3
        k_bad = self.first_bad_iterate(nan_center, seed)
        assert k_bad > 1
        with pytest.raises(EvaluationError, match="sampled value") as info:
            solve(StochasticOracle(nan_center, batch_size=2, seed=seed))
        report = info.value.report
        assert len(report.records) == report.total_iterations == k_bad - 1
        assert report.final_exact_f is None
        assert all(np.isfinite(r.x).all() for r in report.records)

    def test_warm_table_still_checks_the_value(self):
        # a first solve stores the pair of every Hessian batch the second
        # draws before its first bad gradient batch; each of those steps
        # still checks its value estimate
        p = random_quadratic_finite_sum(n=3, components=6, seed=11)
        config = StochasticStepConfig(alpha_constant=0.05)
        two_step_stochastic_solve(StochasticOracle(p, batch_size=2, seed=3),
                                  config, 60)
        p.centers[self.BAD, 0] = np.nan
        with pytest.raises(EvaluationError, match="sampled value") as info:
            two_step_stochastic_solve(StochasticOracle(p, batch_size=2, seed=3),
                                      config, 60)
        assert len(info.value.report.records) == self.first_bad_iterate(p, 3) - 1

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_hessian_estimate_checked(self):
        # at x = 0 the value is finite and g'g is about 1e279, while phi phi'
        # overflows
        p = LinearLeastSquaresProblem(
            np.array([[1e160, 0.5], [1.0, 1.0], [0.5, -1.0], [2.0, 0.3]]),
            np.array([1e-20, 1.0, 1.0, 1.0]))
        oracle = StochasticOracle(p, batch_size=4, seed=0)
        with pytest.raises(EvaluationError,
                           match="^sampled Hessian has non-finite entries$") as info:
            dynamic_stochastic_solve(oracle, iterations=5)
        assert info.value.report.records == []

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("solve", [
        lambda o: dynamic_stochastic_solve(o, iterations=5),
        lambda o: two_step_stochastic_solve(
            o, StochasticStepConfig(alpha_constant=0.01), 5),
    ], ids=["dynamic", "two_step"])
    def test_gradient_estimate_checked_by_its_norm(self, solve):
        # the sampled gradient's entries near 1e200 are finite but g'g is
        # not: the rule of ObjectiveProblem.gradient stops both solvers at
        # the start, before a step along that gradient
        p = LinearLeastSquaresProblem(
            np.array([[1e200, 1.0], [0.5, -1.0], [2.0, 0.3], [-1.0, 2.0]]),
            np.array([1.0, 1.0, -1.0, 0.5]))
        with pytest.raises(EvaluationError,
                           match="^sampled gradient norm is not finite$") as info:
            solve(StochasticOracle(p, batch_size=2, seed=1))
        np.testing.assert_array_equal(info.value.x, [0.0, 0.0])
        assert info.value.report.records == []

    @pytest.mark.parametrize("solve", [
        lambda o, n: dynamic_stochastic_solve(o, iterations=n),
        lambda o, n: two_step_stochastic_solve(
            o, StochasticStepConfig(alpha_constant=0.05), n),
    ], ids=["dynamic", "two_step"])
    def test_exact_gradient_failure_carries_report(self, nan_center, solve):
        # every full-batch evaluation holds the NaN center; the solve
        # evaluates only its final f in full, so with a budget that stops
        # before the first bad batch it fails there, carrying every record,
        # and the exact norms of those records fail after it
        iterations = self.first_bad_iterate(nan_center, 3) - 1
        assert iterations > 1
        with pytest.raises(EvaluationError, match="objective") as info:
            solve(StochasticOracle(nan_center, batch_size=2, seed=3), iterations)
        report = info.value.report
        assert len(report.records) == report.total_iterations == iterations
        assert nan_center.gradient_count == 0
        with pytest.raises(EvaluationError, match="gradient norm is not finite"):
            report.exact_gradient_norms()


@pytest.mark.parametrize("iterations", [-3, 0, True, 2.5])
@pytest.mark.parametrize("solve", [
    lambda o, n: dynamic_stochastic_solve(o, iterations=n),
    lambda o, n: two_step_stochastic_solve(
        o, StochasticStepConfig(alpha_constant=0.05), n),
], ids=["dynamic", "two_step"])
def test_budget_that_is_not_a_positive_integer_is_rejected(solve, iterations):
    # checked as strictly as TerminationSpec.max_iterations, before any draw
    oracle = StochasticOracle(make_problem("quadratic_sum"), batch_size=2, seed=0)
    with pytest.raises(ValueError, match="^iterations must be a positive integer$"):
        solve(oracle, iterations)
    assert_streams_stand_at(oracle)


@pytest.mark.parametrize("x0", [np.zeros(1), np.zeros((10, 1)),
                                np.full(10, math.nan), np.full(10, math.inf)],
                         ids=["shape_1", "shape_10x1", "nan", "inf"])
@pytest.mark.parametrize("solve", [
    lambda o, x0: dynamic_stochastic_solve(o, iterations=3, x0=x0),
    lambda o, x0: two_step_stochastic_solve(
        o, StochasticStepConfig(alpha_constant=0.05), 3, x0=x0),
], ids=["dynamic", "two_step"])
def test_start_is_checked_as_the_deterministic_solvers_check_it(noisy_quadratic,
                                                               solve, x0):
    # a (1,) start used to broadcast to n entries after one step, and a NaN
    # one to end as an EvaluationError at the first sampled value
    with pytest.raises(ValueError) as expected:
        dynamic_solve(noisy_quadratic, x0=x0)
    oracle = StochasticOracle(noisy_quadratic, batch_size=2, seed=0)
    with pytest.raises(ValueError) as found:
        solve(oracle, x0)
    assert str(found.value) == str(expected.value)
    assert_streams_stand_at(oracle)


def test_curvature_noise_step_rejects_a_point_of_another_shape(noisy_quadratic):
    oracle = StochasticOracle(noisy_quadratic, batch_size=2, seed=0)
    for x in (np.zeros(1), np.zeros((10, 1))):
        with pytest.raises(ValueError) as expected:
            noisy_quadratic.evaluate(x)
        with pytest.raises(ValueError) as found:
            curvature_noise_step(x, oracle, 0.05)
        assert str(found.value) == str(expected.value)
    assert_streams_stand_at(oracle)


def _descent_check(replications):
    config = StochasticStepConfig(alpha_constant=0.25, gradient_lipschitz=1.0)
    return expected_descent_check(half_x_squared(), np.array([2.0]), config,
                                  replications=replications, batch_size=2,
                                  measure_draws=50)


# each count argument of the moment helpers and the expected-descent check:
# its name and a call taking it
HELPER_INTEGERS = {
    "draws": lambda k: measure_moment_constants(
        StochasticOracle(random_quadratic_finite_sum(n=10, components=20,
                                                     seed=314), 2, seed=5),
        np.zeros(10), draws=k),
    "iterations": lambda k: constant_step_mean_square_bound(
        MomentBounds(1.0, 1.5), 1.0, 1.0, 0.1, k, 2.0),
    "replications": _descent_check,
}


@pytest.mark.parametrize("name", HELPER_INTEGERS)
def test_helper_counts_follow_the_integer_rule(name):
    # draws=0 used to fail as "moment bounds need a finite M1", iterations=0
    # as a ZeroDivisionError and replications=0 not at all, with a NaN
    # decrease; iterations=-5 gave a negative bound
    call = HELPER_INTEGERS[name]
    for integral in (np.int64(2), 2.0):
        assert call(integral) == call(2)
    for bad in (2.5, True, "3", 0, -3, -5):
        with pytest.raises(ValueError, match="^%s must be a positive integer$"
                           % name):
            call(bad)


class TestMomentMeasurement:
    def test_envelope_holds_at_measured_point(self, noisy_quadratic):
        p = noisy_quadratic
        x = p.default_start
        oracle = StochasticOracle(p, batch_size=2, seed=55)
        moments = measure_moment_constants(oracle, x, draws=3000)
        g2 = float(p.gradient(x) @ p.gradient(x))
        check = StochasticOracle(p, batch_size=2, seed=56)
        s_sq = []
        for _ in range(3000):
            batch = check.next_gradient_batch()
            s = -p.batch_gradient(x, batch)
            s_sq.append(float(s @ s))
        assert np.mean(s_sq) <= moments.M1 + moments.M2 * g2

    @pytest.mark.parametrize("make, batch_size, most_draws", [
        (lambda: random_quadratic_finite_sum(n=10, components=20, seed=314), 2,
         10000),
        (lambda: random_quadratic_finite_sum(n=3, components=8, seed=5), 3,
         10000),
        (lambda: synthetic_two_layer_net(records=40, feature_dim=2,
                                         hidden_units=3), 2, 500),
    ], ids=["quadratic10", "quadratic3", "two_layer_net"])
    def test_equals_the_per_draw_probe_bit_for_bit(self, make, batch_size,
                                                    most_draws):
        # the quadratics evaluate a chunk in one pass, the net in the base
        # form's one batch_gradient per row
        p = make()
        x = p.default_start
        chunk = stochastic._probe_chunk(StochasticOracle(p, batch_size, seed=0))
        assert 1 < chunk < most_draws
        for draws in (1, chunk - 1, chunk, chunk + 1, most_draws):
            oracle = StochasticOracle(p, batch_size=batch_size, seed=draws)
            reference = StochasticOracle(p, batch_size=batch_size, seed=draws)
            moments = measure_moment_constants(oracle, x, draws=draws)
            assert moments.M1.hex() == per_draw_moment_m1(reference, x, draws).hex()
            assert moments.M2 == 1.5
            # the probe draws every batch, one by one, from the gradient
            # stream only, and leaves it where the per-draw probe does
            assert_streams_stand_at(oracle, gradient_draws=draws)
            assert_streams_stand_at(reference, gradient_draws=draws)
            assert np.array_equal(oracle.next_gradient_batch(),
                                  reference.next_gradient_batch())

    def test_chunk_keeps_the_gathered_matrices_within_budget(self):
        p = random_quadratic_finite_sum(n=10, components=20)
        chunk = stochastic._probe_chunk(StochasticOracle(p, batch_size=2, seed=0))
        per_draw = 2 * p.matrices[0].nbytes
        assert chunk * per_draw <= stochastic._PROBE_CHUNK_BYTES \
            < (chunk + 1) * per_draw


class TestExpectedDescentCheck:
    def test_noiseless_case_matches_exact_decrease(self):
        p = half_x_squared()
        config = StochasticStepConfig(alpha_constant=0.25, gradient_lipschitz=1.0)
        x = np.array([2.0])
        result = expected_descent_check(p, x, config, replications=50,
                                        batch_size=2, measure_draws=50)
        # d = 0 and no noise: decrease is exactly -alpha*g^2 + 0.5*alpha^2*g^2
        exact = -0.25 * 4.0 + 0.5 * 0.25 ** 2 * 4.0
        assert result.empirical_decrease == pytest.approx(exact, rel=1e-12)
        assert result.empirical_decrease <= result.bound

    def test_noisy_quadratic_bound_holds(self, noisy_quadratic):
        p = noisy_quadratic
        config = StochasticStepConfig(alpha_constant=0.02,
                                      gradient_lipschitz=p.local_gradient_lipschitz)
        result = expected_descent_check(p, p.default_start, config,
                                        replications=3000, seed=77, batch_size=2,
                                        measure_draws=2000)
        assert result.empirical_decrease <= result.bound + 3.0 * result.standard_error
