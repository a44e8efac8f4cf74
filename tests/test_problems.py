import math
import zlib
from operator import attrgetter

import numpy as np
import pytest

from ncopt.deterministic import (
    TerminationSpec,
    complexity_census,
    dynamic_solve,
    two_step_solve,
)
from ncopt.finite_sum import StochasticOracle, random_quadratic_finite_sum
from ncopt.problems import (
    EvaluationError,
    ObjectiveProblem,
    list_problems,
    make_problem,
    quartic_saddle,
    random_quadratic,
    sphere,
)
from ncopt.steps import LipschitzState
from ncopt.stochastic import (
    MomentBounds,
    StochasticStepConfig,
    admissible_constant_step,
    constant_step_mean_square_bound,
    curvature_noise_step,
    expected_decrease_bound,
)
from reference_derivatives import central_gradient, central_hessian


class TestEvaluate:
    def test_sphere_one_dimensional(self):
        p = sphere(1)
        assert p.evaluate(np.array([3.0])) == pytest.approx(4.5)

    def test_quartic_saddle_value_at_origin(self):
        p = quartic_saddle()
        assert p.evaluate(np.array([0.0, 0.0])) == pytest.approx(0.25)

    def test_quartic_saddle_global_minimum(self):
        p = quartic_saddle()
        assert p.evaluate(np.array([1.0, 0.0])) == 0.0

    def test_counts_evaluations(self):
        p = sphere(2)
        p.evaluate(np.zeros(2))
        p.evaluate(np.ones(2))
        assert p.evaluation_count == 2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sphere(2).evaluate(np.zeros(3))

    def test_nonfinite_point_rejected(self):
        with pytest.raises(ValueError):
            sphere(2).evaluate(np.array([np.nan, 0.0]))

    def test_nonfinite_value_reports_point(self):
        p = ObjectiveProblem(
            "bad", 1,
            value_fn=lambda x: np.inf,
            gradient_fn=lambda x: x,
            hessian_fn=lambda x: np.eye(1),
        )
        with pytest.raises(EvaluationError) as err:
            p.evaluate(np.array([2.0]))
        np.testing.assert_allclose(err.value.x, [2.0])

    @pytest.mark.parametrize("value", [-np.inf, np.nan])
    def test_negative_infinite_or_nan_value_raises(self, value):
        p = ObjectiveProblem("bad", 1, lambda x: value, lambda x: x,
                             lambda x: np.eye(1))
        with pytest.raises(EvaluationError, match="objective evaluated to"):
            p.evaluate(np.array([2.0]))


class TestGradient:
    def test_sphere(self):
        np.testing.assert_allclose(sphere(1).gradient(np.array([3.0])), [3.0])

    def test_quartic_saddle_stationary_at_origin(self):
        g = quartic_saddle().gradient(np.array([0.0, 0.0]))
        assert np.all(g == 0.0)

    def test_quartic_saddle_matches_finite_differences(self):
        p = quartic_saddle()
        x = np.array([2.0, 1.0])
        g = p.gradient(x)
        np.testing.assert_allclose(g, [6.0, 1.0], rtol=1e-12)
        fd = central_gradient(p.evaluate, x, step=1e-6)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("g", [
        [1e200, 1e200],  # every entry finite, but the norm overflows
        [np.nan, 0.0],
        [np.inf, 0.0],
    ])
    def test_non_finite_norm_reports_point(self, g):
        p = ObjectiveProblem(
            "bad", 2,
            value_fn=lambda x: 0.0,
            gradient_fn=lambda x: np.array(g),
            hessian_fn=lambda x: np.eye(2),
        )
        with pytest.raises(EvaluationError, match="gradient norm is not finite") as err:
            p.gradient(np.array([1.0, 2.0]))
        np.testing.assert_allclose(err.value.x, [1.0, 2.0])

    def test_large_finite_norm_accepted(self):
        g = sphere(2).gradient(np.array([1e150, -1e150]))
        np.testing.assert_array_equal(g, [1e150, -1e150])


class TestHessian:
    def test_sphere_identity(self):
        np.testing.assert_array_equal(sphere(3).hessian(np.ones(3)), np.eye(3))

    def test_quartic_saddle_indefinite_at_origin(self):
        H = quartic_saddle().hessian(np.zeros(2))
        np.testing.assert_array_equal(H, np.diag([-1.0, 1.0]))

    def test_quartic_saddle_at_minimizer(self):
        H = quartic_saddle().hessian(np.array([1.0, 0.0]))
        np.testing.assert_array_equal(H, np.diag([2.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_hessian_reports_point(self, bad):
        p = ObjectiveProblem(
            "bad", 2,
            value_fn=lambda x: 0.0,
            gradient_fn=lambda x: x,
            hessian_fn=lambda x: np.array([[1.0, 0.0], [0.0, bad]]),
        )
        with pytest.raises(EvaluationError, match="Hessian has non-finite") as err:
            p.hessian(np.array([1.0, 2.0]))
        np.testing.assert_allclose(err.value.x, [1.0, 2.0])


class TestPointCheck:
    """evaluate, gradient and hessian each check the point before calling
    the function or counting the call."""

    METHODS = ("evaluate", "gradient", "hessian")
    COUNTERS = ("evaluation_count", "gradient_count", "hessian_count")

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((2, 1)), np.float64(0.0),
                                   [0.0]], ids=["long", "column", "scalar", "short"])
    def test_wrong_shape_rejected(self, method, x):
        p = sphere(2)
        with pytest.raises(ValueError, match="does not match problem dimension 2"):
            getattr(p, method)(x)
        assert all(getattr(p, c) == 0 for c in self.COUNTERS)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, method, bad):
        p = sphere(2)
        with pytest.raises(ValueError, match="point has non-finite coordinates"):
            getattr(p, method)(np.array([0.0, bad]))
        assert all(getattr(p, c) == 0 for c in self.COUNTERS)

    @pytest.mark.parametrize("method", METHODS)
    def test_list_point_accepted_and_counted(self, method):
        p = sphere(2)
        getattr(p, method)([1, 2])
        assert [getattr(p, c) for c in self.COUNTERS] == \
            [int(m == method) for m in self.METHODS]


class TestRegistry:
    def test_at_least_ten_problems(self):
        assert len(list_problems()) >= 10

    def test_unknown_name_lists_registry(self):
        with pytest.raises(KeyError, match="sphere"):
            make_problem("nope")

    def test_fresh_instances(self):
        a = make_problem("sphere")
        b = make_problem("sphere")
        a.evaluate(np.zeros(2))
        assert b.evaluation_count == 0


def _random_points(problem, count, rng):
    base = problem.default_start
    scale = 1.5 if problem.dimension <= 10 else 0.5
    return base + rng.uniform(-scale, scale, size=(count, problem.dimension))


@pytest.mark.parametrize("name", list_problems())
def test_derivatives_match_finite_differences(name):
    problem = make_problem(name)
    # crc32, not hash: Python salts str hashes per process
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    n_points = 100 if problem.dimension <= 10 else 25
    for x in _random_points(problem, n_points, rng):
        g = problem.gradient(x)
        fd_g = central_gradient(problem.evaluate, x, step=1e-6)
        assert np.linalg.norm(fd_g - g) <= 1e-5 * max(1.0, np.linalg.norm(g))
        H = problem.hessian(x)
        assert np.max(np.abs(H - H.T)) == 0.0
        fd_H = central_hessian(problem.gradient, x, step=1e-6)
        assert np.max(np.abs(fd_H - H)) <= 1e-4 * max(1.0, np.max(np.abs(H)))
        if problem.lower_bound is not None:
            assert problem.evaluate(x) >= problem.lower_bound - 1e-12


@pytest.mark.parametrize("name", list_problems())
def test_known_minimizers_are_second_order_points(name):
    problem = make_problem(name)
    if problem.known_minimizers is None:
        pytest.skip("no recorded minimizers")
    for xstar in problem.known_minimizers:
        g = problem.gradient(xstar)
        assert np.linalg.norm(g) <= 1e-6
        w = np.linalg.eigvalsh(problem.hessian(xstar))
        assert w[0] >= -1e-8
        if problem.lower_bound is not None:
            assert problem.evaluate(xstar) == pytest.approx(
                problem.lower_bound, abs=1e-9
            )


def test_random_quadratic_spectrum_is_prescribed():
    spectrum = np.array([0.5, 2.0, 7.5])
    p = random_quadratic(3, spectrum=spectrum, seed=5)
    w = np.linalg.eigvalsh(p.hessian(np.zeros(3)))
    np.testing.assert_allclose(np.sort(w), np.sort(spectrum), atol=1e-10)


@pytest.mark.parametrize("spectrum", [[np.nan, 1.0], [-np.inf, 1.0], [1.0, 2.0, 3.0]],
                         ids=["nan", "inf", "wrong_length"])
def test_random_quadratic_spectrum_must_hold_n_finite_values(spectrum):
    # a NaN entry used to build with a NaN Lipschitz constant, and a solve
    # on it ended in EvaluationError
    with pytest.raises(ValueError, match="^spectrum must hold n finite values$"):
        random_quadratic(2, spectrum=spectrum)


def test_indefinite_random_quadratic_has_no_lower_bound():
    p = random_quadratic(4, spectrum=np.array([-2.0, 1.0, 3.0, 5.0]), seed=9)
    assert p.lower_bound is None
    assert p.local_gradient_lipschitz == pytest.approx(5.0)


def _two_step(alpha=0.5, beta=0.5):
    return two_step_solve(sphere(1), alpha=alpha, beta=beta,
                          termination=TerminationSpec(max_iterations=1))


def _noise_step(alpha):
    problem = make_problem("quadratic_sum")
    oracle = StochasticOracle(problem, batch_size=2, seed=0)
    return curvature_noise_step(problem.default_start, oracle, alpha)


def _mean_square_bound(gradient_lipschitz=1.0, delta=1.0, alpha=0.1,
                       initial_gap=1.0):
    return constant_step_mean_square_bound(MomentBounds(1.0, 1.5),
                                           gradient_lipschitz, delta, alpha, 5,
                                           initial_gap)


def _decrease_bound(gradient_lipschitz=1.0, alpha=0.1, gradient_norm_squared=1.0):
    return expected_decrease_bound(MomentBounds(1.0, 1.5), gradient_lipschitz,
                                   alpha, gradient_norm_squared)


def _census(epsilon_g=1.0, epsilon_H=1.0):
    report = dynamic_solve(sphere(2), termination=TerminationSpec(max_iterations=3))
    return complexity_census(report, epsilon_g, epsilon_H)


# each real argument checked by `problems.real_argument`: its name, whether
# it must be positive (else nonnegative), a call taking it and, where the
# callee keeps the value, how to read it back from the call's result
REAL_ARGUMENTS = {
    "grad_tol_rel": ("grad_tol_rel", True, lambda v: TerminationSpec(grad_tol_rel=v),
                     attrgetter("grad_tol_rel")),
    "curv_tol_rel": ("curv_tol_rel", True, lambda v: TerminationSpec(curv_tol_rel=v),
                     attrgetter("curv_tol_rel")),
    "two_step_alpha": ("alpha", True, lambda v: _two_step(alpha=v),
                       lambda report: report.config["alpha"]),
    "two_step_beta": ("beta", True, lambda v: _two_step(beta=v),
                      lambda report: report.config["beta"]),
    "L_current": ("L_current", True, lambda v: LipschitzState(L_current=v),
                  attrgetter("L_current")),
    "sigma_current": ("sigma_current", True, lambda v: LipschitzState(sigma_current=v),
                      attrgetter("sigma_current")),
    "M1": ("M1", False, lambda v: MomentBounds(v, 1.5), attrgetter("M1")),
    "M2": ("M2", True, lambda v: MomentBounds(1.0, v), attrgetter("M2")),
    "alpha_constant": ("alpha_constant", True,
                       lambda v: StochasticStepConfig(alpha_constant=v),
                       attrgetter("alpha_constant")),
    "step_gradient_lipschitz": (
        "gradient_lipschitz", True,
        lambda v: StochasticStepConfig(alpha_constant=0.1, gradient_lipschitz=v),
        attrgetter("gradient_lipschitz")),
    "noise_step_alpha": ("alpha", True, _noise_step, lambda out: out[1].alpha),
    "perturbation": ("perturbation", False, lambda v: random_quadratic_finite_sum(
        n=3, components=4, perturbation=v), None),
    "admissible_gradient_lipschitz": (
        "gradient_lipschitz", True,
        lambda v: admissible_constant_step(MomentBounds(1.0, 1.5), v), None),
    "bound_gradient_lipschitz": (
        "gradient_lipschitz", True,
        lambda v: _mean_square_bound(gradient_lipschitz=v), None),
    "bound_delta": ("delta", True, lambda v: _mean_square_bound(delta=v), None),
    "bound_alpha": ("alpha", True, lambda v: _mean_square_bound(alpha=v), None),
    "bound_initial_gap": ("initial_gap", False,
                          lambda v: _mean_square_bound(initial_gap=v), None),
    "decrease_gradient_lipschitz": (
        "gradient_lipschitz", True,
        lambda v: _decrease_bound(gradient_lipschitz=v), None),
    "decrease_alpha": ("alpha", True, lambda v: _decrease_bound(alpha=v), None),
    "decrease_gradient_norm_squared": (
        "gradient_norm_squared", False,
        lambda v: _decrease_bound(gradient_norm_squared=v), None),
    "epsilon_g": ("epsilon_g", True, lambda v: _census(epsilon_g=v), None),
    "epsilon_H": ("epsilon_H", True, lambda v: _census(epsilon_H=v), None),
}
# optional arguments, where None means "not given"
NONE_MEANS_UNSET = {"step_gradient_lipschitz"}


@pytest.mark.parametrize("place", REAL_ARGUMENTS)
def test_real_arguments_follow_one_rule(place):
    # NaN, an infinity, a negative value, 0 where the argument must be
    # positive, a bool, None or a string is a ValueError naming the
    # argument; a finite number of any type passes, and a callee that keeps
    # it keeps the value itself, not a converted copy
    name, positive, call, held = REAL_ARGUMENTS[place]
    for good in (np.float64(0.25), 1):
        result = call(good)
        assert held is None or held(result) is good
    bad = [math.nan, math.inf, -math.inf, -1.0, True, "1"] + [0.0] * positive
    for value in bad + [None] * (place not in NONE_MEANS_UNSET):
        with pytest.raises(ValueError, match="^%s must be %s and finite$"
                           % (name, "positive" if positive else "nonnegative")):
            call(value)
