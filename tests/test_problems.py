import numpy as np
import pytest

from ncopt.problems import (
    EvaluationError,
    ObjectiveProblem,
    list_problems,
    make_problem,
    quartic_saddle,
    random_quadratic,
    sphere,
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
    rng = np.random.default_rng(hash(name) % (2 ** 32))
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


def test_indefinite_random_quadratic_has_no_lower_bound():
    p = random_quadratic(4, spectrum=np.array([-2.0, 1.0, 3.0, 5.0]), seed=9)
    assert p.lower_bound is None
    assert p.local_gradient_lipschitz == pytest.approx(5.0)
