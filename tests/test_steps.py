import numpy as np
import pytest

from ncopt.linalg import leftmost_eigenpair
from ncopt.steps import (
    ConditionViolation,
    DirectionCriteria,
    LipschitzState,
    certify_curvature_direction,
    descent_direction,
    direction_from_eigenpair,
    lipschitz_hat,
    model_reduction_curvature,
    model_reduction_descent,
    negative_curvature_direction,
    optimal_stepsizes,
)


class TestDirectionCriteria:
    def test_defaults_are_all_one(self):
        c = DirectionCriteria()
        assert (c.gamma, c.theta, c.delta, c.zeta, c.eta) == (1, 1, 1, 1, 1)

    @pytest.mark.parametrize("bad", [
        dict(gamma=0.0), dict(gamma=1.5), dict(theta=0.0), dict(delta=0.0),
        dict(zeta=1.2), dict(eta=0.5),
    ])
    def test_range_validation(self, bad):
        with pytest.raises(ValueError):
            DirectionCriteria(**bad)


class TestNegativeCurvatureDirection:
    def test_scaled_eigenvector_with_descent_sign(self):
        H = np.diag([2.0, -3.0])
        d = negative_curvature_direction(leftmost_eigenpair(H), H, np.array([1.0, 1.0]))
        np.testing.assert_allclose(d, [0.0, -3.0], atol=1e-12)
        assert d @ H @ d == pytest.approx(-27.0)
        assert d @ H @ d <= 1.0 * (-3.0) * 9.0 + 1e-9

    def test_zero_when_hessian_psd(self):
        H = np.diag([2.0, 3.0])
        d = negative_curvature_direction(leftmost_eigenpair(H), H, np.array([5.0, -2.0]))
        assert np.all(d == 0.0)

    def test_zero_gradient_allows_either_sign(self):
        H = np.diag([2.0, -3.0])
        d = negative_curvature_direction(leftmost_eigenpair(H), H, np.zeros(2))
        assert abs(d[1]) == pytest.approx(3.0, abs=1e-12)
        assert abs(d[0]) < 1e-12

    def test_norm_is_theta_times_lambda(self):
        crit = DirectionCriteria(theta=0.5)
        H = np.diag([-4.0, 1.0])
        d = negative_curvature_direction(leftmost_eigenpair(H), H, np.array([1.0, 0.0]),
                                         criteria=crit)
        assert np.linalg.norm(d) == pytest.approx(2.0, rel=1e-12)

    def test_certificates_on_random_indefinite(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(2, 10))
            A = rng.normal(size=(n, n))
            H = 0.5 * (A + A.T)
            g = rng.normal(size=n)
            eig = leftmost_eigenpair(H)
            if eig.leftmost_value >= 0.0:
                continue
            crit = DirectionCriteria(gamma=1.0, theta=float(rng.uniform(0.5, 2.0)))
            d = negative_curvature_direction(eig, H, g, criteria=crit)
            certify_curvature_direction(d, H, eig.leftmost_value, g, crit)
            assert g @ d <= 1e-10
            checked += 1
        assert checked > 20

    def test_tiny_negative_lambda_treated_as_zero(self):
        eig = leftmost_eigenpair(np.diag([1.0, 1.0]))
        fake = type(eig)(leftmost_value=-1e-13, leftmost_vector=np.array([1.0, 0.0]),
                         residual=0.0)
        d = direction_from_eigenpair(fake, np.zeros(2), DirectionCriteria())
        assert np.all(d == 0.0)


def cosine(s, g):
    """The cosine -g's/(||s|| ||g||) a descent direction is certified by."""
    return float(-(g @ s) / (np.linalg.norm(s) * np.linalg.norm(g)))


class TestDescentDirection:
    def test_steepest(self):
        g = np.array([3.0, 4.0])
        s = descent_direction("steepest", g)
        np.testing.assert_array_equal(s, [-3.0, -4.0])
        assert cosine(s, g) == pytest.approx(1.0)
        assert np.linalg.norm(s) / np.linalg.norm(g) == pytest.approx(1.0)

    def test_modified_newton_spd(self):
        g = np.array([1.0, 2.0])
        s = descent_direction(
            "modified_newton", g, H=np.diag([1.0, 2.0]),
            criteria=DirectionCriteria(delta=1e-8), enforce_norm_band=False,
        )
        np.testing.assert_allclose(s, [-1.0, -1.0], rtol=1e-10)
        assert cosine(s, g) >= 1e-8

    def test_modified_newton_indefinite(self):
        crit = DirectionCriteria(delta=1e-8)
        g = np.array([1.0, 0.0])
        s = descent_direction(
            "modified_newton", g, H=np.diag([-1.0, 2.0]),
            criteria=crit, enforce_norm_band=False,
        )
        # B is diagonal so s is parallel to -g; the shift leaves B_11 ~ 3e-8
        assert s[0] < -1e7
        assert abs(s[1]) < 1e-6 * abs(s[0])
        assert cosine(s, g) >= 1e-8

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            descent_direction("steepest", np.zeros(2))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            descent_direction("newton_cg", np.ones(2))

    def test_norm_band_enforced_for_fixed_step_use(self):
        crit = DirectionCriteria(delta=1e-8, zeta=1.0, eta=1.0)
        with pytest.raises(ConditionViolation):
            descent_direction("modified_newton", np.array([1.0, 0.0]),
                              H=np.diag([-1.0, 2.0]), criteria=crit,
                              enforce_norm_band=True)


class TestModelReductions:
    def test_descent_formula_and_grid_argmax(self):
        g, s = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        assert model_reduction_descent(g, s, 2.0, 0.5) == pytest.approx(0.25)
        grid = np.linspace(0.0, 2.0, 10001)
        values = [model_reduction_descent(g, s, 2.0, a) for a in grid]
        assert grid[int(np.argmax(values))] == pytest.approx(0.5, abs=1e-3)

    def test_descent_trivial_zeros(self):
        g, s = np.array([1.0, 2.0]), np.array([-1.0, 0.5])
        assert model_reduction_descent(g, s, 3.0, 0.0) == 0.0
        assert model_reduction_descent(g, np.zeros(2), 3.0, 1.7) == 0.0

    def test_curvature_formula(self):
        g = np.zeros(2)
        d = np.array([0.0, 1.0])
        H = np.diag([1.0, -1.0])
        assert model_reduction_curvature(g, d, H, 1.0, 2.0) == pytest.approx(2.0 / 3.0)

    def test_curvature_trivial_zeros(self):
        d = np.array([0.0, 1.0])
        H = np.diag([1.0, -1.0])
        assert model_reduction_curvature(np.zeros(2), d, H, 1.0, 0.0) == 0.0
        assert model_reduction_curvature(np.zeros(2), np.zeros(2), H, 1.0, 2.0) == 0.0


class TestOptimalStepsizes:
    def test_alpha_formula(self):
        sizes = optimal_stepsizes(
            np.array([1.0, 0.0]), np.array([-1.0, 0.0]), None, None,
            LipschitzState(L_current=2.0),
        )
        assert sizes.alpha == pytest.approx(0.5)
        assert sizes.beta is None

    def test_beta_orthogonal_gradient(self):
        # c = -1, ||d|| = 1, sigma = 1, g'd = 0  ->  beta = 2
        sizes = optimal_stepsizes(
            np.array([1.0, 0.0]), None, np.array([0.0, 1.0]), np.diag([1.0, -1.0]),
            LipschitzState(sigma_current=1.0),
        )
        assert sizes.beta == pytest.approx(2.0)

    def test_beta_with_descent_component(self):
        # g'd = -1  ->  beta = 1 + sqrt(3)
        sizes = optimal_stepsizes(
            np.array([0.0, -1.0]), None, np.array([0.0, 1.0]), np.diag([1.0, -1.0]),
            LipschitzState(sigma_current=1.0),
        )
        assert sizes.beta == pytest.approx(1.0 + np.sqrt(3.0))

    def test_broken_descent_certificate(self):
        with pytest.raises(ConditionViolation):
            optimal_stepsizes(
                np.array([1.0, 0.0]), np.array([1.0, 0.0]), None, None,
                LipschitzState(),
            )

    def test_maximizers_beat_grid_search(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            g = rng.normal(size=n)
            s = -g + 0.3 * rng.normal(size=n)
            if g @ s >= 0.0:
                s = -g
            A = rng.normal(size=(n, n))
            H = 0.5 * (A + A.T) - 2.0 * np.eye(n)
            eig = leftmost_eigenpair(H)
            d = direction_from_eigenpair(eig, g, DirectionCriteria())
            if np.all(d == 0.0):
                d = None
            state = LipschitzState(L_current=float(rng.uniform(0.5, 5.0)),
                                   sigma_current=float(rng.uniform(0.5, 5.0)))
            sizes = optimal_stepsizes(g, s, d, H, state)
            grid = np.linspace(0.0, 2.0 * sizes.alpha, 10000)
            best = np.max(-grid * (g @ s) - 0.5 * state.L_current * grid ** 2 * (s @ s))
            assert model_reduction_descent(g, s, state.L_current, sizes.alpha) >= best - 1e-8
            if d is not None:
                gridb = np.linspace(0.0, 2.0 * sizes.beta, 10000)
                c = d @ H @ d
                dn3 = np.linalg.norm(d) ** 3
                bestb = np.max(
                    -gridb * (g @ d) - 0.5 * gridb ** 2 * c
                    - state.sigma_current / 6.0 * gridb ** 3 * dn3
                )
                assert (
                    model_reduction_curvature(g, d, H, state.sigma_current, sizes.beta)
                    >= bestb - 1e-8
                )

    def test_accepted_curvature_step_is_scaling_invariant(self):
        # beta(tau*d) * tau*d == beta(d) * d for any tau > 0
        rng = np.random.default_rng(33)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            A = rng.normal(size=(n, n))
            H = 0.5 * (A + A.T) - 2.0 * np.eye(n)
            g = rng.normal(size=n)
            eig = leftmost_eigenpair(H)
            d = direction_from_eigenpair(eig, g, DirectionCriteria())
            if np.all(d == 0.0):
                continue
            state = LipschitzState(sigma_current=float(rng.uniform(0.5, 3.0)))
            tau = float(rng.uniform(0.1, 10.0))
            beta1 = optimal_stepsizes(g, None, d, H, state).beta
            beta2 = optimal_stepsizes(g, None, tau * d, H, state).beta
            np.testing.assert_allclose(beta2 * tau * d, beta1 * d, rtol=1e-9)


class TestLipschitzHat:
    def test_exact_model_returns_current_estimate(self):
        # f_trial - f_current = -m  ->  numerator vanishes
        assert lipschitz_hat("gradient", 1.0, 1.5, 0.5, 0.3, 2.0, 4.2) == pytest.approx(4.2)

    def test_sphere_recovers_true_constant(self):
        # x=3, s=-3, alpha=1, L=0.5: m = 6.75, decrease 4.5, Lhat = 1
        m = model_reduction_descent(np.array([3.0]), np.array([-3.0]), 0.5, 1.0)
        assert m == pytest.approx(6.75)
        assert lipschitz_hat("gradient", 0.0, 4.5, m, 1.0, 3.0, 0.5) == pytest.approx(1.0)

    def test_hessian_kind_doubles_when_model_is_pure_cubic(self):
        # f_trial = f_current and m = sigma*beta^3*||d||^3/6  ->  2*sigma
        sigma, beta, dnorm = 3.0, 0.7, 1.9
        m = sigma * beta ** 3 * dnorm ** 3 / 6.0
        assert lipschitz_hat("hessian", 2.0, 2.0, m, beta, dnorm, sigma) == pytest.approx(
            2.0 * sigma
        )

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            lipschitz_hat("gradient", 1.0, 1.0, 0.0, 0.0, 1.0, 1.0)


class TestLipschitzState:
    def test_inflate_bounds(self):
        state = LipschitzState(L_current=1.0, rho=2.0)
        assert state.inflate("gradient", 1.5) == pytest.approx(2.0)
        assert state.inflate("gradient", 1e9) == pytest.approx(2000.0)
        state2 = LipschitzState(L_current=1.0)
        assert state2.inflate("gradient", 5.0) == pytest.approx(5.0)

    def test_settle_floors(self):
        state = LipschitzState(L_current=10.0)
        assert state.settle("gradient", 1e-9) == pytest.approx(10.0 * 1e-3)
        state2 = LipschitzState(L_current=0.5)
        assert state2.settle("gradient", 0.0) == pytest.approx(1e-3)
        state3 = LipschitzState(sigma_current=4.0)
        assert state3.settle("hessian", 2.5) == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LipschitzState(L_current=0.0)
        with pytest.raises(ValueError):
            LipschitzState(rho=1.0)
