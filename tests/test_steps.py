import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from ncopt.linalg import leftmost_eigenpair
from ncopt.steps import (
    DESCENT_COSINE,
    ConditionViolation,
    LipschitzState,
    certify_curvature_direction,
    descent_direction,
    lipschitz_hat,
    model_reduction_curvature,
    model_reduction_descent,
    negative_curvature_direction,
    optimal_stepsizes,
)


# eigenvalues of either sign spread over 12 decades, with exact and near
# zeros, so H may be indefinite or nearly singular
_EIGENVALUES = st.one_of(
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(-6.0, 6.0)),
    st.sampled_from([0.0, 1e-12, -1e-12]),
)


@st.composite
def symmetric_cases(draw):
    """(H, g): H = Q diag(w) Q' for a random orthogonal Q, and a gradient."""
    n = draw(st.integers(2, 8))
    w = np.array(draw(st.lists(_EIGENVALUES, min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = (Q * w) @ Q.T
    return 0.5 * (H + H.T), rng.normal(size=n)


class TestDirectionCriteria:
    """The direction conditions, each at the constant the constructed
    direction meets: d'Hd <= lambda*||d||^2 < 0, g'd <= 0, ||d|| <= |lambda|
    and a descent cosine of at least DESCENT_COSINE[strategy]."""

    def test_defaults_are_all_one(self):
        # a scaled leftmost eigenvector meets the curvature conditions with
        # equality, and -g has cosine 1 with -g
        H = np.diag([-2.0, 1.0])
        certify_curvature_direction(np.array([2.0, 0.0]), H, -2.0,
                                    np.array([-1.0, 3.0]))
        assert DESCENT_COSINE["steepest"] == 1.0
        # a shifted-Newton step solves a system of condition number <= 1e8
        assert DESCENT_COSINE["modified_newton"] == 1e-8

    @pytest.mark.parametrize("bad", [
        # not an eigenvector: d'Hd = -2 > lambda*||d||^2 = -4
        dict(d=[1.0, 1.0], H=np.diag([-2.0, 0.0]), lam=-2.0,
             match="curvature condition"),
        dict(d=[0.0, 1.0], H=np.diag([-2.0, -1.0]), lam=-2.0,
             match="curvature condition"),
        # nonnegative curvature along d
        dict(d=[1.0, 0.0], H=np.diag([0.5, 1.0]), lam=1.0, match="negative"),
        # an ascent direction
        dict(d=[2.0, 0.0], H=np.diag([-2.0, 1.0]), lam=-2.0, g=[1.0, 0.0],
             match="g'd"),
        # longer than |lambda|
        dict(d=[3.0, 0.0], H=np.diag([-2.0, 1.0]), lam=-2.0, match="exceeds"),
        dict(d=[0.0, 0.0], H=np.diag([-2.0, 1.0]), lam=-2.0, match="zero"),
    ])
    def test_range_validation(self, bad):
        g = np.array(bad.get("g", [0.0, 0.0]))
        with pytest.raises(ConditionViolation, match=bad["match"]):
            certify_curvature_direction(np.array(bad["d"]), bad["H"], bad["lam"], g)


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
        # theta = 1: the eigenvector is scaled to |lambda|
        H = np.diag([-4.0, 1.0])
        d = negative_curvature_direction(leftmost_eigenpair(H), H, np.array([1.0, 0.0]))
        assert np.linalg.norm(d) == pytest.approx(4.0, rel=1e-12)

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
            d = negative_curvature_direction(eig, H, g)
            certify_curvature_direction(d, H, eig.leftmost_value, g)
            assert g @ d <= 1e-10
            checked += 1
        assert checked > 20

    @given(symmetric_cases())
    def test_scaled_eigenvector_meets_the_conditions_with_equality(self, case):
        # why gamma = theta = 1: the constructed direction has ||d|| = |lambda|
        # and d'Hd = lambda*||d||^2, to the eigenpair's residual bound
        H, g = case
        eig = leftmost_eigenpair(H, g)
        lam = eig.leftmost_value
        d = negative_curvature_direction(eig, H, g)
        assume(np.any(d != 0.0))
        nd2 = float(d @ d)
        assert np.sqrt(nd2) == pytest.approx(abs(lam), rel=1e-12)
        residual_bound = 1e-10 * max(1.0, float(np.linalg.norm(H)))
        assert abs(float(d @ H @ d) - lam * nd2) <= residual_bound * nd2

    def test_tiny_negative_lambda_treated_as_zero(self):
        H = np.diag([1.0, 1.0])
        fake = dataclasses.replace(leftmost_eigenpair(H), leftmost_value=-1e-13)
        d = negative_curvature_direction(fake, H, np.zeros(2))
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
            eig=leftmost_eigenpair(np.diag([1.0, 2.0])),
        )
        np.testing.assert_allclose(s, [-1.0, -1.0], rtol=1e-10)
        assert cosine(s, g) >= 1e-8

    def test_modified_newton_indefinite(self):
        g = np.array([1.0, 0.0])
        H = np.diag([-1.0, 2.0])
        s = descent_direction("modified_newton", g, H=H, eig=leftmost_eigenpair(H))
        # B is diagonal so s is parallel to -g; the shift leaves B_11 ~ 3e-8
        assert s[0] < -1e7
        assert abs(s[1]) < 1e-6 * abs(s[0])
        assert cosine(s, g) >= 1e-8

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            descent_direction("steepest", np.zeros(2))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy 'newton_cg'"):
            descent_direction("newton_cg", np.ones(2))

    @given(symmetric_cases())
    def test_modified_newton_cosine_meets_its_constant(self, case):
        # why modified_newton is certified at 1/CONDITION_CAP: the shifted
        # system has condition number at most the cap, and the cosine of
        # its solution with -g is at least the reciprocal
        H, g = case
        s = descent_direction("modified_newton", g, H, leftmost_eigenpair(H))
        assert cosine(s, g) >= DESCENT_COSINE["modified_newton"]

    def test_modified_newton_needs_the_callers_eigenpair(self):
        # the solver loop factors each Hessian; no second path factors it
        H = np.diag([1.0, 2.0])
        for missing in (dict(H=H), dict(eig=leftmost_eigenpair(H))):
            with pytest.raises(ValueError, match="modified_newton"):
                descent_direction("modified_newton", np.ones(2), **missing)


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
            d = negative_curvature_direction(leftmost_eigenpair(H, g), H, g)
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
            d = negative_curvature_direction(leftmost_eigenpair(H, g), H, g)
            if np.all(d == 0.0):
                continue
            state = LipschitzState(sigma_current=float(rng.uniform(0.5, 3.0)))
            tau = float(rng.uniform(0.1, 10.0))
            beta1 = optimal_stepsizes(g, None, d, H, state).beta
            beta2 = optimal_stepsizes(g, None, tau * d, H, state).beta
            np.testing.assert_allclose(beta2 * tau * d, beta1 * d, rtol=1e-9)


    @given(symmetric_cases(), st.floats(1e-3, 1e3), st.floats(0.1, 10.0))
    def test_rescaled_direction_gives_the_same_curvature_step(self, case, c, sigma):
        # why theta changed no dynamic run: on c*d the optimal stepsize is
        # beta/c, so the step beta*d and its model reduction are unchanged
        H, g = case
        d = negative_curvature_direction(leftmost_eigenpair(H, g), H, g)
        assume(np.any(d != 0.0))
        state = LipschitzState(sigma_current=sigma)
        beta = optimal_stepsizes(g, None, d, H, state).beta
        beta_c = optimal_stepsizes(g, None, c * d, H, state).beta
        # d'Hd is rounded relative to ||H||*||d||^2, not to |lambda|*||d||^2
        abs_lam = float(np.linalg.norm(d))
        rtol = 1e-13 * max(1.0, float(np.linalg.norm(H, 2)) / abs_lam)
        assert c * beta_c == pytest.approx(beta, rel=rtol)
        m = model_reduction_curvature(g, d, H, sigma, beta)
        m_c = model_reduction_curvature(g, c * d, H, sigma, beta_c)
        assert m_c == pytest.approx(m, rel=rtol)


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
        # an increase is at most a factor 1e3, so rho may not exceed it
        LipschitzState(rho=1e3)
        with pytest.raises(ValueError, match="rho"):
            LipschitzState(rho=1001.0)
