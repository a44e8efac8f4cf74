import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from ncopt.linalg import leftmost_eigenpair
from ncopt.steps import (
    DESCENT_COSINE,
    ConditionViolation,
    LipschitzState,
    UpperModel,
    certify_curvature_direction,
    descent_direction,
    negative_curvature_direction,
    optimal_stepsizes,
    upper_models,
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

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_direction_rejected(self):
        # every comparison with NaN is false, so the checks alone pass it
        with pytest.raises(ConditionViolation, match="not finite"):
            certify_curvature_direction(np.array([np.nan, 0.0]),
                                        np.diag([-2.0, 1.0]), -2.0, None)
        for d, H in (([np.inf, 0.0], np.diag([-2.0, 1.0])),
                     ([2.0, 0.0], np.diag([np.nan, 1.0]))):
            with pytest.raises(ConditionViolation, match="not finite"):
                certify_curvature_direction(np.array(d), H, -2.0, None,
                                            check_norm_cap=False)


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

    def test_zero_gradient_gives_a_zero_step(self):
        # so neither solver guards a zero gradient itself
        H = np.diag([-1.0, 2.0])
        for strategy, args in (("steepest", ()), ("modified_newton",
                                                  (H, leftmost_eigenpair(H)))):
            s = descent_direction(strategy, np.zeros(2), *args)
            assert s.dtype == float and np.all(s == 0.0) and not np.signbit(s).any()

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    def test_overflowed_step_fails_its_certificate(self):
        # the spectral solve overflows to inf and then NaN, so the cosine is
        # NaN, which passes any check not written to fail it
        H, g = np.diag([1e-301, -5e-324, -5e-324]), np.ones(3)
        with pytest.raises(ConditionViolation, match="cosine nan"):
            descent_direction("modified_newton", g, H, leftmost_eigenpair(H, g))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("H, cos", [
        # s = -1e300 g: parallel to -g, and ||s|| overflows
        (np.diag([1e-300, 1e-300]), 1.0),
        # s = -(1e300, ~1e308, ~1e308): finite, ||s|| and g's overflow
        (np.diag([1e-300, -5e-324, -5e-324]), 2.0 / np.sqrt(6.0)),
    ], ids=["parallel", "finite_entries"])
    def test_step_whose_norm_overflows_keeps_its_cosine(self, H, cos):
        g = np.ones(len(H))
        s = descent_direction("modified_newton", g, H, leftmost_eigenpair(H, g))
        assert np.isfinite(s).all() and np.isinf(np.linalg.norm(s))
        scaled = s / np.abs(s).max()
        assert cosine(scaled, g) == pytest.approx(cos, rel=1e-7)

    def test_tiny_gradient_takes_its_steepest_step(self):
        # g's of these gradients is subnormal or zero: the norm once read
        # 1e-170 scale gradients as zero, and a subnormal ||s|| ||g|| gave
        # cosines below 1
        rng = np.random.default_rng(0)
        for exponent in np.linspace(-170.0, -150.0, 201):
            g = rng.normal(size=3) * 10.0 ** exponent
            assert np.array_equal(descent_direction("steepest", g), -g)

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


def state_at(L=1.0, sigma=1.0):
    return LipschitzState(L_current=L, sigma_current=sigma)


def quadratic(g, s):
    return UpperModel.quadratic(np.asarray(g, dtype=float), np.asarray(s, dtype=float))


def cubic(g, d, H):
    return UpperModel.cubic(np.asarray(g, dtype=float), np.asarray(d, dtype=float), H)


class TestUpperModelReduction:
    def test_descent_formula_and_grid_argmax(self):
        model, state = quadratic([1.0, 0.0], [-1.0, 0.0]), state_at(L=2.0)
        assert model.reduction(state, 0.5) == pytest.approx(0.25)
        grid = np.linspace(0.0, 2.0, 10001)
        values = [model.reduction(state, a) for a in grid]
        assert grid[int(np.argmax(values))] == pytest.approx(0.5, abs=1e-3)

    def test_descent_trivial_zeros(self):
        g, state = [1.0, 2.0], state_at(L=3.0)
        assert quadratic(g, [-1.0, 0.5]).reduction(state, 0.0) == 0.0
        assert quadratic(g, np.zeros(2)).reduction(state, 1.7) == 0.0

    def test_curvature_formula(self):
        model = cubic(np.zeros(2), [0.0, 1.0], np.diag([1.0, -1.0]))
        assert model.reduction(state_at(sigma=1.0), 2.0) == pytest.approx(2.0 / 3.0)

    def test_curvature_trivial_zeros(self):
        H = np.diag([1.0, -1.0])
        assert cubic(np.zeros(2), [0.0, 1.0], H).reduction(state_at(), 0.0) == 0.0
        assert cubic(np.zeros(2), np.zeros(2), H).reduction(state_at(), 2.0) == 0.0

    def test_each_model_reads_its_own_estimate(self):
        # L sizes the quadratic model only, sigma the cubic model only
        H = np.diag([1.0, -1.0])
        models = upper_models(np.array([0.0, -1.0]), np.array([0.0, 1.0]),
                              np.array([0.0, 1.0]), H)
        assert [(m.kind, m.estimate) for m in models] == [
            ("descent", "L_current"), ("curvature", "sigma_current")]
        for model in models:
            other = "sigma_current" if model.estimate == "L_current" else "L_current"
            state = state_at()
            t, m = model.stepsize(state), model.reduction(state, 1.0)
            setattr(state, other, 7.0)
            assert (model.stepsize(state), model.reduction(state, 1.0)) == (t, m)

    def test_power_that_overflows_a_python_float_raises(self):
        # the descent stepsize is a Python float, whose power raises
        # OverflowError where numpy's gives inf
        model = quadratic([1.0, 1.0], [-1.0, -1.0])
        with pytest.raises(ConditionViolation, match="model reduction overflows"):
            model.reduction(state_at(L=1e-200), 1e200)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_cubed_direction_norm_that_overflows_raises(self):
        # ||d||^3 is a Python float's power too
        with pytest.raises(ConditionViolation, match="overflows"):
            UpperModel.cubic(np.array([1.0, 0.0]), np.array([1e103, 0.0]),
                             np.diag([-1e103, 1.0]))


class TestOptimalStepsizes:
    def test_alpha_formula(self):
        models = upper_models(np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                              np.zeros(2), None)
        [(model, alpha, _)] = optimal_stepsizes(models, state_at(L=2.0))
        assert model.kind == "descent"
        assert alpha == pytest.approx(0.5)

    def test_beta_orthogonal_gradient(self):
        # c = -1, ||d|| = 1, sigma = 1, g'd = 0  ->  beta = 2
        models = upper_models(np.array([1.0, 0.0]), np.zeros(2),
                              np.array([0.0, 1.0]), np.diag([1.0, -1.0]))
        [(model, beta, _)] = optimal_stepsizes(models, state_at(sigma=1.0))
        assert model.kind == "curvature"
        assert beta == pytest.approx(2.0)

    def test_beta_with_descent_component(self):
        # g'd = -1  ->  beta = 1 + sqrt(3)
        model = cubic([0.0, -1.0], [0.0, 1.0], np.diag([1.0, -1.0]))
        assert model.stepsize(state_at(sigma=1.0)) == pytest.approx(1.0 + np.sqrt(3.0))

    def test_descent_model_listed_first_with_its_reduction(self):
        g, H = np.array([0.0, -1.0]), np.diag([1.0, -1.0])
        s, d = -g, np.array([0.0, 1.0])
        state = state_at(L=2.0, sigma=1.0)
        trials = optimal_stepsizes(upper_models(g, s, d, H), state)
        assert [m.kind for m, _, _ in trials] == ["descent", "curvature"]
        for model, t, reduction in trials:
            assert reduction == model.reduction(state, t)

    def test_broken_descent_certificate(self):
        with pytest.raises(ConditionViolation):
            optimal_stepsizes([quadratic([1.0, 0.0], [1.0, 0.0])], state_at())

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("s, L, alpha", [
        ([-1e300, -1e300], 1.0, "0.0"),     # p'p overflows to inf
        ([-1.0, 0.0], 1e-320, "inf"),       # L p'p underflows past 1/g'p
    ])
    def test_descent_stepsize_that_over_or_underflows_raises(self, s, L, alpha):
        model = quadratic([1.0, 1.0], s)
        with pytest.raises(ConditionViolation,
                           match="descent stepsize %s not positive" % alpha):
            model.stepsize(state_at(L=L))

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
            state = state_at(L=float(rng.uniform(0.5, 5.0)),
                             sigma=float(rng.uniform(0.5, 5.0)))
            trials = optimal_stepsizes(upper_models(g, s, d, H), state)
            (_, alpha, m_s), curvature = trials[0], trials[1:]
            grid = np.linspace(0.0, 2.0 * alpha, 10000)
            best = np.max(-grid * (g @ s) - 0.5 * state.L_current * grid ** 2 * (s @ s))
            assert m_s >= best - 1e-8
            for _, beta, m_d in curvature:
                gridb = np.linspace(0.0, 2.0 * beta, 10000)
                c = d @ H @ d
                dn3 = np.linalg.norm(d) ** 3
                bestb = np.max(
                    -gridb * (g @ d) - 0.5 * gridb ** 2 * c
                    - state.sigma_current / 6.0 * gridb ** 3 * dn3
                )
                assert m_d >= bestb - 1e-8

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
            state = state_at(sigma=float(rng.uniform(0.5, 3.0)))
            tau = float(rng.uniform(0.1, 10.0))
            beta1 = cubic(g, d, H).stepsize(state)
            beta2 = cubic(g, tau * d, H).stepsize(state)
            np.testing.assert_allclose(beta2 * tau * d, beta1 * d, rtol=1e-9)

    @given(symmetric_cases(), st.floats(1e-3, 1e3), st.floats(0.1, 10.0))
    def test_rescaled_direction_gives_the_same_curvature_step(self, case, c, sigma):
        # why theta changed no dynamic run: on c*d the optimal stepsize is
        # beta/c, so the step beta*d and its model reduction are unchanged
        H, g = case
        d = negative_curvature_direction(leftmost_eigenpair(H, g), H, g)
        assume(np.any(d != 0.0))
        state = state_at(sigma=sigma)
        model, model_c = cubic(g, d, H), cubic(g, c * d, H)
        beta, beta_c = model.stepsize(state), model_c.stepsize(state)
        # d'Hd is rounded relative to ||H||*||d||^2, not to |lambda|*||d||^2
        abs_lam = float(np.linalg.norm(d))
        rtol = 1e-13 * max(1.0, float(np.linalg.norm(H, 2)) / abs_lam)
        assert c * beta_c == pytest.approx(beta, rel=rtol)
        assert model_c.reduction(state, beta_c) == pytest.approx(
            model.reduction(state, beta), rel=rtol)

    @given(symmetric_cases(), st.sampled_from(sorted(DESCENT_COSINE)),
           st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_each_stepsize_is_positive_and_beats_a_grid(self, case, strategy, L,
                                                        sigma):
        H, g = case
        eig = leftmost_eigenpair(H, g)
        models = upper_models(g, descent_direction(strategy, g, H, eig),
                              negative_curvature_direction(eig, H, g), H)
        state = state_at(L=L, sigma=sigma)
        for model, t, reduction in optimal_stepsizes(models, state):
            assert t > 0.0 and reduction > 0.0
            best = max(model.reduction(state, u)
                       for u in np.linspace(0.0, 2.0 * t, 2001))
            # the terms of m(t) are of the order of m(t) at the maximizer
            assert reduction >= best * (1.0 - 1e-9)


class TestUpperModelHat:
    def test_exact_model_returns_current_estimate(self):
        # f_trial - f_current = -m  ->  numerator vanishes
        model = quadratic([-1.0, 0.0], [2.0, 0.0])
        assert model.hat(state_at(L=4.2), 0.3, 0.5, 1.0, 1.5) == pytest.approx(4.2)

    def test_sphere_recovers_true_constant(self):
        # x=3, s=-3, alpha=1, L=0.5: m = 6.75, decrease 4.5, Lhat = 1
        model, state = quadratic([3.0], [-3.0]), state_at(L=0.5)
        m = model.reduction(state, 1.0)
        assert m == pytest.approx(6.75)
        assert model.hat(state, 1.0, m, 0.0, 4.5) == pytest.approx(1.0)

    def test_cubic_model_doubles_when_the_model_is_pure_cubic(self):
        # f_trial = f_current and m = sigma*beta^3*||d||^3/6  ->  2*sigma
        sigma, beta, dnorm = 3.0, 0.7, 1.9
        model = cubic(np.zeros(2), [dnorm, 0.0], np.diag([-1.0, 1.0]))
        m = sigma * beta ** 3 * dnorm ** 3 / 6.0
        assert model.hat(state_at(sigma=sigma), beta, m, 2.0, 2.0) == pytest.approx(
            2.0 * sigma
        )

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            quadratic([-1.0, 0.0], [1.0, 0.0]).hat(state_at(), 0.0, 0.0, 1.0, 1.0)

    def test_power_that_overflows_a_python_float_raises(self):
        model = quadratic([-1.0, 0.0], [2.0, 0.0])
        with pytest.raises(ConditionViolation, match="hat constant overflows"):
            model.hat(state_at(), 1e200, 0.5, 1.0, 1.5)


class TestLipschitzState:
    def test_inflate_bounds(self):
        state = LipschitzState(L_current=1.0)
        assert state.inflate("L_current", 1.5) == pytest.approx(2.0)
        assert state.inflate("L_current", 1e9) == pytest.approx(2000.0)
        state2 = LipschitzState(L_current=1.0)
        assert state2.inflate("L_current", 5.0) == pytest.approx(5.0)

    def test_settle_floors(self):
        state = LipschitzState(L_current=10.0)
        assert state.settle("L_current", 1e-9) == pytest.approx(10.0 * 1e-3)
        state2 = LipschitzState(L_current=0.5)
        assert state2.settle("L_current", 0.0) == pytest.approx(1e-3)
        state3 = LipschitzState(sigma_current=4.0)
        assert state3.settle("sigma_current", 2.5) == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LipschitzState(L_current=0.0)
        with pytest.raises(ValueError):
            LipschitzState(sigma_current=float("nan"))
