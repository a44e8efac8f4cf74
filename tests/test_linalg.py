import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncopt.harness import CAMPAIGN_STARTS
from ncopt.linalg import (
    CgStatus,
    KernelError,
    _check_symmetric,
    _leftmost_multiplicity,
    eigenspace_direction,
    leftmost_eigenpair,
    modified_newton_shift,
    symmetric_extreme_eigenvalues,
    truncated_cg,
)
from ncopt.problems import make_problem
from ncopt.steps import certify_curvature_direction, negative_curvature_direction
from reference_eigen import reference_extreme_eigenvalues, reference_leftmost_eigenpair


def random_symmetric(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) * scale
    return 0.5 * (A + A.T)


class TestCheckSymmetric:
    def test_exactly_symmetric_input_is_returned_uncopied(self):
        H = random_symmetric(np.random.default_rng(8), 6)
        assert _check_symmetric(H) is H

    @pytest.mark.parametrize("asym", [1e-16, 1e-12, 1e-10])
    def test_small_asymmetry_gives_symmetrized_copy(self, asym):
        H = np.diag([1.0, -2.0, 3.0, 0.5, 4.0])
        H[0, 3] = asym
        out = _check_symmetric(H)
        assert out is not H
        assert np.array_equal(out, out.T)
        assert np.array_equal(out, 0.5 * (H + H.T))

    def test_larger_asymmetry_raises(self):
        H = np.eye(3)
        H[1, 2] += 2e-10
        with pytest.raises(ValueError, match="not symmetric"):
            _check_symmetric(H)

    def test_nan_raises(self):
        H = np.eye(3)
        H[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _check_symmetric(H)


class TestLeftmostEigenpair:
    def test_diagonal(self):
        res = leftmost_eigenpair(np.diag([2.0, -3.0]))
        assert res.leftmost_value == pytest.approx(-3.0, abs=1e-12)
        assert abs(res.leftmost_vector[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(res.leftmost_vector[0]) < 1e-12

    def test_offdiagonal_2x2(self):
        # char. polynomial of [[0,1],[1,0]] is l^2 - 1, leftmost root -1
        res = leftmost_eigenpair(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert res.leftmost_value == pytest.approx(-1.0, abs=1e-12)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        v = res.leftmost_vector
        assert min(np.linalg.norm(v - expected), np.linalg.norm(v + expected)) < 1e-12

    def test_identity(self):
        res = leftmost_eigenpair(np.eye(5))
        assert res.leftmost_value == pytest.approx(1.0, abs=1e-12)

    def test_rejects_asymmetric(self):
        H = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            leftmost_eigenpair(H)

    def test_unit_vector_and_residual_contract(self):
        rng = np.random.default_rng(0)
        H = random_symmetric(rng, 7)
        res = leftmost_eigenpair(H)
        assert np.linalg.norm(res.leftmost_vector) == pytest.approx(1.0, abs=1e-12)
        assert res.residual == pytest.approx(
            np.linalg.norm(H @ res.leftmost_vector - res.leftmost_value * res.leftmost_vector)
        )

    def test_matches_dense_oracle_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(1, 21))
            H = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 5.0)))
            res = leftmost_eigenpair(H)
            lam, v = reference_leftmost_eigenpair(H)
            assert res.residual <= 1e-10
            assert abs(res.leftmost_value - lam) <= 1e-10
            w = res.values
            if n > 1 and w[1] - w[0] > 1e-3:
                # a simple eigenvalue: both kernels find the same line
                assert abs(abs(float(res.leftmost_vector @ v)) - 1.0) <= 1e-10

    def test_repeated_eigenvalues(self):
        res = leftmost_eigenpair(np.diag([-2.0, -2.0, 3.0, 3.0]))
        assert res.leftmost_value == pytest.approx(-2.0, abs=1e-12)
        assert res.residual <= 1e-10

    def test_extreme_eigenvalues(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            H = random_symmetric(rng, n)
            lmin, lmax = symmetric_extreme_eigenvalues(H)
            ref_min, ref_max = reference_extreme_eigenvalues(H)
            assert lmin == pytest.approx(ref_min, abs=1e-10)
            assert lmax == pytest.approx(ref_max, abs=1e-10)

    def test_lapack_failure_is_kernel_error(self, monkeypatch):
        def fail(H):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(KernelError, match="did not converge"):
            leftmost_eigenpair(np.eye(3))

    def test_result_carries_the_decomposition(self):
        H = np.diag([3.0, -1.0, 2.0])
        res = leftmost_eigenpair(H)
        np.testing.assert_allclose(res.values, [-1.0, 2.0, 3.0])
        np.testing.assert_allclose(H @ res.vectors, res.vectors * res.values,
                                   atol=1e-14)
        assert _leftmost_multiplicity(res.values) == 1
        assert abs(float(res.leftmost_vector @ res.vectors[:, 0])) == \
            pytest.approx(1.0, abs=1e-15)


class TestTruncatedCg:
    def test_identity_system(self):
        out = truncated_cg(np.eye(2), np.array([1.0, 1.0]), max_iterations=10)
        assert out.status is CgStatus.CONVERGED
        assert out.iterations_used == 1
        assert out.curvature_direction is None
        np.testing.assert_allclose(out.solution, [-1.0, -1.0], atol=1e-14)

    def test_first_iteration_zero_curvature(self):
        # p0 = (-1,-1) has p0' H p0 = 0 for H = diag(1,-1)
        out = truncated_cg(np.diag([1.0, -1.0]), np.array([1.0, 1.0]), max_iterations=10)
        assert out.status is CgStatus.NONPOSITIVE_CURVATURE_FIRST_ITERATION
        assert out.curvature_direction is None
        np.testing.assert_allclose(out.solution, [-1.0, -1.0], atol=1e-14)

    def test_negative_curvature_second_iteration(self):
        # hand-executed CG recurrence: iteration 1 accepts s1 = (-5/3, -5/6),
        # iteration 2 direction p1 = (-10/9, -20/9) has p1' H p1 = -300/81
        H = np.diag([1.0, -1.0])
        out = truncated_cg(H, np.array([1.0, 0.5]), max_iterations=10)
        assert out.status is CgStatus.NONPOSITIVE_CURVATURE
        assert out.iterations_used == 1
        np.testing.assert_allclose(out.solution, [-5.0 / 3.0, -5.0 / 6.0], rtol=1e-14)
        np.testing.assert_allclose(
            out.curvature_direction, [-10.0 / 9.0, -20.0 / 9.0], rtol=1e-14
        )
        d = out.curvature_direction
        assert d @ H @ d <= 0.0

    def test_zero_gradient_guard(self):
        out = truncated_cg(np.eye(3), np.zeros(3), max_iterations=5)
        assert out.status is CgStatus.CONVERGED
        assert out.iterations_used == 0
        assert np.all(out.solution == 0.0)

    def test_random_spd_matches_direct_solve(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            A = rng.normal(size=(n, n))
            H = A @ A.T + n * np.eye(n)
            g = rng.normal(size=n)
            out = truncated_cg(H, g, max_iterations=5 * n)
            assert out.status is CgStatus.CONVERGED
            direct = np.linalg.solve(H, -g)
            assert np.linalg.norm(out.solution - direct) <= 1e-8 * max(
                1.0, np.linalg.norm(direct)
            )

    def test_curvature_certificate_on_indefinite(self):
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(100):
            n = int(rng.integers(2, 12))
            H = random_symmetric(rng, n)
            g = rng.normal(size=n)
            out = truncated_cg(H, g, max_iterations=n)
            if out.curvature_direction is not None:
                assert out.status is CgStatus.NONPOSITIVE_CURVATURE
                d = out.curvature_direction
                assert d @ H @ d <= 0.0
                found += 1
        assert found > 10

    def test_max_iterations_returns_iterate_without_direction(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(12, 12))
        H = A @ A.T + 12 * np.eye(12)
        g = rng.normal(size=12)
        out = truncated_cg(H, g, max_iterations=2)
        assert out.status is CgStatus.MAX_ITERATIONS
        assert out.curvature_direction is None
        assert out.iterations_used == 2


def _shift_bisection_oracle(H, cap, hi=1e6, iters=200):
    """Smallest admissible shift by bisection on the dense eigenvalue oracle."""

    def admissible(delta):
        lmin, lmax = reference_extreme_eigenvalues(H + delta * np.eye(H.shape[0]))
        return lmin > 0.0 and lmax <= cap * lmin

    lo = 0.0
    if admissible(lo):
        return 0.0
    assert admissible(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestModifiedNewtonShift:
    def test_already_well_conditioned(self):
        H = np.diag([1.0, 2.0])
        delta, solve = modified_newton_shift(H, leftmost_eigenpair(H))
        assert delta == 0.0
        np.testing.assert_allclose(solve(np.array([1.0, 2.0])), [1.0, 1.0])

    def test_indefinite_analytic_value(self):
        # solve (2 + delta)/(delta - 1) = 1e8 for delta
        H = np.diag([-1.0, 2.0])
        delta, _ = modified_newton_shift(H, leftmost_eigenpair(H))
        expected = 1.0 + 3.0 / (1e8 - 1.0)
        assert delta == pytest.approx(expected, abs=1e-10)
        assert delta == pytest.approx(_shift_bisection_oracle(H, 1e8), abs=1e-6)

    def test_zero_matrix_hits_floor(self):
        H = np.zeros((2, 2))
        delta, _ = modified_newton_shift(H, leftmost_eigenpair(H))
        assert delta == pytest.approx(1e-8)

    def test_random_matrices_satisfy_both_conditions(self):
        rng = np.random.default_rng(19)
        cap = 1e8
        for _ in range(100):
            n = int(rng.integers(1, 15))
            H = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 10.0)))
            delta, solve = modified_newton_shift(H, leftmost_eigenpair(H))
            B = H + delta * np.eye(n)
            lmin, lmax = reference_extreme_eigenvalues(B)
            assert lmin > 0.0
            assert lmax <= cap * lmin
            # halving the shift must break positive definiteness or the cap
            if delta > 1e-8:
                hmin, hmax = reference_extreme_eigenvalues(H + 0.5 * delta * np.eye(n))
                assert hmin <= 0.0 or hmax > cap * hmin
            rhs = rng.normal(size=n)
            np.testing.assert_allclose(B @ solve(rhs), rhs, atol=1e-8 * max(1.0, np.abs(rhs).max()))


def test_kernel_error_type_exists():
    assert issubclass(KernelError, RuntimeError)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


@st.composite
def repeated_leftmost(draw):
    """(H, Q, k, rng): H = Q diag(w) Q' whose leftmost eigenvalue has
    multiplicity k, eigenspace spanned by the first k columns of Q."""
    n = draw(st.integers(2, 10))
    k = draw(st.integers(2, n))
    lam = draw(st.floats(-5.0, -0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = np.concatenate([np.full(k, lam), rng.uniform(lam + 0.5, 5.0, size=n - k)])
    Q = _orthogonal(rng, n)
    H = (Q * w) @ Q.T
    return 0.5 * (H + H.T), Q, k, rng


def _rotated_leftmost_basis(eig, R):
    """Another orthonormal basis of eig's leftmost eigenspace, as LAPACK
    could have returned it: its own basis rotated by the orthogonal R."""
    return eig.vectors[:, :R.shape[0]] @ R


class TestRepeatedLeftmostEigenvalue:
    """A repeated leftmost eigenvalue leaves LAPACK free to return any basis
    of its eigenspace; the chosen direction must not depend on it."""

    @given(repeated_leftmost())
    def test_direction_most_aligned_with_minus_g(self, case):
        H, Q, k, rng = case
        n = H.shape[0]
        # g has a unit projection onto the eigenspace plus an orthogonal part
        u = rng.normal(size=k)
        g = Q[:, :k] @ (u / np.linalg.norm(u)) \
            + Q[:, k:] @ (rng.uniform(0.0, 3.0) * rng.normal(size=n - k))
        eig = leftmost_eigenpair(H, g)
        assert _leftmost_multiplicity(eig.values) == k
        d = negative_curvature_direction(eig, H, g)
        pg = Q[:, :k] @ (Q[:, :k].T @ g)
        np.testing.assert_allclose(d, -abs(eig.leftmost_value) * pg
                                   / np.linalg.norm(pg), rtol=0, atol=1e-10)
        certify_curvature_direction(d, H, eig.leftmost_value, g)
        rotated = _rotated_leftmost_basis(eig, _orthogonal(rng, k))
        np.testing.assert_allclose(eigenspace_direction(rotated, g),
                                   eig.leftmost_vector, rtol=0, atol=1e-12)

    @given(repeated_leftmost())
    def test_fallback_when_g_has_no_projection(self, case):
        H, Q, k, rng = case
        n = H.shape[0]
        # without g the fixed vector is P e_j / ||P e_j|| for the first j
        # with a projection, largest entry > 0
        base = leftmost_eigenpair(H)
        v = base.leftmost_vector
        rotated = _rotated_leftmost_basis(base, _orthogonal(rng, k))
        g_orthogonal = Q[:, k:] @ rng.normal(size=n - k)
        for g in (g_orthogonal, np.zeros(n), None):
            eig = leftmost_eigenpair(H, g)
            np.testing.assert_array_equal(eig.leftmost_vector, v)
            d = negative_curvature_direction(eig, H, g)
            certify_curvature_direction(d, H, eig.leftmost_value, g)
            np.testing.assert_allclose(eigenspace_direction(rotated, g),
                                       eig.leftmost_vector, rtol=0, atol=1e-12)
        P = Q[:, :k] @ Q[:, :k].T
        j = int(np.argmax(np.linalg.norm(P, axis=0) > 1e-8))
        expected = P[:, j] / np.linalg.norm(P[:, j])
        expected *= np.sign(expected[np.argmax(np.abs(expected))])
        np.testing.assert_allclose(v, expected, rtol=0, atol=1e-10)
        assert v[np.argmax(np.abs(v))] > 0.0

    def test_rastrigin_campaign_start_triple_eigenvalue(self):
        # cos(2 pi x) is symmetric about x = 1/2, so the start's coordinates
        # 0.51, 0.49 and -0.51 give the same (leftmost) Hessian entry
        problem = make_problem("rastrigin")
        x = np.array(CAMPAIGN_STARTS["rastrigin"], dtype=float)
        H, g = problem.hessian(x), problem.gradient(x)
        eig = leftmost_eigenpair(H, g)
        assert _leftmost_multiplicity(eig.values) == 3
        d = negative_curvature_direction(eig, H, g)
        certify_curvature_direction(d, H, eig.leftmost_value, g)
        tied = [0, 1, 4]
        expected = np.zeros(5)
        expected[tied] = -g[tied] / np.linalg.norm(g[tied])
        np.testing.assert_allclose(d, abs(eig.leftmost_value) * expected,
                                   rtol=0, atol=1e-9)
        R = _orthogonal(np.random.default_rng(5), 3)
        np.testing.assert_allclose(
            eigenspace_direction(_rotated_leftmost_basis(eig, R), g),
            eig.leftmost_vector, rtol=0, atol=1e-12)
