import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from ncopt.deterministic import TerminationReason, dynamic_solve
from ncopt.harness import CAMPAIGN_STARTS
from ncopt.linalg import (
    CgStatus,
    KernelError,
    _check_symmetric,
    _leftmost_multiplicity,
    eigenspace_direction,
    leftmost_eigenpair,
    modified_newton_shift,
    norm,
    row_norms,
    symmetric_extreme_eigenvalues,
    truncated_cg,
)
from ncopt.problems import make_problem, sphere
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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_entry_raises(self, bad):
        # symmetric, so only the finiteness check can reject it
        H = np.eye(3)
        H[0, 2] = H[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _check_symmetric(H)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_non_square_raises(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            _check_symmetric(np.zeros(shape))

    def test_list_input_is_accepted(self):
        out = _check_symmetric([[1, 2], [2, 1]])
        assert out.dtype == float
        np.testing.assert_array_equal(out, [[1.0, 2.0], [2.0, 1.0]])


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

    def test_carries_the_matrix_it_decomposed(self):
        # an exactly symmetric H is carried as it is; a nearly symmetric
        # one as its symmetrized form, which every step then reads
        H = random_symmetric(np.random.default_rng(3), 5)
        assert leftmost_eigenpair(H).matrix is H
        near = H.copy()
        near[0, 3] += 1e-11
        res = leftmost_eigenpair(near)
        assert np.array_equal(res.matrix, 0.5 * (near + near.T))
        assert np.array_equal(res.matrix, res.matrix.T)
        # the shift's refinement step solves with that same matrix
        delta, solve = modified_newton_shift(res)
        rhs = np.arange(1.0, 6.0)
        np.testing.assert_allclose((res.matrix + delta * np.eye(5)) @ solve(rhs),
                                   rhs, atol=1e-8)

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

    def test_one_by_one(self):
        res = leftmost_eigenpair(np.array([[-4.0]]), np.array([3.0]))
        assert res.leftmost_value == -4.0
        np.testing.assert_array_equal(res.leftmost_vector, [-1.0])
        assert _leftmost_multiplicity(res.values) == 1

    def test_residual_above_its_bound_is_kernel_error(self, monkeypatch):
        # a "decomposition" whose first column is e_1 rotated by 0.1 rad
        def wrong(H):
            c, s = np.cos(0.1), np.sin(0.1)
            return np.array([-1.0, 3.0]), np.array([[c, -s], [s, c]])

        monkeypatch.setattr(np.linalg, "eigh", wrong)
        with pytest.raises(KernelError, match="residual .* exceeds bound"):
            leftmost_eigenpair(np.diag([-1.0, 3.0]))

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

    def test_max_iterations_follows_the_integer_rule(self):
        # 2.5 and 1.0 used to raise TypeError from range and True to run
        # one iteration; an integral number now runs as the int
        H = np.diag([1.0, 2.0, 3.0])
        g = np.array([1.0, 1.0, 1.0])
        for integral in (np.int64(1), 1.0):
            out = truncated_cg(H, g, max_iterations=integral)
            assert out.iterations_used == 1 and type(out.iterations_used) is int
            np.testing.assert_array_equal(
                out.solution, truncated_cg(H, g, max_iterations=1).solution)
        for bad in (2.5, True, "3", 0, -1, None):
            with pytest.raises(ValueError,
                               match="^max_iterations must be a positive integer$"):
                truncated_cg(H, g, max_iterations=bad)


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


@st.composite
def shift_cases(draw):
    """(H, rhs): H = Q diag(w) Q' for a random orthogonal Q, with each
    eigenvalue 0 or +-10^e for e in [-3, 3], and a right-hand side."""
    n = draw(st.integers(1, 10))
    w = draw(st.lists(st.one_of(
        st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                  st.floats(-3.0, 3.0)),
        st.just(0.0)), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q = _orthogonal(rng, n)
    H = (Q * np.array(w)) @ Q.T
    return 0.5 * (H + H.T), rng.normal(size=n)


class TestModifiedNewtonShift:
    def test_already_well_conditioned(self):
        H = np.diag([1.0, 2.0])
        delta, solve = modified_newton_shift(leftmost_eigenpair(H))
        assert delta == 0.0
        np.testing.assert_allclose(solve(np.array([1.0, 2.0])), [1.0, 1.0])

    def test_indefinite_analytic_value(self):
        # solve (2 + delta)/(delta - 1) = 1e8 for delta
        H = np.diag([-1.0, 2.0])
        delta, _ = modified_newton_shift(leftmost_eigenpair(H))
        expected = 1.0 + 3.0 / (1e8 - 1.0)
        assert delta == pytest.approx(expected, abs=1e-10)
        assert delta == pytest.approx(_shift_bisection_oracle(H, 1e8), abs=1e-6)

    def test_zero_matrix_hits_floor(self):
        H = np.zeros((2, 2))
        delta, _ = modified_newton_shift(leftmost_eigenpair(H))
        assert delta == pytest.approx(1e-8)

    def test_random_matrices_satisfy_both_conditions(self):
        rng = np.random.default_rng(19)
        cap = 1e8
        for _ in range(100):
            n = int(rng.integers(1, 15))
            H = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 10.0)))
            delta, solve = modified_newton_shift(leftmost_eigenpair(H))
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

    @given(shift_cases())
    def test_drawn_matrices_satisfy_both_conditions(self, case):
        # the test above over drawn spectra: either sign over six decades,
        # with exact zeros, so H may be indefinite, singular or already
        # well conditioned
        H, rhs = case
        n, cap = len(H), 1e8
        delta, solve = modified_newton_shift(leftmost_eigenpair(H))
        B = H + delta * np.eye(n)
        lmin, lmax = reference_extreme_eigenvalues(B)
        assert lmin > 0.0
        assert lmax <= cap * lmin
        if delta > 1e-8:
            hmin, hmax = reference_extreme_eigenvalues(H + 0.5 * delta * np.eye(n))
            assert hmin <= 0.0 or hmax > cap * hmin
        # a backward-stable solve: the residual is the rounding of H x,
        # delta x and rhs, which the shift of an indefinite H cancels; the
        # largest row sum of |H| bounds its norm
        x = solve(rhs)
        scale = np.abs(H).sum(axis=1).max() + delta
        assert norm(B @ x - rhs) <= 8 * n * np.finfo(float).eps * (
            scale * norm(x) + norm(rhs))


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
        d = negative_curvature_direction(eig, g)
        pg = Q[:, :k] @ (Q[:, :k].T @ g)
        np.testing.assert_allclose(d, -abs(eig.leftmost_value) * pg
                                   / np.linalg.norm(pg), rtol=0, atol=1e-10)
        certify_curvature_direction(d, eig, g)
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
            d = negative_curvature_direction(eig, g)
            certify_curvature_direction(d, eig, g)
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
        d = negative_curvature_direction(eig, g)
        certify_curvature_direction(d, eig, g)
        tied = [0, 1, 4]
        expected = np.zeros(5)
        expected[tied] = -g[tied] / np.linalg.norm(g[tied])
        np.testing.assert_allclose(d, abs(eig.leftmost_value) * expected,
                                   rtol=0, atol=1e-9)
        R = _orthogonal(np.random.default_rng(5), 3)
        np.testing.assert_allclose(
            eigenspace_direction(_rotated_leftmost_basis(eig, R), g),
            eig.leftmost_vector, rtol=0, atol=1e-12)


def _bits(value):
    return struct.pack("<d", value)


# magnitudes from subnormal to overflowing, with infinities and NaN
_WIDE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-200, 1e200, 1.7e308]),
)


def _check_norm(a):
    """norm(a) is np.linalg.norm(a) bit for bit, except where numpy's sum
    of squares underflows below the smallest normal double on a nonzero a;
    there it is the accurately scaled norm that math.hypot computes."""
    flat = a.ravel("K")
    if flat.dot(flat) < np.finfo(float).tiny and flat.any():
        assert norm(a) == pytest.approx(math.hypot(*flat), rel=1e-14, abs=1e-323)
    else:
        assert _bits(norm(a)) == _bits(np.linalg.norm(a))


class TestNorm:
    """`linalg.norm` is np.linalg.norm bit for bit, in every memory layout,
    wherever numpy's sum of squares does not underflow."""

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    @given(hnp.arrays(float, st.integers(0, 40), elements=_WIDE_FLOATS))
    def test_vectors(self, a):
        _check_norm(a)

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                      elements=_WIDE_FLOATS),
           st.sampled_from(["C", "F", "T", "strided"]))
    def test_matrices_in_every_layout(self, a, layout):
        a = {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a),
             "T": a.T, "strided": a[::2, ::-1]}[layout]
        _check_norm(a)

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    @given(hnp.arrays(float, st.tuples(st.integers(0, 12), st.integers(1, 12)),
                      elements=_WIDE_FLOATS),
           st.sampled_from(["C", "F"]))
    def test_row_norms_are_the_norm_of_each_row(self, a, layout):
        a = {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a)}[layout]
        expected = np.array([norm(row) for row in a]).reshape(len(a))
        assert row_norms(a).tobytes() == expected.tobytes()

    def test_returns_a_float(self):
        assert type(norm(np.array([3.0, 4.0]))) is float
        assert norm(np.array([3.0, 4.0])) == 5.0
        assert type(norm(np.array([1e-170, 0.0]))) is float

    def test_underflowing_squares_are_scaled(self):
        # np.linalg.norm gives 0.0 and 3.1434555694052576e-162 here
        assert norm(np.array([1e-170, 1e-170])) == pytest.approx(
            1.41421356237e-170, rel=1e-11)
        assert norm(np.array([3e-162, 0.0])) == 3e-162
        assert norm(np.array([5e-324, 0.0])) == 5e-324
        assert norm(np.zeros(3)) == 0.0
        assert math.isnan(norm(np.array([np.nan, 1e-170])))

    def test_tiny_gradient_is_not_a_second_order_point(self):
        # 2e-340 underflowed to 0, so the solve stopped at once with
        # SECOND_ORDER_POINT and a zero gradient norm
        report = dynamic_solve(sphere(2), x0=np.array([1e-170, 1e-170]))
        assert report.termination_reason is TerminationReason.TOLERANCE_MET
        assert report.final_gradient_norm == pytest.approx(1.41421356237e-170,
                                                           rel=1e-11)
        report = dynamic_solve(sphere(2), x0=np.array([3e-162, 0.0]))
        assert report.final_gradient_norm == 3e-162


def _general_rule(basis):
    """eigenspace_direction's rule without g, written for any number of
    columns: P e_j / ||P e_j|| for the first j with a projection, signed so
    its largest-magnitude entry is positive."""
    j = int(np.argmax(np.linalg.norm(basis, axis=1) > 1e-8))
    v = basis @ basis[j]
    v /= np.linalg.norm(v)
    if v[int(np.argmax(np.abs(v)))] < 0.0:
        v = -v
    return v


@st.composite
def unit_columns(draw):
    """An (n, 1) unit column whose entries include exact zeros of either
    sign and entries near the projection floor."""
    n = draw(st.integers(1, 12))
    entries = st.one_of(st.floats(-1.0, 1.0), st.sampled_from(
        [0.0, -0.0, 1e-8, -1e-8, np.nextafter(1e-8, 1.0), 1e-12, -1e-300]))
    c = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    if not np.linalg.norm(c) > 1e-6:
        c[draw(st.integers(0, n - 1))] = draw(st.sampled_from([1.0, -1.0]))
    return (c / np.linalg.norm(c))[:, None]


class TestSingleColumnPath:
    """A simple leftmost eigenvalue's one-column eigenspace goes through
    eigenspace_direction's one rule, which must give `_general_rule`'s
    vector bit for bit, signed zeros included; `_leftmost_multiplicity`
    must agree with the plain search at and around a tie."""

    @given(unit_columns())
    def test_matches_the_general_rule(self, col):
        v = eigenspace_direction(col)
        expected = _general_rule(col)
        assert v.tobytes() == expected.tobytes()

    @given(unit_columns())
    def test_negligible_projection_of_g_falls_back_to_the_rule(self, col):
        # g orthogonal to the column: its projection is rounding noise
        g = np.zeros(len(col))
        assert eigenspace_direction(col, g).tobytes() == _general_rule(col).tobytes()

    @given(st.integers(1, 10), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["dense", "diagonal", "permuted_diagonal"]))
    def test_leftmost_eigenpair_vector_matches_the_general_rule(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "dense":
            H = random_symmetric(rng, n)
        else:
            H = np.diag(rng.permutation(np.arange(n, dtype=float)) - 2.0)
            if kind == "permuted_diagonal":
                P = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)
                H = P @ H @ P.T
        res = leftmost_eigenpair(H)
        assert _leftmost_multiplicity(res.values) == 1
        expected = _general_rule(res.vectors[:, :1])
        assert res.leftmost_vector.tobytes() == expected.tobytes()

    @given(hnp.arrays(float, st.integers(1, 8), elements=st.floats(-4.0, 4.0)),
           st.sampled_from([0.0, 1e-13, 1e-12, 5e-12, 1e-9]))
    def test_multiplicity_early_exit_matches_the_search(self, w, gap):
        w = np.sort(w)
        if len(w) > 1:
            w[1] = w[0] + gap * max(1.0, abs(w[0]), abs(w[-1]))
            w = np.sort(w)
        tol = 1e-12 * max(1.0, abs(float(w[0])), abs(float(w[-1])))
        assert _leftmost_multiplicity(w) == int(
            np.searchsorted(w, w[0] + tol, side="right"))


class TestTruncatedCgProperties:
    @given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 2.0))
    def test_spd_system_matches_a_direct_solve(self, n, seed, log_condition):
        rng = np.random.default_rng(seed)
        Q = _orthogonal(rng, n)
        H = (Q * np.logspace(0.0, log_condition, n)) @ Q.T
        H = 0.5 * (H + H.T)
        g = rng.normal(size=n)
        out = truncated_cg(H, g, max_iterations=10 * n)
        assert out.status is CgStatus.CONVERGED
        assert out.curvature_direction is None
        direct = np.linalg.solve(H, -g)
        assert np.linalg.norm(out.solution - direct) <= 1e-8 * max(
            1.0, np.linalg.norm(direct))

    @given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
    def test_every_returned_direction_has_nonpositive_curvature(self, n, seed, cap):
        rng = np.random.default_rng(seed)
        Q = _orthogonal(rng, n)
        w = rng.uniform(-3.0, 3.0, size=n)
        w[0], w[-1] = -abs(w[0]) - 0.1, abs(w[-1]) + 0.1
        H = (Q * w) @ Q.T
        H = 0.5 * (H + H.T)
        out = truncated_cg(H, rng.normal(size=n), max_iterations=cap)
        d = out.curvature_direction
        assert (d is not None) == (out.status is CgStatus.NONPOSITIVE_CURVATURE)
        if d is not None:
            # the product as CG forms it: d'(H d)
            assert d @ (H @ d) <= 0.0
