"""Dense symmetric eigen kernels, truncated CG, and the spectral shift.

Each iterate's Hessian is factored once, by LAPACK (`np.linalg.eigh`); the
resulting `EigenResult`, which carries the matrix decomposed, serves the
curvature direction and the modified-Newton shift and solve.  When the
leftmost eigenvalue is repeated, LAPACK may return any orthonormal basis
of its eigenspace, so the vector used is picked once, by
`eigenspace_direction`, a rule that depends on the eigenspace and the
gradient only.  The vector and matrix norms on the per-iterate paths are
`norm`, which equals `np.linalg.norm` bit for bit without its argument
dispatch wherever the sum of squares does not underflow; `row_norms`
gives `norm` of many rows at once.  The tests check
these kernels against an independent pure-Python reference eigensolver.
All kernels are pure functions and safe for concurrent use.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# eigenvalues within this relative distance of the leftmost one count as ties
_TIE_RTOL = 1e-12
# a projection onto the leftmost eigenspace shorter than this fraction of the
# projected vector's norm is treated as zero: its direction is rounding noise
_PROJECTION_FLOOR = 1e-8
# asymmetry accepted as rounding; eigenpair residual bound per max(1, ||H||_F)
_SYMMETRY_TOL = 1e-10
_RESIDUAL_TOL = 1e-10
# modified-Newton condition-number cap, and the shift floor when lmax = lmin <= 0
CONDITION_CAP = 1e8
_PD_FLOOR = 1e-8
# a result below this is subnormal: it has lost bits to underflow
SMALLEST_NORMAL = float(np.finfo(float).tiny)
_SQRT_SMALLEST_NORMAL = math.sqrt(SMALLEST_NORMAL)


class KernelError(RuntimeError):
    """A numerical kernel failed to meet its accuracy contract."""


@dataclass
class EigenResult:
    """Leftmost eigenpair of a symmetric matrix, with the matrix.

    leftmost_vector has unit 2-norm; residual is ||H v - lambda v||_2.
    values (ascending) and vectors (matching columns) are the full
    decomposition the pair was taken from, and matrix the matrix checked
    and decomposed: H itself when exactly symmetric, else 0.5*(H + H'),
    which every step on the pair then uses as H.
    """

    leftmost_value: float
    leftmost_vector: np.ndarray
    residual: float
    values: np.ndarray
    vectors: np.ndarray
    matrix: np.ndarray


def norm(a):
    """The 2-norm of a float vector, or the Frobenius norm of a float
    matrix, as a float: `np.linalg.norm(a)` bit for bit, which numpy
    computes as the square root of the dot product of a.ravel("K") with
    itself, without its argument dispatch.  Only where that dot product
    underflows, leaving a norm below the square root of the smallest
    normal double, and a is not zero is the norm taken of a scaled by its
    largest magnitude instead."""
    a = a.ravel("K")
    root = math.sqrt(a.dot(a))
    # a Python float comparison: this path runs several times per iterate
    if root < _SQRT_SMALLEST_NORMAL and a.any():
        scale = np.abs(a).max()
        a = a / scale
        return float(scale) * math.sqrt(a.dot(a))
    return root


def row_norms(a):
    """`norm` of each row of the float (R, n) array a, as an array, bit
    for bit: the square roots of stacked dot products, each a row's
    a.dot(a) on C-ordered rows, as `norm` takes it; only a row whose root
    falls below the square root of the smallest normal double is handed
    to `norm` itself."""
    a = np.ascontiguousarray(a)
    roots = np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])
    for i in np.flatnonzero(roots < _SQRT_SMALLEST_NORMAL):
        roots[i] = norm(a[i])
    return roots


def all_finite(a):
    """Whether every entry of the float array a is finite; only a
    non-finite sum, which finite entries reach by overflow, is checked
    entry by entry."""
    return math.isfinite(a.sum()) or bool(np.isfinite(a).all())


def _leftmost_multiplicity(w):
    """How many of the ascending eigenvalues w lie within
    _TIE_RTOL * max(1, max |w|) of the leftmost one."""
    w0 = float(w[0])
    tol = _TIE_RTOL * max(1.0, abs(w0), abs(float(w[-1])))
    return int(np.searchsorted(w, w0 + tol, side="right"))


class CgStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    NONPOSITIVE_CURVATURE = "nonpositive_curvature"
    NONPOSITIVE_CURVATURE_FIRST_ITERATION = "nonpositive_curvature_first_iteration"


@dataclass
class CgOutcome:
    """Result of truncated CG on H s = -g.

    curvature_direction is present exactly when status is
    NONPOSITIVE_CURVATURE, and then d'Hd <= 0 for the supplied H.
    """

    solution: np.ndarray
    curvature_direction: np.ndarray | None
    status: CgStatus
    iterations_used: int


def _check_symmetric(H):
    """H as a square, finite, symmetric float matrix.

    An exactly symmetric H is returned as it is, not copied (for finite H
    the symmetrized 0.5*(H + H') equals H bit for bit); one whose
    asymmetry is at most 1e-10 is returned as a symmetrized copy; anything
    else raises ValueError.  Callers must not mutate the result.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (H.shape,))
    if not all_finite(H):
        raise ValueError("matrix has non-finite entries")
    if (H == H.T).all():
        return H
    asym = np.max(np.abs(H - H.T))
    if asym > _SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric (asymmetry %.3e)" % asym)
    return 0.5 * (H + H.T)


def eigenspace_direction(basis, g=None):
    """Unit vector in the span of the orthonormal columns of basis, chosen
    by a rule that depends on the span only, not on the basis.

    With P the orthogonal projector onto the span: -Pg/||Pg|| when g is
    given and Pg is not negligible (the unit vector of the span most
    aligned with -g); otherwise P e_j/||P e_j|| for the smallest j whose
    projection is not negligible, signed so that its largest-magnitude
    entry is positive.
    """
    if g is not None:
        g = np.asarray(g, dtype=float)
        pg = basis @ (basis.T @ g)
        pg_norm = norm(pg)
        if pg_norm > _PROJECTION_FLOOR * norm(g):
            return -pg / pg_norm
    j = int(np.argmax(np.linalg.norm(basis, axis=1) > _PROJECTION_FLOOR))
    v = basis @ basis[j]
    v /= norm(v)
    if v[int(np.argmax(np.abs(v)))] < 0.0:
        v = -v
    return v


def symmetric_extreme_eigenvalues(H):
    """(smallest, largest) eigenvalues of a symmetric matrix."""
    try:
        w = np.linalg.eigvalsh(_check_symmetric(H))
    except np.linalg.LinAlgError as err:
        raise KernelError("symmetric eigenvalue solve failed: %s" % err) from err
    return float(w[0]), float(w[-1])


def leftmost_eigenpair(H, g=None):
    """Leftmost (minimum) eigenvalue and a unit eigenvector of symmetric H.

    The vector is `eigenspace_direction` of the leftmost eigenspace against
    the gradient g, if given, so a repeated leftmost eigenvalue gives the
    same vector whichever basis LAPACK returns.  The residual
    ||H v - lambda v|| must come out below 1e-10 * max(1, ||H||_F) or a
    KernelError is raised.  Non-symmetric input (asymmetry above 1e-10) is
    rejected.
    """
    H = _check_symmetric(H)
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as err:
        raise KernelError("symmetric eigendecomposition failed: %s" % err) from err
    lam = float(w[0])
    v = eigenspace_direction(V[:, :_leftmost_multiplicity(w)], g)
    residual = norm(H @ v - lam * v)
    bound = _RESIDUAL_TOL * max(1.0, norm(H))
    if residual > bound:
        raise KernelError(
            "leftmost eigenpair residual %.3e exceeds bound %.3e" % (residual, bound)
        )
    return EigenResult(leftmost_value=lam, leftmost_vector=v, residual=residual,
                       values=w, vectors=V, matrix=H)


def truncated_cg(H, g, max_iterations):
    """Run CG on H s = -g from s = 0, stopping on nonpositive curvature.

    Returns the last iterate computed before termination as the solution.
    When a direction p with p'Hp <= 0 is met it is returned as
    curvature_direction, except on the very first iteration where the
    solution falls back to -g and no direction is reported.  The curvature
    test is exact (<= 0), with no tolerance band.
    """
    # imported here, as a module (the cheaper import statement), because
    # ncopt.problems imports this module
    import ncopt.problems

    H = _check_symmetric(H)
    g = np.asarray(g, dtype=float)
    max_iterations = ncopt.problems.integer_argument("max_iterations",
                                                     max_iterations, 1)
    gnorm = norm(g)
    if gnorm == 0.0:
        return CgOutcome(np.zeros_like(g), None, CgStatus.CONVERGED, 0)
    tolerance = min(1e-10, 1e-6 * gnorm)
    s = np.zeros_like(g)
    r = g.copy()
    p = -g
    rr = r @ r
    for j in range(max_iterations):
        Hp = H @ p
        curv = p @ Hp
        if curv <= 0.0:
            if j == 0:
                return CgOutcome(-g, None, CgStatus.NONPOSITIVE_CURVATURE_FIRST_ITERATION, 0)
            return CgOutcome(s, p, CgStatus.NONPOSITIVE_CURVATURE, j)
        step = rr / curv
        s = s + step * p
        r = r + step * Hp
        rr_new = r @ r
        if math.sqrt(rr_new) <= tolerance:
            return CgOutcome(s, None, CgStatus.CONVERGED, j + 1)
        p = -r + (rr_new / rr) * p
        rr = rr_new
    return CgOutcome(s, None, CgStatus.MAX_ITERATIONS, max_iterations)


def modified_newton_shift(eig):
    """Smallest shift delta >= 0 making H + delta*I positive definite with
    condition number at most 1e8, for H the matrix of the eigenpair eig.

    Solved in closed form from the extreme eigenvalues:
    delta = max(0, (lmax - cap*lmin)/(cap - 1)), with the degenerate case
    lmax = lmin <= 0 clamped to -lmin + 1e-8 (any positive shift then has
    condition number 1).  Returns (delta, solve) where solve(rhs) solves
    (H + delta*I) x = rhs through eig's eigendecomposition of H, with one
    step of iterative refinement.
    """
    H, w, V = eig.matrix, eig.values, eig.vectors
    lmin, lmax = float(w[0]), float(w[-1])
    # aim slightly inside the cap so the condition number verified in floating
    # point (relative error ~ eps * kappa) still lands at or below it
    cap = CONDITION_CAP * (1.0 - 1e-6)
    delta = max(0.0, (lmax - cap * lmin) / (cap - 1.0))
    if lmin + delta <= 0.0:
        delta = -lmin + _PD_FLOOR
    shifted = w + delta

    def spectral_solve(rhs):
        return V @ ((V.T @ rhs) / shifted)

    def solve(rhs):
        rhs = np.asarray(rhs, dtype=float)
        x = spectral_solve(rhs)
        # one refinement step brings the residual down to an LU solve's level
        return x + spectral_solve(rhs - H @ x - delta * x)

    return delta, solve
