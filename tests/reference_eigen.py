"""Independent reference for the LAPACK-backed eigen kernel in ncopt.linalg.

A pure-Python dense symmetric eigensolver: Householder tridiagonalization,
Sturm-sequence bisection for the eigenvalues and inverse iteration for the
leftmost eigenvector.  It shares no code with `np.linalg.eigh`, so the
tests can check the library's spectral results against it.  It is slow
(a Python loop per Sturm count) and only meant for test-sized matrices.
"""

import numpy as np


def _tridiagonalize(H):
    """Householder reduction of symmetric H to tridiagonal form.

    Returns (d, e, Q) with Q' H Q tridiagonal; d is the diagonal and e the
    off-diagonal.  Q is accumulated so tridiagonal eigenvectors map back via
    Q @ u.
    """
    A = H.copy()
    n = A.shape[0]
    Q = np.eye(n)
    for k in range(n - 2):
        x = A[k + 1:, k].copy()
        xnorm = np.linalg.norm(x)
        if xnorm == 0.0:
            continue
        alpha = -np.copysign(xnorm, x[0]) if x[0] != 0.0 else -xnorm
        v = x
        v[0] -= alpha
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            continue
        v /= vnorm
        # two-sided application of P = I - 2 v v'
        A[k + 1:, k:] -= 2.0 * np.outer(v, v @ A[k + 1:, k:])
        A[:, k + 1:] -= 2.0 * np.outer(A[:, k + 1:] @ v, v)
        Q[:, k + 1:] -= 2.0 * np.outer(Q[:, k + 1:] @ v, v)
    d = np.diag(A).copy()
    e = np.diag(A, 1).copy()
    return d, e, Q


def _count_eigs_below(d, e, x):
    """Number of eigenvalues of tridiag(d, e) strictly below x (Sturm count)."""
    n = d.shape[0]
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(e * e)) if e.size else 1.0)
    q = d[0] - x
    count = 1 if q < 0.0 else 0
    for i in range(1, n):
        if abs(q) < pivmin:
            q = -pivmin
        q = (d[i] - x) - e[i - 1] * e[i - 1] / q
        if q < 0.0:
            count += 1
    return count


def _bisect_eigenvalue(d, e, k):
    """k-th smallest eigenvalue of tridiag(d, e) by bisection, 0-indexed."""
    n = d.shape[0]
    radius = np.zeros(n)
    if n > 1:
        radius[:-1] += np.abs(e)
        radius[1:] += np.abs(e)
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    # relative to the Gershgorin bound, so a matrix of small norm gets
    # eigenvalues as accurate as one of norm 1
    scale = max(abs(lo), abs(hi))
    for _ in range(128):
        mid = 0.5 * (lo + hi)
        if _count_eigs_below(d, e, mid) >= k + 1:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 2.0 * np.finfo(float).eps * scale:
            break
    return 0.5 * (lo + hi)


def _eigenpair_2x2(H):
    a, b, c = H[0, 0], H[0, 1], H[1, 1]
    disc = np.hypot(a - c, 2.0 * b)
    lam = 0.5 * ((a + c) - disc)
    # eigenvector from the better-conditioned of the two defining rows
    v1 = np.array([b, lam - a])
    v2 = np.array([lam - c, b])
    v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
    if np.linalg.norm(v) == 0.0:
        v = np.array([1.0, 0.0]) if a <= c else np.array([0.0, 1.0])
    return lam, v / np.linalg.norm(v)


def _inverse_iteration(H, lam):
    """Eigenvector of H for the eigenvalue estimate lam via inverse iteration."""
    n = H.shape[0]
    scale = max(1.0, float(np.max(np.abs(H))))
    shift = lam + 10.0 * np.finfo(float).eps * scale
    v = np.ones(n) + 1e-3 * np.arange(n)
    v /= np.linalg.norm(v)
    best_v, best_res = v, np.inf
    for attempt in range(3):
        M = H - shift * np.eye(n)
        try:
            for _ in range(4):
                w = np.linalg.solve(M, v)
                nw = np.linalg.norm(w)
                if not np.isfinite(nw) or nw == 0.0:
                    break
                v = w / nw
                res = np.linalg.norm(H @ v - (v @ H @ v) * v)
                if res < best_res:
                    best_res, best_v = res, v.copy()
                if res <= 4.0 * np.finfo(float).eps * scale * n:
                    return best_v
        except np.linalg.LinAlgError:
            pass
        shift += (10.0 ** attempt) * 1e-12 * scale
    return best_v


def reference_extreme_eigenvalues(H):
    """(smallest, largest) eigenvalues of a symmetric matrix."""
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    if n == 1:
        return float(H[0, 0]), float(H[0, 0])
    if n == 2:
        a, b, c = H[0, 0], H[0, 1], H[1, 1]
        disc = np.hypot(a - c, 2.0 * b)
        return float(0.5 * ((a + c) - disc)), float(0.5 * ((a + c) + disc))
    d, e, _ = _tridiagonalize(H)
    return float(_bisect_eigenvalue(d, e, 0)), float(_bisect_eigenvalue(d, e, n - 1))


def reference_leftmost_eigenpair(H):
    """(lambda, v): leftmost eigenvalue and a unit eigenvector of symmetric H."""
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    if n == 1:
        return float(H[0, 0]), np.array([1.0])
    if n == 2:
        lam, v = _eigenpair_2x2(H)
        return float(lam), v
    d, e, Q = _tridiagonalize(H)
    lam = float(_bisect_eigenvalue(d, e, 0))
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    v = Q @ _inverse_iteration(T, lam)
    v /= np.linalg.norm(v)
    # the Rayleigh quotient of the converged vector is the sharper estimate
    return min(lam, float(v @ H @ v)), v
