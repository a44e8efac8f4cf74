"""Independent reference for `TwoLayerNetProblem.batch_hessian`.

The batch Hessian assembled the straightforward way: multi-operand
`einsum` forms of the five residual-weighted second-order terms, added to
the Gauss-Newton part one hidden unit at a time by a Python loop, with
every operand in C (row-major) order.  The library passes the operands of
its 3-operand sums and of the Jacobian outer product sample-contiguous
(Fortran order), which makes the sum over samples einsum's inner loop but
keeps the same products summed in the same order; it adds each term to
its entry once, in one scatter.  The two agree bit for bit, and the tests
assert `np.array_equal` against this loop.

The forward pass is this module's own, from the problem's `features`,
`labels` and `hidden_units` and the parameter vector, with the library's
operations in the library's order; it never reads the problem's cached
full-batch pass, so a stale cache fails the comparison.
"""

import numpy as np


def reference_forward(problem, x, indices):
    """(X, A, r, w2): the batch's rows, hidden activations tanh(X W1' + b1),
    residuals A w2 + b2 - y and output weights, for parameters packed as
    [W1 (h*d, row-major), b1 (h), w2 (h), b2]."""
    h = problem.hidden_units
    X = problem.features[indices]
    d = X.shape[1]
    W1 = x[: h * d].reshape(h, d)
    b1 = x[h * d: h * d + h]
    w2 = x[h * d + h: h * d + 2 * h]
    A = np.tanh(X @ W1.T + b1)
    return X, A, A @ w2 + x[-1] - problem.labels[indices], w2


def reference_batch_hessian(problem, x, indices):
    """Exact mean Hessian of `problem`'s components listed in `indices`."""
    X, A, r, w2 = reference_forward(problem, x, indices)
    m, d = X.shape
    h = problem.hidden_units
    P = 1.0 - A * A
    U = P * w2
    D = -2.0 * A * P * w2

    JW1 = np.einsum("mi,mj->mij", U, X).reshape(m, h * d)
    J = np.concatenate([JW1, U, A, np.ones((m, 1))], axis=1)
    H = J.T @ J / m

    off_b1 = h * d
    off_w2 = h * d + h
    E_bb = np.einsum("m,mi->i", r, D) / m
    E_bW = np.einsum("m,mi,mk->ik", r, D, X) / m
    E_WW = np.einsum("m,mi,mj,mk->ijk", r, D, X, X) / m
    E_wb = np.einsum("m,mi->i", r, P) / m
    E_wW = np.einsum("m,mi,mk->ik", r, P, X) / m

    rows_b1 = off_b1 + np.arange(h)
    H[rows_b1, rows_b1] += E_bb
    for i in range(h):
        cols = i * d + np.arange(d)
        H[off_b1 + i, cols] += E_bW[i]
        H[cols, off_b1 + i] += E_bW[i]
        H[off_w2 + i, cols] += E_wW[i]
        H[cols, off_w2 + i] += E_wW[i]
        H[np.ix_(cols, cols)] += E_WW[i]
        H[off_w2 + i, off_b1 + i] += E_wb[i]
        H[off_b1 + i, off_w2 + i] += E_wb[i]
    return 0.5 * (H + H.T)
