"""Central finite-difference oracles, the tests' reference for derivatives."""

from __future__ import annotations

import numpy as np


def central_gradient(f, x, step=1e-6):
    """Central-difference gradient of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    grad = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return grad


def central_hessian(gradient, x, step=1e-6):
    """Central-difference Hessian from a gradient function, symmetrized."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    H = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        H[:, j] = (gradient(x + e) - gradient(x - e)) / (2.0 * step)
    return 0.5 * (H + H.T)
