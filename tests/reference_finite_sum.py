"""Per-component formulas of the finite sums, as the tests' reference.

The library evaluates only whole batches, with vectorized forms; the
tests average these one-component formulas over a batch and compare.
"""

import numpy as np


def quadratic_component(problem, x, index):
    """(value, gradient, Hessian) of 0.5 (x - c_i)' Q_i (x - c_i)."""
    u = x - problem.centers[index]
    Q = problem.matrices[index]
    return 0.5 * float(u @ Q @ u), Q @ u, Q.copy()


def least_squares_component(problem, x, index):
    """(value, gradient, Hessian) of 0.5 (phi_i' x - y_i)^2."""
    phi = problem.features[index]
    r = float(phi @ x - problem.labels[index])
    return 0.5 * r * r, r * phi, np.outer(phi, phi)


def component_means(component, problem, x, indices):
    """Mean value, gradient and Hessian of `component` over `indices`."""
    values, gradients, hessians = zip(*(component(problem, x, i) for i in indices))
    return (float(np.mean(values)), np.mean(gradients, axis=0),
            np.mean(hessians, axis=0))
