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


def per_draw_moment_m1(oracle, x, draws):
    """The M1 of `measure_moment_constants` computed one draw at a time:
    one batch_gradient and one dot product per drawn batch."""
    problem = oracle.problem
    exact_g = problem.gradient(x)
    deviations = np.empty(draws)
    for i in range(draws):
        s = -problem.batch_gradient(x, oracle.next_gradient_batch())
        deviations[i] = float((s + exact_g) @ (s + exact_g))
    return 1.5 * float(np.mean(deviations)) + 1e-12
