"""Per-component formulas of the finite sums, as the tests' reference.

The library evaluates only whole batches, with vectorized forms; the
tests average these one-component formulas over a batch and compare.
"""

import numpy as np

from ncopt.stochastic import curvature_noise_step


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


def sampled_decrease(oracle, x, alpha, replications):
    """(mean, standard error) of f(x_next) - f(x) over `replications`
    `curvature_noise_step`s from x on the one oracle, f(x) evaluated once:
    the Monte Carlo estimate that `expected_decrease_bound` bounds."""
    problem = oracle.problem
    f_x = problem.evaluate(x)
    decreases = np.empty(replications)
    for i in range(replications):
        x_next, _ = curvature_noise_step(x, oracle, alpha)
        decreases[i] = problem.evaluate(x_next) - f_x
    stderr = float(np.std(decreases, ddof=1) / np.sqrt(replications)) \
        if replications > 1 else 0.0
    return float(np.mean(decreases)), stderr
