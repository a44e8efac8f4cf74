#!/usr/bin/env python3
"""Curvature noise in stochastic gradient steps.

On a 10-D quadratic finite sum (20 components, mini-batches of 2) the
two-step stochastic method takes x + alpha*(s + omega*d), where s is a
mini-batch gradient step, d is a leftmost-eigenvector direction of an
independent Hessian estimate scaled to ||s||, and omega is uniform on
[-1, 1].  Because omega*d has zero mean, the method keeps the plain SGD
mean-square-gradient guarantee; this script measures the moment envelope
E||s||^2 <= M1 + M2 ||grad f||^2 (which bounds d too), picks the
admissible constant stepsize, and checks the bound empirically.
"""

import numpy as np

from ncopt import (
    StochasticOracle,
    StochasticStepConfig,
    admissible_constant_step,
    constant_step_mean_square_bound,
    measure_moment_constants,
    random_quadratic_finite_sum,
    two_step_stochastic_solve,
)

problem = random_quadratic_finite_sum(n=10, components=20, seed=314)
x0 = problem.default_start
L = problem.local_gradient_lipschitz

probe = StochasticOracle(problem, batch_size=2, seed=2024)
moments = measure_moment_constants(probe, x0, draws=4000)
print("measured moment envelope: M1=%.3f M2=%.2f (d inherits it)"
      % (moments.M1, moments.M2))

alpha = admissible_constant_step(moments, L)
print("gradient Lipschitz constant L=%.3f -> admissible constant step %.5f"
      % (L, alpha))

config = StochasticStepConfig(alpha_constant=alpha, moment_bounds=moments,
                              gradient_lipschitz=L)
K = 1500
means = []
for seed in range(6):
    oracle = StochasticOracle(problem, batch_size=2, seed=seed)
    report = two_step_stochastic_solve(oracle, config, iterations=K, x0=x0)
    means.append(report.mean_square_gradient())
    curvature_steps = sum(1 for r in report.records if r.d_norm > 0.0)
    print("  seed %d: (1/K) sum ||grad f||^2 = %8.4f   curvature used in %d/%d steps"
          % (seed, means[-1], curvature_steps, K))

gap = problem.evaluate(x0) - problem.lower_bound
bound = constant_step_mean_square_bound(moments, L, 1.0, alpha, K, gap)
print("mean over seeds: %.4f  <=  theoretical bound %.4f"
      % (np.mean(means), bound))
