#!/usr/bin/env python3
"""Training a small network with the dynamic stochastic method.

A two-layer tanh network (49 parameters) is fit to 500 teacher-generated
records from a near-zero initialization, a region crowded with saddle
structure.  Each iteration runs CG on a sampled Hessian system for at most
10 steps: the final CG iterate is the descent step, and any direction of
nonpositive curvature CG stumbles on is used as the curvature step, with the
safeguards ||s|| <= 10 and ||beta*d|| <= 0.2*||alpha*s||, from the first
constants L = 80 and sigma = 100 (`LIPSCHITZ_INIT`).  The run is
compared against its descent-only twin on identical seeds, by the exact
training loss at the stored iterates of a few checkpoint iterations.
"""

import numpy as np

from ncopt import (
    LIPSCHITZ_INIT,
    StochasticOracle,
    dynamic_stochastic_solve,
    synthetic_two_layer_net,
)

spec = dict(records=500, feature_dim=4, hidden_units=8, seed=7, noise=0.02,
            teacher_scale=3.0)
dimension = 8 * 4 + 2 * 8 + 1
x0 = 1e-3 * np.random.default_rng(17).normal(size=dimension)
iterations = 2000
checkpoints = (50, 200, 2000)
seeds = range(3)
# the label noise leaves a training loss of about 0.5 * noise^2
noise_floor = 0.5 * spec["noise"] ** 2

print("%-6s %-24s %s" % ("seed", "run", "".join("%-12s" % ("iter %d" % k)
                                                  for k in checkpoints)))
# exact training loss per run kind, seed and checkpoint
losses = {True: [], False: []}
for seed in seeds:
    for use_curvature in (True, False):
        problem = synthetic_two_layer_net(**spec)
        oracle = StochasticOracle(problem, batch_size=32, seed=seed)
        report = dynamic_stochastic_solve(oracle, LIPSCHITZ_INIT,
                                          iterations=iterations, x0=x0,
                                          use_curvature=use_curvature)
        # record k - 1 holds the iterate at which iteration k starts
        row = [problem.evaluate(report.records[k - 1].x) for k in checkpoints]
        losses[use_curvature].append(row)
        curvature_steps = sum(1 for r in report.records if r.d_norm > 0.0)
        name = ("curvature, %d d-steps" % curvature_steps if use_curvature
                else "descent-only")
        print("%-6d %-24s %s" % (seed, name, "".join("%-12.6f" % v for v in row)))

gaps = np.subtract(losses[False], losses[True])
print("\npaired loss, descent-only minus curvature (positive favours curvature):")
for j, k in enumerate(checkpoints):
    print("  iteration %4d: mean %+.2e, curvature lower on %d of %d seeds"
          % (k, gaps[:, j].mean(), (gaps[:, j] > 0.0).sum(), len(seeds)))

ahead = [k for j, k in enumerate(checkpoints) if (gaps[:, j] > 0.0).all()]
lead = int(np.argmax(gaps.mean(axis=0)))
last = np.array([losses[True], losses[False]])[:, :, -1]
print("\nShown: the curvature run leads on every seed at iteration(s) %s, most "
      "at iteration %d (mean lead %.3f); at iteration %d both runs are within "
      "%.0e of the label-noise floor %.0e, %s."
      % (", ".join(map(str, ahead)) or "none", checkpoints[lead],
         gaps[:, lead].mean(), checkpoints[-1],
         np.abs(last - noise_floor).max(), noise_floor,
         "and the curvature run still leads" if checkpoints[-1] in ahead
         else "so the final loss no longer separates them"))
