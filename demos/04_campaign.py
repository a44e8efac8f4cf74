#!/usr/bin/env python3
"""Suite-wide comparison: does following negative curvature pay off?

Runs the adaptive method twice on each built-in problem (descent-only and
with curvature steps, shared starting points) and reports the three relative
measures for every problem where at least one curvature direction was used.
Positive values favor the curvature-enabled run.  The table also lands as
a CSV file, sorted by the objective measure, with one column per measure.
"""

import tempfile

import numpy as np

from ncopt import campaign, standard_campaign_pairs

out_dir = tempfile.mkdtemp(prefix="ncopt_campaign_")
pairs = standard_campaign_pairs(strategy="sd", seed=0, out_dir=out_dir,
                                max_iterations=2000)
print("running %d experiment pairs (descent-only vs with-curvature)..." % len(pairs))
rows, table_path, failures_path = campaign(pairs, out_dir=out_dir)

print("\n%-16s %12s %12s %12s" % ("problem", "f_measure", "iter_measure",
                                  "feval_measure"))
for r in rows:
    print("%-16s %+12.4g %+12.4g %+12.4g"
          % (r.problem, r.f_measure, r.iter_measure, r.feval_measure))

print("\nmedians: f %+.3e, iterations %+.3f, fevals %+.3f"
      % (np.median([r.f_measure for r in rows]),
         np.median([r.iter_measure for r in rows]),
         np.median([r.feval_measure for r in rows])))
print("table written to %s" % table_path)
if failures_path is not None:
    print("failed runs listed in %s" % failures_path)
