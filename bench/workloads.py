"""The benchmark's three workloads.

Each workload is built once from the imported ``ncopt`` modules and the
workload seed (the set-up that ``setup_s`` times), then runs closed-loop
rounds: one fixed list of solves, each started after the previous one
returns.  Every solve is timed by a `Clock` and checked; a failed check
marks the solve failed with the reason.  Why each workload exists is
recorded in METRICS.md.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np


_KERNEL_MATRIX = np.random.default_rng(0).normal(size=(10, 10))
_KERNEL_MATRIX = _KERNEL_MATRIX @ _KERNEL_MATRIX.T + np.eye(10)


def _calibration_kernel():
    """Fixed small workload that touches no ncopt code: small LAPACK
    solves, small vector operations and a scalar Python loop, the same mix
    the solvers run."""
    start = time.perf_counter()
    x = np.ones(10)
    acc = 0.0
    for _ in range(60):
        x = np.linalg.solve(_KERNEL_MATRIX, x)
        x = x / np.linalg.norm(x)
        q = 1.0
        for j in range(40):
            q = q * 0.999 + (j % 3) * 1e-3 - acc * 1e-9
        acc += float(x @ _KERNEL_MATRIX @ x) + q
    return time.perf_counter() - start


class Clock:
    """Wall-clock timer calibrated against a fixed reference kernel.

    On a shared VM the CPU's speed can move by 1.6x within seconds, which
    swamps the program's own changes.  So every timed interval is
    bracketed by runs of `_calibration_kernel`.  `stop` returns the
    interval's wall time and its speed factor: REFERENCE_S over the
    kernel's mean time around the interval.  Wall time times factor is the
    interval in seconds at the speed where the kernel takes REFERENCE_S.
    Time spent in the kernel is counted in `kernel_s`, so callers can keep
    it out of enclosing intervals.
    """

    REFERENCE_S = 1e-3

    def __init__(self):
        self.kernel_s = 0.0
        self._before = self._start = None

    def _probe(self):
        # without the cyclic collector, the kernel's time does not depend on
        # how many objects the solves left on the heap
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            runs = sorted(_calibration_kernel() for _ in range(3))
        finally:
            if enabled:
                gc.enable()
        self.kernel_s += time.perf_counter() - start
        return runs[1]

    def start(self):
        self._before = self._probe()
        self._start = time.perf_counter()

    def stop(self):
        seconds = time.perf_counter() - self._start
        after = self._probe()
        return seconds, 2.0 * self.REFERENCE_S / (self._before + after)


@dataclass
class Solve:
    label: str
    seconds: float               # wall time
    speed: float = 1.0           # Clock factor; calibrated time = seconds * speed
    iterations: int = 0
    fingerprint: str = ""
    failure: str | None = None
    final_f: float = float("nan")
    fevals: int | None = None
    solved: bool | None = None
    mean_sq_grad: float | None = None
    trial_evaluations: int = 0
    accepted_steps: int = 0
    curvature_steps: int = 0
    reverted_steps: int = 0


@dataclass
class Round:
    seconds: float               # wall time, calibration kernel excluded
    solves: list
    f_measures: list = field(default_factory=list)
    iter_measures: list = field(default_factory=list)
    bytes_written: int = 0
    notes: dict = field(default_factory=dict)


def _fingerprint(report):
    """Digest of every record field and the report's final values, so two
    reports digest equal only when they are bit-identical."""
    digest = hashlib.sha256()

    def feed(value):
        if isinstance(value, np.ndarray):
            digest.update(value.tobytes())
        else:
            digest.update(repr(getattr(value, "value", value)).encode())

    for record in report.records:
        for f in fields(record):
            feed(getattr(record, f.name))
    for name in ("final_f", "final_exact_f", "final_x", "termination_reason",
                 "total_fevals", "total_iterations"):
        if hasattr(report, name):
            feed(getattr(report, name))
    return digest.hexdigest()


def _written_summary_mismatch(paths, final_f, iterations):
    with open(paths["report"]) as handle:
        summary = json.load(handle)
    if summary["final_f"] != final_f or summary["total_iterations"] != iterations:
        return "written summary disagrees with the returned report"
    if not os.path.exists(paths["trace"]):
        return "trace CSV missing"
    return None


def _bytes_under(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _seed_sequences(seed, workload_index, count):
    return np.random.SeedSequence([seed, workload_index]).spawn(count)


def _int_seed(sequence):
    return int(sequence.generate_state(1)[0])


class DetCampaign:
    """Descent-only vs. curvature pairs of `standard_campaign_pairs` for both
    descent strategies over all registry problems, through
    `harness.campaign`; the workload seed sets the seeded starting points."""

    name = "det_campaign"
    max_iterations = 100
    min_curvature_rows = 5       # acceptance criterion 5
    tail_percentile = 94

    def __init__(self, nc, seed):
        self.nc = nc
        campaign_seed = _int_seed(_seed_sequences(seed, 0, 1)[0])
        self.pairs = [
            (strategy, nc.harness.standard_campaign_pairs(
                strategy=strategy, seed=campaign_seed,
                max_iterations=self.max_iterations))
            for strategy in ("sd", "mn")
        ]

    def run_round(self, out_dir, clock):
        harness = self.nc.harness
        inner = harness.run_experiment
        captured = []

        def timed_run(config):
            clock.start()
            try:
                report, paths = inner(config)
            except Exception as err:  # campaign records it and continues
                captured.append((strategy, config, clock.stop(), None, None,
                                 "raised %r" % err))
                raise
            captured.append((strategy, config, clock.stop(), report, paths, None))
            return report, paths

        kept = {}
        strategy = None              # read by timed_run at call time
        harness.run_experiment = timed_run
        try:
            start, kernel_s = time.perf_counter(), clock.kernel_s
            for strategy, pairs in self.pairs:
                kept[strategy], _, _ = harness.campaign(
                    pairs, out_dir=os.path.join(out_dir, strategy))
            seconds = time.perf_counter() - start - (clock.kernel_s - kernel_s)
        finally:
            harness.run_experiment = inner

        solves = []
        by_strategy = {}
        for strategy, config, (dt, speed), report, paths, failure in captured:
            solve = Solve(config.label, dt, speed, failure=failure)
            solves.append(solve)
            by_strategy.setdefault(strategy, []).append(solve)
            if report is None:
                continue
            records = report.records
            solve.iterations = report.total_iterations
            solve.fingerprint = _fingerprint(report)
            solve.final_f = report.final_f
            solve.fevals = report.total_fevals
            reason = report.termination_reason
            solve.solved = reason is not None and reason.value in (
                "tolerance_met", "second_order_point")
            accepted = [r for r in records if r.step_taken != "none"]
            solve.accepted_steps = len(accepted)
            solve.trial_evaluations = sum(r.inner_loop_count for r in accepted)
            if reason is None:
                solve.failure = "abnormal termination"
            elif any(b.f_value > a.f_value for a, b in zip(records, records[1:])):
                solve.failure = "f increased along accepted records"
            else:
                solve.failure = _written_summary_mismatch(
                    paths, report.final_f, report.total_iterations)

        result = Round(seconds, solves, bytes_written=_bytes_under(out_dir))
        for strategy, rows in kept.items():
            result.f_measures += [r.f_measure for r in rows]
            result.iter_measures += [r.iter_measure for r in rows]
            if len(rows) < self.min_curvature_rows:
                for solve in by_strategy.get(strategy, []):
                    if solve.failure is None:
                        solve.failure = ("%s campaign kept %d curvature rows, fewer "
                                         "than %d" % (strategy, len(rows),
                                                      self.min_curvature_rows))
        return result


class StochDynamicNet:
    """`stoch_dynamic` and its descent-only twin on the registry
    `two_layer_net`, through `harness.run_experiment` as `ncopt run` does;
    the workload seed sets each pair's start and oracle seed."""

    name = "stoch_dynamic_net"
    problem = "two_layer_net"
    pairs = 5
    iterations = 200
    batch_size = 32
    start_scale = 0.2            # spread of the registry problem's own start
    tail_percentile = 91

    def __init__(self, nc, seed):
        self.nc = nc
        dimension = nc.problems.make_problem(self.problem).dimension
        self.configs = []
        for i, sequence in enumerate(_seed_sequences(seed, 1, self.pairs)):
            start_seq, oracle_seq = sequence.spawn(2)
            x0 = np.random.default_rng(start_seq).normal(scale=self.start_scale,
                                                         size=dimension)
            for variant in ("stoch_dynamic_descent_only", "stoch_dynamic"):
                self.configs.append(nc.harness.ExperimentConfig(
                    variant=variant, problem=self.problem, start=x0,
                    seed=_int_seed(oracle_seq), batch_size=self.batch_size,
                    iterations=self.iterations, label="%s_%d" % (variant, i)))

    def run_round(self, out_dir, clock):
        run_experiment = self.nc.harness.run_experiment
        outcomes = []
        start, kernel_s = time.perf_counter(), clock.kernel_s
        for config in self.configs:
            clock.start()
            try:
                report, paths = run_experiment(replace(config, out_dir=out_dir))
                failure = None
            except Exception as err:
                report = paths = None
                failure = "raised %r" % err
            outcomes.append((config, clock.stop(), report, paths, failure))
        seconds = time.perf_counter() - start - (clock.kernel_s - kernel_s)

        result = Round(seconds, [], bytes_written=_bytes_under(out_dir))
        twins = {}
        for config, (dt, speed), report, paths, failure in outcomes:
            solve = Solve(config.label, dt, speed, failure=failure)
            result.solves.append(solve)
            if report is None:
                continue
            twins.setdefault(config.label.rsplit("_", 1)[1], {})[config.variant] = report
            solve.iterations = report.total_iterations
            solve.fingerprint = _fingerprint(report)
            solve.final_f = report.final_exact_f
            solve.mean_sq_grad = report.mean_square_gradient()
            solve.curvature_steps = sum(r.d_norm > 0.0 for r in report.records)
            solve.reverted_steps = sum(r.reverted_curvature_step for r in report.records)
            if config.variant == "stoch_dynamic" and not report.used_negative_curvature:
                solve.failure = "stoch_dynamic run never used negative curvature"
            else:
                solve.failure = _written_summary_mismatch(
                    paths, report.final_exact_f, report.total_iterations)
        for pair in twins.values():
            if len(pair) == 2:
                row = self.nc.harness.compare(pair["stoch_dynamic_descent_only"],
                                              pair["stoch_dynamic"])
                result.f_measures.append(row.f_measure)
                result.iter_measures.append(row.iter_measure)
        return result


class StochNoiseQuad:
    """Curvature-noise SGD (`two_step_stochastic_solve`) on a quadratic
    finite sum at the admissible constant step, called as a library; the
    workload seed sets the start, the moment probe and the oracle seeds."""

    name = "stoch_noise_quad"
    dimension = 10
    components = 20
    runs = 8
    iterations = 200
    batch_size = 2
    moment_draws = 10000         # as acceptance criterion 8
    tail_percentile = 87

    def __init__(self, nc, seed):
        self.nc = nc
        sequences = _seed_sequences(seed, 2, 2 + self.runs)
        problem = nc.finite_sum.random_quadratic_finite_sum(
            n=self.dimension, components=self.components)
        x0 = problem.default_start + np.random.default_rng(sequences[0]).normal(
            size=self.dimension)
        probe = nc.finite_sum.StochasticOracle(problem, batch_size=self.batch_size,
                                               seed=_int_seed(sequences[1]))
        moments = nc.stochastic.measure_moment_constants(probe, x0,
                                                         draws=self.moment_draws)
        L = problem.local_gradient_lipschitz
        alpha = nc.stochastic.admissible_constant_step(moments, L)
        self.step_config = nc.stochastic.StochasticStepConfig(
            alpha_constant=alpha, moment_bounds=moments, gradient_lipschitz=L)
        gap = problem.evaluate(x0) - problem.lower_bound
        self.bound = nc.stochastic.constant_step_mean_square_bound(
            moments, L, 1.0, alpha, self.iterations, gap)
        self.problem, self.x0 = problem, x0
        self.oracle_seeds = [_int_seed(s) for s in sequences[2:]]

    def run_round(self, out_dir, clock):
        stochastic, finite_sum = self.nc.stochastic, self.nc.finite_sum
        result = Round(0.0, [])
        start, kernel_s = time.perf_counter(), clock.kernel_s
        for i, seed in enumerate(self.oracle_seeds):
            solve = Solve("noise_%d" % i, 0.0)
            clock.start()
            try:
                oracle = finite_sum.StochasticOracle(
                    self.problem, batch_size=self.batch_size, seed=seed)
                report = stochastic.two_step_stochastic_solve(
                    oracle, self.step_config, self.iterations, x0=self.x0)
            except Exception as err:
                report = None
                solve.failure = "raised %r" % err
            solve.seconds, solve.speed = clock.stop()
            result.solves.append(solve)
            if report is not None:
                solve.iterations = report.total_iterations
                solve.fingerprint = _fingerprint(report)
                solve.final_f = report.final_exact_f
                solve.mean_sq_grad = report.mean_square_gradient()
        result.seconds = time.perf_counter() - start - (clock.kernel_s - kernel_s)

        means = np.array([s.mean_sq_grad for s in result.solves
                          if s.mean_sq_grad is not None])
        stderr = float(means.std(ddof=1) / np.sqrt(len(means))) if len(means) > 1 else 0.0
        result.notes = {"mean_sq_grad_bound": self.bound, "mean_sq_grad_se": stderr}
        if len(means) < 2 or means.mean() > self.bound + 3.0 * stderr:
            for solve in result.solves:
                if solve.failure is None:
                    solve.failure = ("mean square gradient %.4g above bound %.4g "
                                     "+ 3 SE %.2g" % (np.mean(means), self.bound, stderr))
        return result


WORKLOADS = {w.name: w for w in (DetCampaign, StochDynamicNet, StochNoiseQuad)}
