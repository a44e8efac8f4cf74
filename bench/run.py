"""ncopt benchmark: closed-loop solver workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload det_campaign --seed 1 --seconds 40 --trace 0

``--workload all`` runs the three workloads in turn in one process.  The
library is imported from ./src, never from an installed copy.  Set-up is
repeated and timed (``setup_s`` is the median), then rounds of the
workload's solves run back to back until the next round would pass
``--seconds``.  Gated timings are calibrated by `workloads.Clock`; the raw
wall-clock ones are printed beside them.  With ``--trace 0`` the end-to-end
metrics are printed; with
``--trace 1`` untraced and traced rounds alternate and the per-layer
metrics come from the traced ones.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when any output check failed.  Metric definitions: METRICS.md.
"""

import os

# BLAS and OpenMP pools must be pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Clock  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
SETUP_REPEATS = 5
EIGEN_SIZES = (2, 5, 10, 49)

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "iters_per_s": ("1/s", "higher"),
    "solve_s.p50": ("s", "lower"),
    "solve_s.tail": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "iterations": ("iters", "lower"),
}


def _per_layer_table():
    table = {}
    for span in SPAN_NAMES:
        table[span + ".calls"] = ("calls/round", "lower")
        table[span + ".self_s"] = ("s/round", "lower")
        table[span + ".share"] = ("fraction", "lower")
    for n in EIGEN_SIZES:
        table["linalg.leftmost_eigenpair.us_per_call.n%d" % n] = ("us", "lower")
    table["linalg.truncated_cg.iters_per_call"] = ("iters", "lower")
    table["linalg.truncated_cg.negcurv_frac"] = ("fraction", "higher")
    for kind in ("value", "gradient", "hessian"):
        table["finite_sum.batch_%s.rows_per_call" % kind] = ("rows", "lower")
    table["finite_sum.oracle.us_per_draw"] = ("us", "lower")
    table["deterministic.inner_passes_per_iter"] = ("passes/iter", "lower")
    table["stochastic.reverted_frac"] = ("fraction", "lower")
    table["harness.bytes_written"] = ("B/round", "lower")
    table["trace.overhead"] = ("ratio", "lower")
    return table


PER_LAYER = _per_layer_table()


def fail(message):
    print("bench: " + message, file=sys.stderr)
    sys.exit(2)


def check_declared_metrics():
    """BENCHMARK.json must declare exactly the metrics this script prints."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            declared = json.load(handle)
    except (OSError, ValueError) as err:
        fail("cannot read %s: %s" % (path, err))
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        names = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
        if names != table:
            fail("BENCHMARK.json %s does not match bench/run.py" % key)
    if {w["name"] for w in declared["workloads"]} != set(WORKLOADS):
        fail("BENCHMARK.json workloads do not match bench/workloads.py")


def import_ncopt():
    """Import ncopt afresh from ./src and return its modules."""
    for name in [n for n in sys.modules if n == "ncopt" or n.startswith("ncopt.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        ncopt = importlib.import_module("ncopt")
    except ImportError as err:
        fail("cannot import ncopt from %s: %s" % (SRC, err))
    if not os.path.abspath(ncopt.__file__).startswith(SRC + os.sep):
        fail("ncopt was imported from %s, not from %s" % (ncopt.__file__, SRC))
    return types.SimpleNamespace(**{
        name: sys.modules["ncopt." + name]
        for name in ("problems", "finite_sum", "linalg", "steps", "deterministic",
                     "stochastic", "harness")
    })


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "system": "%s %s" % (platform.system(), platform.release()),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def run_round(workload, clock):
    """One round in a fresh output directory, removed afterwards."""
    out_dir = tempfile.mkdtemp(prefix=workload.name + "_", dir=WORK)
    try:
        return workload.run_round(out_dir, clock)
    finally:
        shutil.rmtree(out_dir)


def calibrated(solve):
    return solve.seconds * solve.speed


def calibrated_round(rnd):
    """Round time scaled by its solves' time-weighted speed factor."""
    wall = sum(s.seconds for s in rnd.solves)
    return rnd.seconds * sum(s.seconds * s.speed for s in rnd.solves) / wall


def mark_divergent(reference, rnd, why):
    """Fail every solve whose report differs from the reference round's."""
    expected = {s.label: s.fingerprint for s in reference.solves}
    for solve in rnd.solves:
        if solve.failure is None and solve.fingerprint != expected.get(solve.label):
            solve.failure = why


def percentile(values, pct):
    """Order statistic: the smallest value with at least pct% at or below."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def timing_metrics(workload, setups, rounds, solve_time, round_time):
    solves = [s for r in rounds for s in r.solves]
    times = [solve_time(s) for s in solves]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(round_time(r) for r in rounds),
        "iters_per_s": sum(s.iterations for s in solves) / sum(map(round_time, rounds)),
        "solve_s.p50": percentile(times, 50),
        "solve_s.tail": percentile(times, workload.tail_percentile),
    }


def end_to_end_metrics(workload, setups, rounds):
    solves = [s for r in rounds for s in r.solves]
    metrics = timing_metrics(workload, [s * f for s, f in setups], rounds,
                             calibrated, calibrated_round)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["iterations"] = sum(s.iterations for s in solves) / len(solves)
    return metrics


def outcome_metrics(workload, setups, rounds):
    """Numbers printed beside the metrics (NaN where undefined): the
    uncalibrated wall-clock timings and the solver outcomes."""
    first = rounds[0]
    solves = [s for r in rounds for s in r.solves]
    failed = sum(s.failure is not None for s in solves)
    fevals = [s.fevals for s in first.solves if s.fevals is not None]
    solved = [s.solved for s in first.solves if s.solved is not None]
    msg = [s.mean_sq_grad for s in first.solves if s.mean_sq_grad is not None]
    nan = float("nan")
    times = [calibrated(s) for s in solves]
    tail = percentile(times, workload.tail_percentile)
    raw = timing_metrics(workload, [s for s, _ in setups], rounds,
                         lambda s: s.seconds, lambda r: r.seconds)
    out = {"raw." + name: (value, END_TO_END[name][0]) for name, value in raw.items()}
    out["clock.speed_median"] = (statistics.median(s.speed for s in solves), "ratio")
    out.update({
        "failed_frac": (failed / len(solves), "fraction"),
        "fevals": (float(np.mean(fevals)) if fevals else nan, "evals"),
        "final_f_mean": (float(np.mean([s.final_f for s in first.solves])), "f"),
        "solved_frac": (float(np.mean(solved)) if solved else nan, "fraction"),
        "f_measure_median": (float(np.median(first.f_measures))
                             if first.f_measures else nan, "measure"),
        "iter_measure_median": (float(np.median(first.iter_measures))
                                if first.iter_measures else nan, "measure"),
        "mean_sq_grad": (float(np.mean(msg)) if msg else nan, "grad^2"),
        "rounds": (len(rounds), "count"),
        "solves": (len(solves), "count"),
        "solve_s.tail_percentile": (workload.tail_percentile, "%"),
        "solves_beyond_tail": (sum(t > tail for t in times), "count"),
    })
    for key, value in first.notes.items():
        out[key] = (value, "grad^2")
    return out


def _mean(values):
    return float(np.mean(values)) if values else 0.0


def per_layer_metrics(tracer, plain_rounds, traced_rounds):
    count = len(traced_rounds)
    wall = sum(r.seconds for r in traced_rounds)
    totals = tracer.layer_totals()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []}
    metrics = {}
    for span in SPAN_NAMES:
        entry = totals.get(span, empty)
        metrics[span + ".calls"] = entry["calls"] / count
        metrics[span + ".self_s"] = entry["self_s"] / count
        metrics[span + ".share"] = entry["self_s"] / wall
    eigen = totals.get("linalg.leftmost_eigenpair", empty)["notes"]
    for n in EIGEN_SIZES:
        metrics["linalg.leftmost_eigenpair.us_per_call.n%d" % n] = \
            1e6 * _mean([dt for size, dt in eigen if size == n])
    cg = totals.get("linalg.truncated_cg", empty)["notes"]
    metrics["linalg.truncated_cg.iters_per_call"] = _mean([it for (it, _), _ in cg])
    metrics["linalg.truncated_cg.negcurv_frac"] = _mean([neg for (_, neg), _ in cg])
    for kind in ("value", "gradient", "hessian"):
        notes = totals.get("finite_sum.batch_" + kind, empty)["notes"]
        metrics["finite_sum.batch_%s.rows_per_call" % kind] = \
            _mean([rows for rows, _ in notes])
    oracle = totals.get("finite_sum.oracle", empty)
    metrics["finite_sum.oracle.us_per_draw"] = \
        1e6 * oracle["total_s"] / oracle["calls"] if oracle["calls"] else 0.0
    solves = [s for r in traced_rounds for s in r.solves]
    accepted = sum(s.accepted_steps for s in solves)
    metrics["deterministic.inner_passes_per_iter"] = \
        sum(s.trial_evaluations for s in solves) / accepted if accepted else 0.0
    curvature = sum(s.curvature_steps for s in solves)
    metrics["stochastic.reverted_frac"] = \
        sum(s.reverted_steps for s in solves) / curvature if curvature else 0.0
    metrics["harness.bytes_written"] = _mean([r.bytes_written for r in traced_rounds])
    metrics["trace.overhead"] = wall / sum(r.seconds for r in plain_rounds)
    return metrics


def run_workload(name, seed, seconds, trace):
    """Set up, run and check one workload, print its metric lines and
    return its result object."""
    clock = Clock()
    setups = []                  # (wall seconds, speed factor)
    for _ in range(1 if trace else SETUP_REPEATS):
        clock.start()
        workload = WORKLOADS[name](import_ncopt(), seed)
        setups.append(clock.stop())
    os.makedirs(WORK, exist_ok=True)

    env = environment()
    print("# ncopt benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (name, seed, seconds, trace))
    print("# environment: " + json.dumps(env, sort_keys=True))

    plain, traced = [], []
    tracer = Tracer()
    counter_errors = []
    started = time.perf_counter()
    while True:
        rnd = run_round(workload, clock)
        if plain:
            mark_divergent(plain[0], rnd, "report differs from the first round")
        plain.append(rnd)
        spent = rnd.seconds
        if trace:
            # a span around the calibration kernel keeps its time out of the
            # self time of the harness calls it runs inside
            with tracer.installed(extra=[(clock, "_probe", "bench.calibration")]):
                rnd = run_round(workload, clock)
            mismatches = tracer.counter_mismatches()
            counter_errors += mismatches
            for solve in rnd.solves:
                if mismatches and solve.failure is None:
                    solve.failure = "traced calls disagree with problem counters"
            mark_divergent(plain[-1], rnd, "traced report differs from untraced")
            traced.append(rnd)
            spent += rnd.seconds
        if time.perf_counter() - started + spent > seconds:
            break

    rounds = plain + traced
    solves = [s for r in rounds for s in r.solves]
    failures = [s for s in solves if s.failure is not None]
    if trace:
        metrics = per_layer_metrics(tracer, plain, traced)
        units = {metric: unit for metric, (unit, _) in PER_LAYER.items()}
        tracer.write_csv(os.path.join(WORK, "spans_%s.csv" % name))
    else:
        metrics = end_to_end_metrics(workload, setups, plain)
        units = {metric: unit for metric, (unit, _) in END_TO_END.items()}
    outcomes = outcome_metrics(workload, setups, plain)

    for metric, value in metrics.items():
        print("%-48s %14.6g %s" % (metric, value, units[metric]))
    for metric, (value, unit) in outcomes.items():
        print("%-48s %14.6g %s   (outcome)" % (metric, value, unit))
    for solve in failures[:20]:
        print("# FAILED %s: %s" % (solve.label, solve.failure))
    for error in counter_errors[:20]:
        print("# TRACER COUNT MISMATCH %s" % error)

    correct = not failures and not counter_errors
    with open(os.path.join(WORK, "result_%s_trace%d.json" % (name, trace)), "w") as handle:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                   "environment": env, "setup_runs_s": setups,
                   "round_s": [r.seconds for r in rounds],
                   "solve_s": [[[s.label, s.seconds, s.speed] for s in r.solves]
                               for r in rounds],
                   "metrics": metrics,
                   "outcomes": {k: v for k, (v, _) in outcomes.items()},
                   "correct": correct}, handle, indent=2, sort_keys=True)
    return {
        "correct": correct,
        "attempted": len(solves),
        "failed": len(failures),
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn in this process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds positive")
    check_declared_metrics()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        # metric names are prefixed with their workload; peak_rss_mb is
        # process-wide, so later workloads include the earlier ones
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (name, metric): value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
