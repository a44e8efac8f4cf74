"""Every written file bit for bit: a committed sweep of experiment outputs.

Each case runs one configured experiment through `harness.run_experiment`
and digests the bytes of the JSON summary and the CSV trace it writes, so
a change that moves any key, key order, value, column or cell of either
file moves that file's digest.  Five cases end abnormally and pin the
partial summary and trace a failure leaves.  Every summary is strict JSON.  The digests are pinned for
one build of numpy, BLAS, LAPACK and libm; another build may round
differently and move them.  To rewrite the golden file after a change that
is meant to move written bytes, run

    PYTHONPATH=src python tests/test_written_files.py

and name every moved file, with the reason, where the change is recorded.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest

from ncopt.deterministic import SOLVER_FAILURES, TerminationSpec
from ncopt.harness import VARIANTS, ExperimentConfig, run_experiment
from ncopt.steps import LipschitzState

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "written_files.json")

PROBLEMS = ("quadratic_sum", "two_layer_net")
DETERMINISTIC_CAP = 20
STOCHASTIC_ITERATIONS = 20
# every entry of the exact gradient at the start is finite, its norm is
# not, so a finished stoch_two_step run fails in its exact norms
OVERFLOW_DATA = "0.5,-1,1\n2,0.3,-1\n-1,2,0.5\n1e200,1,2\n"
FUZZ_ROSENBROCK10_START = [
    -1.9521650302484699, 1.6518481131294627, 2.2118411738833137,
    0.20663952080444603, -1.800005171880425, 1.271499171743101,
    -0.9712460025646823, 0.3976264318258358, -0.38979768974654716,
    1.7795973192915269]


def configs(data_dir):
    """case id -> ExperimentConfig; the overflow dataset is written to
    `data_dir`."""
    table = {}
    for problem in PROBLEMS:
        for variant, row in VARIANTS.items():
            settings = dict(problem=problem, variant=variant, seed=3)
            if row.stochastic:
                settings.update(batch_size=2, iterations=STOCHASTIC_ITERATIONS)
            else:
                settings.update(termination=TerminationSpec(
                    max_iterations=DETERMINISTIC_CAP))
            settings.update({name: 0.01 for name in row.stepsizes})
            table["%s/%s" % (problem, variant)] = ExperimentConfig(**settings)
    # the descent stepsize overflows to inf at the first iterate
    table["abnormal/sphere/tiny_lipschitz"] = ExperimentConfig(
        problem="sphere", variant="dynamic_sd",
        lipschitz=LipschitzState(L_current=1e-320))
    # f overflows at the start, so the solve ends before its first record
    table["abnormal/rosenbrock2/overflowing_start"] = ExperimentConfig(
        problem="rosenbrock2", variant="dynamic_sd", start=np.array([1e200, 1e200]))
    data = os.path.join(data_dir, "overflow.csv")
    with open(data, "w") as handle:
        handle.write(OVERFLOW_DATA)
    table["abnormal/dataset/overflowing_exact_norms"] = ExperimentConfig(
        dataset=data, variant="stoch_two_step", seed=1, batch_size=2,
        iterations=1, alpha=0.01)
    # two fuzzed dynamic_mn runs: the first curvature stepsize is inf, which
    # ends the solve before it makes a trial point; the first curvature
    # model's reduction overflows to -inf
    table["abnormal/rosenbrock10/non_finite_trial_point"] = ExperimentConfig(
        problem="rosenbrock10", variant="dynamic_mn",
        start=np.array(FUZZ_ROSENBROCK10_START),
        termination=TerminationSpec(max_iterations=50),
        lipschitz=LipschitzState(3.186408192932628e+160, 1.2654246362055915e+296))
    table["abnormal/himmelblau/overflowing_curvature_reduction"] = ExperimentConfig(
        problem="himmelblau", variant="dynamic_mn",
        start=np.array([4.6976241215539634e-05, 9.62903531721935e-05]),
        termination=TerminationSpec(max_iterations=50),
        lipschitz=LipschitzState(1.1022417892103668e+234, 3.0680181324916967e-138))
    return table


def written_files(out_dir):
    """case id -> the (summary, trace) bytes its run writes to `out_dir`,
    and case id -> the type name of the solver failure it raised, if any."""
    files, failures = {}, {}
    for case, config in configs(out_dir).items():
        label = case.replace("/", "-")
        config = dataclasses.replace(config, out_dir=out_dir, label=label)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                run_experiment(config)
            except SOLVER_FAILURES as err:
                failures[case] = type(err).__name__
        files[case] = tuple(pathlib.Path(out_dir, label + ext).read_bytes()
                            for ext in (".json", ".csv"))
    return files, failures


def digests(files):
    """"case id.json" and "case id.csv" -> sha256 of that written file."""
    return {"%s%s" % (case, ext): hashlib.sha256(data).hexdigest()
            for case, pair in files.items()
            for ext, data in zip((".json", ".csv"), pair)}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    return written_files(str(tmp_path_factory.mktemp("written")))


def test_every_written_file_matches_the_golden_sweep(written):
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    found = digests(written[0])
    assert sorted(found) == sorted(golden)
    moved = sorted(name for name in golden if found[name] != golden[name])
    assert not moved, "%d of %d written files moved: %s" % (
        len(moved), len(golden), ", ".join(moved))


def _reject_constant(name):
    raise ValueError("%s is not JSON (RFC 8259)" % name)


def test_every_summary_is_strict_json(written):
    for summary, _ in written[0].values():
        json.loads(summary, parse_constant=_reject_constant)


def test_sweep_covers_every_variant_and_every_abnormal_end(written):
    files, failures = written
    assert {case.split("/")[1] for case in files
            if case.split("/")[0] in PROBLEMS} == set(VARIANTS)
    assert failures == {
        "abnormal/sphere/tiny_lipschitz": "ConditionViolation",
        "abnormal/rosenbrock2/overflowing_start": "EvaluationError",
        "abnormal/dataset/overflowing_exact_norms": "EvaluationError",
        "abnormal/rosenbrock10/non_finite_trial_point": "ConditionViolation",
        "abnormal/himmelblau/overflowing_curvature_reduction": "ConditionViolation",
    }
    for case in failures:
        summary = json.loads(files[case][0])
        assert summary["abnormal"] is True
        assert summary["error"]["type"] == failures[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out_dir:
        pins = digests(written_files(out_dir)[0])
    with open(GOLDEN, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
