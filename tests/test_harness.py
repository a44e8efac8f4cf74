import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from ncopt.deterministic import (
    SOLVER_FAILURES,
    InnerLoopStall,
    SolverReport,
    TerminationSpec,
)
from ncopt.harness import (
    CAMPAIGN_STARTS,
    CONFIG_KEYS,
    VARIANTS,
    ComparisonRow,
    ExperimentConfig,
    UsageError,
    _run_solver,
    campaign,
    compare,
    config_from_settings,
    load_report_summary,
    read_config_file,
    run_experiment,
    standard_campaign_pairs,
    validate_config,
    write_report_json,
    write_trace_csv,
)
from ncopt import deterministic
from ncopt.problems import list_problems, make_problem
from ncopt.steps import DESCENT_COSINE, LipschitzState
from ncopt.stochastic import LIPSCHITZ_INIT, StochasticStepConfig

DETERMINISTIC_VARIANTS = [name for name, row in VARIANTS.items()
                          if not row.stochastic]
# each constants object with one setting away from its default, and that
# setting's name
OFF_DEFAULT_CONSTANTS = {
    "termination": (TerminationSpec(grad_tol_rel=1e-3), "termination.grad_tol_rel"),
    "lipschitz": (LipschitzState(L_current=3.0), "lipschitz.l_init"),
    "safeguards": (LipschitzState(40.0, LIPSCHITZ_INIT.sigma_current),
                   "safeguards.l_init"),
}


class TestValidation:
    def test_unknown_variant(self):
        with pytest.raises(UsageError, match="variant"):
            validate_config(ExperimentConfig(variant="gradient_descent",
                                             problem="sphere"))

    def test_unknown_problem_lists_registry(self):
        with pytest.raises(UsageError, match="sphere"):
            validate_config(ExperimentConfig(problem="does_not_exist"))

    def test_stochastic_requires_seed(self):
        config = ExperimentConfig(variant="stoch_dynamic", problem="two_layer_net")
        with pytest.raises(UsageError, match="seed"):
            validate_config(config)

    @pytest.mark.parametrize("key, value, message", [
        ("iterations", 2.5, "iterations: iterations must be a positive integer"),
        ("seed", True, "seed: seed must be a nonnegative integer"),
        ("batch_size", 2.5, "batch_size: batch_size must be a positive integer"),
    ])
    def test_integer_settings_follow_the_integer_rule(self, tmp_path, key, value,
                                                      message):
        # each passed validation and ended in the solver's or oracle's bare
        # ValueError, with no report written
        settings = dict(variant="stoch_dynamic", problem="quadratic_sum",
                        batch_size=2, seed=1, iterations=2, out_dir=str(tmp_path))
        settings[key] = value
        with pytest.raises(UsageError, match="^%s$" % message):
            run_experiment(ExperimentConfig(**settings))
        assert not list(tmp_path.iterdir())

    def test_integral_float_settings_run_as_integers(self, tmp_path):
        for variant in ("stoch_dynamic", "dynamic_sd"):
            reports = [run_experiment(ExperimentConfig(
                variant=variant, problem="quadratic_sum", seed=seed,
                out_dir=str(tmp_path), label=str(seed),
                **(dict(batch_size=batch, iterations=iterations)
                   if variant == "stoch_dynamic" else {})))[0]
                for seed, batch, iterations in ((2, 2, 3), (2.0, 2.0, 3.0))]
            first, second = ([r.x.tobytes() for r in report.records]
                             for report in reports)
            assert first == second

    def test_integral_float_seed_is_written_as_the_int_it_ran(self, tmp_path):
        # a validated seed of 2.0 runs as 2, and its summary says 2, not 2.0
        for variant in ("stoch_dynamic", "dynamic_sd"):
            written = []
            for seed in (2, 2.0):
                out = tmp_path / ("%s_%r" % (variant, seed))
                _, paths = run_experiment(ExperimentConfig(
                    variant=variant, problem="quadratic_sum", seed=seed,
                    out_dir=str(out), label="run",
                    **(dict(batch_size=2, iterations=3)
                       if variant == "stoch_dynamic" else {})))
                with open(paths["report"], "rb") as handle:
                    written.append(handle.read())
            assert written[0] == written[1], variant
            seed = json.loads(written[1])["seed"]
            assert seed == 2 and type(seed) is int

    def test_two_step_requires_stepsizes(self):
        with pytest.raises(UsageError, match="alpha"):
            validate_config(ExperimentConfig(variant="two_step", problem="sphere"))

    @pytest.mark.parametrize("variant, settings", [
        ("two_step", dict(problem="sphere", beta=0.1)),
        ("stoch_two_step", dict(problem="quadratic_sum", seed=0, batch_size=2)),
    ])
    def test_fixed_stepsizes_follow_the_real_rule(self, tmp_path, variant,
                                                  settings):
        # an infinite alpha used to pass the harness and end in the
        # solver's bare ValueError, after making the output directory
        config = ExperimentConfig(variant=variant, alpha=math.inf,
                                  out_dir=str(tmp_path / "runs"), **settings)
        with pytest.raises(UsageError,
                           match="^alpha: alpha must be positive and finite$"):
            run_experiment(config)
        assert not list(tmp_path.iterdir())

    def test_every_criteria_field_is_a_setting(self):
        # every field of a constants object is a setting, so a library
        # caller's objects are checked like the INI keys; the direction
        # criteria are constants of the code, in no object
        nested = {f.name: f.default_factory()
                  for f in dataclasses.fields(ExperimentConfig)
                  if f.default_factory is not dataclasses.MISSING}
        assert set(nested) == set(OFF_DEFAULT_CONSTANTS)
        assert {"%s.%s" % (owner, f.name) for owner, constants in nested.items()
                for f in dataclasses.fields(constants)} \
            == {key.field for key in CONFIG_KEYS if "." in key.field}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_library_criteria_are_checked(self, tmp_path, variant):
        # a caller that builds a constants object sets no INI key, yet one
        # the variant does not read is rejected like its key
        stepsizes = {"two_step": dict(alpha=0.5, beta=0.5),
                     "stoch_two_step": dict(alpha=0.01)}.get(variant, {})
        unread = [owner for owner in OFF_DEFAULT_CONSTANTS
                  if owner not in VARIANTS[variant].reads]
        assert unread
        for owner in unread:
            constants, name = OFF_DEFAULT_CONSTANTS[owner]
            config = ExperimentConfig(variant=variant, problem="quadratic_sum",
                                      seed=0, out_dir=str(tmp_path),
                                      **{owner: constants}, **stepsizes)
            with pytest.raises(UsageError, match="^%s: %s ignores it$"
                               % (name, variant)):
                run_experiment(config)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", ["zeta", "eta", "gamma", "theta", "delta"])
    def test_criteria_without_a_key_are_checked_too(self, tmp_path, variant,
                                                     name):
        # the direction criteria are constants of the code: neither a
        # library caller nor a config file can set one, whatever the variant
        with pytest.raises(TypeError, match="criteria"):
            ExperimentConfig(variant=variant, criteria=None)
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nvariant = %s\n[criteria]\n%s = 1.0\n"
                        % (variant, name))
        with pytest.raises(UsageError, match="^criteria: unknown section"):
            _load(str(path))

    @pytest.mark.parametrize("cls, name, bad", [
        (TerminationSpec, "max_iterations", 2.5),
        (TerminationSpec, "max_iterations", float("nan")),
        (TerminationSpec, "max_iterations", True),
        (TerminationSpec, "grad_tol_rel", float("nan")),
        (LipschitzState, "L_current", float("nan")),
        (LipschitzState, "L_current", float("inf")),
        (LipschitzState, "sigma_current", float("nan")),
        (LipschitzState, "sigma_current", float("inf")),
        (StochasticStepConfig, "alpha_constant", float("nan")),
        (StochasticStepConfig, "alpha_constant", float("inf")),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_constants_objects_reject_what_the_keys_reject(self, cls, name, bad):
        # the INI path rejects these values when it parses them; a library
        # caller builds the object directly, and a NaN or fractional cap
        # would silently switch off a stop or a cap
        with pytest.raises(ValueError):
            cls(**{name: bad})

    def test_stochastic_needs_finite_sum_problem(self, tmp_path):
        config = ExperimentConfig(variant="stoch_dynamic", problem="sphere",
                                  seed=1, out_dir=str(tmp_path))
        with pytest.raises(UsageError, match="finite-sum"):
            run_experiment(config)


def _fingerprint(solve, theta=1.0):
    """Every record field and final value of a solve, or of the partial
    report of the failure that cut it short, with the failure's type and
    message; arrays count by their bytes, so two solves match only when
    they are bit-identical.  Each record's d is divided and its beta
    multiplied by theta, so a solve whose curvature direction was scaled by
    a power of two theta can match the unscaled one."""
    try:
        report, failure = solve(), None
    except SOLVER_FAILURES as err:
        report, failure = err.report, "%s: %s" % (type(err).__name__, err)

    def bits(value):
        return value.tobytes() if isinstance(value, np.ndarray) else repr(value)

    records = []
    for r in report.records:
        r = dataclasses.replace(r, d=r.d / theta,
                                beta=None if r.beta is None else r.beta * theta)
        records.append([bits(getattr(r, f.name)) for f in dataclasses.fields(r)])
    finals = [bits(getattr(report, name)) for name in (
        "termination_reason", "final_f", "final_gradient_norm", "final_lambda",
        "total_fevals", "total_iterations")]
    return failure, records, finals


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("variant", DETERMINISTIC_VARIANTS)
def test_criteria_outside_the_variant_row_change_no_registry_run(variant,
                                                                  monkeypatch):
    # the basis for fixing theta = 1: a curvature direction scaled by a
    # power of two theta, with the two-step beta scaled by 1/theta, moves no
    # bit of any registry run; the dynamic method's optimal beta undoes it
    build = deterministic.negative_curvature_direction
    base = ExperimentConfig(variant=variant, alpha=0.01, beta=0.1,
                            termination=TerminationSpec(max_iterations=100))
    for problem in list_problems():
        def fingerprint(theta):
            monkeypatch.setattr(deterministic, "negative_curvature_direction",
                                lambda eig, g: theta * build(eig, g))
            config = dataclasses.replace(base, problem=problem,
                                         beta=base.beta / theta)
            return _fingerprint(lambda: _run_solver(config, make_problem(problem),
                                                    None), theta)

        expected = fingerprint(1.0)
        for theta in (0.5, 2.0):
            assert fingerprint(theta) == expected, (problem, theta)


# what each variant runs, as its report's config echo states it: the
# method, the descent strategy and use_curvature (None where the solver
# echoes none); written out here so that a mistyped VARIANTS row fails
VARIANT_RUNS = {
    "two_step": ("deterministic", "two_step", "steepest", None),
    "dynamic_sd": ("deterministic", "dynamic", "steepest", True),
    "dynamic_mn": ("deterministic", "dynamic", "modified_newton", True),
    "dynamic_sd_descent_only": ("deterministic", "dynamic", "steepest", False),
    "dynamic_mn_descent_only": ("deterministic", "dynamic", "modified_newton",
                                False),
    "stoch_two_step": ("stochastic", "stochastic_two_step", None, None),
    "stoch_dynamic": ("stochastic", "stochastic_dynamic", None, True),
    "stoch_dynamic_descent_only": ("stochastic", "stochastic_dynamic", None,
                                   False),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_each_variant_runs_its_row(tmp_path, variant):
    stepsizes = {"two_step": dict(alpha=0.01, beta=0.1),
                 "stoch_two_step": dict(alpha=0.01)}.get(variant, {})
    kind = VARIANT_RUNS[variant][0]
    budget = (dict(seed=0, batch_size=2, iterations=3) if kind == "stochastic"
              else dict(termination=TerminationSpec(max_iterations=3)))
    config = ExperimentConfig(variant=variant, problem="quadratic_sum",
                              out_dir=str(tmp_path), **stepsizes, **budget)
    _, paths = run_experiment(config)
    summary = load_report_summary(paths["report"])
    echo = summary["config"]
    assert (summary["kind"], echo["method"], echo.get("strategy"),
            echo.get("use_curvature")) == VARIANT_RUNS[variant]


class TestRunExperiment:
    def test_dynamic_on_quartic_saddle(self, tmp_path):
        config = ExperimentConfig(variant="dynamic_sd", problem="quartic_saddle",
                                  start=np.array([0.0, 0.0]),
                                  out_dir=str(tmp_path))
        report, paths = run_experiment(config)
        summary = load_report_summary(paths["report"])
        assert summary["termination_reason"] == "tolerance_met"
        assert summary["final_f"] <= 1e-10
        assert summary["used_negative_curvature"] is True
        # trace has the fixed header and one line per record
        lines = open(paths["trace"]).read().strip().splitlines()
        assert lines[0] == "k,f,gnorm,lambda,alpha,beta,branch,Lk,sigmak,fevals"
        assert len(lines) == 1 + len(report.records)

    def test_descent_only_stalls_at_saddle(self, tmp_path):
        config = ExperimentConfig(variant="dynamic_sd_descent_only",
                                  problem="quartic_saddle",
                                  start=np.array([0.0, 0.0]),
                                  out_dir=str(tmp_path))
        report, paths = run_experiment(config)
        summary = load_report_summary(paths["report"])
        assert summary["total_iterations"] == 1
        assert summary["final_f"] == pytest.approx(0.25)
        assert summary["used_negative_curvature"] is False

    def test_stochastic_run_writes_reports(self, tmp_path):
        config = ExperimentConfig(variant="stoch_dynamic", problem="quadratic_sum",
                                  seed=3, iterations=40, batch_size=2,
                                  out_dir=str(tmp_path))
        report, paths = run_experiment(config)
        summary = load_report_summary(paths["report"])
        assert summary["kind"] == "stochastic"
        assert summary["seed"] == 3
        assert summary["total_iterations"] == 40

    @pytest.mark.parametrize("variant, alpha", [
        ("stoch_two_step", 0.01), ("stoch_dynamic", None),
        ("stoch_dynamic_descent_only", None)])
    def test_only_stoch_two_step_traces_exact_norms(self, tmp_path, variant,
                                                     alpha):
        # the two-step guarantee reads the exact norms, evaluated after the
        # solve; the dynamic traces carry sampled quantities only
        config = ExperimentConfig(variant=variant, problem="quadratic_sum", seed=0,
                                  batch_size=2, iterations=10, alpha=alpha,
                                  out_dir=str(tmp_path))
        report, paths = run_experiment(config)
        with open(paths["trace"], newline="") as handle:
            gnorms = [row["gnorm"] for row in csv.DictReader(handle)]
        if VARIANTS[variant].exact_norms:
            assert gnorms == ["%.17g" % v for v in report.exact_gradient_norms()]
        else:
            assert gnorms == [""] * 10

    @pytest.mark.parametrize("variant, alpha, fevals", [
        # per iteration an estimate at x and at x_hat, plus one per
        # curvature trial (8 here), then the final exact f
        ("stoch_dynamic", None, 30 + 30 + 8 + 1),
        # per iteration an estimate at x, then the final exact f
        ("stoch_two_step", 0.01, 30 + 1),
    ])
    def test_stochastic_total_fevals_counts_every_value(self, tmp_path, variant,
                                                        alpha, fevals):
        config = ExperimentConfig(variant=variant, problem="quadratic_sum", seed=0,
                                  batch_size=2, iterations=30, alpha=alpha,
                                  out_dir=str(tmp_path))
        report, paths = run_experiment(config)
        if variant == "stoch_dynamic":
            assert sum(r.d_norm > 0.0 for r in report.records) == 8
        assert report.total_fevals == fevals
        assert load_report_summary(paths["report"])["total_fevals"] == fevals

    def test_two_step_variant(self, tmp_path):
        config = ExperimentConfig(variant="two_step", problem="sphere",
                                  alpha=0.5, beta=0.1, out_dir=str(tmp_path))
        report, paths = run_experiment(config)
        summary = load_report_summary(paths["report"])
        assert summary["termination_reason"] in ("tolerance_met", "second_order_point")

    def test_partial_trace_written_on_inner_loop_stall(self, tmp_path, monkeypatch):
        partial = SolverReport(problem_name="sphere")
        from ncopt.deterministic import IterationRecord
        partial.records.append(IterationRecord(
            index=1, x=np.zeros(2), f_value=1.0, gradient_norm=1.0, lam=1.0,
            s=np.zeros(2), d=np.zeros(2), step_taken="none",
        ))
        partial.finish(None)

        def boom(config, problem, x0):
            err = InnerLoopStall("stalled")
            err.report = partial
            raise err

        monkeypatch.setattr("ncopt.harness._run_solver", boom)
        config = ExperimentConfig(variant="dynamic_sd", problem="sphere",
                                  out_dir=str(tmp_path), label="stalled")
        with pytest.raises(InnerLoopStall):
            run_experiment(config)
        summary = json.loads((tmp_path / "stalled.json").read_text())
        assert summary["abnormal"] is True
        assert summary["error"] == {"type": "InnerLoopStall", "message": "stalled"}
        assert (tmp_path / "stalled.csv").exists()


class TestCompare:
    def _summary(self, problem="quartic_saddle", f=0.25, its=10, evals=20, nc=True):
        return {"problem": problem, "final_f": f, "total_iterations": its,
                "total_fevals": evals, "used_negative_curvature": nc}

    def test_f_measure_example(self):
        row = compare(self._summary(f=0.25), self._summary(f=0.0))
        assert row.f_measure == pytest.approx(0.25)

    def test_identical_reports_all_zero(self):
        row = compare(self._summary(), self._summary())
        assert (row.f_measure, row.iter_measure, row.feval_measure) == (0.0, 0.0, 0.0)

    def test_iteration_measure_example(self):
        row = compare(self._summary(its=100), self._summary(its=50))
        assert row.iter_measure == pytest.approx(0.5)

    def test_mismatched_problems_rejected(self):
        with pytest.raises(ValueError):
            compare(self._summary(problem="a"), self._summary(problem="b"))

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_abnormal_report_rejected(self, which):
        # an abnormal stochastic report has no final f to compare
        reports = {"a": self._summary(), "b": self._summary()}
        reports[which].update(abnormal=True, final_f=None)
        with pytest.raises(ValueError, match="report %s is abnormal" % which):
            compare(reports["a"], reports["b"])

    def test_mixed_kinds_rejected(self, tmp_path):
        # a stochastic run's fevals count value estimates, not f evaluations
        common = dict(problem="quadratic_sum", seed=1, out_dir=str(tmp_path))
        _, stochastic = run_experiment(ExperimentConfig(
            variant="stoch_dynamic", batch_size=2, iterations=20, **common))
        _, deterministic = run_experiment(ExperimentConfig(variant="dynamic_sd",
                                                           **common))
        with pytest.raises(ValueError, match="stochastic vs deterministic"):
            compare(load_report_summary(stochastic["report"]),
                    load_report_summary(deterministic["report"]))

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = self._summary(f=float(rng.normal()), its=int(rng.integers(1, 500)),
                              evals=int(rng.integers(1, 500)))
            b = self._summary(f=float(rng.normal()), its=int(rng.integers(1, 500)),
                              evals=int(rng.integers(1, 500)))
            fwd = compare(a, b)
            rev = compare(b, a)
            assert fwd.f_measure == pytest.approx(-rev.f_measure)
            assert fwd.iter_measure == pytest.approx(-rev.iter_measure)
            assert fwd.feval_measure == pytest.approx(-rev.feval_measure)

    def test_measures_in_documented_ranges(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = self._summary(f=float(rng.normal(scale=100.0)),
                              its=int(rng.integers(1, 5000)),
                              evals=int(rng.integers(1, 5000)))
            b = self._summary(f=float(rng.normal(scale=100.0)),
                              its=int(rng.integers(1, 5000)),
                              evals=int(rng.integers(1, 5000)))
            row = compare(a, b)
            assert -2.0 <= row.f_measure <= 2.0
            assert -1.0 <= row.iter_measure <= 1.0
            assert -1.0 <= row.feval_measure <= 1.0


class StandInReport:
    """Neither report class: only what the harness may ask of a report."""

    trace_columns = ("k", "loss", "note")

    def __init__(self, final_f):
        self.final_f = final_f

    def summary(self, abnormal):
        return {"problem": "stand_in", "abnormal": abnormal, "final_f": self.final_f,
                "total_iterations": 2, "total_fevals": 3,
                "used_negative_curvature": True}

    def trace_rows(self, gradient_norms):
        norms = gradient_norms or (None, None)
        return [(1, 0.5, norms[0]), (2, self.final_f, norms[1])]


class TestReportProtocol:
    """The harness writes and compares whatever a report gives, whatever
    its type."""

    def test_summary_gains_only_error_variant_and_seed(self, tmp_path):
        path = write_report_json(StandInReport(0.25), str(tmp_path / "r.json"),
                                 ExperimentConfig(variant="dynamic_sd", seed=4),
                                 error=InnerLoopStall("stalled"))
        assert load_report_summary(path) == {
            "problem": "stand_in", "abnormal": True, "final_f": 0.25,
            "total_iterations": 2, "total_fevals": 3,
            "used_negative_curvature": True,
            "error": {"type": "InnerLoopStall", "message": "stalled"},
            "variant": "dynamic_sd", "seed": 4,
        }
        assert list(load_report_summary(path))[-3:] == ["error", "variant", "seed"]

    def test_trace_is_the_reports_header_and_rows(self, tmp_path):
        path = write_trace_csv(StandInReport(0.25), str(tmp_path / "t.csv"),
                               [1.5, None])
        with open(path, newline="") as handle:
            assert list(csv.reader(handle)) == [
                ["k", "loss", "note"], ["1", "0.5", "1.5"], ["2", "0.25", ""]]

    def test_compare_reads_the_reports_summary(self):
        row = compare(StandInReport(0.5), StandInReport(0.25))
        assert (row.problem, row.f_measure, row.iter_measure) == ("stand_in", 0.25, 0.0)
        assert row.used_negative_curvature is True
        with pytest.raises(ValueError, match="report a: not a report summary"):
            compare(object(), StandInReport(0.25))


class TestCampaign:
    def test_single_pair_yields_one_row(self, tmp_path):
        pairs = standard_campaign_pairs(out_dir=str(tmp_path),
                                        problems=["quartic_saddle"],
                                        max_iterations=500)
        rows, table_path, plots = campaign(pairs, out_dir=str(tmp_path))
        assert len(rows) == 1
        assert rows[0].used_negative_curvature
        table = open(table_path).read().strip().splitlines()
        assert len(table) == 2
        assert set(plots) >= {"f_diff", "iterates", "fevals"}

    def test_no_curvature_suite_warns_and_writes_empty_table(self, tmp_path):
        pairs = standard_campaign_pairs(out_dir=str(tmp_path),
                                        problems=["sphere"], max_iterations=200)
        with pytest.warns(UserWarning, match="negative curvature"):
            rows, table_path, _ = campaign(pairs, out_dir=str(tmp_path))
        assert rows == []
        table = open(table_path).read().strip().splitlines()
        assert len(table) == 1  # header only

    def test_rows_sorted_by_f_measure(self, tmp_path):
        pairs = standard_campaign_pairs(
            out_dir=str(tmp_path), max_iterations=400,
            problems=["quartic_saddle", "himmelblau", "rastrigin"],
        )
        rows, _, _ = campaign(pairs, out_dir=str(tmp_path))
        values = [r.f_measure for r in rows]
        assert values == sorted(values, reverse=True)

    def test_campaign_is_deterministic(self, tmp_path):
        outputs = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            pairs = standard_campaign_pairs(out_dir=out,
                                            problems=["quartic_saddle"],
                                            max_iterations=300)
            _, table_path, _ = campaign(pairs, out_dir=out)
            outputs.append(open(table_path).read())
        assert outputs[0] == outputs[1]

    def test_seed_goes_only_to_problems_without_a_start(self):
        for pair in standard_campaign_pairs(seed=7):
            for config in pair:
                assert config.seed == (7 if config.start is None else None)
        with pytest.raises(UsageError, match="seed"):
            standard_campaign_pairs(seed=-1, problems=["quartic_saddle"])

    def test_empty_suite_rejected(self):
        with pytest.raises(UsageError):
            campaign([])
        # only None means the whole suite
        for empty in ([], ()):
            with pytest.raises(UsageError, match="^problems: "):
                standard_campaign_pairs(problems=empty)

    @pytest.mark.parametrize("error, recorded", [
        (InnerLoopStall("stalled"), True),
        (UsageError("problem: bad"), True),
        (TypeError("a bug"), False),
    ])
    def test_only_run_failures_become_rows(self, tmp_path, monkeypatch, error,
                                           recorded):
        # the errors `ncopt run` maps to exit codes are data; a bug is not
        def raising(config):
            raise error

        monkeypatch.setattr("ncopt.harness.run_experiment", raising)
        pairs = standard_campaign_pairs(out_dir=str(tmp_path),
                                        problems=["quartic_saddle"])
        if not recorded:
            with pytest.raises(TypeError, match="a bug"):
                campaign(pairs, out_dir=str(tmp_path))
            return
        with pytest.warns(UserWarning, match="negative curvature"):
            rows, _, plots = campaign(pairs, out_dir=str(tmp_path))
        assert rows == []
        failures = (tmp_path / "failures.csv").read_text().splitlines()
        assert plots["failures"] == str(tmp_path / "failures.csv")
        assert failures == ["problem,error", "quartic_saddle,%s" % repr(error)]


def _load(path):
    return config_from_settings(read_config_file(path))


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[experiment]\n"
            "problem = quartic_saddle\n"
            "variant = dynamic_sd\n"
            "seed = 9\n"
            "start = 0.0, 0.0\n"
            "[termination]\n"
            "max_iterations = 77\n"
            "[lipschitz]\n"
            "l_init = 2.5\n"
        )
        config = _load(str(path))
        assert config.problem == "quartic_saddle"
        assert config.seed == 9
        assert config.termination.max_iterations == 77
        assert config.lipschitz.L_current == 2.5
        np.testing.assert_array_equal(config.start, [0.0, 0.0])

    def test_missing_file(self):
        with pytest.raises(UsageError):
            _load("/nonexistent/x.cfg")

    def test_safeguards_and_shared_key_names(self, tmp_path):
        # l_init and sigma_init name a field in both sections
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[lipschitz]\n"
            "l_init = 2.5\n"
            "sigma_init = 3.5\n"
            "[safeguards]\n"
            "L_INIT = 40\n"
            "sigma_init = 60\n"
        )
        config = _load(str(path))
        assert (config.lipschitz.L_current, config.lipschitz.sigma_current) == (2.5, 3.5)
        assert config.safeguards == LipschitzState(40.0, 60.0)

    def test_criteria_start_from_the_variant(self, tmp_path):
        # the variant's strategy alone fixes the descent cosine its steps
        # are certified at; no setting changes it
        path = tmp_path / "exp.cfg"
        path.write_text("[experiment]\nvariant = dynamic_mn\n")
        config = _load(str(path))
        assert DESCENT_COSINE[VARIANTS[config.variant].strategy] == 1e-8
        assert {row.strategy for row in VARIANTS.values()} == set(DESCENT_COSINE)

    @pytest.mark.parametrize("text, key", [
        ("[termnation]\nmax_iterations = 5\n", "termnation: unknown section"),
        ("[DEFAULT]\nseed = 1\n", "DEFAULT: unknown section"),
        ("[experiment]\nsed = 1\n", "experiment.sed: unknown key"),
        ("[experiment]\nseed = 1\nseed = 2\n", "config"),
        ("[experiment]\ndataset_has_header = maybe\n", "experiment.dataset_has_header"),
        # keys of module constants are unknown
        ("[lipschitz]\nrho = 1\n", "lipschitz.rho"),
        ("[lipschitz]\nl_init = nan\n", "lipschitz.l_init"),
        ("[experiment]\nstart = 1, inf\n", "experiment.start"),
        ("[safeguards]\ninflate_factor = 1\n", "safeguards.inflate_factor"),
        ("[termination]\nmin_step_norm = 0\n", "termination.min_step_norm"),
    ])
    def test_bad_file_names_the_key(self, tmp_path, text, key):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        with pytest.raises(UsageError, match=key):
            _load(str(path))

    def test_settings_are_parsed_and_checked(self):
        config = config_from_settings({"termination.max_iterations": "5",
                                       "experiment.dataset_has_header": True})
        assert config.termination == TerminationSpec(max_iterations=5)
        assert config.dataset_has_header is True
        with pytest.raises(UsageError, match="termination.max_iterations"):
            config_from_settings({"termination.max_iterations": "0"})


def test_campaign_starts_cover_registry():
    from ncopt.problems import list_problems

    assert set(CAMPAIGN_STARTS) == set(list_problems())
