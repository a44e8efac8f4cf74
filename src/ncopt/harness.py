"""Experiment harness: configured runs, comparison measures, campaigns.

A report gives its JSON summary's fields, `summary(abnormal)`, and its CSV
trace's header and rows, `trace_columns` and `trace_rows(gradient_norms)`;
the harness writes them, floats to 17 significant digits so reruns diff bit
for bit, adds only the error, variant and seed, and asks no report its type.
Comparisons pair a descent-only run (a) against a curvature-enabled run (b)
on the same problem and report the three relative measures (objective gap,
iterations, function evaluations).
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import numbers
import os
import warnings
from dataclasses import astuple, dataclass, field, fields, replace
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from ncopt.deterministic import (
    SOLVER_FAILURES,
    TerminationSpec,
    dynamic_solve,
    two_step_solve,
)
from ncopt.finite_sum import FiniteSumProblem, StochasticOracle, load_dataset
from ncopt.problems import integer_argument, list_problems, make_problem, real_argument
from ncopt.steps import LipschitzState
from ncopt.stochastic import (
    LIPSCHITZ_INIT,
    StochasticStepConfig,
    dynamic_stochastic_solve,
    two_step_stochastic_solve,
)


class Variant(NamedTuple):
    """A solver variant: its descent strategy; whether it takes curvature
    steps and samples a finite sum; the settings that can change its run;
    the fixed stepsizes it needs; whether its trace carries the exact
    gradient norms of a stochastic solve, evaluated after the solve.  No
    row holds a solver, so rebinding a solver's name here reaches every
    run."""

    strategy: str
    use_curvature: bool
    stochastic: bool
    reads: tuple
    stepsizes: tuple = ()
    exact_norms: bool = False


# `reads`: the sections and keys that can change the variant's run, beyond
# `_EVERY_RUN_READS` and the seed and dataset keys `validate_config` adds;
# any other key set away from its default is a usage error
_DYNAMIC = ("termination", "lipschitz")
_SAMPLED = ("experiment.batch_size", "experiment.iterations")
VARIANTS = {
    "two_step": Variant("steepest", True, False, (
        "termination", "experiment.alpha", "experiment.beta"), ("alpha", "beta")),
    "dynamic_sd": Variant("steepest", True, False, _DYNAMIC),
    "dynamic_mn": Variant("modified_newton", True, False, _DYNAMIC),
    "dynamic_sd_descent_only": Variant("steepest", False, False, _DYNAMIC),
    "dynamic_mn_descent_only": Variant("modified_newton", False, False, _DYNAMIC),
    # the two-step method's mean-square guarantee reads the exact norms
    "stoch_two_step": Variant("steepest", True, True,
                              ("experiment.alpha",) + _SAMPLED, ("alpha",),
                              exact_norms=True),
    "stoch_dynamic": Variant("steepest", True, True, ("safeguards",) + _SAMPLED),
    "stoch_dynamic_descent_only": Variant("steepest", False, True,
                                          ("safeguards",) + _SAMPLED),
}

OUTPUT_DIR_ENV = "NCOPT_OUTPUT_DIR"


class UsageError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass
class ExperimentConfig:
    variant: str = "dynamic_sd"
    problem: str | None = None
    dataset: str | None = None
    dataset_has_header: bool = False
    dataset_model: str = "linear"
    start: np.ndarray | None = None
    seed: int | None = None
    termination: TerminationSpec = field(default_factory=TerminationSpec)
    lipschitz: LipschitzState = field(default_factory=LipschitzState)
    alpha: float | None = None
    beta: float | None = None
    batch_size: int = 32
    iterations: int = 1000
    # the first constants of the stoch_dynamic* variants
    safeguards: LipschitzState = field(default_factory=lambda: replace(LIPSCHITZ_INIT))
    out_dir: str | None = None
    label: str | None = None

    def resolved_out_dir(self):
        return self.out_dir or os.environ.get(OUTPUT_DIR_ENV, "ncopt_runs")


def parse_boolean(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[str(text).strip().lower()]
    except KeyError:
        raise ValueError("expected true/false, yes/no, on/off or 1/0, got %r"
                         % text) from None


def _real(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("expected a finite number, got %r" % text)
    return value


def _vector(text):
    return np.array([_real(v) for v in text.split(",")])


class ConfigKey(NamedTuple):
    """An INI key, the ExperimentConfig field it sets ("owner.attr" for a
    nested constant), how its text is parsed, and the `ncopt run` flag, if
    any, that overrides it."""

    section: str
    key: str
    field: str
    parse: Callable
    flag: str | None = None
    help: str | None = None

    @property
    def name(self):
        return "%s.%s" % (self.section, self.key)


# the one place that says which INI key and which `ncopt run` flag set which
# ExperimentConfig field; `config_from_settings` and the CLI both read it
CONFIG_KEYS = (
    ConfigKey("experiment", "variant", "variant", str, "--variant",
              "solver variant: " + ", ".join(VARIANTS)),
    ConfigKey("experiment", "problem", "problem", str, "--problem",
              "registered problem name"),
    ConfigKey("experiment", "dataset", "dataset", str, "--dataset",
              "CSV dataset path (last column = label)"),
    ConfigKey("experiment", "dataset_model", "dataset_model", str),
    ConfigKey("experiment", "dataset_has_header", "dataset_has_header",
              parse_boolean, "--dataset-header", "dataset file has a header row"),
    ConfigKey("experiment", "label", "label", str, "--label", "output file label"),
    ConfigKey("experiment", "out", "out_dir", str, "--out", "output directory"),
    ConfigKey("experiment", "seed", "seed", int, "--seed",
              "random seed (required for stochastic)"),
    ConfigKey("experiment", "alpha", "alpha", _real, "--alpha",
              "fixed/constant stepsize"),
    ConfigKey("experiment", "beta", "beta", _real, "--beta",
              "fixed curvature stepsize"),
    ConfigKey("experiment", "batch_size", "batch_size", int, "--batch-size",
              "mini-batch size"),
    ConfigKey("experiment", "iterations", "iterations", int, "--iterations",
              "stochastic iteration budget"),
    ConfigKey("experiment", "start", "start", _vector, "--start",
              "comma-separated starting point"),
    ConfigKey("termination", "grad_tol_rel", "termination.grad_tol_rel", _real,
              "--grad-tol", "relative gradient tolerance"),
    ConfigKey("termination", "curv_tol_rel", "termination.curv_tol_rel", _real),
    ConfigKey("termination", "max_iterations", "termination.max_iterations", int,
              "--max-iters", "iteration cap"),
    ConfigKey("lipschitz", "l_init", "lipschitz.L_current", _real),
    ConfigKey("lipschitz", "sigma_init", "lipschitz.sigma_current", _real),
    ConfigKey("safeguards", "l_init", "safeguards.L_current", _real),
    ConfigKey("safeguards", "sigma_init", "safeguards.sigma_current", _real),
)
_CONFIG_KEYS_BY_NAME = {key.name: key for key in CONFIG_KEYS}
_CONFIG_SECTIONS = tuple(dict.fromkeys(key.section for key in CONFIG_KEYS))
_EVERY_RUN_READS = ("experiment.variant", "experiment.problem",
                    "experiment.dataset", "experiment.label", "experiment.out",
                    "experiment.start")
_IGNORED_HINTS = {
    "termination.max_iterations": "; its budget is experiment.iterations",
    "experiment.iterations": "; its cap is termination.max_iterations",
    "experiment.seed": " when experiment.start is set",
    "experiment.dataset_model": " without experiment.dataset",
    "experiment.dataset_has_header": " without experiment.dataset",
}


def _setting(rule, name, *args):
    """The library's argument `rule` (`problems.integer_argument` or
    `problems.real_argument`) for a setting, as a UsageError naming it."""
    try:
        rule(name, *args)
    except ValueError as err:
        raise UsageError("%s: %s" % (name, err)) from None


def validate_config(config):
    if config.variant not in VARIANTS:
        raise UsageError("variant: unknown %r (choose from %s)"
                         % (config.variant, ", ".join(VARIANTS)))
    row = VARIANTS[config.variant]
    if config.problem is None and config.dataset is None:
        raise UsageError("problem: either a problem name or a dataset path is required")
    if config.problem is not None and config.dataset is not None:
        raise UsageError("dataset: a problem name and a dataset path are both "
                         "set; give one")
    if config.problem is not None and config.problem not in list_problems():
        raise UsageError(
            "problem: unknown %r; available: %s"
            % (config.problem, ", ".join(list_problems()))
        )
    if config.seed is not None:
        _setting(integer_argument, "seed", config.seed, 0)
    if row.stochastic:
        if config.seed is None:
            raise UsageError("seed: stochastic variants need an explicit seed")
        _setting(integer_argument, "iterations", config.iterations, 1)
        _setting(integer_argument, "batch_size", config.batch_size, 1)
    reads = row.reads + _EVERY_RUN_READS
    # a deterministic variant draws its start from the seed only when no
    # start is given, and the dataset keys need a dataset
    if row.stochastic or config.start is None:
        reads += ("experiment.seed",)
    if config.dataset is not None:
        reads += ("experiment.dataset_model", "experiment.dataset_has_header")
    default = ExperimentConfig()
    for key in CONFIG_KEYS:
        setting = attrgetter(key.field)
        if key.name not in reads and key.section not in reads and \
                setting(config) != setting(default):
            raise UsageError("%s: %s ignores it%s" % (
                key.name, config.variant, _IGNORED_HINTS.get(key.name, "")))
    for name in row.stepsizes:
        _setting(real_argument, name, getattr(config, name))


def build_problem(config):
    if config.dataset is not None:
        try:
            return load_dataset(config.dataset, has_header=config.dataset_has_header,
                                model=config.dataset_model)
        except (OSError, ValueError) as err:
            raise UsageError("dataset: %s" % err) from None
    return make_problem(config.problem)


def starting_point(config, problem):
    if config.start is not None:
        x0 = np.asarray(config.start, dtype=float)
        if x0.shape != (problem.dimension,):
            raise UsageError("start: dimension %d does not match problem dimension %d"
                             % (x0.size, problem.dimension))
        return x0
    if config.seed is not None and not VARIANTS[config.variant].stochastic:
        # validated integral; a float seed such as 2.0 draws seed 2's start
        rng = np.random.default_rng(int(config.seed))
        return problem.default_start + rng.uniform(-0.5, 0.5, problem.dimension)
    return problem.default_start.copy()


def _run_solver(config, problem, x0):
    row = VARIANTS[config.variant]
    if row.stochastic:
        oracle = StochasticOracle(problem, batch_size=config.batch_size,
                                  seed=config.seed)
        if row.stepsizes:
            return two_step_stochastic_solve(
                oracle, StochasticStepConfig(alpha_constant=config.alpha),
                config.iterations, x0=x0)
        return dynamic_stochastic_solve(
            oracle, config.safeguards, iterations=config.iterations, x0=x0,
            use_curvature=row.use_curvature)
    if row.stepsizes:
        return two_step_solve(problem, alpha=config.alpha, beta=config.beta,
                              termination=config.termination, x0=x0)
    return dynamic_solve(
        problem, strategy=row.strategy, lipschitz_init=config.lipschitz,
        termination=config.termination, x0=x0, use_curvature=row.use_curvature)


def run_experiment(config):
    """Execute one configured solve and write its report and trace.

    Returns (report, paths).  When a solver failure carries a partial
    report, that report (marked abnormal, with the error's type and
    message) and its trace are still written before the exception
    propagates.  So is a finished stochastic report whose exact gradient
    norms, evaluated after the solve for a variant that reads them, fail.
    """
    validate_config(config)
    problem = build_problem(config)
    if VARIANTS[config.variant].stochastic:
        if not isinstance(problem, FiniteSumProblem):
            raise UsageError("problem: stochastic variants need a finite-sum problem")
        if config.batch_size > problem.component_count:
            raise UsageError("batch_size: %d exceeds the problem's %d components"
                             % (config.batch_size, problem.component_count))
    x0 = starting_point(config, problem)
    out_dir = config.resolved_out_dir()
    os.makedirs(out_dir, exist_ok=True)
    label = config.label or "%s_%s" % (problem.name, config.variant)
    paths = {
        "report": os.path.join(out_dir, label + ".json"),
        "trace": os.path.join(out_dir, label + ".csv"),
    }
    report = gradient_norms = None
    try:
        report = _run_solver(config, problem, x0)
        if VARIANTS[config.variant].exact_norms:
            gradient_norms = report.exact_gradient_norms()
    except SOLVER_FAILURES as err:
        # a solver failure carries its partial report; a failure of the
        # exact norms leaves the finished one
        report = getattr(err, "report", report)
        if report is not None:
            write_report_json(report, paths["report"], config, error=err)
            write_trace_csv(report, paths["trace"])
        raise
    write_report_json(report, paths["report"], config)
    write_trace_csv(report, paths["trace"], gradient_norms)
    return report, paths


def report_summary(report, config=None, error=None):
    """A report's `summary`, plus the `error` that cut it short, variant and
    seed; the seed is written as the int the run used, 2 for a validated
    2.0."""
    summary = report.summary(error is not None)
    if error is not None:
        summary["error"] = {"type": type(error).__name__, "message": str(error)}
    if config is not None:
        summary["variant"] = config.variant
        summary["seed"] = None if config.seed is None else int(config.seed)
    return summary


def write_report_json(report, path, config=None, error=None):
    # encoded whole, then written once
    text = json.dumps(report_summary(report, config, error), indent=2,
                      default=float)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


def _cell(value):
    """A CSV cell: a float to 17 significant digits, None empty, else as is."""
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return "" if value is None else value


def _write_csv(path, header, rows):
    """Write the header and rows as a CSV file of `_cell`s; returns path.
    Every CSV file the harness writes goes through here."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([list(map(_cell, row)) for row in rows])
    return path


def write_trace_csv(report, path, gradient_norms=None):
    """Write the report's trace; `gradient_norms` go to its `trace_rows`."""
    return _write_csv(path, report.trace_columns, report.trace_rows(gradient_norms))


@dataclass
class ComparisonRow:
    """Relative performance of a curvature-enabled run (b) against its
    descent-only twin (a); positive values favor the curvature run."""

    problem: str
    f_measure: float
    iter_measure: float
    feval_measure: float
    used_negative_curvature: bool


def _comparable_summary(name, report):
    """Report `name` (a or b) or its summary, as a summary checked before
    `compare` reads it: an object with numeric measures, from a finished solve."""
    if hasattr(report, "summary"):
        report = report_summary(report)
    if not isinstance(report, dict):
        raise ValueError("report %s: not a report summary (a JSON object)" % name)
    if report.get("abnormal"):
        raise ValueError("report %s is abnormal: its solve did not finish" % name)
    for key in ("final_f", "total_iterations", "total_fevals"):
        value = report.get(key)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError("report %s: %s is not a number: %r" % (name, key, value))
    return report


def compare(report_a, report_b):
    """Comparison measures between a descent-only report (a) and a
    curvature-enabled report (b), neither abnormal, of the same kind on the
    same problem: a stochastic run's fevals count value estimates, not
    objective evaluations, so the two kinds do not compare."""
    a, b = _comparable_summary("a", report_a), _comparable_summary("b", report_b)
    if a.get("kind") != b.get("kind"):
        raise ValueError("reports compare different kinds of run: %s vs %s"
                         % (a.get("kind"), b.get("kind")))
    if a["problem"] != b["problem"]:
        raise ValueError("reports compare different problems: %r vs %r"
                         % (a["problem"], b["problem"]))
    fa, fb = a["final_f"], b["final_f"]
    f_measure = (fa - fb) / max(abs(fa), abs(fb), 1.0)
    ia, ib = a["total_iterations"], b["total_iterations"]
    iter_measure = (ia - ib) / max(ia, ib, 1)
    ea, eb = a["total_fevals"], b["total_fevals"]
    feval_measure = (ea - eb) / max(ea, eb, 1)
    return ComparisonRow(
        problem=a["problem"],
        f_measure=f_measure,
        iter_measure=iter_measure,
        feval_measure=feval_measure,
        used_negative_curvature=bool(b["used_negative_curvature"]),
    )


def load_report_summary(path):
    with open(path) as handle:
        return json.load(handle)


# the (descent-only, with-curvature) variants each campaign strategy pairs
CAMPAIGN_STRATEGIES = {"sd": ("dynamic_sd_descent_only", "dynamic_sd"),
                       "mn": ("dynamic_mn_descent_only", "dynamic_mn")}
# starting points biased toward saddle regions and ridges: the descent-only
# baseline either stalls (quartic: gradient flow into the saddle) or crawls,
# while the curvature run cuts across
CAMPAIGN_STARTS = {
    "quartic_saddle": np.array([0.0, 1.0]),
    "monkey_saddle": np.array([0.02, 0.015]),
    "himmelblau": np.array([-0.270845, -0.923039]),
    "rastrigin": np.array([0.51, 0.49, -0.52, 0.48, -0.51]),
    "rosenbrock2": np.array([-0.5, 2.5]),
    "rosenbrock10": None,
    "beale": np.array([-1.8, -1.0]),
    "sphere": None,
    "random_quadratic": None,
    "two_layer_net": None,
    "quadratic_sum": None,
}


def standard_campaign_pairs(strategy="sd", seed=0, out_dir=None,
                            max_iterations=2000, problems=None):
    """Experiment-config pairs (descent-only, with-curvature) over the
    built-in suite, or over `problems` when it is not None, with the
    standard starting points; an empty list, an unknown or repeated
    problem, a negative seed or a nonpositive cap is a UsageError."""
    if strategy not in CAMPAIGN_STRATEGIES:
        raise UsageError("strategy: must be %s"
                         % " or ".join(map(repr, CAMPAIGN_STRATEGIES)))
    _setting(integer_argument, "max_iterations", max_iterations, 1)
    if seed is not None:
        _setting(integer_argument, "seed", seed, 0)
    if problems is not None and not problems:
        raise UsageError("problems: the list is empty; give None for the whole suite")
    descent_only, with_curvature = CAMPAIGN_STRATEGIES[strategy]
    termination = TerminationSpec(max_iterations=max_iterations)
    pairs = []
    for name in list_problems() if problems is None else problems:
        # a repeated problem would count twice in every median
        if any(name == config.problem for config, _ in pairs):
            raise UsageError("problems: %s is listed twice" % name)
        start = CAMPAIGN_STARTS.get(name)
        # the seed only draws a start, so it goes to problems without one
        common = dict(problem=name, termination=termination, out_dir=out_dir,
                      **(dict(seed=seed) if start is None
                         else dict(start=np.array(start))))
        pairs.append((
            ExperimentConfig(variant=descent_only,
                             label="%s_%s_descent_only" % (name, strategy), **common),
            ExperimentConfig(variant=with_curvature,
                             label="%s_%s_with_curvature" % (name, strategy), **common),
        ))
        validate_config(pairs[-1][1])
    return pairs


def campaign(pairs, out_dir=None):
    """Run comparison pairs, keep rows where curvature was actually used,
    and write them, sorted by f_measure, as comparison.csv, one column per
    `ComparisonRow` field.

    A run that raises a UsageError or one of SOLVER_FAILURES, the errors
    `ncopt run` maps to its exit codes 2 and 3, becomes a row of
    failures.csv and the campaign continues; any other error propagates.
    Returns (rows, table_path, failures_path), failures_path None when
    every run finished.
    """
    if not pairs:
        raise UsageError("suite: campaign needs at least one experiment pair")
    out_dir = out_dir or pairs[0][0].resolved_out_dir()
    os.makedirs(out_dir, exist_ok=True)
    rows, failures = [], []
    for config_a, config_b in pairs:
        try:
            report_a, _ = run_experiment(replace(config_a, out_dir=out_dir))
            report_b, _ = run_experiment(replace(config_b, out_dir=out_dir))
            rows.append(compare(report_a, report_b))
        except (UsageError, *SOLVER_FAILURES) as err:
            failures.append((config_b.problem or config_b.dataset, repr(err)))
    kept = [r for r in rows if r.used_negative_curvature]
    kept.sort(key=lambda r: r.f_measure, reverse=True)
    if not kept:
        warnings.warn("campaign: no run used a negative curvature direction")

    table_path = _write_csv(os.path.join(out_dir, "comparison.csv"),
                            [f.name for f in fields(ComparisonRow)],
                            [astuple(r) for r in kept])
    failures_path = _write_csv(os.path.join(out_dir, "failures.csv"),
                               ("problem", "error"), failures) if failures else None
    return kept, table_path, failures_path


def read_config_file(path):
    """An INI file's settings as {"section.key": text}.  Keys are
    case-insensitive; an unreadable file or an unknown section or key is a
    UsageError that names it."""
    # no default section: a [DEFAULT] header is an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError, configparser.Error) as err:
        raise UsageError("config: cannot read %r: %s" % (path, err)) from None
    settings = {}
    for section in parser.sections():
        if section not in _CONFIG_SECTIONS:
            raise UsageError("%s: unknown section (choose from %s)"
                             % (section, ", ".join(_CONFIG_SECTIONS)))
        for key, text in parser.items(section):
            name = "%s.%s" % (section, key)
            if name not in _CONFIG_KEYS_BY_NAME:
                raise UsageError("%s: unknown key" % name)
            settings[name] = text
    return settings


def config_from_settings(settings):
    """A fresh ExperimentConfig with every {"section.key": value} setting
    parsed by its CONFIG_KEYS row and applied.

    Nested constants are rebuilt with `replace`, never changed in place, so
    their own checks run; a value that fails to parse or to pass a check is
    a UsageError naming its key.
    """
    config = ExperimentConfig()
    for name, text in settings.items():
        key = _CONFIG_KEYS_BY_NAME[name]
        owner, _, attr = key.field.rpartition(".")
        try:
            value = key.parse(text)
            if owner:
                attr, value = owner, replace(getattr(config, owner), **{attr: value})
            config = replace(config, **{attr: value})
        except ValueError as err:
            raise UsageError("%s: %s" % (name, err)) from None
    return config
