"""Command-line experiment runner.

Verbs: list-problems, run, compare, campaign.  `main` maps the exit codes
for every verb: 0 on success, 2 on a usage error, 3 on abnormal solver
termination (the solve's partial report and trace are still written).
`run` reads its settings from an optional INI file and then from its
flags, which override it; both are defined by `ncopt.harness.CONFIG_KEYS`.
The default output directory comes from NCOPT_OUTPUT_DIR.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ncopt.deterministic import SOLVER_FAILURES
from ncopt.harness import (
    CAMPAIGN_STRATEGIES,
    CONFIG_KEYS,
    UsageError,
    campaign,
    compare,
    config_from_settings,
    load_report_summary,
    parse_boolean,
    read_config_file,
    report_summary,
    run_experiment,
    standard_campaign_pairs,
)
from ncopt.problems import list_problems


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ncopt",
        description="Nonconvex optimization experiments with descent and "
                    "negative-curvature steps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-problems", help="list the built-in problem registry")

    run = sub.add_parser("run", help="run one configured experiment")
    run.add_argument("--config", help="experiment config file (flags override it)")
    for key in (key for key in CONFIG_KEYS if key.flag):
        kind = (dict(action="store_true", default=None) if key.parse is parse_boolean
                else dict(metavar=key.key.upper()))
        run.add_argument(key.flag, dest=key.name, help=key.help, **kind)

    cmp_parser = sub.add_parser("compare", help="compare two report JSON files")
    cmp_parser.add_argument("report_a", help="descent-only report")
    cmp_parser.add_argument("report_b", help="with-curvature report")

    camp = sub.add_parser("campaign", help="descent-only vs curvature campaign "
                                           "over the built-in suite")
    camp.add_argument("--strategy", choices=CAMPAIGN_STRATEGIES, default="sd")
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument("--out", help="output directory")
    camp.add_argument("--max-iters", dest="max_iterations", type=int, default=2000)
    camp.add_argument("--problem", action="append", dest="problems",
                      help="restrict to a problem (repeatable)")
    return parser


def _config_from_args(args):
    """The config file's settings, overridden by the flags given."""
    settings = read_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        value = getattr(args, key.name, None)
        if value is not None:
            settings[key.name] = value
    return config_from_settings(settings)


def _cmd_run(args):
    config = _config_from_args(args)
    report, paths = run_experiment(config)
    summary = report_summary(report, config)
    print("problem:      %s" % summary["problem"])
    print("variant:      %s" % config.variant)
    print("termination:  %s" % summary["termination_reason"])
    print("final f:      %.10g" % summary["final_f"])
    if "final_gradient_norm" in summary:
        print("final |g|:    %.4g" % summary["final_gradient_norm"])
        print("final lambda: %.4g" % summary["final_lambda"])
    print("iterations:   %d" % summary["total_iterations"])
    print("fevals:       %d" % summary["total_fevals"])
    print("report:       %s" % paths["report"])
    print("trace:        %s" % paths["trace"])
    return 0


def _cmd_compare(args):
    try:
        row = compare(load_report_summary(args.report_a),
                      load_report_summary(args.report_b))
    except (OSError, ValueError, KeyError) as err:
        raise UsageError(str(err)) from None
    print("problem:                 %s" % row.problem)
    print("f measure:               %+.6g" % row.f_measure)
    print("iteration measure:       %+.6g" % row.iter_measure)
    print("feval measure:           %+.6g" % row.feval_measure)
    print("used negative curvature: %s" % row.used_negative_curvature)
    return 0


def _cmd_campaign(args):
    pairs = standard_campaign_pairs(strategy=args.strategy, seed=args.seed,
                                    out_dir=args.out,
                                    max_iterations=args.max_iterations,
                                    problems=args.problems)
    rows, table_path, plot_paths = campaign(pairs, out_dir=args.out)
    for row in rows:
        print("%-18s f=%+.4g its=%+.4g fevals=%+.4g"
              % (row.problem, row.f_measure, row.iter_measure, row.feval_measure))
    print("table: %s" % table_path)
    for name, path in plot_paths.items():
        print("plot data (%s): %s" % (name, path))
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if exit_.code is not None else 2
    if args.command == "list-problems":
        for name in list_problems():
            print(name)
        return 0
    command = {"run": _cmd_run, "compare": _cmd_compare,
               "campaign": _cmd_campaign}[args.command]
    # a solve that overflows already ends as an EvaluationError with its
    # own message; NumPy's warnings would only repeat it
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return command(args)
    except UsageError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return 2
    except SOLVER_FAILURES as err:
        print("solver abnormal termination: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
