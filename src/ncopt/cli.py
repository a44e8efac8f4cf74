"""Command-line experiment runner.

Verbs: list-problems, run, compare, campaign.  Exit codes: 0 on success,
2 on usage errors, 3 on abnormal solver termination (partial trace still
written).  The default output directory comes from NCOPT_OUTPUT_DIR.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ncopt.deterministic import InnerLoopStall
from ncopt.finite_sum import DatasetParseError, DatasetSchemaError
from ncopt.harness import (
    ExperimentConfig,
    UsageError,
    VARIANTS,
    campaign,
    compare,
    default_output_dir,
    load_config_file,
    load_report_summary,
    run_experiment,
    standard_campaign_pairs,
)
from ncopt.linalg import KernelError
from ncopt.problems import EvaluationError, list_problems
from ncopt.steps import ConditionViolation


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ncopt",
        description="Nonconvex optimization experiments with descent and "
                    "negative-curvature steps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-problems", help="list the built-in problem registry")

    run = sub.add_parser("run", help="run one configured experiment")
    run.add_argument("--problem", help="registered problem name")
    run.add_argument("--variant", choices=VARIANTS, help="solver variant")
    run.add_argument("--seed", type=int, help="random seed (required for stochastic)")
    run.add_argument("--config", help="experiment config file (flags override it)")
    run.add_argument("--out", help="output directory")
    run.add_argument("--max-iters", type=int, help="iteration cap")
    run.add_argument("--grad-tol", type=float, help="relative gradient tolerance")
    run.add_argument("--dataset", help="CSV dataset path (last column = label)")
    run.add_argument("--dataset-header", action="store_true",
                     help="dataset file has a header row")
    run.add_argument("--start", help="comma-separated starting point")
    run.add_argument("--alpha", type=float, help="fixed/constant stepsize")
    run.add_argument("--beta", type=float, help="fixed curvature stepsize")
    run.add_argument("--batch-size", type=int, help="mini-batch size")
    run.add_argument("--iterations", type=int, help="stochastic iteration budget")
    run.add_argument("--label", help="output file label")

    cmp_parser = sub.add_parser("compare", help="compare two report JSON files")
    cmp_parser.add_argument("report_a", help="descent-only report")
    cmp_parser.add_argument("report_b", help="with-curvature report")

    camp = sub.add_parser("campaign", help="descent-only vs curvature campaign "
                                           "over the built-in suite")
    camp.add_argument("--strategy", choices=("sd", "mn"), default="sd")
    camp.add_argument("--seed", type=int, default=0)
    camp.add_argument("--out", help="output directory")
    camp.add_argument("--max-iters", type=int, default=2000)
    camp.add_argument("--problem", action="append", dest="problems",
                      help="restrict to a problem (repeatable)")
    return parser


def _config_from_args(args):
    config = ExperimentConfig()
    if args.config:
        config = load_config_file(args.config, config)
    if args.problem:
        config.problem = args.problem
    if args.variant:
        config.variant = args.variant
    if args.seed is not None:
        config.seed = args.seed
    if args.out:
        config.out_dir = args.out
    if args.max_iters is not None:
        config.termination.max_iterations = args.max_iters
    if args.grad_tol is not None:
        config.termination.grad_tol_rel = args.grad_tol
    if args.dataset:
        config.dataset = args.dataset
    if args.dataset_header:
        config.dataset_has_header = True
    if args.start:
        config.start = np.array([float(v) for v in args.start.split(",")])
    if args.alpha is not None:
        config.alpha = args.alpha
    if args.beta is not None:
        config.beta = args.beta
    if args.batch_size is not None:
        config.batch_size = args.batch_size
    if args.iterations is not None:
        config.iterations = args.iterations
    if args.label:
        config.label = args.label
    return config


def _cmd_run(args):
    config = _config_from_args(args)
    try:
        report, paths = run_experiment(config)
    except (UsageError, DatasetParseError, DatasetSchemaError, KeyError) as err:
        print("usage error: %s" % err, file=sys.stderr)
        return 2
    except (InnerLoopStall, EvaluationError, KernelError, ConditionViolation) as err:
        print("solver abnormal termination: %s" % err, file=sys.stderr)
        return 3
    summary = load_report_summary(paths["report"])
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
        print("usage error: %s" % err, file=sys.stderr)
        return 2
    print("problem:                 %s" % row.problem)
    print("f measure:               %+.6g" % row.f_measure)
    print("iteration measure:       %+.6g" % row.iter_measure)
    print("feval measure:           %+.6g" % row.feval_measure)
    print("used negative curvature: %s" % row.used_negative_curvature)
    return 0


def _cmd_campaign(args):
    out_dir = args.out or default_output_dir()
    try:
        pairs = standard_campaign_pairs(strategy=args.strategy, seed=args.seed,
                                        out_dir=out_dir,
                                        max_iterations=args.max_iters,
                                        problems=args.problems)
        rows, table_path, plot_paths = campaign(pairs, out_dir=out_dir)
    except UsageError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return 2
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
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    return _cmd_campaign(args)


if __name__ == "__main__":
    sys.exit(main())
