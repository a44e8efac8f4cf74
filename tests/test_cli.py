import argparse
import copy
import dataclasses
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ncopt.cli import _build_parser, _config_from_args, main
from ncopt.deterministic import (
    TRACE_COLUMNS,
    InnerLoopStall,
    SolverReport,
    TerminationSpec,
    dynamic_solve,
    two_step_solve,
)
from ncopt.finite_sum import (
    LinearLeastSquaresProblem,
    QuadraticFiniteSum,
    StochasticOracle,
    TwoLayerNetProblem,
    load_dataset,
)
from ncopt.harness import (
    CONFIG_KEYS,
    ExperimentConfig,
    config_from_settings,
    read_config_file,
)
from ncopt.linalg import (
    EigenResult,
    KernelError,
    leftmost_eigenpair,
    modified_newton_shift,
    truncated_cg,
)
from ncopt.problems import random_quadratic, rastrigin
from ncopt.steps import (
    ConditionViolation,
    LipschitzState,
    certify_curvature_direction,
    check_strategy,
    descent_direction,
    negative_curvature_direction,
)
from ncopt.stochastic import (
    MomentBounds,
    StochasticStepConfig,
    admissible_constant_step,
    apply_safeguards,
    curvature_noise_step,
    dynamic_stochastic_solve,
    expected_descent_check,
    measure_moment_constants,
    two_step_stochastic_solve,
)


class TestListProblems:
    def test_lists_registry(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        for name in ("sphere", "quartic_saddle", "rosenbrock10", "two_layer_net"):
            assert name in out


class TestRun:
    def test_dynamic_run_success(self, tmp_path, capsys):
        code = main([
            "run", "--problem", "quartic_saddle", "--variant", "dynamic_sd",
            "--start", "0,0", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tolerance_met" in out
        assert (tmp_path / "quartic_saddle_dynamic_sd.json").exists()
        assert (tmp_path / "quartic_saddle_dynamic_sd.csv").exists()

    def test_unknown_problem_is_usage_error(self, tmp_path, capsys):
        code = main(["run", "--problem", "warp_drive", "--variant", "dynamic_sd",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "sphere" in err  # the registry is listed

    def test_missing_seed_for_stochastic(self, tmp_path):
        code = main(["run", "--problem", "two_layer_net", "--variant",
                     "stoch_dynamic", "--out", str(tmp_path)])
        assert code == 2

    def test_bad_flag_exits_2(self):
        assert main(["run", "--no-such-flag"]) == 2

    def test_dataset_run(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1,2,0.5\n2,1,1.5\n0.5,0.5,1.0\n1,1,1.2\n")
        code = main(["run", "--dataset", str(data), "--variant", "dynamic_sd",
                     "--out", str(tmp_path), "--max-iters", "200"])
        assert code == 0

    def test_malformed_dataset_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n3,zebra\n")
        code = main(["run", "--dataset", str(data), "--variant", "dynamic_sd",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "row 2" in capsys.readouterr().err

    def test_abnormal_termination_exits_3(self, tmp_path, monkeypatch, capsys):
        partial = SolverReport(problem_name="sphere")
        from ncopt.deterministic import IterationRecord
        partial.records.append(IterationRecord(
            index=1, x=np.zeros(2), f_value=1.0, gradient_norm=1.0, lam=1.0,
            s=np.zeros(2), d=np.zeros(2), step_taken="none"))
        partial.finish(None)

        def boom(config):
            err = InnerLoopStall("stalled")
            err.report = partial
            raise err

        monkeypatch.setattr("ncopt.cli.run_experiment", boom)
        code = main(["run", "--problem", "sphere", "--variant", "dynamic_sd",
                     "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("error", [
        KernelError("leftmost eigenpair residual 1e-3 exceeds bound 1e-10"),
        ConditionViolation("g'd must be nonpositive"),
    ])
    def test_kernel_and_certificate_failures_exit_3(self, tmp_path, monkeypatch,
                                                    capsys, error):
        def fail(config):
            raise error

        monkeypatch.setattr("ncopt.cli.run_experiment", fail)
        code = main(["run", "--problem", "sphere", "--variant", "dynamic_sd",
                     "--out", str(tmp_path)])
        assert code == 3
        assert str(error) in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverging_two_step_writes_partial_report(self, tmp_path, capsys):
        code = main(["run", "--problem", "rosenbrock2", "--variant", "two_step",
                     "--alpha", "10", "--beta", "10", "--out", str(tmp_path)])
        assert code == 3
        summary = json.loads((tmp_path / "rosenbrock2_two_step.json").read_text())
        assert summary["abnormal"] is True
        assert summary["error"]["type"] == "EvaluationError"
        assert summary["error"]["message"] in capsys.readouterr().err
        rows = (tmp_path / "rosenbrock2_two_step.csv").read_text().splitlines()
        assert len(rows) >= 2 and rows[0].startswith("k,")

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_stochastic_run_writes_partial_report(self, tmp_path,
                                                             capsys):
        data = tmp_path / "d.csv"
        data.write_text("1e200,1,2\n0.5,-1,1\n2,0.3,-1\n-1,2,0.5\n")
        out = tmp_path / "out"
        code = main(["run", "--dataset", str(data), "--variant", "stoch_dynamic",
                     "--seed", "1", "--batch-size", "2", "--iterations", "5",
                     "--out", str(out)])
        assert code == 3
        label = "linear_least_squares_stoch_dynamic"
        summary = json.loads((out / (label + ".json")).read_text())
        assert summary["abnormal"] is True
        assert summary["termination_reason"] is None
        assert summary["error"]["type"] == "EvaluationError"
        assert summary["error"]["message"] in capsys.readouterr().err
        rows = (out / (label + ".csv")).read_text().splitlines()
        assert rows[0].startswith("k,")
        assert len(rows) - 1 == summary["total_iterations"] < 5

    def test_batch_larger_than_problem_is_usage_error(self, tmp_path, capsys):
        # the default batch of 32 exceeds quadratic_sum's 20 components
        code = main(["run", "--problem", "quadratic_sum", "--variant",
                     "stoch_dynamic", "--seed", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, ini, key", [
        (["run", "--problem", "sphere", "--max-iters", "0"], None,
         "termination.max_iterations"),
        (["run", "--problem", "sphere", "--grad-tol", "-1"], None,
         "termination.grad_tol_rel"),
        (["run", "--config", "{tmp}/missing.cfg"], None, "config"),
        (["run", "--config", "{cfg}"],
         "[experiment]\nproblem = sphere\nseed = abc\n", "experiment.seed"),
        # the direction criteria are constants of the code
        (["run", "--config", "{cfg}"],
         "[experiment]\nproblem = sphere\n[criteria]\ngamma = 2\n",
         "criteria: unknown section"),
        (["run", "--problem", "sphere", "--start", "1,x"], None, "experiment.start"),
        (["run", "--problem", "sphere", "--seed", "-1"], None, "seed"),
        (["run", "--problem", "two_layer_net", "--variant", "stoch_dynamic",
          "--seed", "-1"], None, "seed"),
        (["run", "--problem", "sphere", "--variant", "two_step", "--alpha", "-1",
          "--beta", "1"], None, "alpha"),
        (["run", "--problem", "two_layer_net", "--variant", "stoch_two_step",
          "--seed", "0", "--alpha", "-1"], None, "alpha"),
        (["run", "--dataset", "{tmp}/missing.csv"], None, "dataset"),
        (["campaign", "--max-iters", "0"], None, "max_iterations"),
        (["campaign", "--problem", "nosuch"], None, "problem: unknown 'nosuch'"),
        # a cap the variant would ignore
        (["run", "--problem", "quadratic_sum", "--variant", "stoch_dynamic",
          "--seed", "0", "--batch-size", "2", "--max-iters", "5"], None,
         "termination.max_iterations: stoch_dynamic ignores it"),
        (["run", "--problem", "sphere", "--variant", "dynamic_sd",
          "--iterations", "3"], None, "experiment.iterations: dynamic_sd ignores it"),
        # the file written is a valid dataset
        (["run", "--problem", "sphere", "--dataset", "{cfg}"],
         "1,2,3\n4,5,6\n7,8,9\n1,0,1\n", "dataset: a problem name and a dataset"),
        # other keys the variant would ignore
        (["run", "--problem", "sphere", "--variant", "dynamic_sd", "--alpha", "5",
          "--beta", "3", "--batch-size", "7"], None,
         "experiment.alpha: dynamic_sd ignores it"),
        (["run", "--problem", "quadratic_sum", "--variant", "stoch_two_step",
          "--seed", "0", "--batch-size", "2", "--alpha", "0.01", "--beta", "9"],
         None, "experiment.beta: stoch_two_step ignores it"),
        (["run", "--config", "{cfg}"],
         "[experiment]\nproblem = quadratic_sum\nvariant = stoch_dynamic\n"
         "seed = 0\nbatch_size = 2\n[lipschitz]\nl_init = 3\n",
         "lipschitz.l_init: stoch_dynamic ignores it"),
        (["run", "--config", "{cfg}"],
         "[experiment]\nproblem = sphere\nvariant = two_step\nalpha = 0.5\n"
         "beta = 0.5\n[lipschitz]\nl_init = 3\n",
         "lipschitz.l_init: two_step ignores it"),
        (["run", "--config", "{cfg}"],
         "[experiment]\nproblem = quadratic_sum\nvariant = stoch_two_step\n"
         "seed = 0\nbatch_size = 2\nalpha = 0.01\n[safeguards]\nl_init = 5\n",
         "safeguards.l_init: stoch_two_step ignores it"),
        # only the dynamic stochastic method has safeguards
        (["run", "--config", "{cfg}"],
         "[experiment]\nproblem = sphere\nvariant = dynamic_sd\n"
         "[safeguards]\nl_init = 5\n",
         "safeguards.l_init: dynamic_sd ignores it"),
        (["run", "--config", "{cfg}"],
         "[experiment]\nproblem = sphere\nvariant = two_step\nalpha = 0.5\n"
         "beta = 0.5\n[safeguards]\nsigma_init = 2\n",
         "safeguards.sigma_init: two_step ignores it"),
        # a deterministic variant reads the seed only to draw a start
        (["run", "--problem", "sphere", "--variant", "dynamic_sd", "--seed", "3",
          "--start", "1,1"], None, "experiment.seed: dynamic_sd ignores it"),
        # the dataset keys need a dataset
        (["run", "--problem", "sphere", "--dataset-header"], None,
         "experiment.dataset_has_header: dynamic_sd ignores it"),
        (["run", "--config", "{cfg}"],
         "[experiment]\nproblem = sphere\ndataset_model = two_layer\n",
         "experiment.dataset_model: dynamic_sd ignores it"),
        # a descent-only dynamic variant takes no fixed stepsize and has no
        # safeguards
        *((["run", "--config", "{cfg}"],
           "[experiment]\nproblem = sphere\nvariant = %s\n%s\n" % (variant, line),
           "%s: %s ignores it" % (key, variant))
          for variant in ("dynamic_sd_descent_only", "dynamic_mn_descent_only")
          for line, key in (("beta = 0.5", "experiment.beta"),
                            ("[safeguards]\nsigma_init = 50",
                             "safeguards.sigma_init"))),
        # a [criteria] section is unknown, whatever key it holds
        (["run", "--config", "{cfg}"],
         "[experiment]\nproblem = sphere\nvariant = two_step\nalpha = 0.5\n"
         "beta = 0.5\n[criteria]\nzeta = 0.5\n", "criteria: unknown section"),
        # the stochastic methods have a fixed iteration budget
        (["run", "--config", "{cfg}"],
         "[experiment]\nproblem = quadratic_sum\nvariant = stoch_two_step\n"
         "seed = 0\nbatch_size = 2\nalpha = 0.01\n[termination]\n"
         "grad_tol_rel = 1e-3\n",
         "termination.grad_tol_rel: stoch_two_step ignores it"),
        # the variant is named, and not as part of another key's error
        (["run", "--config", "{cfg}"],
         "[experiment]\nproblem = sphere\nvariant = bogus\n[lipschitz]\n"
         "l_init = 3\n", "error: variant: unknown 'bogus' (choose from two_step, "),
    ])
    def test_bad_input_is_usage_error_naming_key(self, tmp_path, capsys, argv,
                                                 ini, key):
        cfg = tmp_path / "exp.cfg"
        if ini is not None:
            cfg.write_text(ini)
        argv = [a.format(tmp=tmp_path, cfg=cfg) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert key in err

    @pytest.mark.parametrize("key", [
        "termination.min_step_norm", "lipschitz.rho", "safeguards.max_s_norm",
        "safeguards.max_ratio_d_to_s", "safeguards.inflate_factor"])
    def test_keys_of_module_constants_are_unknown(self, tmp_path, capsys, key):
        # these factors and caps are module constants; no file sets them
        section, name = key.split(".")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[experiment]\nproblem = sphere\n[%s]\n%s = 2\n"
                       % (section, name))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "usage error: %s: unknown key\n" % key

    def test_keys_the_variant_reads_or_left_at_default_are_accepted(self, tmp_path):
        cfg = tmp_path / "s2s.cfg"
        cfg.write_text(
            "[experiment]\n"
            "problem = quadratic_sum\n"
            "variant = stoch_two_step\n"
            "seed = 0\nbatch_size = 2\nalpha = 0.01\niterations = 5\n"
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        # the default batch size, given explicitly, is not an ignored setting
        assert main(["run", "--problem", "sphere", "--variant", "dynamic_sd",
                     "--batch-size", "32", "--out", str(tmp_path)]) == 0
        # a stochastic variant seeds its oracle whether or not a start is given
        assert main(["run", "--problem", "quadratic_sum", "--variant",
                     "stoch_dynamic", "--seed", "3", "--start", ",".join(["0"] * 10),
                     "--batch-size", "2", "--iterations", "3",
                     "--out", str(tmp_path)]) == 0

    def test_criteria_section_keeps_modified_newton_delta(self, tmp_path, capsys):
        # dynamic_mn certifies its steps at DESCENT_COSINE["modified_newton"]
        # with no setting, and a [criteria] section is a usage error
        text = ("[experiment]\n"
                "problem = rosenbrock2\n"
                "variant = dynamic_mn\n"
                "out = %s\n" % tmp_path)
        cfg = tmp_path / "mn.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "rosenbrock2_dynamic_mn.json").read_text())
        assert summary["termination_reason"] == "tolerance_met"
        assert summary["config"]["strategy"] == "modified_newton"
        assert "criteria" not in summary["config"]
        cfg.write_text(text + "[criteria]\ndelta = 1e-8\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "criteria: unknown section" in capsys.readouterr().err

    def test_overflowing_model_reduction_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("[experiment]\nproblem = sphere\nvariant = dynamic_sd\n"
                       "out = %s\n[lipschitz]\nl_init = 1e-200\n" % tmp_path)
        assert main(["run", "--config", str(cfg)]) == 3
        assert "model reduction overflows" in capsys.readouterr().err
        summary = json.loads((tmp_path / "sphere_dynamic_sd.json").read_text())
        assert summary["abnormal"] is True
        assert summary["error"]["type"] == "ConditionViolation"

    # two fuzzed dynamic_mn runs whose first step overflows or underflows:
    # (start, l_init, sigma_init, the error message's mark)
    FUZZ_CASES = {
        "rosenbrock10": (
            "-1.9521650302484699,1.6518481131294627,2.2118411738833137,"
            "0.20663952080444603,-1.800005171880425,1.271499171743101,"
            "-0.9712460025646823,0.3976264318258358,-0.38979768974654716,"
            "1.7795973192915269",
            "3.186408192932628e+160", "1.2654246362055915e+296",
            "curvature stepsize inf"),
        "himmelblau": (
            "4.6976241215539634e-05,9.62903531721935e-05",
            "1.1022417892103668e+234", "3.0680181324916967e-138",
            "model reduction overflows"),
    }

    @pytest.mark.parametrize("problem", sorted(FUZZ_CASES))
    def test_fuzzed_overflow_exits_3_with_partial_files(self, problem, tmp_path,
                                                       capsys):
        start, l_init, sigma_init, message = self.FUZZ_CASES[problem]
        cfg = tmp_path / "fuzz.cfg"
        cfg.write_text(
            "[experiment]\nvariant = dynamic_mn\nproblem = %s\nstart = %s\n"
            "out = %s\n[termination]\nmax_iterations = 50\n"
            "[lipschitz]\nl_init = %s\nsigma_init = %s\n"
            % (problem, start, tmp_path, l_init, sigma_init))
        assert main(["run", "--config", str(cfg)]) == 3
        assert message in capsys.readouterr().err
        label = tmp_path / ("%s_dynamic_mn" % problem)
        summary = json.loads(label.with_suffix(".json").read_text())
        assert summary["abnormal"] is True
        assert summary["termination_reason"] is None
        assert summary["error"]["type"] == "ConditionViolation"
        assert message in summary["error"]["message"]
        assert summary["total_iterations"] == 1
        rows = label.with_suffix(".csv").read_text().splitlines()
        assert rows[0].startswith("k,f,gnorm") and len(rows) == 2

    # every entry of the exact gradient at the start is finite, its norm is
    # not; the 1e200 row (3) is in neither the first gradient batch nor the
    # first Hessian batch, or the sampled value would overflow first
    # ("sampled value is nan")
    OVERFLOW_DATA = "0.5,-1,1\n2,0.3,-1\n-1,2,0.5\n1e200,1,2\n"

    def overflow_run(self, tmp_path, variant, *flags):
        data = tmp_path / "d.csv"
        data.write_text(self.OVERFLOW_DATA)
        oracle = StochasticOracle(load_dataset(data), batch_size=2, seed=1)
        assert 3 not in oracle.next_gradient_batch()
        assert 3 not in oracle.next_hessian_batch()
        code = main(["run", "--dataset", str(data), "--variant", variant,
                     "--seed", "1", "--batch-size", "2", *flags,
                     "--out", str(tmp_path)])
        label = "linear_least_squares_" + variant
        summary = json.loads((tmp_path / (label + ".json")).read_text())
        rows = (tmp_path / (label + ".csv")).read_text().splitlines()
        return code, summary, rows

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_exact_gradient_norm_stops_stochastic_run(self, tmp_path):
        # stoch_two_step evaluates the exact norms its guarantee reads after
        # the solve (one iterate: the second Hessian batch draws row 3); the
        # overflow there makes the finished run abnormal, and its summary
        # and trace are still written
        code, summary, rows = self.overflow_run(
            tmp_path, "stoch_two_step", "--iterations", "1", "--alpha", "0.01")
        assert code == 3
        assert summary["abnormal"] is True
        assert summary["termination_reason"] is None
        assert summary["error"] == {"type": "EvaluationError",
                                    "message": "gradient norm is not finite"}
        assert summary["total_iterations"] == 1
        assert rows[0] == ",".join(TRACE_COLUMNS)
        assert len(rows) == 2
        # no norm could be evaluated, so the gnorm column stays empty
        assert rows[1].split(",")[2] == ""

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_sampled_estimate_stops_dynamic_stochastic_run(self, tmp_path):
        # stoch_dynamic evaluates no exact gradient: it stops at the first
        # sampled estimate that draws the 1e200 row, here the second
        # iterate's gradient batch, whose g'g overflows
        code, summary, rows = self.overflow_run(tmp_path, "stoch_dynamic",
                                                "--iterations", "5")
        assert code == 3
        assert summary["abnormal"] is True
        assert summary["error"] == {"type": "EvaluationError", "message":
                                    "sampled gradient norm is not finite"}
        assert summary["total_iterations"] == 1
        assert rows[0] == ",".join(TRACE_COLUMNS)
        assert len(rows) == 2
        assert rows[1].split(",")[2] == ""

    def test_config_file_driving(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[experiment]\n"
            "problem = sphere\n"
            "variant = dynamic_sd\n"
            "out = %s\n" % str(tmp_path)
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "sphere_dynamic_sd.json").exists()


class TestCompare:
    def test_compare_two_reports(self, tmp_path, capsys):
        for variant in ("dynamic_sd_descent_only", "dynamic_sd"):
            assert main(["run", "--problem", "quartic_saddle", "--variant", variant,
                         "--start", "0,0", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        code = main([
            "compare",
            str(tmp_path / "quartic_saddle_dynamic_sd_descent_only.json"),
            str(tmp_path / "quartic_saddle_dynamic_sd.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "f measure:               +0.25" in out

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["compare", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 2

    @pytest.mark.parametrize("text, error", [
        ("[]", "report a: not a report summary"),
        ('{"problem": "sphere", "final_f": "abc", "total_iterations": 1, '
         '"total_fevals": 1}', "report a: final_f is not a number: 'abc'"),
    ])
    def test_file_that_is_not_a_summary_is_usage_error(self, tmp_path, capsys,
                                                       text, error):
        path = tmp_path / "a.json"
        path.write_text(text)
        assert main(["compare", str(path), str(path)]) == 2
        assert "usage error: %s" % error in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_abnormal_report_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("0.5,-1,1\n2,0.3,-1\n-1,2,0.5\n1e200,1,2\n")
        for variant in ("stoch_dynamic_descent_only", "stoch_dynamic"):
            assert main(["run", "--dataset", str(data), "--variant", variant,
                         "--seed", "1", "--batch-size", "2", "--iterations", "5",
                         "--out", str(tmp_path)]) == 3
        capsys.readouterr()
        label = str(tmp_path / "linear_least_squares_%s.json")
        assert main(["compare", label % "stoch_dynamic_descent_only",
                     label % "stoch_dynamic"]) == 2
        assert "usage error: report a is abnormal" in capsys.readouterr().err


class TestCampaign:
    def test_single_problem_campaign(self, tmp_path, capsys):
        code = main(["campaign", "--problem", "quartic_saddle", "--out",
                     str(tmp_path), "--max-iters", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "quartic_saddle" in out
        assert (tmp_path / "comparison.csv").exists()
        assert (tmp_path / "plot_f_diff.csv").exists()


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ncopt.cli", "list-problems"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "rosenbrock2" in proc.stdout


def test_overflow_prints_only_the_abnormal_termination(tmp_path):
    # the overflowing rosenbrock value ends the solve as an EvaluationError;
    # NumPy's overflow warning would only repeat it
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "ncopt.cli", "run", "--problem", "rosenbrock2",
         "--variant", "two_step", "--alpha", "10", "--beta", "10",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3
    assert proc.stderr == ("solver abnormal termination: "
                           "objective evaluated to inf\n")


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("NCOPT_OUTPUT_DIR", str(tmp_path / "from_env"))
    assert main(["run", "--problem", "sphere", "--variant", "dynamic_sd"]) == 0
    assert (tmp_path / "from_env" / "sphere_dynamic_sd.json").exists()


ALL_KEYS_INI = """\
[experiment]
variant = dynamic_mn
problem = rosenbrock2
dataset = data.csv
dataset_model = two_layer
dataset_has_header = yes
label = from_file
out = file_out
seed = 13
alpha = 0.25
beta = 0.75
batch_size = 8
iterations = 50
start = 0.5, -1.5
[termination]
grad_tol_rel = 1e-7
curv_tol_rel = 1e-6
max_iterations = 77
[lipschitz]
L_init = 2.5
sigma_init = 3.5
[safeguards]
l_init = 40.0
sigma_init = 60.0
"""

ALL_FIELD_FLAGS = [
    "--problem", "sphere", "--variant", "two_step", "--seed", "21",
    "--out", "flag_out", "--max-iters", "33", "--grad-tol", "1e-3",
    "--dataset", "flag.csv", "--dataset-header", "--start", "1,2,3",
    "--alpha", "0.5", "--beta", "0.125", "--batch-size", "4",
    "--iterations", "9", "--label", "from_flags",
]

FILE_FIELDS = {
    "variant": "dynamic_mn", "problem": "rosenbrock2", "dataset": "data.csv",
    "dataset_has_header": True, "dataset_model": "two_layer",
    "start": [0.5, -1.5], "seed": 13,
    "termination": {"grad_tol_rel": 1e-7, "curv_tol_rel": 1e-6,
                    "max_iterations": 77},
    "lipschitz": {"L_current": 2.5, "sigma_current": 3.5},
    "alpha": 0.25, "beta": 0.75, "batch_size": 8, "iterations": 50,
    "safeguards": {"L_current": 40.0, "sigma_current": 60.0},
    "out_dir": "file_out", "label": "from_file",
}

FLAG_FIELDS = {
    "problem": "sphere", "variant": "two_step", "seed": 21,
    "out_dir": "flag_out", "dataset": "flag.csv", "dataset_has_header": True,
    "start": [1.0, 2.0, 3.0], "alpha": 0.5, "beta": 0.125, "batch_size": 4,
    "iterations": 9, "label": "from_flags",
}


def _fields(config):
    fields = dataclasses.asdict(config)
    if fields["start"] is not None:
        fields["start"] = fields["start"].tolist()
    return fields


def _run_config(argv):
    return _config_from_args(_build_parser().parse_args(["run"] + argv))


class TestOptionSurface:
    """Every INI key and every `run` flag sets its ExperimentConfig field."""

    def test_every_ini_key(self, tmp_path):
        path = tmp_path / "all.cfg"
        path.write_text(ALL_KEYS_INI)
        config = config_from_settings(read_config_file(str(path)))
        assert _fields(config) == FILE_FIELDS

    def test_every_flag(self):
        expected = _fields(ExperimentConfig())
        expected.update(FLAG_FIELDS)
        expected["termination"].update(max_iterations=33, grad_tol_rel=1e-3)
        assert _fields(_run_config(ALL_FIELD_FLAGS)) == expected

    def test_flags_override_every_ini_key_they_share(self, tmp_path):
        path = tmp_path / "all.cfg"
        path.write_text(ALL_KEYS_INI)
        expected = copy.deepcopy(FILE_FIELDS)
        expected.update(FLAG_FIELDS)
        expected["termination"].update(max_iterations=33, grad_tol_rel=1e-3)
        config = _run_config(["--config", str(path)] + ALL_FIELD_FLAGS)
        assert _fields(config) == expected

    def test_surface_is_fixed(self):
        """Adding or removing a knob must edit these lists in plain view."""
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {option for action in sub.choices["run"]._actions
                 for option in action.option_strings} - {"-h", "--help"}
        assert flags == {
            "--config", "--problem", "--variant", "--seed", "--out",
            "--max-iters", "--grad-tol", "--dataset", "--dataset-header",
            "--start", "--alpha", "--beta", "--batch-size", "--iterations",
            "--label",
        }
        assert {key.name for key in CONFIG_KEYS} == {
            "experiment." + k for k in (
                "variant", "problem", "dataset", "dataset_model",
                "dataset_has_header", "label", "out", "seed", "alpha", "beta",
                "batch_size", "iterations", "start")
        } | {
            "termination." + k for k in (
                "grad_tol_rel", "curv_tol_rel", "max_iterations")
        } | {"lipschitz." + k for k in ("l_init", "sigma_init")} | {
            "safeguards." + k for k in ("l_init", "sigma_init")
        }
        assert len(CONFIG_KEYS) == 20

    def test_library_surface_is_fixed(self):
        """The solvers', steps' and kernels' parameters and the constants
        objects' fields; a tolerance or cap that no caller varies is a module
        constant, so a new knob must edit these lists in plain view."""
        parameters = {
            two_step_solve: ("problem", "alpha", "beta", "termination", "x0"),
            dynamic_solve: ("problem", "strategy", "lipschitz_init",
                            "termination", "x0", "use_curvature"),
            two_step_stochastic_solve: ("oracle", "config", "iterations", "x0"),
            dynamic_stochastic_solve: ("oracle", "lipschitz_init", "iterations",
                                       "x0", "use_curvature"),
            curvature_noise_step: ("x", "oracle", "alpha"),
            apply_safeguards: ("s", "d", "alpha", "beta"),
            measure_moment_constants: ("oracle", "x", "draws"),
            admissible_constant_step: ("moments", "gradient_lipschitz"),
            expected_descent_check: ("problem", "x", "config", "replications",
                                     "seed", "batch_size", "moments",
                                     "measure_draws"),
            descent_direction: ("strategy", "g", "eig"),
            check_strategy: ("strategy",),
            negative_curvature_direction: ("eig", "g"),
            certify_curvature_direction: ("d", "eig", "g", "check_norm_cap"),
            leftmost_eigenpair: ("H", "g"),
            truncated_cg: ("H", "g", "max_iterations"),
            modified_newton_shift: ("eig",),
            # the problem constructors: a name or seed no caller varies is
            # a constant of its constructor
            QuadraticFiniteSum: ("n", "components", "seed", "spectrum",
                                 "perturbation", "name"),
            LinearLeastSquaresProblem: ("features", "labels"),
            TwoLayerNetProblem: ("features", "labels", "hidden_units"),
            random_quadratic: ("n", "spectrum", "seed"),
            rastrigin: (),
        }
        for function, names in parameters.items():
            assert tuple(inspect.signature(function).parameters) == names, \
                function.__name__
        # the shift always reuses the eigenpair's decomposition
        eig = inspect.signature(modified_newton_shift).parameters["eig"]
        assert eig.default is inspect.Parameter.empty
        fields = {
            StochasticStepConfig: ("alpha_constant", "moment_bounds",
                                   "gradient_lipschitz"),
            MomentBounds: ("M1", "M2"),
            LipschitzState: ("L_current", "sigma_current"),
            TerminationSpec: ("grad_tol_rel", "curv_tol_rel", "max_iterations"),
            EigenResult: ("leftmost_value", "leftmost_vector", "residual",
                          "values", "vectors", "matrix"),
        }
        for cls, names in fields.items():
            assert tuple(f.name for f in dataclasses.fields(cls)) == names, \
                cls.__name__
        # the eigenpair always carries the matrix and decomposition it came from
        assert all(f.default is dataclasses.MISSING
                   for f in dataclasses.fields(EigenResult))
