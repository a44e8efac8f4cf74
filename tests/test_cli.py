import json
import subprocess
import sys

import numpy as np
import pytest

from ncopt.cli import main
from ncopt.deterministic import InnerLoopStall, SolverReport
from ncopt.linalg import KernelError
from ncopt.steps import ConditionViolation


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
            raise InnerLoopStall("stalled", partial)

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


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("NCOPT_OUTPUT_DIR", str(tmp_path / "from_env"))
    assert main(["run", "--problem", "sphere", "--variant", "dynamic_sd"]) == 0
    assert (tmp_path / "from_env" / "sphere_dynamic_sd.json").exists()
