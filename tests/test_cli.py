import os

import pytest

from vsgd.cli import main, parse_args
from vsgd.errors import ConfigError
from vsgd.traceio import CSV_HEADER, read_csv


def exit_code(argv):
    """main's exit status, whether it returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParseArgs:
    def test_run_defaults_carry_standard_hyperparameters(self, tmp_path):
        cfg = parse_args(
            [
                "run",
                "--optimizer", "vsgd",
                "--problem", "quad",
                "--steps", "100",
                "--seed", "1",
                "--out", str(tmp_path),
            ]
        )
        assert cfg.command == "run"
        (rc,) = cfg.run_configs
        assert rc.hp.gamma == 1e-8
        assert rc.hp.k_g == 30.0
        assert (rc.hp.kappa1, rc.hp.kappa2) == (0.9, 0.81)
        assert rc.steps == 100 and rc.seed == 1

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["run", "--does-not-exist", "1"])
        assert exc.value.code == 2

    def test_kappa_out_of_range_rejected(self, tmp_path):
        code = main(
            ["run", "--kappa1", "1.5", "--steps", "5", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_out_dir_required(self, monkeypatch):
        monkeypatch.delenv("VSGD_OUT_DIR", raising=False)
        with pytest.raises(ConfigError):
            parse_args(["run", "--steps", "5"])

    def test_env_var_out_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VSGD_OUT_DIR", str(tmp_path))
        cfg = parse_args(["run", "--steps", "5"])
        assert cfg.out_dir == str(tmp_path)

    def test_run_rejects_value_lists(self, tmp_path):
        with pytest.raises(SystemExit):
            parse_args(
                ["run", "--lr", "0.1,0.2", "--steps", "5", "--out", str(tmp_path)]
            )

    @pytest.mark.parametrize("flag", ["--lr", "--weight-decay", "--seed"])
    def test_sweep_rejects_non_numeric_list(self, tmp_path, flag):
        argv = ["sweep", flag, "0.1,abc", "--steps", "5", "--out", str(tmp_path)]
        assert exit_code(argv) == 2

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_fractional_seed_rejected(self, tmp_path, command):
        argv = [command, "--seed", "1.7", "--steps", "5", "--out", str(tmp_path)]
        assert exit_code(argv) == 2

    def test_sweep_builds_cross_product(self, tmp_path):
        cfg = parse_args(
            [
                "sweep",
                "--lr", "0.001,0.01",
                "--weight-decay", "0,0.01",
                "--seed", "1,2,3",
                "--steps", "5",
                "--out", str(tmp_path),
            ]
        )
        assert len(cfg.run_configs) == 2 * 2 * 3
        etas = {rc.hp.eta for rc in cfg.run_configs}
        assert etas == {0.001, 0.01}


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, tmp_path):
        cf = tmp_path / "run.cfg"
        cf.write_text(
            "optimizer=adam\nlr=0.005\nsteps=42\nseed=9\n# comment\n",
            encoding="utf-8",
        )
        cfg = parse_args(
            [
                "run",
                "--config", str(cf),
                "--optimizer", "vsgd",  # overrides the file
                "--out", str(tmp_path),
            ]
        )
        (rc,) = cfg.run_configs
        assert rc.optimizer == "vsgd"
        assert rc.hp.eta == 0.005
        assert rc.steps == 42 and rc.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        cf = tmp_path / "bad.cfg"
        cf.write_text("optimiser=vsgd\n", encoding="utf-8")
        assert main(["run", "--config", str(cf), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", ["steps=abc", "kg=abc", "seed=1.5", "optimizer=adamw"])
    def test_ill_typed_value_is_config_error(self, tmp_path, line):
        cf = tmp_path / "bad.cfg"
        cf.write_text(f"# header\n{line}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            parse_args(["run", "--config", str(cf), "--out", str(tmp_path)])
        assert main(["run", "--config", str(cf), "--out", str(tmp_path)]) == 2

    def test_sweep_file_takes_value_lists(self, tmp_path):
        cf = tmp_path / "sweep.cfg"
        cf.write_text("lr=0.001,0.01\nseed=1,2\nsteps=5\n", encoding="utf-8")
        cfg = parse_args(["sweep", "--config", str(cf), "--out", str(tmp_path)])
        assert [(rc.hp.eta, rc.seed) for rc in cfg.run_configs] == [
            (0.001, 1), (0.001, 2), (0.01, 1), (0.01, 2)
        ]

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope"), "--out", str(tmp_path)]) == 2


class TestRunCommand:
    def test_writes_schema_stable_csv(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--optimizer", "vsgd",
                "--problem", "quad:dim=3,noise=0.5",
                "--steps", "20",
                "--seed", "3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        (csv_file,) = [p for p in os.listdir(tmp_path) if p.endswith(".csv")]
        traces = read_csv(tmp_path / csv_file)
        assert len(traces) == 20
        assert traces[-1].mean_b_ghat is not None
        assert "final_loss" in capsys.readouterr().out

    def test_baseline_csv_has_empty_state_columns(self, tmp_path):
        main(
            [
                "run",
                "--optimizer", "adam",
                "--problem", "quad:dim=3,noise=0.5",
                "--steps", "5",
                "--seed", "3",
                "--out", str(tmp_path),
            ]
        )
        (csv_file,) = [p for p in os.listdir(tmp_path) if p.endswith(".csv")]
        first_lines = (tmp_path / csv_file).read_text().splitlines()
        assert first_lines[0] == CSV_HEADER
        assert first_lines[1].endswith(",,,")

    def test_diverged_run_exits_one(self, tmp_path):
        code = main(
            [
                "run",
                "--optimizer", "sgd",
                "--problem", "quad:dim=2,cond=100",
                "--lr", "10.0",
                "--steps", "500",
                "--seed", "0",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1

    def test_weight_decay_on_baseline_rejected(self, tmp_path):
        code = main(
            [
                "run",
                "--optimizer", "adam",
                "--weight-decay", "0.01",
                "--steps", "5",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2


class TestSweepCommand:
    def test_writes_one_file_per_combo_plus_summary(self, tmp_path):
        code = main(
            [
                "sweep",
                "--optimizer", "vsgd",
                "--problem", "quad:dim=2,noise=0.5",
                "--lr", "0.005,0.01",
                "--seed", "1,2",
                "--steps", "10",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        files = sorted(os.listdir(tmp_path))
        runs = [f for f in files if f.startswith("vsgd_")]
        assert len(runs) == 4
        assert "sweep_summary.csv" in files


class TestVerifyCommand:
    def test_single_suite_filter(self, capsys):
        assert main(["verify", "--suite", "positivity"]) == 0
        out = capsys.readouterr().out
        assert "positivity" in out and "PASS" in out
        assert "adam-identity" not in out

    def test_full_pass_exits_zero(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        for name in ("oracle", "adam-identity", "nsgd-limit", "positivity"):
            assert name in out

    def test_injected_fault_exits_one_and_names_property(self, capsys, monkeypatch):
        import vsgd.verify as verify_mod

        def broken_adam_identity():
            # the identity requires k_g = beta1/(1-beta1); mismatch must fail
            return verify_mod.check_adam_identity(k_g=8.5, beta1=0.9)

        monkeypatch.setitem(verify_mod.SUITES, "adam-identity", broken_adam_identity)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "adam-identity" in out and "FAIL" in out

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            parse_args(["verify", "--suite", "nope"])


class TestBenchCommand:
    def test_default_problem_is_large_quadratic(self):
        cfg = parse_args(["bench", "--steps", "10"])
        assert all(rc.problem == "quad:dim=1000000" for rc in cfg.run_configs)
        assert {rc.optimizer for rc in cfg.run_configs} == {"vsgd", "adam"}

    def test_explicit_problem_respected(self):
        cfg = parse_args(["bench", "--steps", "10", "--problem", "quad:dim=500"])
        assert all(rc.problem == "quad:dim=500" for rc in cfg.run_configs)

    def test_small_bench_reports_ratio(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--problem", "quad:dim=1000",
                "--steps", "30",
                "--seed", "0",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        assert (tmp_path / "bench.csv").exists()
