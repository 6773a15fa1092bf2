import csv
import dataclasses
import itertools
import os
import shlex
import tracemalloc
from pathlib import Path

import pytest

import vsgd.cli
from vsgd import HyperParams, harness
from vsgd.cli import main, parse_args
from vsgd.errors import ConfigError, NumericError
from vsgd.traceio import CSV_HEADER, read_csv


# flags whose spelling is not the field name with dashes
SPELLINGS = {"eta": "lr", "k_g": "kg", "k_h": "kh"}


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

    def test_bench_is_not_a_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["bench", "--steps", "10"])
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

    @pytest.mark.parametrize("flag", ["--lr", "--gamma", "--weight-decay", "--seed"])
    def test_sweep_rejects_non_numeric_list(self, tmp_path, flag):
        argv = ["sweep", flag, "0.1,abc", "--steps", "5", "--out", str(tmp_path)]
        assert exit_code(argv) == 2

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_fractional_seed_rejected(self, tmp_path, command):
        argv = [command, "--seed", "1.7", "--steps", "5", "--out", str(tmp_path)]
        assert exit_code(argv) == 2

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(HyperParams)])
    def test_every_hyperparameter_has_a_flag_a_sweep_list_and_a_config_key(
        self, tmp_path, name
    ):
        key = SPELLINGS.get(name, name)
        default = getattr(HyperParams(), name)
        value = 0.75 if name.startswith("kappa") else 0.5
        out = ["--out", str(tmp_path)]

        (rc,) = parse_args(["run", f"--{key.replace('_', '-')}", str(value), *out]).run_configs
        assert getattr(rc.hp, name) == value

        argv = ["sweep", f"--{key.replace('_', '-')}", f"{default!r},{value!r}", *out]
        assert [getattr(rc.hp, name) for rc in parse_args(argv).run_configs] == [default, value]

        cf = tmp_path / "run.cfg"
        cf.write_text(f"{key}={value}\n", encoding="utf-8")
        (rc,) = parse_args(["run", "--config", str(cf), *out]).run_configs
        assert getattr(rc.hp, name) == value

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_help_gives_each_hyperparameter_its_docstring_text(self, command, capsys):
        assert exit_code([command, "--help"]) == 0
        flat = "".join(capsys.readouterr().out.split())  # argparse wraps lines
        assert "".join("prior strength".split()) in flat
        for f in dataclasses.fields(HyperParams):
            text = vsgd.cli._FIELD_DOCS[f.name]
            assert text and "".join(f"{text} (default {f.default:g})".split()) in flat

    def test_help_without_docstring_text_names_the_field(self, monkeypatch, capsys):
        """Under ``python -OO`` the ``HyperParams`` docstring is gone: the
        help falls back to the field's name instead of failing."""
        assert vsgd.cli._field_docs("HyperParams(eta: float = 0.01, gamma: float = 0.1)") == {}
        monkeypatch.setattr(vsgd.cli, "_FIELD_DOCS", {})
        assert exit_code(["run", "--help"]) == 0
        flat = "".join(capsys.readouterr().out.split())
        for f in dataclasses.fields(HyperParams):
            assert f"HyperParams.{f.name}(default{f.default:g})" in flat

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

    def test_sweep_crosses_optimizer_list(self, tmp_path):
        cfg = parse_args(
            ["sweep", "--optimizer", "vsgd,adam", "--seed", "1,2", "--out", str(tmp_path)]
        )
        assert [(rc.optimizer, rc.seed) for rc in cfg.run_configs] == [
            ("vsgd", 1), ("vsgd", 2), ("adam", 1), ("adam", 2)
        ]

    @pytest.mark.parametrize("decays", [[0.0, 0.01], [0.01, 0.1]], ids=["with-0", "without-0"])
    def test_sweep_gives_weight_decay_grid_to_every_optimizer(self, tmp_path, decays):
        cfg = parse_args(
            ["sweep", "--optimizer", "vsgd,adam,sgdm",
             "--weight-decay", ",".join(map(str, decays)), "--out", str(tmp_path)]
        )
        assert [(rc.optimizer, rc.hp.weight_decay) for rc in cfg.run_configs] == [
            (name, wd) for name in ("vsgd", "adam", "sgdm") for wd in decays
        ]

    def test_sweep_rejects_unknown_optimizer_in_list(self, tmp_path, capsys):
        argv = ["sweep", "--optimizer", "vsgd,adamw", "--steps", "5", "--out", str(tmp_path)]
        assert exit_code(argv) == 2
        assert "expected one of" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_run_rejects_unknown_optimizer_naming_the_valid_ones(self, tmp_path, capsys):
        argv = ["run", "--optimizer", "adamw", "--steps", "5", "--out", str(tmp_path)]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "expected one of" in err and "constant-vsgd" in err
        assert list(tmp_path.iterdir()) == []

    def test_schedule_that_underflows_eta_exits_two_before_writing(self, tmp_path):
        out = tmp_path / "out"
        argv = [
            "sweep", "--optimizer", "vsgd", "--problem", "quad:dim=2",
            "--steps", "1200", "--seed", "0,1", "--scheduler", "halve:1",
            "--out", str(out),
        ]
        assert exit_code(argv) == 2
        assert not out.exists()


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

    def test_unknown_optimizer_in_sweep_file_rejected(self, tmp_path):
        cf = tmp_path / "bad.cfg"
        cf.write_text("seed=1,2\noptimizer=vsgd,adamw\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad.cfg:2.*adamw"):
            parse_args(["sweep", "--config", str(cf), "--out", str(tmp_path)])
        assert main(["sweep", "--config", str(cf), "--out", str(tmp_path)]) == 2

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

    def test_numeric_error_exits_one_with_error_line(self, tmp_path, capsys):
        # mu_g starts at 0, so an unguarded gradient ratio raises at step 1
        argv = ["run", "--optimizer", "so-vsgd", "--mu-guard-eps", "0", "--steps", "5"]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags", [["--seed", "-1"], ["--problem", "logreg:seed=-1"], ["--problem", "mlp:seed=-1"]]
    )
    def test_negative_seed_is_config_error(self, tmp_path, capsys, flags):
        assert main(["run", *flags, "--steps", "5", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed must be >= 0" in err

    @pytest.mark.parametrize(
        "flags", [["--gamma", "inf"], ["--weight-decay", "nan"], ["--gamma", "1e308"]]
    )
    def test_non_finite_hyperparameter_exits_two_before_writing(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert main(["run", *flags, "--steps", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
        assert not out.exists()

    def test_unallocatable_problem_exits_two_without_traceback(self, tmp_path, capsys):
        # numpy refuses 1e13 float64s (72.8 TiB) at once, without touching memory
        argv = ["run", "--problem", "quad:dim=1e13", "--steps", "1", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and "Traceback" not in err

    def test_weight_decay_sweep_runs_every_optimizer(self, tmp_path):
        names = sorted(harness.OPTIMIZER_NAMES)
        argv = ["sweep", "--optimizer", ",".join(names), "--weight-decay", "0,0.01",
                "--steps", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        with open(tmp_path / "sweep_summary.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["optimizer"], r["weight_decay"], r["status"]) for r in rows] == [
            (name, wd, "ok") for name in names for wd in ("0.0", "0.01")
        ]


class TestSweepCommand:
    def test_sweep_peaks_at_one_run(self, tmp_path):
        """A sweep frees each run's trace before the next run records, so
        two 10000-step runs peak where one does; holding the first run's
        trace through the second reads 1.27x."""
        common = ["--optimizer", "vsgd", "--problem", "quad:dim=10,noise=1", "--steps", "10000"]
        main(["run", "--steps", "2", "--out", str(tmp_path / "warm")])  # lazy imports

        def peak(argv, out):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert main([*argv, *common, "--out", str(tmp_path / out)]) == 0
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        one = peak(["run", "--seed", "1"], "run")
        sweep = peak(["sweep", "--seed", "1,2"], "sweep")
        assert sweep <= 1.1 * one, sweep / one

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

    def test_multi_optimizer_sweep_matches_single_runs(self, tmp_path, capsys):
        common = ["--problem", "quad:dim=3,noise=0.5", "--steps", "40", "--record-stride", "3"]
        sweep_dir = tmp_path / "sweep"
        code = main(
            ["sweep", "--optimizer", "vsgd,adam,sgd", "--lr", "0.01,0.05",
             "--seed", "1,2", *common, "--out", str(sweep_dir)]
        )
        assert code == 0
        ranking = capsys.readouterr().out.split("sweep summary -> ", 1)[1].splitlines()[2:]
        runs = 3 * 2 * 2
        assert len(list(sweep_dir.iterdir())) == runs + 1
        assert len((sweep_dir / "sweep_summary.csv").read_text().splitlines()) == runs + 1
        with open(sweep_dir / "sweep_summary.csv", newline="") as fh:
            summary = list(csv.reader(fh))
        for optimizer, lr, seed in itertools.product(("vsgd", "adam", "sgd"), ("0.01", "0.05"), "12"):
            single_dir = tmp_path / f"{optimizer}-{lr}-{seed}"
            argv = ["run", "--optimizer", optimizer, "--lr", lr, "--seed", seed, *common]
            assert main([*argv, "--out", str(single_dir)]) == 0
            (trace,) = single_dir.iterdir()
            assert trace.read_bytes() == (sweep_dir / trace.name).read_bytes()

        # one ranking line per optimizer: its best lr, by mean final loss over seeds
        finals = {}
        for optimizer, _, lr, _, _, final, *_ in summary[1:]:
            finals.setdefault((optimizer, float(lr)), []).append(float(final))
        means = {key: sum(v) / len(v) for key, v in finals.items()}
        names = [line.split()[0] for line in ranking]
        losses = [float(line.split()[3]) for line in ranking]
        assert sorted(names) == ["adam", "sgd", "vsgd"]
        assert losses == sorted(losses)
        for line in ranking:
            optimizer, lr = line.split()[:2]
            best = min(m for (o, _), m in means.items() if o == optimizer)
            assert means[optimizer, float(lr)] == best

    def test_values_that_print_alike_under_g_get_distinct_names(self, tmp_path, capsys):
        # :g keeps 6 significant digits, so both lrs would read 0.1
        argv = ["sweep", "--optimizer", "vsgd", "--problem", "quad:dim=3,noise=1",
                "--lr", "0.1,0.1000001", "--steps", "20", "--out", str(tmp_path)]
        assert main(argv) == 0
        ranking = capsys.readouterr().out.split("sweep summary -> ", 1)[1].splitlines()[1:]
        traces = sorted(p.name for p in tmp_path.iterdir() if p.name != "sweep_summary.csv")
        assert traces == [
            "vsgd_quad-dim-3-noise-1_lr0.1000001_wd0_seed0.csv",
            "vsgd_quad-dim-3-noise-1_lr0.1_wd0_seed0.csv",
        ]
        with open(tmp_path / "sweep_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["lr"] for row in rows] == ["0.1", "0.1000001"]
        best = min(rows, key=lambda row: float(row["final_loss"]))["lr"]
        assert ranking[1].split()[1] == best  # the ranking names the best lr exactly
        assert vsgd.cli._label(0.1) == "0.1" and vsgd.cli._label(0.1000001) == "0.1000001"
        assert vsgd.cli._label(1e-8) == "1e-08" and vsgd.cli._label(30.0) == "30"
        assert vsgd.cli._label(1 / 3) == repr(1 / 3)

    @pytest.mark.parametrize(
        "flags", [["--seed", "1,1"], ["--lr", "0.1,0.1"], ["--weight-decay", "0,-0"]]
    )
    def test_repeated_run_exits_two_before_writing(self, tmp_path, capsys, flags):
        # the repeat would overwrite its trace file and count as two seeds
        out = tmp_path / "out"
        argv = ["sweep", "--optimizer", "vsgd", "--problem", "quad:dim=3,noise=1", *flags,
                "--steps", "20", "--out", str(out)]
        assert exit_code(argv) == 2
        assert "more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_quotes_problem_spec_with_commas(self, tmp_path):
        spec = "quad:dim=3,noise=0.5"
        argv = ["sweep", "--optimizer", "vsgd", "--problem", spec, "--lr", "0.005,0.01",
                "--steps", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        path = tmp_path / "sweep_summary.csv"
        assert len(path.read_text().splitlines()) == 3  # one line per run
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [9, 9, 9]
        assert [row[1] for row in rows[1:]] == [spec, spec]
        assert [float(row[2]) for row in rows[1:]] == [0.005, 0.01]

    def test_prior_grid_names_the_swept_priors(self, tmp_path, capsys):
        argv = ["sweep", "--optimizer", "vsgd", "--problem", "logreg:n=200,d=5",
                "--gamma", "1e-8,1e-4", "--kg", "10,30", "--seed", "1,2", "--steps", "30"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        ranking = capsys.readouterr().out.split("sweep summary -> ", 1)[1].splitlines()[1:]
        traces = sorted(p.name for p in tmp_path.iterdir() if p.name != "sweep_summary.csv")
        for seed in (1, 2):
            assert [t for t in traces if t.endswith(f"_seed{seed}.csv")] == [
                f"vsgd_logreg-n-200-d-5_lr0.01_gamma{g}_kg{k}_wd0_seed{seed}.csv"
                for g, k in [("0.0001", "10"), ("0.0001", "30"), ("1e-08", "10"), ("1e-08", "30")]
            ]
        with open(tmp_path / "sweep_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[:6] == ["optimizer", "problem", "lr", "gamma", "kg", "weight_decay"]
        finals = {}
        for row in rows:
            finals.setdefault((float(row["gamma"]), float(row["kg"])), []).append(
                float(row["final_loss"])
            )
        assert len(finals) == 4 and all(len(v) == 2 for v in finals.values())

        # four (gamma, kg) groups of two seeds each; the best one is printed
        header, (line,) = ranking[0].split(), ranking[1:]
        assert header == ["optimizer", "lr", "gamma", "kg", "weight_decay", "mean_final_loss", "seeds"]
        _, _, gamma, kg, _, _, seeds = line.split()
        means = {key: sum(v) / 2 for key, v in finals.items()}
        assert (float(gamma), float(kg)) == min(means, key=means.get)
        assert seeds == "2"

    def test_ranking_puts_non_finite_means_last(self, tmp_path, capsys, monkeypatch):
        def run_with_nan_adam(rc):
            result = harness.run(rc)
            if rc.optimizer == "adam":  # a result whose trace ends in a NaN loss
                traces = list(result.traces)
                traces[-1] = dataclasses.replace(traces[-1], loss=float("nan"))
                result = dataclasses.replace(result, traces=traces)
            return result

        monkeypatch.setattr(vsgd.cli, "run", run_with_nan_adam)
        argv = ["sweep", "--optimizer", "adam,sgd,vsgd", "--steps", "20", "--seed", "1,2"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        ranking = capsys.readouterr().out.split("sweep summary -> ", 1)[1].splitlines()[2:]
        assert [line.split()[0] for line in ranking][-1] == "adam"
        assert ranking[-1].split()[3] == "nan"

    def test_numeric_error_in_one_run_is_its_row(self, tmp_path, capsys, monkeypatch):
        def run_with_failing_adam(rc):
            if rc.optimizer == "adam" and rc.seed == 2:
                raise NumericError("non-finite gradient rejected")
            return harness.run(rc)

        monkeypatch.setattr(vsgd.cli, "run", run_with_failing_adam)
        argv = ["sweep", "--optimizer", "adam,sgd", "--steps", "20", "--seed", "1,2"]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert err == "error: adam_quad_lr0.01_wd0_seed2: non-finite gradient rejected\n"
        traces = sorted(p.name for p in tmp_path.iterdir() if p.name != "sweep_summary.csv")
        assert traces == [
            "adam_quad_lr0.01_wd0_seed1.csv",
            "sgd_quad_lr0.01_wd0_seed1.csv",
            "sgd_quad_lr0.01_wd0_seed2.csv",
        ]
        with open(tmp_path / "sweep_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["optimizer"], r["seed"], r["status"]) for r in rows] == [
            ("adam", "1", "ok"), ("adam", "2", "error"), ("sgd", "1", "ok"), ("sgd", "2", "ok")
        ]
        assert rows[1]["final_loss"] == "nan"
        # the failed seed makes adam's mean NaN, which ranks last
        ranking = out.split("sweep summary -> ", 1)[1].splitlines()[2:]
        assert [line.split()[0] for line in ranking] == ["sgd", "adam"]


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


def _readme_commands():
    """Every ``vsgd ...`` command in README's sh blocks, continuations joined."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands, in_sh, pending = [], False, ""
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            continue
        if not in_sh:
            continue
        pending += line.split("#", 1)[0].strip()
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        if pending.startswith("vsgd "):
            commands.append(pending)
        pending = ""
    return commands


def test_readme_commands_are_found():
    subcommands = {shlex.split(c)[1] for c in _readme_commands()}
    assert {"run", "sweep", "verify"} <= subcommands


@pytest.mark.parametrize("command", _readme_commands(), ids=lambda c: shlex.split(c)[1])
def test_readme_cli_lines_parse(command, tmp_path, monkeypatch):
    monkeypatch.setenv("VSGD_OUT_DIR", str(tmp_path))
    cfg = parse_args(shlex.split(command)[1:])
    assert cfg.command == shlex.split(command)[1]
