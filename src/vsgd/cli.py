"""Command-line front end: run experiments, sweeps, and checks.

    vsgd run    --optimizer vsgd --problem quad --steps 100 --seed 1 --out d/
    vsgd sweep  --optimizer vsgd,adam --problem logreg --lr 0.001,0.01 \
                --seed 1,2,3 --steps 500 --out d/
    vsgd verify [--suite oracle]

``sweep`` runs the cross product of its comma lists (optimizer, lr,
weight-decay, seed), where optimizers without weight decay take only the
weight-decay list's 0 entries; it writes one trace CSV per run plus
sweep_summary.csv, and prints each optimizer's best (lr, weight-decay) by
mean final loss over seeds.  A config file (--config FILE, flat key=value
lines mirroring the long flag names) supplies defaults; explicit flags
override it.  --out falls back to the VSGD_OUT_DIR environment variable.
Exit codes: 0 success, 1 verification or run failure, 2 I/O or
configuration error.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import statistics
import sys
from dataclasses import dataclass, field

from .config import HyperParams
from .errors import ConfigError
from .harness import OPTIMIZER_NAMES, WEIGHT_DECAY_OPTIMIZERS, RunConfig, run, summarize
from .traceio import write_csv
from .verify import SUITES, run_suites

__all__ = ["CliConfig", "parse_args", "main", "entry"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


@dataclass
class CliConfig:
    command: str
    out_dir: str | None = None
    run_configs: list[RunConfig] = field(default_factory=list)
    suites: list[str] | None = None  # verify


def _comma_list(convert):
    """Argparse type: comma-separated values, each through ``convert``."""

    def parse(text: str) -> list:
        values = [convert(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise ValueError(f"empty list {text!r}")
        return values

    parse.__name__ = f"{convert.__name__} list"  # argparse names it in errors
    return parse


def optimizer_name(text: str) -> str:
    """Argparse type: one registered optimizer name."""
    name = text.strip()
    if name not in OPTIMIZER_NAMES:
        raise ValueError(
            f"unknown optimizer {name!r}; expected one of {', '.join(sorted(OPTIMIZER_NAMES))}"
        )
    return name


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="vsgd", description="Variational SGD experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser, lists: bool) -> None:
        floats, ints = (_comma_list(float), _comma_list(int)) if lists else (float, int)
        p.add_argument("--config", help="key=value config file; flags override it")
        if lists:
            p.add_argument(
                "--optimizer",
                type=_comma_list(optimizer_name),
                default="vsgd",
                help=f"comma list of {', '.join(sorted(OPTIMIZER_NAMES))}",
            )
        else:
            p.add_argument("--optimizer", choices=sorted(OPTIMIZER_NAMES), default="vsgd")
        p.add_argument("--problem", default="quad")
        p.add_argument("--lr", type=floats, default=None, help="learning rate")
        p.add_argument("--gamma", type=float, default=None, help="prior strength")
        p.add_argument("--kg", type=float, default=None, help="variance ratio K_g")
        p.add_argument("--kh", type=float, default=None, help="variance ratio K_h")
        p.add_argument("--kappa1", type=float, default=None)
        p.add_argument("--kappa2", type=float, default=None)
        p.add_argument("--kappa", type=float, default=None)
        p.add_argument("--weight-decay", type=floats, default=None)
        p.add_argument("--steps", type=int, default=1000)
        p.add_argument("--seed", type=ints, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--record-stride", type=int, default=1)
        p.add_argument("--scheduler", default="none", help="'none' or 'halve:K'")

    p_run = sub.add_parser("run", help="execute one configured run")
    add_run_flags(p_run, lists=False)

    p_sweep = sub.add_parser(
        "sweep", help="cross-product over comma-separated optimizer/lr/weight-decay/seed"
    )
    add_run_flags(p_sweep, lists=True)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument(
        "--suite", action="append", choices=sorted(SUITES), default=None
    )
    return parser, {"run": p_run, "sweep": p_sweep}


def _apply_config_file(parser: argparse.ArgumentParser, path: str) -> None:
    """Load key=value lines as ``parser``'s defaults; flags still win.

    The keys are the parser's long flag names, and each value goes through
    its flag's type and choices, so a bad value is a ConfigError at file:line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    actions = {
        action.dest: action
        for action in parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    defaults: dict[str, object] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        action = actions.get(key.strip().replace("-", "_"))
        if not sep or action is None:
            raise ConfigError(f"{path}:{lineno}: unknown config line {raw.strip()!r}")
        value = value.strip()
        try:
            typed = value if action.type is None else action.type(value)
            if action.choices is not None and typed not in action.choices:
                raise ValueError(f"expected one of {', '.join(action.choices)}")
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: invalid {action.dest} value {value!r}: {exc}"
            ) from None
        defaults[action.dest] = typed
    parser.set_defaults(**defaults)


def _hp_from_ns(ns, lr: float, weight_decay: float) -> HyperParams:
    kwargs = dict(eta=lr, weight_decay=weight_decay)
    for flag, fieldname in (
        ("gamma", "gamma"),
        ("kg", "k_g"),
        ("kh", "k_h"),
        ("kappa1", "kappa1"),
        ("kappa2", "kappa2"),
        ("kappa", "kappa"),
    ):
        value = getattr(ns, flag)
        if value is not None:
            kwargs[fieldname] = value
    return HyperParams(**kwargs)


def _values(raw, default) -> list:
    """A flag's value as a list: one value, a sweep list, or the default."""
    if raw is None:
        return [default]
    return raw if isinstance(raw, list) else [raw]


def parse_args(argv: list[str]) -> CliConfig:
    """Parse (and fully validate) a command line into a CliConfig.

    argparse usage problems exit with status 2; semantic problems raise
    ConfigError, which main() also maps to exit status 2.
    """
    parser, subparsers = _build_parser()
    ns = parser.parse_args(list(argv))
    if getattr(ns, "config", None) is not None:
        # the subcommand's parser owns the flags, so the defaults land there
        _apply_config_file(subparsers[ns.command], ns.config)
        ns = parser.parse_args(list(argv))

    if ns.command == "verify":
        return CliConfig(command="verify", suites=ns.suite)

    out_dir = ns.out or os.environ.get("VSGD_OUT_DIR") or None
    if not out_dir:
        raise ConfigError("an output directory is required (--out or VSGD_OUT_DIR)")

    optimizers = _values(ns.optimizer, default="vsgd")
    lrs = _values(ns.lr, default=0.01)
    decays = _values(ns.weight_decay, default=0.0)
    seeds = _values(ns.seed, default=0)
    # optimizers without weight decay take only the grid's 0 entries
    undecayed = [name for name in optimizers if name not in WEIGHT_DECAY_OPTIMIZERS]
    if undecayed and 0 not in decays:
        raise ConfigError(
            f"weight decay {','.join(f'{d:g}' for d in decays)} has no 0 entry for "
            f"{', '.join(undecayed)}; only {', '.join(sorted(WEIGHT_DECAY_OPTIMIZERS))} "
            "takes weight decay"
        )
    configs = [
        RunConfig(
            optimizer=optimizer,
            problem=ns.problem,
            steps=ns.steps,
            seed=seed,
            hp=_hp_from_ns(ns, lr, decay),
            record_stride=ns.record_stride,
            scheduler=ns.scheduler,
        )
        for optimizer, lr, decay, seed in itertools.product(optimizers, lrs, decays, seeds)
        if decay == 0 or optimizer in WEIGHT_DECAY_OPTIMIZERS
    ]
    return CliConfig(command=ns.command, out_dir=out_dir, run_configs=configs)


def _slug(config: RunConfig) -> str:
    problem = "".join(c if c.isalnum() else "-" for c in config.problem)
    return (
        f"{config.optimizer}_{problem}_lr{config.hp.eta:g}"
        f"_wd{config.hp.weight_decay:g}_seed{config.seed}"
    )


def _cmd_run(cfg: CliConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    failed = False
    summary_rows = []
    for rc in cfg.run_configs:
        result = run(rc)
        path = os.path.join(cfg.out_dir, _slug(rc) + ".csv")
        write_csv(result.traces, path)
        metrics = summarize(result)
        status = "DIVERGED" if result.diverged else "ok"
        print(
            f"{_slug(rc)}: {status} final_loss={metrics.final_loss:.6g} "
            f"best_loss={metrics.best_loss:.6g} "
            f"sec_per_step={metrics.wallclock_per_step:.3e} -> {path}"
        )
        summary_rows.append((rc, metrics, result.diverged))
        failed = failed or result.diverged
    if len(summary_rows) > 1:
        spath = os.path.join(cfg.out_dir, "sweep_summary.csv")
        with open(spath, "w", encoding="utf-8", newline="") as fh:
            # the writer quotes a problem spec that holds commas
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["optimizer", "problem", "lr", "weight_decay", "seed",
                 "final_loss", "best_loss", "sec_per_step", "diverged"]
            )
            for rc, metrics, diverged in summary_rows:
                writer.writerow(
                    [rc.optimizer, rc.problem, repr(rc.hp.eta),
                     repr(rc.hp.weight_decay), rc.seed, repr(metrics.final_loss),
                     repr(metrics.best_loss), repr(metrics.wallclock_per_step),
                     int(diverged)]
                )
        print(f"sweep summary -> {spath}")
        _print_ranking(summary_rows)
    return EXIT_FAILURE if failed else EXIT_OK


def _print_ranking(summary_rows) -> None:
    """Each optimizer's best (lr, weight decay) by mean final loss over seeds.

    Optimizers are listed best first; a non-finite mean (a diverged seed)
    ranks last.
    """
    finals: dict[tuple[str, float, float], list[float]] = {}
    for rc, metrics, _ in summary_rows:
        key = (rc.optimizer, rc.hp.eta, rc.hp.weight_decay)
        finals.setdefault(key, []).append(metrics.final_loss)
    means = [(statistics.fmean(losses), key) for key, losses in finals.items()]
    means.sort(key=lambda m: m[0] if math.isfinite(m[0]) else math.inf)
    print(f"{'optimizer':<14} {'lr':>8} {'weight_decay':>12} {'mean_final_loss':>16} seeds")
    ranked = set()
    for mean, (name, lr, decay) in means:
        if name not in ranked:
            ranked.add(name)
            print(f"{name:<14} {lr:>8g} {decay:>12g} {mean:>16.6g} {len(finals[name, lr, decay])}")


def _cmd_verify(cfg: CliConfig) -> int:
    results = run_suites(cfg.suites)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
        all_ok = all_ok and r.passed
    return EXIT_OK if all_ok else EXIT_FAILURE


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_args(argv)
        if cfg.command == "verify":
            return _cmd_verify(cfg)
        return _cmd_run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
