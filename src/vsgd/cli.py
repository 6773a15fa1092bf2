"""Command-line front end: run experiments, sweeps, and checks.

    vsgd run    --optimizer vsgd --problem quad --steps 100 --seed 1 --out d/
    vsgd sweep  --optimizer vsgd,adam --problem logreg --lr 0.001,0.01 \
                --seed 1,2,3 --steps 500 --out d/
    vsgd verify [--suite oracle]

``run`` and ``sweep`` share one flag set; ``run`` takes one value per flag.
Each ``HyperParams`` field has a flag: ``--lr`` (eta), ``--kg``, ``--kh``,
and ``--<field>`` for the rest, whose help is the field's text in the
``HyperParams`` docstring.  ``sweep`` runs the cross product of its
comma lists (optimizer, every hyperparameter, seed), and a grid that
gives one run twice is a configuration error; it writes one trace
CSV per run plus sweep_summary.csv, whose status column reads ok, diverged
or error (a run that raised NumericError, printed as an error line; the
other runs go on), and prints each optimizer's best hyperparameters by mean
final loss over seeds.  File names and columns name lr, weight decay and any
other hyperparameter that varies (``_label``).  A config file
(--config FILE, key=value lines mirroring the long flag names) supplies
defaults that flags override.  --out falls back to VSGD_OUT_DIR.  Exit codes:
0 success, 1 verification failure, divergence or NumericError, 2 I/O, usage
or configuration error (a non-finite hyperparameter too) or out of memory.
"""
from __future__ import annotations

import argparse
import collections
import csv
import inspect
import itertools
import math
import os
import statistics
import sys
from dataclasses import dataclass, field, fields

from .config import HyperParams
from .errors import ConfigError, NumericError
from .harness import OPTIMIZER_NAMES, Metrics, RunConfig, run, summarize
from .traceio import write_csv
from .verify import SUITES, run_suites

__all__ = ["CliConfig", "parse_args", "main", "entry"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2

# HyperParams field -> its flag, config key and output column (underscored);
# three keep the spellings the CLI had before its flags were derived
_HP_NAMES = {f.name: f.name for f in fields(HyperParams)} | {"eta": "lr", "k_g": "kg", "k_h": "kh"}


def _field_docs(doc: str) -> dict[str, str]:
    """Field name -> its text in a docstring's ``name: text`` list.

    An entry may name several fields (``kappa1, kappa2: ...``) and run on
    over indented lines; the text is joined into one line.
    """
    docs: dict[str, str] = {}
    names: list[str] = []
    for line in inspect.cleandoc(doc).splitlines():
        head, sep, text = line.partition(":")
        if sep and line[:1].isalpha() and all(n.strip().isidentifier() for n in head.split(",")):
            names = [n.strip() for n in head.split(",")]
            for n in names:
                docs[n] = text.strip()
        elif line[:1].isspace() and names:
            for n in names:
                docs[n] += " " + line.strip()
        else:
            names = []
    return docs


# python -OO strips the docstring: a field with no text is helped by its name
_FIELD_DOCS = _field_docs(HyperParams.__doc__ or "")
# a run that raised has no metrics; NaN ranks it last, as a diverged run
_NO_METRICS = Metrics(math.nan, math.nan, math.nan)


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
    """Argparse type: one registered optimizer name.

    Raises ArgumentTypeError, whose text argparse prints (a ValueError's it
    drops), so a flag's error lists the names as a config file's does.
    """
    name = text.strip()
    if name not in OPTIMIZER_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown optimizer {name!r}; expected one of {', '.join(sorted(OPTIMIZER_NAMES))}"
        )
    return name


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="vsgd", description="Variational SGD experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # run and sweep share these flags; run takes one value of each
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", help="key=value config file; flags override it")
    flags.add_argument("--optimizer", type=_comma_list(optimizer_name), default=["vsgd"],
                       help=f"comma list of {', '.join(sorted(OPTIMIZER_NAMES))}")
    flags.add_argument("--problem", default="quad")
    floats = _comma_list(float)
    for name, label in _HP_NAMES.items():
        default = getattr(HyperParams, name)
        text = _FIELD_DOCS.get(name, f"HyperParams.{name}")
        flags.add_argument("--" + label.replace("_", "-"), dest=name, type=floats,
                           default=[default], help=f"{text} (default {default:g})")
    flags.add_argument("--steps", type=int, default=1000)
    flags.add_argument("--seed", type=_comma_list(int), default=[0])
    flags.add_argument("--out", default=None, help="output directory")
    flags.add_argument("--record-stride", type=int, default=1)
    flags.add_argument("--scheduler", default="none", help="'none' or 'halve:K'")

    p_run = sub.add_parser("run", parents=[flags], help="execute one run (one value per flag)")
    p_sweep = sub.add_parser(
        "sweep", parents=[flags], help="cross product of the optimizer/hyperparameter/seed lists"
    )

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument(
        "--suite", action="append", choices=sorted(SUITES), default=None
    )
    return parser, {"run": p_run, "sweep": p_sweep}


def _apply_config_file(parser: argparse.ArgumentParser, path: str) -> None:
    """Load key=value lines as ``parser``'s defaults; flags still win.

    The keys are the parser's long flag names, and each value goes through
    its flag's type, so a bad value is a ConfigError at file:line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    actions = {
        option: action
        for action in parser._actions
        if action.dest not in ("help", "config")
        for option in action.option_strings
    }
    defaults: dict[str, object] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        action = actions.get("--" + key.replace("_", "-"))
        if not sep or action is None:
            raise ConfigError(f"{path}:{lineno}: unknown config line {raw.strip()!r}")
        value = value.strip()
        try:
            typed = value if action.type is None else action.type(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(
                f"{path}:{lineno}: invalid {key} value {value!r}: {exc}"
            ) from None
        defaults[action.dest] = typed
    parser.set_defaults(**defaults)


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

    grid = itertools.product(
        ns.optimizer, *(getattr(ns, name) for name in _HP_NAMES), ns.seed
    )
    configs = [
        RunConfig(
            optimizer=optimizer, problem=ns.problem, steps=ns.steps, seed=seed,
            hp=HyperParams(**dict(zip(_HP_NAMES, values))),
            record_stride=ns.record_stride, scheduler=ns.scheduler,
        )
        for optimizer, *values, seed in grid
    ]
    if ns.command == "run" and len(configs) > 1:
        subparsers["run"].error(
            f"the flags give {len(configs)} runs; run takes one value per flag (use sweep)"
        )
    # a repeated run would overwrite its trace file and count twice in the ranking
    repeated = [rc for rc, n in collections.Counter(configs).items() if n > 1]
    if repeated:
        raise ConfigError(
            f"the flags give run {_slug(repeated[0], _named_fields(configs))} more than once; "
            "each run in a sweep must differ"
        )
    return CliConfig(command=ns.command, out_dir=out_dir, run_configs=configs)


def _named_fields(configs: list[RunConfig]) -> list[str]:
    """HyperParams fields that outputs name: eta, weight_decay and any that vary."""
    return [
        name
        for name in _HP_NAMES
        if name in ("eta", "weight_decay")
        or len({getattr(rc.hp, name) for rc in configs}) > 1
    ]


def _label(value: float) -> str:
    """``:g`` text if it reads back as ``value`` (not so for 0.1000001), else repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _slug(config: RunConfig, named: list[str]) -> str:
    problem = "".join(c if c.isalnum() else "-" for c in config.problem)
    hps = "".join(
        f"_{'wd' if name == 'weight_decay' else _HP_NAMES[name]}"
        f"{_label(getattr(config.hp, name))}"
        for name in named
    )
    return f"{config.optimizer}_{problem}{hps}_seed{config.seed}"


def _cmd_run(cfg: CliConfig) -> int:
    """Run every config; a run's NumericError is its row, not the sweep's end."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    named = _named_fields(cfg.run_configs)
    summary_rows = []
    for rc in cfg.run_configs:
        slug = _slug(rc, named)
        try:
            result = run(rc)
        except NumericError as exc:
            print(f"error: {slug}: {exc}", file=sys.stderr)
            summary_rows.append((rc, _NO_METRICS, "error"))
            continue
        path = os.path.join(cfg.out_dir, slug + ".csv")
        write_csv(result.traces, path)
        metrics = summarize(result)
        status = "diverged" if result.diverged else "ok"
        del result  # the next run records without this run's trace alive
        print(
            f"{slug}: {status} final_loss={metrics.final_loss:.6g} "
            f"best_loss={metrics.best_loss:.6g} "
            f"sec_per_step={metrics.wallclock_per_step:.3e} -> {path}"
        )
        summary_rows.append((rc, metrics, status))
    if len(summary_rows) > 1:
        spath = os.path.join(cfg.out_dir, "sweep_summary.csv")
        with open(spath, "w", encoding="utf-8", newline="") as fh:
            # the writer quotes a problem spec that holds commas
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["optimizer", "problem", *(_HP_NAMES[name] for name in named), "seed",
                 "final_loss", "best_loss", "sec_per_step", "status"]
            )
            for rc, metrics, status in summary_rows:
                writer.writerow(
                    [rc.optimizer, rc.problem,
                     *(repr(getattr(rc.hp, name)) for name in named), rc.seed,
                     repr(metrics.final_loss), repr(metrics.best_loss),
                     repr(metrics.wallclock_per_step), status]
                )
        print(f"sweep summary -> {spath}")
        _print_ranking(summary_rows, named)
    failed = any(status != "ok" for _, _, status in summary_rows)
    return EXIT_FAILURE if failed else EXIT_OK


def _print_ranking(summary_rows, named: list[str]) -> None:
    """Each optimizer's best hyperparameters by mean final loss over seeds.

    Runs group by (optimizer, hp), printed as the ``named`` fields.  Optimizers
    are listed best first; a non-finite mean (a diverged seed) ranks last.
    """
    finals: dict[tuple[str, HyperParams], list[float]] = {}
    for rc, metrics, _ in summary_rows:
        finals.setdefault((rc.optimizer, rc.hp), []).append(metrics.final_loss)
    means = [(statistics.fmean(losses), key) for key, losses in finals.items()]
    means.sort(key=lambda m: m[0] if math.isfinite(m[0]) else math.inf)
    widths = {name: max(8, len(_HP_NAMES[name])) for name in named}
    header = "".join(f" {_HP_NAMES[name]:>{width}}" for name, width in widths.items())
    print(f"{'optimizer':<14}{header} {'mean_final_loss':>16} seeds")
    ranked = set()
    for mean, (optimizer, hp) in means:
        if optimizer not in ranked:
            ranked.add(optimizer)
            cells = "".join(
                f" {_label(getattr(hp, name)):>{width}}" for name, width in widths.items()
            )
            print(f"{optimizer:<14}{cells} {mean:>16.6g} {len(finals[optimizer, hp])}")


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
    except MemoryError as exc:  # a problem too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
