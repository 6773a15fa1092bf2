"""Training loop, trajectory recording, and run metrics.

A RunConfig pins (optimizer, problem, steps, seed, hyperparameters,
scheduler, record stride); ``run`` executes it deterministically — traces
from the same config and seed are bitwise identical on one numpy build, one
SIMD dispatch level, one BLAS kernel and one BLAS thread count (README
"Numerical notes" names the arithmetic that differs across them; OpenBLAS
runs the ``dot`` behind ``theta_norm``, ``grad_norm`` and the loss threaded
above 10000 elements) — and ``summarize`` reduces a RunResult to scalar
metrics.

Divergence: ``‖theta‖`` is checked on every step, and the full-data loss
only at record points (every ``record_stride`` steps and the last step) or
at a step whose ``‖theta‖`` is non-finite or above ``DIVERGENCE_LIMIT``.  A
run stops early with a diverged flag, recording that step, when either
check fails: ``‖theta‖`` past the limit, or a loss that is non-finite or
past the limit in magnitude.  The loss check therefore only sees record
points, so at ``record_stride > 1`` a run whose loss blows up before its
``‖theta‖`` does is flagged at a later step than at stride 1.

Traces: ``run`` appends each record point to stdlib ``array`` columns
(``array('q')`` for ``t``; one ``array('d')`` each for ``loss``,
``grad_norm``, ``theta_norm`` and every state summary the optimizer has),
and returns them as a ``Trace``, a read-only sequence of ``StepTrace`` built
on access.  A record point costs 8 bytes per column plus the arrays' growth
reserve: about 57-59 B for vsgd and so-vsgd, 50 B for constant-vsgd and
33-34 B for the baselines.  ``summarize`` and ``traceio`` read a ``Trace``
through ``Trace.column``, a whole column at a time, and build no row.
"""
from __future__ import annotations

import math
import operator
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from typing import Callable

import numpy as np

from . import baselines, constant, core, second_order
from .config import HyperParams
from .errors import ConfigError
from .problems import Problem, make_problem
from .rng import Stream, make_rng

__all__ = [
    "RunConfig",
    "StepTrace",
    "Trace",
    "RunResult",
    "Metrics",
    "OPTIMIZER_NAMES",
    "make_stepper",
    "parse_scheduler",
    "run",
    "summarize",
]

DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class RunConfig:
    optimizer: str
    problem: str
    steps: int
    seed: int
    hp: HyperParams = field(default_factory=HyperParams)
    record_stride: int = 1
    scheduler: str = "none"

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZER_NAMES:
            raise ConfigError(
                f"unknown optimizer {self.optimizer!r}; expected one of {sorted(OPTIMIZER_NAMES)}"
            )
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.seed < 0:  # PCG64 takes no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.record_stride < 1:
            raise ConfigError(f"record_stride must be >= 1, got {self.record_stride}")
        # fail fast on bad specs; the schedule never increases eta, so if the
        # last step's eta is positive every step's is
        last_eta = self.hp.eta * parse_scheduler(self.scheduler)(self.steps)
        if not last_eta > 0:
            raise ConfigError(
                f"scheduler {self.scheduler!r} drives eta to {last_eta!r} "
                f"by step {self.steps}; eta must stay > 0"
            )


@dataclass
class StepTrace:
    """One recorded iteration: scalars only, plus optimizer state summaries."""

    t: int
    loss: float
    grad_norm: float
    theta_norm: float
    mean_b_g: float | None = None
    mean_b_ghat: float | None = None
    mean_sigma2: float | None = None


_FLOAT_FIELDS = tuple(f.name for f in fields(StepTrace)[1:])


class Trace(Sequence):
    """A run's recorded steps as columns: a read-only sequence of StepTrace.

    ``t`` is an ``array('q')``; ``loss``, ``grad_norm``, ``theta_norm`` and
    each state summary the optimizer has are ``array('d')`` columns.  A
    summary the optimizer lacks has no column and reads None.  Each item is
    a new StepTrace of the Python ints and floats the columns hold, so
    mutating it leaves the trace unchanged.  A slice is a Trace with its own
    copy of the rows: it keeps none of the original's memory alive.  A Trace
    equals any sequence of equal StepTraces, a list included.  ``column``
    reads one field's values without building a row.
    """

    __slots__ = ("_t", "_columns")

    def __init__(self, t: array, columns: tuple[array | None, ...]):
        """``t`` holds the steps; ``columns`` has one entry per float
        StepTrace field, in field order: its column, or None if unrecorded.
        The Trace takes the arrays as they are, without a copy."""
        self._t, self._columns = t, columns

    def column(self, name: str) -> array | None:
        """The named StepTrace field's column, not a copy; None if unrecorded."""
        if name == "t":
            return self._t
        return self._columns[_FLOAT_FIELDS.index(name)]

    def __len__(self) -> int:
        return len(self._t)

    def __getitem__(self, i):
        if isinstance(i, slice):  # slicing an array copies it
            return Trace(self._t[i], tuple(None if c is None else c[i] for c in self._columns))
        return StepTrace(self._t[i], *[None if c is None else c[i] for c in self._columns])

    def __iter__(self):
        return map(StepTrace, self._t, *[repeat(None) if c is None else c for c in self._columns])

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"Trace({list(self)!r})"


@dataclass
class RunResult:
    """One run's outcome."""

    config: RunConfig
    traces: Trace
    diverged: bool
    steps_run: int
    initial_loss: float
    wallclock_seconds: float


@dataclass
class Metrics:
    final_loss: float
    best_loss: float
    wallclock_per_step: float


def parse_scheduler(spec: str) -> Callable[[int], float]:
    """'none' or 'halve:K' -> per-step learning-rate multiplier."""
    if spec == "none":
        return lambda t: 1.0
    kind, _, arg = spec.partition(":")
    if kind == "halve" and arg:
        try:
            every = int(arg)
        except ValueError:
            every = 0
        if every >= 1:
            return lambda t: 0.5 ** ((t - 1) // every)
    raise ConfigError(f"bad scheduler spec {spec!r}; expected 'none' or 'halve:K'")


def _mean(x: np.ndarray) -> float:
    # np.mean's own arithmetic for a float64 array, without its dispatch
    return float(x.sum()) / x.size


def _norm(x) -> float:
    """``float(np.linalg.norm(x))``, bitwise.

    For a contiguous 1-D float64 array that is ``sqrt(x.dot(x))``, computed
    here without ``norm``'s dispatch; any other gradient a custom problem
    returns goes through ``norm`` itself.
    """
    if (
        type(x) is np.ndarray
        and x.dtype == np.float64
        and x.ndim == 1
        and x.flags.c_contiguous
    ):
        return math.sqrt(x.dot(x))
    return float(np.linalg.norm(x))


def _rate_summaries(state, params):
    """Mean b_g, b_ghat and sigma2 of a VSGD or second-order state."""
    return _mean(state.b_g), _mean(state.b_ghat), _mean(core.state_sigma2(state))


def _constant_summaries(state, params):
    """Mean b_ghat and sigma2 of a Constant VSGD state."""
    return _mean(state.b_ghat), _mean(constant.state_sigma2(state, params))


_RATES = ("mean_b_g", "mean_b_ghat", "mean_sigma2")

# name -> (params class, or None for the config's hp; init(dim, hp), or None
# for no state; step as (module, function name); summary fields; summaries or
# None).  Every step is step(state, theta, g_hat, params) -> theta, and
# summaries(state, params) returns the means named by the summary fields.  A
# stepper looks its step up on the module when it is built, so a step patched
# on its module (a tracer, a test double) before then is the one it calls.
_OPTIMIZERS = {
    "vsgd": (
        None,
        core.init_state,
        (core, "vsgd_step"),
        _RATES,
        _rate_summaries,
    ),
    "constant-vsgd": (
        None,
        constant.init_constant_state,
        (constant, "cvsgd_step"),
        _RATES[1:],
        _constant_summaries,
    ),
    "so-vsgd": (
        None,
        second_order.init_so_state,
        (second_order, "so_vsgd_step"),
        _RATES,
        _rate_summaries,
    ),
    "adam": (
        baselines.AdamParams,
        lambda dim, hp: baselines.init_adam_state(dim),
        (baselines, "adam_step"),
        (),
        None,
    ),
    "amsgrad": (
        baselines.AdamParams,
        lambda dim, hp: baselines.init_adam_state(dim, amsgrad=True),
        (baselines, "amsgrad_step"),
        (),
        None,
    ),
    "sgd": (None, None, (baselines, "sgd_step"), (), None),
    "sgdm": (
        baselines.SgdmParams,
        lambda dim, hp: baselines.init_momentum_state(dim),
        (baselines, "sgdm_step"),
        (),
        None,
    ),
    "nsgd": (None, None, (baselines, "normalized_sgd_step"), (), None),
}
OPTIMIZER_NAMES = frozenset(_OPTIMIZERS)


class _Stepper:
    """One optimizer's params and state over a run; ``step`` advances theta."""

    def __init__(self, name: str, dim: int, hp: HyperParams):
        params, init, (module, fn), self.summary_fields, self._summaries = _OPTIMIZERS[name]
        self.params = hp if params is None else params(eta=hp.eta)
        self.state = None if init is None else init(dim, hp)
        self._step = getattr(module, fn)

    def step(self, theta, g_hat, eta):
        if eta != self.params.eta:  # the scheduler moved eta
            self.params = replace(self.params, eta=eta)
        return self._step(self.state, theta, g_hat, self.params)

    def summaries(self) -> Sequence[float]:
        """The current state's means named by ``summary_fields``."""
        if self._summaries is None:
            return ()
        return self._summaries(self.state, self.params)


def make_stepper(name: str, dim: int, cfg: RunConfig) -> _Stepper:
    if name not in _OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {name!r}")
    return _Stepper(name, dim, cfg.hp)


def run(config: RunConfig, problem: Problem | None = None) -> RunResult:
    """Execute one configured run; deterministic given (config, seed).

    The problem draws its noise through a ``rng.Stream`` over the seeded
    generator, which serves the per-step draws from chunks, bitwise.
    Weight decay is one pass here for every optimizer: after the sample and
    before the step, ``theta *= 1 - eta_t*weight_decay`` at the scheduled eta.
    """
    if problem is None:
        problem = make_problem(config.problem)
    eta, weight_decay = config.hp.eta, config.hp.weight_decay
    scale = parse_scheduler(config.scheduler)
    stepper = make_stepper(config.optimizer, problem.dim, config)
    rng = Stream(make_rng(config.seed))
    theta = np.array(problem.theta0, dtype=np.float64)  # the run's only theta
    initial_loss = float(problem.loss(theta))

    t_column = array("q")
    recorded = {
        name: array("d") for name in ("loss", "grad_norm", "theta_norm", *stepper.summary_fields)
    }
    diverged = False
    steps_run = 0
    start = time.perf_counter()
    for t in range(1, config.steps + 1):
        g_hat = problem.sample_grad(theta, rng)
        eta_t = eta * scale(t)
        if weight_decay:  # finite and >= 0, so this is weight_decay > 0
            theta *= 1.0 - eta_t * weight_decay
        theta = stepper.step(theta, g_hat, eta_t)
        steps_run = t
        theta_norm = math.sqrt(theta.dot(theta))  # np.linalg.norm's arithmetic
        bad = not theta_norm <= DIVERGENCE_LIMIT  # NaN fails the bound too
        record = bad or t % config.record_stride == 0 or t == config.steps
        grad_norm = _norm(g_hat) if record else None
        g_hat = None  # freed before the loss, the summaries and the next draw
        if record:
            loss = float(problem.loss(theta))
            bad = bad or not math.isfinite(loss) or abs(loss) > DIVERGENCE_LIMIT
            t_column.append(t)
            values = (loss, grad_norm, theta_norm, *stepper.summaries())
            for column, value in zip(recorded.values(), values, strict=True):
                column.append(value)
        if bad:
            diverged = True
            break
    wallclock = time.perf_counter() - start
    return RunResult(
        config=config,
        traces=Trace(t_column, tuple(map(recorded.get, _FLOAT_FIELDS))),
        diverged=diverged,
        steps_run=steps_run,
        initial_loss=initial_loss,
        wallclock_seconds=wallclock,
    )


def summarize(result: RunResult) -> Metrics:
    """Scalar metrics of a run; pure aggregation over its loss column."""
    losses = result.traces.column("loss")
    if not losses:
        raise ValueError("cannot summarize a run with no recorded traces")
    return Metrics(
        final_loss=losses[-1],
        best_loss=min(losses),
        wallclock_per_step=result.wallclock_seconds / max(result.steps_run, 1),
    )
