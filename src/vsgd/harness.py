"""Training loop, trajectory recording, and run metrics.

A RunConfig pins (optimizer, problem, steps, seed, hyperparameters,
scheduler, record stride); ``run`` executes it deterministically — traces
from the same config and seed are bitwise identical — and ``summarize``
reduces a RunResult to scalar metrics.

Divergence: ``‖theta‖`` is checked on every step, and the full-data loss
only at record points (every ``record_stride`` steps and the last step) or
at a step whose ``‖theta‖`` is non-finite or above ``DIVERGENCE_LIMIT``.  A
run stops early with a diverged flag, recording that step, when either
check fails: ``‖theta‖`` past the limit, or a loss that is non-finite or
past the limit in magnitude.  The loss check therefore only sees record
points, so at ``record_stride > 1`` a run whose loss blows up before its
``‖theta‖`` does is flagged at a later step than at stride 1.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import baselines, constant, core, second_order
from .config import HyperParams
from .errors import ConfigError
from .problems import Problem, make_problem
from .rng import make_rng

__all__ = [
    "RunConfig",
    "StepTrace",
    "RunResult",
    "Metrics",
    "OPTIMIZER_NAMES",
    "WEIGHT_DECAY_OPTIMIZERS",
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
        if self.record_stride < 1:
            raise ConfigError(f"record_stride must be >= 1, got {self.record_stride}")
        if self.hp.weight_decay > 0 and self.optimizer not in WEIGHT_DECAY_OPTIMIZERS:
            raise ConfigError(
                "weight_decay is only supported by the vsgd optimizer"
            )
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


@dataclass
class RunResult:
    config: RunConfig
    traces: list[StepTrace]
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
    return float(np.mean(x))


def _rate_summaries(state, params):
    return _mean(state.b_g), _mean(state.b_ghat), _mean(core.state_sigma2(state))


# name -> (params from the config's hp, init(dim, hp), step, summaries or None).
# step(state, theta, g_hat, params) returns theta; summaries(state, params)
# returns (mean_b_g, mean_b_ghat, mean_sigma2), None where there is no such
# latent.  Step functions are looked up on their modules at call time, so a
# patched module attribute (a tracer, a test double) is the one called.
_OPTIMIZERS = {
    "vsgd": (
        lambda hp: hp,
        core.init_state,
        lambda state, theta, g_hat, p: core.vsgd_step(state, theta, g_hat, p)[1],
        _rate_summaries,
    ),
    "constant-vsgd": (
        lambda hp: hp,
        constant.init_constant_state,
        lambda state, theta, g_hat, p: constant.cvsgd_step(state, theta, g_hat, p)[1],
        lambda state, p: (
            None, _mean(state.b_ghat), _mean(constant.state_sigma2(state, p))
        ),
    ),
    "so-vsgd": (
        lambda hp: hp,
        second_order.init_so_state,
        lambda state, theta, g_hat, p: second_order.so_vsgd_step(state, theta, g_hat, p)[1],
        _rate_summaries,
    ),
    "adam": (
        lambda hp: baselines.AdamParams(eta=hp.eta),
        lambda dim, hp: baselines.init_adam_state(dim),
        lambda state, theta, g_hat, p: baselines.adam_step(state, theta, g_hat, p)[1],
        None,
    ),
    "amsgrad": (
        lambda hp: baselines.AdamParams(eta=hp.eta),
        lambda dim, hp: baselines.init_adam_state(dim, amsgrad=True),
        lambda state, theta, g_hat, p: baselines.amsgrad_step(state, theta, g_hat, p)[1],
        None,
    ),
    "sgd": (
        lambda hp: hp,
        lambda dim, hp: None,
        lambda state, theta, g_hat, p: baselines.sgd_step(theta, g_hat, p.eta),
        None,
    ),
    "sgdm": (
        lambda hp: baselines.SgdmParams(eta=hp.eta),
        lambda dim, hp: baselines.init_momentum_state(dim),
        lambda state, theta, g_hat, p: baselines.sgdm_step(state, theta, g_hat, p)[1],
        None,
    ),
    "nsgd": (
        lambda hp: hp,
        lambda dim, hp: None,
        lambda state, theta, g_hat, p: baselines.normalized_sgd_step(theta, g_hat, p.eta),
        None,
    ),
}
OPTIMIZER_NAMES = frozenset(_OPTIMIZERS)
WEIGHT_DECAY_OPTIMIZERS = frozenset({"vsgd"})
_NO_SUMMARIES = (None, None, None)


class _Stepper:
    """One optimizer's params and state over a run; ``step`` advances theta."""

    def __init__(self, name: str, dim: int, hp: HyperParams):
        make_params, init, self._step, self._summaries = _OPTIMIZERS[name]
        self.params = make_params(hp)
        self.state = init(dim, hp)

    def step(self, theta, g_hat, eta):
        if eta != self.params.eta:  # the scheduler moved eta
            self.params = replace(self.params, eta=eta)
        return self._step(self.state, theta, g_hat, self.params)

    def summaries(self):
        """(mean_b_g, mean_b_ghat, mean_sigma2) of the current state."""
        if self._summaries is None:
            return _NO_SUMMARIES
        return self._summaries(self.state, self.params)


def make_stepper(name: str, dim: int, cfg: RunConfig) -> _Stepper:
    if name not in _OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {name!r}")
    return _Stepper(name, dim, cfg.hp)


def run(config: RunConfig, problem: Problem | None = None) -> RunResult:
    """Execute one configured run; deterministic given (config, seed)."""
    if problem is None:
        problem = make_problem(config.problem)
    scale = parse_scheduler(config.scheduler)
    stepper = make_stepper(config.optimizer, problem.dim, config)
    rng = make_rng(config.seed)
    theta = problem.theta0.astype(np.float64).copy()
    initial_loss = float(problem.loss(theta))

    traces: list[StepTrace] = []
    diverged = False
    steps_run = 0
    start = time.perf_counter()
    for t in range(1, config.steps + 1):
        g_hat = problem.sample_grad(theta, rng)
        theta = stepper.step(theta, g_hat, config.hp.eta * scale(t))
        steps_run = t
        record = t % config.record_stride == 0 or t == config.steps
        theta_norm = float(np.linalg.norm(theta))
        bad = not theta_norm <= DIVERGENCE_LIMIT  # NaN fails the bound too
        if record or bad:
            loss = float(problem.loss(theta))
            bad = bad or not np.isfinite(loss) or abs(loss) > DIVERGENCE_LIMIT
            traces.append(
                StepTrace(
                    t,
                    loss,
                    float(np.linalg.norm(g_hat)),
                    theta_norm,
                    *stepper.summaries(),
                )
            )
        if bad:
            diverged = True
            break
    wallclock = time.perf_counter() - start
    return RunResult(
        config=config,
        traces=traces,
        diverged=diverged,
        steps_run=steps_run,
        initial_loss=initial_loss,
        wallclock_seconds=wallclock,
    )


def summarize(result: RunResult) -> Metrics:
    """Scalar metrics of a run; pure aggregation over the recorded traces."""
    if not result.traces:
        raise ValueError("cannot summarize a run with no recorded traces")
    losses = [tr.loss for tr in result.traces]
    return Metrics(
        final_loss=losses[-1],
        best_loss=min(losses),
        wallclock_per_step=result.wallclock_seconds / max(result.steps_run, 1),
    )
