"""Variational SGD optimizer family, baselines, oracle, and benchmark harness."""

from .config import HyperParams
from .errors import ConfigError, NumericError
from .core import (
    VsgdState,
    init_state,
    svi_rates,
    local_update,
    global_intermediate,
    global_interpolate,
    apply_step,
    vsgd_step,
    state_sigma2,
)
from .constant import (
    ConstantVsgdState,
    init_constant_state,
    cvsgd_step,
    adam_first_moment_equivalence,
    second_moment_decomposition,
)
from .second_order import SecondOrderState, init_so_state, so_vsgd_step
from .problems import Problem, make_problem
from .harness import RunConfig, StepTrace, RunResult, Metrics, run, summarize

__version__ = "0.1.0"

__all__ = [
    "HyperParams",
    "ConfigError",
    "NumericError",
    "VsgdState",
    "init_state",
    "svi_rates",
    "local_update",
    "global_intermediate",
    "global_interpolate",
    "apply_step",
    "vsgd_step",
    "state_sigma2",
    "ConstantVsgdState",
    "init_constant_state",
    "cvsgd_step",
    "adam_first_moment_equivalence",
    "second_moment_decomposition",
    "SecondOrderState",
    "init_so_state",
    "so_vsgd_step",
    "Problem",
    "make_problem",
    "RunConfig",
    "StepTrace",
    "RunResult",
    "Metrics",
    "run",
    "summarize",
    "__version__",
]
