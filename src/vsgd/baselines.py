"""Reference optimizers: SGD, SGD with momentum, Adam, AMSGrad, Normalized-SGD.

These are the comparison points for the equivalence and benchmark tests.
Every step shares the package protocol ``step(state, theta, g_hat, params)
-> theta``: it updates state and theta in place, returns the theta it was
given, and rejects a non-finite gradient with NumericError.  SGD and
Normalized-SGD keep no state: they take ``None`` and read ``params.eta``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HyperParams
from .core import _checked_gradient
from .errors import ConfigError

__all__ = [
    "AdamParams",
    "AdamState",
    "init_adam_state",
    "adam_step",
    "amsgrad_step",
    "SgdmParams",
    "MomentumState",
    "init_momentum_state",
    "sgdm_step",
    "sgd_step",
    "normalized_sgd_step",
]


@dataclass(frozen=True)
class AdamParams:
    eta: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8  # denominator guard; 0 is allowed for exact-equivalence tests

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ConfigError(f"eta must be > 0, got {self.eta}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {value}")
        if self.eps < 0:
            raise ConfigError(f"eps must be >= 0, got {self.eps}")


@dataclass(eq=False)
class AdamState:
    t: int
    m: np.ndarray
    v: np.ndarray
    v_hat_max: np.ndarray | None = None  # AMSGrad running max of v


def init_adam_state(param_count: int, amsgrad: bool = False) -> AdamState:
    if param_count < 1:
        raise ConfigError(f"param_count must be >= 1, got {param_count}")
    return AdamState(
        t=0,
        m=np.zeros(param_count),
        v=np.zeros(param_count),
        v_hat_max=np.zeros(param_count) if amsgrad else None,
    )


def _update_moments(state: AdamState, g_hat: np.ndarray, cfg: AdamParams) -> None:
    state.m *= cfg.beta1
    state.m += (1.0 - cfg.beta1) * g_hat
    state.v *= cfg.beta2
    state.v += (1.0 - cfg.beta2) * (g_hat * g_hat)
    state.t += 1


def adam_step(
    state: AdamState, theta: np.ndarray, g_hat: np.ndarray, cfg: AdamParams
) -> np.ndarray:
    """Bias-corrected Adam: theta -= eta * m_hat / (sqrt(v_hat) + eps)."""
    g_hat = _checked_gradient(g_hat, state.m.shape[0])
    _update_moments(state, g_hat, cfg)
    return _corrected_step(state, theta, state.v, cfg)


def amsgrad_step(
    state: AdamState, theta: np.ndarray, g_hat: np.ndarray, cfg: AdamParams
) -> np.ndarray:
    """Adam with the running max of v in the denominator (long-term memory).

    The max is taken over the raw second moment and bias-corrected with the
    same convention as adam_step, so on a nondecreasing v stream the two
    methods coincide.
    """
    if state.v_hat_max is None:
        raise ValueError("state was not initialized with amsgrad=True")
    g_hat = _checked_gradient(g_hat, state.m.shape[0])
    _update_moments(state, g_hat, cfg)
    np.maximum(state.v_hat_max, state.v, out=state.v_hat_max)
    return _corrected_step(state, theta, state.v_hat_max, cfg)


def _corrected_step(
    state: AdamState, theta: np.ndarray, v: np.ndarray, cfg: AdamParams
) -> np.ndarray:
    """theta -= eta * m_hat / (sqrt(v_hat) + eps); ``v`` is v or AMSGrad's v_hat_max."""
    m_hat = state.m / (1.0 - cfg.beta1 ** state.t)
    v_hat = v / (1.0 - cfg.beta2 ** state.t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += cfg.eps
    m_hat /= v_hat
    m_hat *= cfg.eta
    theta -= m_hat
    return theta


@dataclass(frozen=True)
class SgdmParams:
    eta: float
    momentum: float = 0.9  # the velocity decay coefficient

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ConfigError(f"eta must be > 0, got {self.eta}")
        if self.momentum < 0:
            raise ConfigError(f"momentum must be >= 0, got {self.momentum}")


@dataclass(eq=False)
class MomentumState:
    v: np.ndarray


def init_momentum_state(param_count: int) -> MomentumState:
    if param_count < 1:
        raise ConfigError(f"param_count must be >= 1, got {param_count}")
    return MomentumState(v=np.zeros(param_count))


def sgdm_step(
    state: MomentumState, theta: np.ndarray, g_hat: np.ndarray, cfg: SgdmParams
) -> np.ndarray:
    """v <- momentum*v + eta*g_hat; theta <- theta - v."""
    g_hat = _checked_gradient(g_hat, state.v.shape[0])
    state.v *= cfg.momentum
    state.v += cfg.eta * g_hat
    theta -= state.v
    return theta


def sgd_step(
    state: None, theta: np.ndarray, g_hat: np.ndarray, params: HyperParams
) -> np.ndarray:
    """theta -= eta*g_hat, with ``params.eta``; ``state`` is None."""
    theta -= params.eta * _checked_gradient(g_hat, theta.shape[0])
    return theta


def normalized_sgd_step(
    state: None, theta: np.ndarray, g_hat: np.ndarray, params: HyperParams
) -> np.ndarray:
    """theta -= eta*sign(g_hat); elements with g_hat = 0 are left unchanged."""
    theta -= params.eta * np.sign(_checked_gradient(g_hat, theta.shape[0]))
    return theta
