"""Hyperparameter container for the VSGD optimizer family.

One dataclass covers all three variants: plain VSGD uses (eta, gamma, k_g,
kappa1, kappa2, weight_decay), Constant VSGD uses kappa2 for its single
latent, and Second-order VSGD adds (k_h, mu_guard_eps).  Every field is finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError

# Defaults used in every experiment unless overridden.
DEFAULT_GAMMA = 1e-8
DEFAULT_K_G = 30.0
DEFAULT_KAPPA1 = 0.9
DEFAULT_KAPPA2 = 0.81
DEFAULT_K_H = 3.0
DEFAULT_MU_GUARD_EPS = 1e-8


@dataclass(frozen=True)
class HyperParams:
    """Fixed scalars of an optimizer run.

    eta:            SGD learning rate (> 0).
    gamma:          prior strength; pseudo-observation count of the Gamma
                    priors (> 0).
    k_g:            prior ratio of observation variance to systematic
                    variance (> 0).
    kappa1, kappa2: SVI rate exponents for the systematic / observation
                    rate interpolation, each in (0.5, 1] so the rates
                    rho_t = t**-kappa satisfy the Robbins-Monro conditions;
                    Constant VSGD's single latent uses kappa2.
    k_h:            prior ratio of curvature variance to systematic variance
                    (Second-order VSGD only, > 0).
    weight_decay:   decoupled L2 coefficient, applied to the pre-step
                    parameters (>= 0; plain VSGD only).
    mu_guard_eps:   denominator guard for Second-order VSGD's gradient-ratio
                    term (>= 0).
    """

    eta: float = 0.01
    gamma: float = DEFAULT_GAMMA
    k_g: float = DEFAULT_K_G
    kappa1: float = DEFAULT_KAPPA1
    kappa2: float = DEFAULT_KAPPA2
    k_h: float = DEFAULT_K_H
    weight_decay: float = 0.0
    mu_guard_eps: float = DEFAULT_MU_GUARD_EPS

    def __post_init__(self) -> None:
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if name in ("kappa1", "kappa2"):
                if not 0.5 < value <= 1.0:
                    raise ConfigError(f"{name} must lie in (0.5, 1], got {value}")
            elif name in ("weight_decay", "mu_guard_eps"):
                if value < 0:
                    raise ConfigError(f"{name} must be >= 0, got {value}")
            elif not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
