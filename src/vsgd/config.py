"""Hyperparameter container for the VSGD optimizer family.

One dataclass covers all three variants: plain VSGD uses (eta, gamma, k_g,
kappa1, kappa2), Constant VSGD uses kappa2 for its single latent, and
Second-order VSGD adds k_h.  weight_decay is the harness's,
for every optimizer.  Every field is finite, and so are the prior rates the
fields multiply out to (see ``HyperParams``).
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
    weight_decay:   decoupled decay: harness.run scales theta by
                    1 - eta_t*weight_decay before every optimizer's step;
                    no step function reads it (>= 0).

    The priors' rates are gamma, k_g*gamma and k_h*gamma, and the kernels
    add gamma to each of the other two.  So k_g*gamma and k_h*gamma must be
    > 0 (not underflowed) and gamma + k_g*gamma and gamma + k_h*gamma
    finite (not overflowed); a pair that breaks this is a ConfigError
    naming both fields.
    """

    eta: float = 0.01
    gamma: float = DEFAULT_GAMMA
    k_g: float = DEFAULT_K_G
    kappa1: float = DEFAULT_KAPPA1
    kappa2: float = DEFAULT_KAPPA2
    k_h: float = DEFAULT_K_H
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if name in ("kappa1", "kappa2"):
                if not 0.5 < value <= 1.0:
                    raise ConfigError(f"{name} must lie in (0.5, 1], got {value}")
            elif name == "weight_decay":
                if value < 0:
                    raise ConfigError(f"{name} must be >= 0, got {value}")
            elif not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        for name in ("k_g", "k_h"):
            rate = getattr(self, name) * self.gamma
            if not (rate > 0 and math.isfinite(self.gamma + rate)):
                raise ConfigError(
                    f"gamma + {name}*gamma must be finite and {name}*gamma > 0, "
                    f"got {name}={getattr(self, name)!r}, gamma={self.gamma!r}"
                )
