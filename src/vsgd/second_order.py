"""Second-order VSGD: a third latent tracks curvature without a Hessian.

A hidden variable h (difference-quotient scale information extracted from
consecutive gradient estimates) gets its own precision with prior ratio k_h.
The local updates below use the previous rates b_h, b_g, b_ghat; btot is
their sum:

    sigma2_h = b_h*b_g   / (a*(b_h + b_g))
    sigma2_g = b_ghat*b_g/ (a*(b_ghat + b_g))
    mu_h' = ((g_hat - mu_g)/mu_g) * b_h/btot + mu_h * (b_g + b_ghat)/btot
    mu_g' = g_hat * (b_g + b_h)/btot + (mu_h + mu_g) * b_ghat/btot

The global rates add half an expected squared residual to their priors;
for b_g it is E[(g - mu_g - h)^2] under independent q(g) and q(h), so
every intermediate rate exceeds its prior by construction:

    b_h'    = k_h*gamma + 0.5*((mu_h' - mu_h)^2 + sigma2_h)
    b_g'    = gamma     + 0.5*((mu_g' - mu_g - mu_h')^2 + sigma2_g + sigma2_h)
    b_ghat' = k_g*gamma + 0.5*((mu_g' - g_hat)^2 + sigma2_g)

The gradient-ratio term divides by the previous mean mu_g, which may be
zero; the denominator is guarded as sign(mu_g)*max(|mu_g|, 1e-8)
(sign(0) taken as +1).  Rates interpolate with rho = 1 at t=1 and
rho = (t+1)**-kappa afterwards, and the parameter step scales by the
curvature magnitude sqrt(E[h^2]) = sqrt(mu_h'^2 + sigma2_h):

    theta <- theta - eta * mu_g' / sqrt(mu_h'^2 + sigma2_h)

``so_vsgd_step`` runs the step as one in-place kernel on ``core._blocked``,
with seven block-sized scratch buffers on the state: ``state.mu_g``,
``state.mu_h`` and the three rates are updated in place, not rebound.  The
gradient is checked over the whole array before any block is written.
``so_local_update`` and ``guarded_denominator`` are the pure reference
forms; the kernel performs their operations in the same order, so the two
agree bitwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import HyperParams
from .errors import ConfigError
from .core import _blocked, _checked_gradient, _scratch, state_sigma2

__all__ = [
    "SecondOrderState",
    "init_so_state",
    "so_rates",
    "so_local_update",
    "so_vsgd_step",
]

_MU_GUARD_EPS = 1e-8  # the floor on |mu_g| in the gradient-ratio denominator


@dataclass(eq=False)
class SecondOrderState:
    t: int
    mu_g: np.ndarray
    mu_h: np.ndarray
    b_h: np.ndarray
    b_g: np.ndarray
    b_ghat: np.ndarray
    a: float
    _work: list[np.ndarray] | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.mu_g.shape[0]


def init_so_state(param_count: int, hp: HyperParams) -> SecondOrderState:
    """mu_g = mu_h = 0; b_h = k_h*gamma, b_g = gamma, b_ghat = k_g*gamma."""
    if param_count < 1:
        raise ConfigError(f"param_count must be >= 1, got {param_count}")
    return SecondOrderState(
        t=0,
        mu_g=np.zeros(param_count),
        mu_h=np.zeros(param_count),
        b_h=np.full(param_count, hp.k_h * hp.gamma),
        b_g=np.full(param_count, hp.gamma),
        b_ghat=np.full(param_count, hp.k_g * hp.gamma),
        a=hp.gamma,
    )


def so_rates(t: int, hp: HyperParams) -> tuple[float, float]:
    """rho = 1 at the first step, (t+1)**-kappa afterwards."""
    if t < 1:
        raise ValueError(f"rates are defined for t >= 1, got t={t}")
    if t == 1:
        return 1.0, 1.0
    return float(t + 1) ** -hp.kappa1, float(t + 1) ** -hp.kappa2


def guarded_denominator(mu_g: np.ndarray) -> np.ndarray:
    """sign(mu_g)*max(|mu_g|, _MU_GUARD_EPS), with sign(0) taken as +1."""
    sign = np.where(mu_g >= 0.0, 1.0, -1.0)
    return sign * np.maximum(np.abs(mu_g), _MU_GUARD_EPS)


def so_local_update(
    state: SecondOrderState, g_hat: np.ndarray, hp: HyperParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(mu_h', sigma2_h, mu_g', sigma2_g) from the previous state (pure)."""
    g_hat = _checked_gradient(g_hat, state.dim)
    a = state.a
    b_h, b_g, b_ghat = state.b_h, state.b_g, state.b_ghat
    btot = b_g + b_h + b_ghat
    sigma2_h = b_h * b_g / (a * (b_h + b_g))
    sigma2_g = state_sigma2(state)
    ratio = (g_hat - state.mu_g) / guarded_denominator(state.mu_g)
    mu_h_new = ratio * (b_h / btot) + state.mu_h * ((b_g + b_ghat) / btot)
    mu_g_new = g_hat * ((b_g + b_h) / btot) + (state.mu_h + state.mu_g) * (
        b_ghat / btot
    )
    return mu_h_new, sigma2_h, mu_g_new, sigma2_g


def so_vsgd_step(
    state: SecondOrderState,
    theta: np.ndarray,
    g_hat: np.ndarray,
    hp: HyperParams,
) -> np.ndarray:
    """One Second-order VSGD step; state and theta are updated in place; returns theta.

    The gradient is checked before any block is written, so a step that
    raises leaves state and theta untouched.
    """
    g_hat = _checked_gradient(g_hat, state.dim)
    t = state.t + 1
    rho1, rho2 = so_rates(t, hp)
    _blocked(
        _so_block,
        (state.mu_g, state.mu_h, state.b_h, state.b_g, state.b_ghat, theta),
        g_hat,
        _scratch(state, 7),
        (state.a, rho1, rho2, hp),
    )
    state.a = hp.gamma + 0.5
    state.t = t
    return theta


def _so_block(work, arrays, g_hat, scalars):
    """The step on one element block, in place; ``a`` is the pre-step shape."""
    s_gh, s_gg, tot, sig_h, sig_g, mu_h_new, tmp = work
    mu_g, mu_h, b_h, b_g, b_ghat, theta = arrays
    a, rho1, rho2, hp = scalars
    np.add(b_g, b_h, out=s_gh)
    np.add(b_g, b_ghat, out=s_gg)
    np.add(s_gh, b_ghat, out=tot)  # btot
    np.multiply(b_h, b_g, out=sig_h)
    np.multiply(s_gh, a, out=tmp)
    sig_h /= tmp  # sigma2_h
    np.multiply(b_g, b_ghat, out=sig_g)
    np.multiply(s_gg, a, out=tmp)
    sig_g /= tmp  # sigma2_g

    # guarded ratio (g_hat - mu_g)/(sign(mu_g)*max(|mu_g|, _MU_GUARD_EPS));
    # adding 0.0 turns -0.0 into +0.0, so copysign takes sign(0) as +1
    np.abs(mu_g, out=tmp)
    np.maximum(tmp, _MU_GUARD_EPS, out=tmp)
    np.add(mu_g, 0.0, out=mu_h_new)
    np.copysign(tmp, mu_h_new, out=tmp)
    np.subtract(g_hat, mu_g, out=mu_h_new)
    mu_h_new /= tmp
    np.divide(b_h, tot, out=tmp)
    mu_h_new *= tmp
    s_gg /= tot
    s_gg *= mu_h
    mu_h_new += s_gg  # mu_h'
    mu_g_new = s_gh
    mu_g_new /= tot
    mu_g_new *= g_hat
    np.divide(b_ghat, tot, out=tot)
    np.add(mu_h, mu_g, out=tmp)
    tmp *= tot
    mu_g_new += tmp  # mu_g'

    # each rate b <- (1-rho)*b + rho*b', b' = prior + 0.5*(expected squared residual)
    np.subtract(mu_h_new, mu_h, out=tmp)
    tmp *= tmp
    tmp += sig_h
    tmp *= 0.5
    tmp += hp.k_h * hp.gamma
    b_h *= 1.0 - rho1
    tmp *= rho1
    b_h += tmp

    # b_g' takes the expected squared residual E[(g - mu_g - h)^2] under
    # independent q(g), q(h): nonnegative, so b_g stays positive
    np.subtract(mu_g_new, mu_g, out=tmp)
    tmp -= mu_h_new
    tmp *= tmp
    tmp += sig_g
    tmp += sig_h
    tmp *= 0.5
    tmp += hp.gamma
    b_g *= 1.0 - rho1
    tmp *= rho1
    b_g += tmp

    np.subtract(mu_g_new, g_hat, out=tmp)
    tmp *= tmp
    tmp += sig_g
    tmp *= 0.5
    tmp += hp.k_g * hp.gamma
    b_ghat *= 1.0 - rho2
    tmp *= rho2
    b_ghat += tmp

    mu_g[...] = mu_g_new
    mu_h[...] = mu_h_new
    np.multiply(mu_h_new, mu_h_new, out=tmp)
    tmp += sig_h
    np.sqrt(tmp, out=tmp)
    mu_g_new *= hp.eta
    mu_g_new /= tmp
    theta -= mu_g_new
