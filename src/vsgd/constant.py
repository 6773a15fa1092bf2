"""Constant VSGD: a single learned precision with a fixed variance ratio.

Constraining the systematic noise to be exactly 1/k_g of the observation
noise collapses the two Gamma latents into one variable omega, fixing the
mean-update weights at {k_g/(k_g+1), 1/(k_g+1)} and making the method
directly comparable to constant-weight optimizers:

    mu'    = mu * k_g/(k_g+1) + g_hat * 1/(k_g+1)
    sigma2 = (1/(k_g+1)) * b_ghat/a_ghat
    a      <- gamma + 1
    b_ghat <- (1-rho)*b_ghat + rho*[gamma + 0.5*(sigma2 + (mu'-g_hat)^2)
                                          + 0.5*k_g*(sigma2 + (mu'-mu)^2)]
    theta  <- theta - eta * mu' / sqrt(mu'^2 + sigma2)

with rho = t**-kappa2, the rate VSGD gives the same observation latent
(``svi_rates``).  With k_g = beta1/(1-beta1) the mu recursion is Adam's
first moment; the second moment mu'^2 + sigma2 splits into an Adam-like
part plus a data-driven noise term (second_moment_decomposition).

``cvsgd_step`` runs the step as one in-place kernel on ``core._blocked``,
with three block-sized scratch buffers on the state: ``state.mu_g`` and
``state.b_ghat`` are updated in place, not rebound.  ``cvsgd_local`` is the
pure reference form; the kernel performs its operations in the same order,
so the two agree bitwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import HyperParams
from .errors import ConfigError
from .core import _blocked, _checked_gradient, _scratch, svi_rates

__all__ = [
    "ConstantVsgdState",
    "init_constant_state",
    "cvsgd_local",
    "cvsgd_step",
    "state_sigma2",
    "adam_first_moment_equivalence",
    "second_moment_decomposition",
]


@dataclass(eq=False)
class ConstantVsgdState:
    """Mean estimate plus the single observation-noise Gamma posterior."""

    t: int
    mu_g: np.ndarray
    b_ghat: np.ndarray
    a_ghat: float
    _work: list[np.ndarray] | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.mu_g.shape[0]


def init_constant_state(param_count: int, hp: HyperParams) -> ConstantVsgdState:
    """Fresh state: mu = 0, b_ghat = gamma, a_ghat = gamma."""
    if param_count < 1:
        raise ConfigError(f"param_count must be >= 1, got {param_count}")
    return ConstantVsgdState(
        t=0,
        mu_g=np.zeros(param_count),
        b_ghat=np.full(param_count, hp.gamma),
        a_ghat=hp.gamma,
    )


def cvsgd_local(
    state: ConstantVsgdState, g_hat: np.ndarray, hp: HyperParams
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-weight mean update and the implied posterior variance (pure)."""
    g_hat = _checked_gradient(g_hat, state.dim)
    w_prev = hp.k_g / (hp.k_g + 1.0)
    w_obs = 1.0 / (hp.k_g + 1.0)
    mu_new = state.mu_g * w_prev + g_hat * w_obs
    sigma2 = w_obs * (state.b_ghat / state.a_ghat)
    return mu_new, sigma2


def cvsgd_step(
    state: ConstantVsgdState,
    theta: np.ndarray,
    g_hat: np.ndarray,
    hp: HyperParams,
) -> np.ndarray:
    """One Constant VSGD step; state and theta are updated in place; returns theta."""
    g_hat = _checked_gradient(g_hat, state.dim)
    t = state.t + 1
    rho = svi_rates(t, hp)[1]
    _blocked(
        _cvsgd_block,
        (state.mu_g, state.b_ghat, theta),
        g_hat,
        _scratch(state, 3),
        (hp.k_g / (hp.k_g + 1.0), 1.0 / (hp.k_g + 1.0), state.a_ghat, rho, hp),
    )
    state.a_ghat = hp.gamma + 1.0
    state.t = t
    return theta


def _cvsgd_block(work, arrays, g_hat, scalars):
    """The step on one element block, in place; ``a_ghat`` is the pre-step shape."""
    sig, mu_new, res = work
    mu, b_ghat, theta = arrays
    w_prev, w_obs, a_ghat, rho, hp = scalars
    np.divide(b_ghat, a_ghat, out=sig)
    sig *= w_obs  # sigma2
    np.multiply(mu, w_prev, out=mu_new)
    np.multiply(g_hat, w_obs, out=res)
    mu_new += res

    # b_ghat <- (1-rho)*b_ghat + rho*[gamma + 0.5*(sigma2 + (mu'-g_hat)^2)
    #                                 + 0.5*k_g*(sigma2 + (mu'-mu)^2)]
    np.subtract(mu_new, mu, out=mu)  # mu is now the drift residual
    mu *= mu
    mu += sig
    mu *= 0.5 * hp.k_g
    np.subtract(mu_new, g_hat, out=res)
    res *= res
    res += sig
    res *= 0.5
    res += hp.gamma
    res += mu
    b_ghat *= 1.0 - rho
    res *= rho
    b_ghat += res

    mu[...] = mu_new
    np.multiply(mu_new, mu_new, out=res)
    res += sig
    np.sqrt(res, out=res)
    mu_new *= hp.eta
    mu_new /= res
    theta -= mu_new


def state_sigma2(state: ConstantVsgdState, hp: HyperParams) -> np.ndarray:
    """Posterior gradient variance (1/(k_g+1)) * b_ghat/a_ghat of the state.

    Written as (b_ghat/a_ghat)/(k_g+1), not cvsgd_local's w_obs*(b_ghat/a_ghat),
    which differs in the last bit on some elements; the recorded traces keep
    this form.
    """
    sigma2 = state.b_ghat / state.a_ghat
    sigma2 /= hp.k_g + 1.0
    return sigma2


def adam_first_moment_equivalence(beta1: float) -> float:
    """Variance ratio k_g under which the mu recursion equals Adam's m_t.

    k_g = beta1/(1-beta1) makes the convex weights {k_g/(k_g+1), 1/(k_g+1)}
    equal to {beta1, 1-beta1}, so both recursions see identical coefficients
    for identical gradient streams.
    """
    if not 0.0 < beta1 < 1.0:
        raise ConfigError(f"beta1 must lie in (0, 1), got {beta1}")
    return beta1 / (1.0 - beta1)


def second_moment_decomposition(
    state: ConstantVsgdState, g_hat: np.ndarray, hp: HyperParams
) -> tuple[np.ndarray, np.ndarray]:
    """Split E[g^2] = mu'^2 + sigma2 into Adam-like and extra parts.

    adam_like is the weighted sum of the previous squared mean and g_hat^2
    (the same shape as Adam's v recursion); extra carries the sign-dependent
    cross term 2*k_g/(k_g+1)^2 * mu * g_hat (a penalty when the running mean
    and the new observation disagree in sign) plus the learned observation
    noise (1/(k_g+1)) * b_ghat/a_ghat.  The two parts always sum to
    mu'^2 + sigma2 from the local update.
    """
    g_hat = _checked_gradient(g_hat, state.dim)
    kp1_sq = (hp.k_g + 1.0) ** 2
    adam_like = (
        state.mu_g * state.mu_g * (hp.k_g * hp.k_g / kp1_sq) + g_hat * g_hat / kp1_sq
    )
    extra = (2.0 * hp.k_g / kp1_sq) * state.mu_g * g_hat + (
        1.0 / (hp.k_g + 1.0)
    ) * (state.b_ghat / state.a_ghat)
    return adam_like, extra
