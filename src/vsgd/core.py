"""VSGD: gradient descent with a variational Bayesian gradient estimate.

The observed noisy gradient g_hat is modeled per element as a Gaussian
observation of a latent true gradient g, whose prior mean is the previous
posterior mean mu (the control variate carrying history).  Two latent Gamma
precisions separate systematic noise (how fast the local gradient surface
drifts) from observation noise (mini-batch sampling variance).  One SVI
iteration per optimizer step yields closed-form updates:

    local   mu'     = mu * b_ghat/(b_g + b_ghat) + g_hat * b_g/(b_g + b_ghat)
            sigma2  = (a/b_g + a/b_ghat)^-1
    global  a'      = gamma + 0.5                      (constant for t >= 1)
            b_g'    = gamma     + 0.5*(sigma2 + (mu' - mu)^2)
            b_ghat' = k_g*gamma + 0.5*(sigma2 + (mu' - g_hat)^2)
            b_g     <- (1 - rho1)*b_g    + rho1*b_g'      rho1 = t**-kappa1
            b_ghat  <- (1 - rho2)*b_ghat + rho2*b_ghat'   rho2 = t**-kappa2
    step    theta  <- theta - eta * mu' / sqrt(mu'^2 + sigma2)

sqrt(mu'^2 + sigma2) = sqrt(E[g^2]) acts as a local Lipschitz estimate, so
every per-element displacement is bounded by eta.  Elements are modeled
independently; all state arrays are flat and parallel, in float64.

``vsgd_step`` runs one fused in-place kernel (scratch buffers live on the
state) for throughput.  The component functions below are the pure
reference forms and agree with the kernel up to float associativity.

``_blocked`` runs every VSGD-family kernel, this one and Constant and
Second-order VSGD's: it calls a kernel on cache-sized element blocks of
the state and theta arrays, or once on the whole arrays when the dim fits
in one block.  Every kernel pass is elementwise, so blocking changes no
bit of the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import HyperParams
from .errors import ConfigError, NumericError

__all__ = [
    "VsgdState",
    "init_state",
    "svi_rates",
    "local_update",
    "global_intermediate",
    "global_interpolate",
    "apply_step",
    "vsgd_step",
    "state_sigma2",
]


@dataclass(eq=False)
class VsgdState:
    """Per-element variational state.

    mu_g is the posterior mean of the denoised gradient; b_g and b_ghat are
    the Gamma rates of the systematic / observation precisions; a is the
    shared Gamma shape (gamma at t=0, gamma + 0.5 for every t >= 1).
    sigma2 is derived, not stored — see state_sigma2().
    """

    t: int
    mu_g: np.ndarray
    b_g: np.ndarray
    b_ghat: np.ndarray
    a: float
    _work: list[np.ndarray] | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.mu_g.shape[0]


def init_state(param_count: int, hp: HyperParams) -> VsgdState:
    """Fresh state: mu = 0, b_g = gamma, b_ghat = k_g*gamma, a = gamma."""
    if param_count < 1:
        raise ConfigError(f"param_count must be >= 1, got {param_count}")
    return VsgdState(
        t=0,
        mu_g=np.zeros(param_count),
        b_g=np.full(param_count, hp.gamma),
        b_ghat=np.full(param_count, hp.k_g * hp.gamma),
        a=hp.gamma,
    )


def svi_rates(t: int, hp: HyperParams) -> tuple[float, float]:
    """SVI forgetting rates (t**-kappa1, t**-kappa2) for step t >= 1."""
    if t < 1:
        raise ValueError(f"svi rates are defined for t >= 1, got t={t}")
    return float(t) ** -hp.kappa1, float(t) ** -hp.kappa2


def local_update(state: VsgdState, g_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior (mu, sigma2) of the true gradient given one observation.

    mu is the rate-weighted average of the previous mean and g_hat (so it
    always lies between them); sigma2 is the inverse sum of the two expected
    precisions.  Pure: the state is not modified.
    """
    g_hat = _checked_gradient(g_hat, state.dim)
    s = state.b_g + state.b_ghat
    w_obs = state.b_g / s
    w_prev = state.b_ghat / s
    mu_new = state.mu_g * w_prev + g_hat * w_obs
    sigma2 = w_obs * state.b_ghat / state.a
    return mu_new, sigma2


def global_intermediate(
    mu_new: np.ndarray,
    sigma2: np.ndarray,
    mu_prev: np.ndarray,
    g_hat: np.ndarray,
    hp: HyperParams,
) -> tuple[float, np.ndarray, np.ndarray]:
    """One-observation optimum of the global Gamma parameters.

    The shape is the constant gamma + 0.5; each rate adds half the expected
    squared deviation (posterior variance plus the relevant residual) to its
    prior rate, so both rates stay strictly positive.
    """
    a_prime = hp.gamma + 0.5
    b_g_prime = hp.gamma + 0.5 * (sigma2 + (mu_new - mu_prev) ** 2)
    b_ghat_prime = hp.k_g * hp.gamma + 0.5 * (sigma2 + (mu_new - g_hat) ** 2)
    return a_prime, b_g_prime, b_ghat_prime


def global_interpolate(
    state: VsgdState,
    b_g_prime: np.ndarray,
    b_ghat_prime: np.ndarray,
    rho1: float,
    rho2: float,
    *,
    a_prime: float | None = None,
    mu_new: np.ndarray | None = None,
) -> VsgdState:
    """Robbins-Monro interpolation of the rates; returns the post-step state.

    b <- (1-rho)*b + rho*b', a convex combination of positives, so
    positivity is preserved.  The optional a_prime/mu_new carry the rest of
    the step's output into the new state (the shape is assigned directly:
    interpolating two equal constants is that constant, and assignment keeps
    the equality exact in floats).
    """
    if not (0.0 < rho1 <= 1.0 and 0.0 < rho2 <= 1.0):
        raise ValueError(f"rho must lie in (0, 1], got ({rho1}, {rho2})")
    return VsgdState(
        t=state.t + 1,
        mu_g=state.mu_g if mu_new is None else mu_new,
        b_g=(1.0 - rho1) * state.b_g + rho1 * b_g_prime,
        b_ghat=(1.0 - rho2) * state.b_ghat + rho2 * b_ghat_prime,
        a=state.a if a_prime is None else a_prime,
    )


def apply_step(
    theta: np.ndarray,
    mu_new: np.ndarray,
    sigma2: np.ndarray,
    hp: HyperParams,
) -> np.ndarray:
    """theta - eta*mu/sqrt(mu^2 + sigma2); weight decay is ``harness.run``'s.

    Requires sigma2 > 0 elementwise so the denominator never vanishes.
    |displacement| is at most eta per element since |mu| < sqrt(mu^2 + sigma2).
    """
    return theta - hp.eta * mu_new / np.sqrt(mu_new * mu_new + sigma2)


def vsgd_step(
    state: VsgdState,
    theta: np.ndarray,
    g_hat: np.ndarray,
    hp: HyperParams,
) -> np.ndarray:
    """One optimizer step: SVI local/global updates, then the theta update.

    Semantically svi_rates -> local_update -> global_intermediate ->
    global_interpolate -> apply_step, executed as a fused in-place kernel.
    ``state`` and ``theta`` are updated in place; returns ``theta``.
    """
    g_hat = _checked_gradient(g_hat, state.dim)
    t = state.t + 1
    rho1, rho2 = svi_rates(t, hp)
    _blocked(
        _block_step,
        (state.mu_g, state.b_g, state.b_ghat, theta),
        g_hat,
        _scratch(state, 6),
        (state.a, rho1, rho2, hp),
    )
    state.t = t
    state.a = hp.gamma + 0.5
    return theta


# Elements per kernel block.  A block's arrays (state, theta, gradient,
# scratch) fit in L2, so a kernel's 25-45 passes read cache instead of
# streaming every pass from memory at large dim.
_BLOCK = 16384


def _scratch(state, count: int) -> list[np.ndarray]:
    """The state's ``count`` block-sized scratch buffers, made on first use."""
    work, size = state._work, min(len(state.mu_g), _BLOCK)
    if work is None or len(work[0]) != size:
        work = state._work = [np.empty(size) for _ in range(count)]
    return work


def _blocked(kernel, arrays, g_hat, work, scalars) -> None:
    """Run ``kernel(work, arrays, g_hat, scalars)`` over element blocks.

    ``arrays`` is a tuple of the (dim,) state and theta arrays the kernel
    updates in place, ``g_hat`` the checked (dim,) gradient, ``work`` the
    scratch buffers from ``_scratch`` and ``scalars`` a tuple of the step's
    scalars.  The kernel unpacks both tuples itself: star-arguments would
    cost a dim-10 step a few percent.  Blocks hold at most ``_BLOCK``
    elements; a dim that fits in one block is one call on the whole arrays,
    with no slicing.
    """
    dim = len(arrays[0])
    if dim <= _BLOCK:
        kernel(work, arrays, g_hat, scalars)
        return
    for lo in range(0, dim, _BLOCK):
        hi = min(lo + _BLOCK, dim)
        kernel(
            [w[: hi - lo] for w in work],
            tuple(x[lo:hi] for x in arrays),
            g_hat[lo:hi],
            scalars,
        )


def _block_step(work, arrays, g_hat, scalars):
    """The step on one element block, in place; ``a`` is the pre-step shape."""
    s, w_obs, w_prev, sig, obs, dev = work
    mu, b_g, b_ghat, theta = arrays
    a, rho1, rho2, hp = scalars

    np.add(b_g, b_ghat, out=s)
    np.divide(b_g, s, out=w_obs)
    np.divide(b_ghat, s, out=w_prev)
    np.multiply(w_obs, b_ghat, out=sig)
    sig /= a  # sigma2
    # residuals in product form (no cancellation): mu_new - mu = w_obs*diff
    # and mu_new - g_hat = -w_prev*diff, with diff = g_hat - mu
    np.subtract(g_hat, mu, out=obs)
    np.multiply(w_obs, obs, out=dev)
    obs *= w_prev
    mu *= w_prev
    np.multiply(g_hat, w_obs, out=w_obs)
    mu += w_obs  # mu is now mu_new
    dev *= dev
    obs *= obs

    # b_g <- (1-rho1)*b_g + rho1*(gamma + 0.5*(sigma2 + dev^2)), folded
    dev += sig
    b_g *= 1.0 - rho1
    dev *= 0.5 * rho1
    b_g += dev
    b_g += rho1 * hp.gamma

    obs += sig
    b_ghat *= 1.0 - rho2
    obs *= 0.5 * rho2
    b_ghat += obs
    b_ghat += rho2 * (hp.k_g * hp.gamma)

    np.multiply(mu, mu, out=s)
    s += sig
    np.sqrt(s, out=s)
    np.divide(mu, s, out=s)
    s *= hp.eta
    theta -= s


def state_sigma2(state: VsgdState) -> np.ndarray:
    """Posterior gradient variance implied by a VSGD or second-order state's rates.

    Above one block, the result is the only dim-sized array made: the
    denominators are computed per block in one block-sized buffer.
    """
    b_g, b_ghat, a = state.b_g, state.b_ghat, state.a
    dim = len(b_g)
    if dim <= _BLOCK:
        return b_g * b_ghat / (a * (b_g + b_ghat))
    out = b_g * b_ghat
    den = np.empty(_BLOCK)
    for lo in range(0, dim, _BLOCK):
        hi = min(lo + _BLOCK, dim)
        d = den[: hi - lo]
        np.add(b_g[lo:hi], b_ghat[lo:hi], out=d)
        d *= a
        out[lo:hi] /= d
    return out


def _checked_gradient(g_hat: np.ndarray, dim: int) -> np.ndarray:
    g_hat = np.asarray(g_hat, dtype=np.float64)
    if g_hat.shape != (dim,):
        raise ValueError(f"gradient shape {g_hat.shape} != state dim ({dim},)")
    # one fused reduction; the elementwise scan only runs when the dot
    # product overflows or really saw a non-finite entry.  The method form
    # skips np.dot's dispatch, a tenth of the check at small dims.
    if not math.isfinite(g_hat.dot(g_hat)):
        if not np.isfinite(g_hat).all():
            raise NumericError("non-finite gradient rejected")
    return g_hat
