"""Independent verification of the closed-form updates by coordinate ascent.

The single-observation mean-field problem behind one optimizer step is

    maximize  E_q[ log p(w_g) p(w_ghat) p(g | w_g; u) p(g_hat | g, w_ghat)
                   - log q(g) q(w_g) q(w_ghat) ]

over q(g) = Normal(mu, sigma2), q(w_g) = Gamma(a, b_g),
q(w_ghat) = Gamma(a, b_ghat), with priors Gamma(gamma, gamma) and
Gamma(gamma, k_g*gamma) and the control variate u fixed.

This module recomputes the updates through a different algebraic route than
the optimizer: the local step matches Gaussian natural parameters (sum of
expected precisions, precision-weighted mean) and the global step
accumulates the expected sufficient statistic E[(x - m)^2] onto the prior
rate.  ``coordinate_ascent_fixed_point`` iterates the sweep to
convergence; ``one_pass`` is its first sweep alone, the one the optimizer
takes; the analytic ELBO certifies that every sweep is an ascent step.

Everything is elementwise and vectorized, so thousands of independent cases
run as one array call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Iterate",
    "OracleResult",
    "digamma",
    "lgamma",
    "one_pass",
    "coordinate_ascent_fixed_point",
    "elbo",
    "elbo_increase_check",
]

_LN_2PI = math.log(2.0 * math.pi)

lgamma = np.vectorize(math.lgamma, otypes=[np.float64])


def digamma(x: np.ndarray) -> np.ndarray:
    """Digamma via the shift recurrence plus the asymptotic series.

    psi(x) = psi(x+1) - 1/x is applied until x >= 8, then
    psi(x) ~ ln x - 1/(2x) - sum_n B_2n/(2n x^2n) truncated after x^-14,
    giving ~1e-14 absolute accuracy for any positive x.
    """
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(np.float64).copy()
    if np.any(x <= 0.0) or not np.isfinite(x).all():
        raise ValueError("digamma is implemented for finite x > 0")
    shift = np.zeros_like(x)
    small = x < 8.0
    while small.any():
        shift[small] -= 1.0 / x[small]
        x[small] += 1.0
        small = x < 8.0
    u = 1.0 / (x * x)
    series = u * (
        1.0 / 12.0
        - u
        * (
            1.0 / 120.0
            - u
            * (
                1.0 / 252.0
                - u
                * (
                    1.0 / 240.0
                    - u * (1.0 / 132.0 - u * (691.0 / 32760.0 - u / 12.0))
                )
            )
        )
    )
    result = np.log(x) - 0.5 / x - series + shift
    return result[0] if scalar else result


@dataclass(frozen=True)
class Iterate:
    """One coordinate-ascent iterate: local (mu, sigma2), global (a, b's)."""

    mu: np.ndarray
    sigma2: np.ndarray
    a: np.ndarray
    b_g: np.ndarray
    b_ghat: np.ndarray


@dataclass
class OracleResult:
    mu: np.ndarray
    sigma2: np.ndarray
    a_prime: np.ndarray
    b_g_prime: np.ndarray
    b_ghat_prime: np.ndarray
    iterations: int
    residual: float
    converged: bool
    trace: list[Iterate] | None = field(default=None, repr=False)


def _local_pass(u, g_hat, a_g, b_g, a_ghat, b_ghat):
    # natural parameters of q(g): precision = sum of expected precisions,
    # precision*mean = precision-weighted sum of the two observations.
    # The residuals follow in product form (mu - u = p_ghat*sigma2*(g_hat-u),
    # mu - g_hat = p_g*sigma2*(u-g_hat)), which stays accurate where direct
    # subtraction would cancel.
    prec_g = a_g / b_g
    prec_ghat = a_ghat / b_ghat
    sigma2 = 1.0 / (prec_g + prec_ghat)
    mu = (prec_g * u + prec_ghat * g_hat) * sigma2
    dev_prev = prec_ghat * sigma2 * (g_hat - u)
    dev_obs = prec_g * sigma2 * (u - g_hat)
    return mu, sigma2, dev_prev, dev_obs


def _global_pass(sigma2, dev_prev, dev_obs, gamma, k_g):
    # one observation adds 0.5 to the prior shape and half the expected
    # squared deviation E[(x - m)^2] = sigma2 + (mu - m)^2 to the prior rate
    a_prime = gamma + 0.5
    b_g_prime = gamma + 0.5 * (sigma2 + dev_prev * dev_prev)
    b_ghat_prime = k_g * gamma + 0.5 * (sigma2 + dev_obs * dev_obs)
    return a_prime, b_g_prime, b_ghat_prime


def one_pass(mu_prev, g_hat, a, b_g, b_ghat, gamma, k_g) -> OracleResult:
    """The single local+global sweep corresponding to one optimizer step.

    The local pass uses the supplied shape a (the pre-step value); the
    global pass then produces the constant shape gamma + 0.5.  This is the
    fixed-point iteration's first sweep, so the residual is inf and
    ``converged`` is False.
    """
    return coordinate_ascent_fixed_point(
        mu_prev, g_hat, a, b_g, b_ghat, gamma, k_g, max_iter=1
    )


def coordinate_ascent_fixed_point(
    mu_prev,
    g_hat,
    a,
    b_g,
    b_ghat,
    gamma,
    k_g,
    tol: float = 1e-12,
    max_iter: int = 200,
    return_trace: bool = False,
) -> OracleResult:
    """Alternate local/global sweeps until the parameters stop moving.

    The first sweep starts from the inputs.  The residual is the largest
    mixed absolute/relative change |delta|/(1 + |value|) across (mu, sigma2,
    b_g, b_ghat) between consecutive sweeps (inf after a single sweep);
    non-convergence within max_iter is reported through
    `converged`/`residual`, never silently truncated.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    mu_prev, g_hat, a, b_g, b_ghat = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (mu_prev, g_hat, a, b_g, b_ghat))
    )
    if np.any(b_g <= 0) or np.any(b_ghat <= 0) or np.any(a <= 0):
        raise ValueError("gamma-rate and shape inputs must be positive")

    a_cur, bg_cur, bgh_cur = a, b_g, b_ghat
    mu = sigma2 = None
    trace = [] if return_trace else None
    iterations = 0
    residual = math.inf
    converged = False
    while iterations < max_iter:
        mu_n, sigma2_n, dev_prev, dev_obs = _local_pass(
            mu_prev, g_hat, a_cur, bg_cur, a_cur, bgh_cur
        )
        a_n, bg_n, bgh_n = _global_pass(sigma2_n, dev_prev, dev_obs, gamma, k_g)
        a_n = np.broadcast_to(np.asarray(a_n, dtype=np.float64), mu_n.shape)
        if iterations:
            residual = max(
                _mixed_change(mu_n, mu),
                _mixed_change(sigma2_n, sigma2),
                _mixed_change(bg_n, bg_cur),
                _mixed_change(bgh_n, bgh_cur),
            )
        mu, sigma2, a_cur, bg_cur, bgh_cur = mu_n, sigma2_n, a_n, bg_n, bgh_n
        iterations += 1
        if trace is not None:
            trace.append(Iterate(mu, sigma2, a_cur, bg_cur, bgh_cur))
        if residual < tol:
            converged = True
            break
    return OracleResult(
        mu=mu,
        sigma2=sigma2,
        a_prime=a_cur,
        b_g_prime=bg_cur,
        b_ghat_prime=bgh_cur,
        iterations=iterations,
        residual=float(residual),
        converged=converged,
        trace=trace,
    )


def _mixed_change(new: np.ndarray, old: np.ndarray) -> float:
    return float(np.max(np.abs(new - old) / (1.0 + np.abs(new))))


def _gamma_entropy(a, b):
    return a - np.log(b) + lgamma(a) + (1.0 - a) * digamma(a)


def elbo(it: Iterate, u, g_hat, gamma, k_g) -> np.ndarray:
    """Analytic single-observation ELBO at a variational iterate.

    All expectations are closed-form in the conjugate family:
    E[log w] = psi(a) - ln b and E[w] = a/b; no Monte Carlo anywhere.
    """
    e_w_g = it.a / it.b_g
    e_w_gh = it.a / it.b_ghat
    e_log_w_g = digamma(it.a) - np.log(it.b_g)
    e_log_w_gh = digamma(it.a) - np.log(it.b_ghat)
    dev_g = it.sigma2 + (it.mu - u) ** 2
    dev_gh = it.sigma2 + (np.asarray(g_hat, dtype=np.float64) - it.mu) ** 2

    log_prior_g = (
        gamma * np.log(gamma) - lgamma(gamma) + (gamma - 1.0) * e_log_w_g - gamma * e_w_g
    )
    log_prior_gh = (
        gamma * np.log(k_g * gamma)
        - lgamma(gamma)
        + (gamma - 1.0) * e_log_w_gh
        - k_g * gamma * e_w_gh
    )
    log_lik_g = 0.5 * e_log_w_g - 0.5 * _LN_2PI - 0.5 * e_w_g * dev_g
    log_lik_gh = 0.5 * e_log_w_gh - 0.5 * _LN_2PI - 0.5 * e_w_gh * dev_gh
    entropy = (
        _gamma_entropy(it.a, it.b_g)
        + _gamma_entropy(it.a, it.b_ghat)
        + 0.5 * (1.0 + _LN_2PI + np.log(it.sigma2))
    )
    return log_prior_g + log_prior_gh + log_lik_g + log_lik_gh + entropy


def elbo_increase_check(
    trace: list[Iterate], u, g_hat, gamma, k_g, slack: float = 1e-9
) -> bool:
    """True iff the ELBO is nondecreasing along the iterates (within slack)."""
    if len(trace) <= 1:
        return True
    values = [elbo(it, u, g_hat, gamma, k_g) for it in trace]
    for prev, cur in zip(values, values[1:]):
        if np.any(np.asarray(cur) < np.asarray(prev) - slack):
            return False
    return True
