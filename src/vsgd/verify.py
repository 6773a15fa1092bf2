"""Runnable property suites behind the `vsgd verify` CLI subcommand.

Each check re-validates one of the library's structural guarantees at
moderate scale: closed-form updates against the coordinate-ascent oracle,
the Adam first-moment identity, the sign-step limit, and state positivity.
The test suite holds the full-scale versions with the binding tolerances;
its acceptance criteria 1, 2, 3 and 5 call the oracle, Adam-identity,
sign-step and positivity checks here with full-scale arguments.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import baselines, constant, core, oracle
from .config import HyperParams
from .problems import make_problem
from .rng import make_rng, normal

__all__ = ["CheckResult", "SUITES", "run_suites"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _log_uniform(rng, low, high, size):
    return np.exp(rng.uniform(np.log(low), np.log(high), size))


def check_oracle_agreement(n_cases: int = 2000, seed: int = 101) -> CheckResult:
    """Closed-form one-step values match the SVI oracle's first pass."""
    rng = make_rng(seed)
    sign = lambda: np.where(rng.random(n_cases) < 0.5, -1.0, 1.0)
    mu_prev = _log_uniform(rng, 1e-8, 1e2, n_cases) * sign()
    g_hat = _log_uniform(rng, 1e-8, 1e2, n_cases) * sign()
    a = _log_uniform(rng, 1e-8, 1e2, n_cases)
    b_g = _log_uniform(rng, 1e-8, 1e2, n_cases)
    b_ghat = _log_uniform(rng, 1e-8, 1e2, n_cases)
    gamma = _log_uniform(rng, 1e-8, 1e2, n_cases)
    k_g = _log_uniform(rng, 1e-8, 1e2, n_cases)

    state = core.VsgdState(t=1, mu_g=mu_prev, b_g=b_g, b_ghat=b_ghat, a=a)
    mu, sigma2 = core.local_update(state, g_hat)
    # elementwise gamma/k_g, which HyperParams (scalars only) cannot hold
    a_prime, b_g_prime, b_ghat_prime = core.global_intermediate(
        mu, sigma2, mu_prev, g_hat, SimpleNamespace(gamma=gamma, k_g=k_g)
    )
    ref = oracle.one_pass(mu_prev, g_hat, a, b_g, b_ghat, gamma, k_g)

    worst = max(
        _rel(mu, ref.mu),
        _rel(sigma2, ref.sigma2),
        _rel(a_prime, ref.a_prime),
        _rel(b_g_prime, ref.b_g_prime),
        _rel(b_ghat_prime, ref.b_ghat_prime),
    )
    return CheckResult(
        "oracle", worst <= 1e-10, f"max relative difference {worst:.3e} (bound 1e-10)"
    )


def check_adam_identity(
    n_streams: int = 32,
    n_steps: int = 200,
    seed: int = 102,
    k_g: float = 9.0,
    beta1: float | None = None,
) -> CheckResult:
    """Constant VSGD mu_t equals Adam's uncorrected m_t for k_g = beta1/(1-beta1).

    beta1 defaults to the matching value; passing an unmatched one is how the
    negative-control test injects a fault.
    """
    if beta1 is None:
        beta1 = k_g / (k_g + 1.0)
    rng = make_rng(seed)
    hp = HyperParams(eta=0.01, k_g=k_g)
    cstate = constant.init_constant_state(n_streams, hp)
    astate = baselines.init_adam_state(n_streams)
    params = baselines.AdamParams(eta=0.01, beta1=beta1, beta2=0.999, eps=0.0)
    theta_c = np.zeros(n_streams)
    theta_a = np.zeros(n_streams)
    worst = -np.inf
    for _ in range(n_steps):
        g = normal(rng, n_streams)
        constant.cvsgd_step(cstate, theta_c, g, hp)
        baselines.adam_step(astate, theta_a, g, params)
        gap = np.abs(cstate.mu_g - astate.m)
        bound = 1e-12 * np.abs(astate.m) + 5e-15
        worst = max(worst, float(np.max(gap - bound)))
    return CheckResult(
        "adam-identity",
        worst <= 0.0,
        f"max excess over rtol=1e-12 + atol=5e-15: {worst:.3e}",
    )


def check_normalized_sgd_limit(
    n_streams: int = 32, n_steps: int = 50, seed: int = 103
) -> CheckResult:
    """gamma=1e12, k_g=1e-12 makes VSGD a sign-step method to 1e-4*eta."""
    rng = make_rng(seed)
    eta = 0.05
    hp = HyperParams(eta=eta, gamma=1e12, k_g=1e-12)
    state = core.init_state(n_streams, hp)
    theta = np.zeros(n_streams)
    worst = 0.0
    for _ in range(n_steps):
        g = _log_uniform(rng, 1e-3, 1e3, n_streams) * np.where(
            rng.random(n_streams) < 0.5, -1.0, 1.0
        )
        before = theta.copy()
        core.vsgd_step(state, theta, g, hp)
        err = np.max(np.abs((theta - before) + eta * np.sign(g)))
        worst = max(worst, float(err))
    return CheckResult(
        "nsgd-limit",
        worst <= 1e-4 * eta,
        f"max |step + eta*sign(g)| = {worst:.3e} (bound {1e-4 * eta:.1e})",
    )


def check_positivity(
    n_steps: int = 2000,
    seed: int = 104,
    problems: tuple[str, ...] = ("quad:dim=8,noise=1.0",),
) -> CheckResult:
    """a stays exactly gamma+0.5 and rates/variances stay positive.

    VSGD runs n_steps from each problem's theta0 on that problem's noisy
    gradients, with the random stream reseeded from seed per problem.
    """
    hp = HyperParams(eta=0.01)
    expected_a = hp.gamma + 0.5
    for spec in problems:
        problem = make_problem(spec)
        state = core.init_state(problem.dim, hp)
        theta = problem.theta0.copy()
        rng = make_rng(seed)
        for t in range(1, n_steps + 1):
            core.vsgd_step(state, theta, problem.sample_grad(theta, rng), hp)
            if state.a != expected_a:
                return CheckResult("positivity", False, f"{spec}: shape drifted at t={t}")
            smallest = min(
                float(np.min(state.b_g)),
                float(np.min(state.b_ghat)),
                float(np.min(core.state_sigma2(state))),
            )
            if not smallest > 0.0:
                return CheckResult(
                    "positivity", False, f"{spec}: nonpositive rate/variance at t={t}"
                )
    return CheckResult(
        "positivity",
        True,
        f"{n_steps} steps on {len(problems)} problem(s): a = gamma+0.5 exact, min > 0",
    )


def _rel(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(x - ref) / np.abs(ref)))


SUITES = {
    "oracle": check_oracle_agreement,
    "adam-identity": check_adam_identity,
    "nsgd-limit": check_normalized_sgd_limit,
    "positivity": check_positivity,
}


def run_suites(names: list[str] | None = None) -> list[CheckResult]:
    selected = list(SUITES) if not names else names
    results = []
    for name in selected:
        if name not in SUITES:
            raise KeyError(f"unknown verification suite {name!r}")
        results.append(SUITES[name]())
    return results
