"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion NN (...): PASS/FAIL` line (visible with
pytest -s or in failure output) and then asserts.
"""
import time

import numpy as np

from vsgd import HyperParams, RunConfig, run, summarize
from vsgd.baselines import SgdmParams, init_momentum_state, sgdm_step
from vsgd.constant import cvsgd_local, cvsgd_step, init_constant_state, second_moment_decomposition
from vsgd.core import init_state, vsgd_step
from vsgd.oracle import coordinate_ascent_fixed_point, elbo_increase_check
from vsgd.problems import make_problem
from vsgd.rng import make_rng, normal
from vsgd.second_order import SecondOrderState, init_so_state, so_local_update, so_vsgd_step
from vsgd.verify import (
    check_adam_identity,
    check_normalized_sgd_limit,
    check_oracle_agreement,
    check_positivity,
)


def _report(num, name, ok, detail):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def test_criterion_01_oracle_agreement():
    start = time.perf_counter()
    result = check_oracle_agreement(n_cases=10_000, seed=42)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "oracle agreement",
        result.passed and elapsed < 10.0,
        f"10000 inputs; {result.detail}, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_adam_first_moment_identity():
    # k_g = 9 matches beta1 = 0.9; each step's gap is bounded by rtol 1e-12
    # plus a 5e-15 zero-crossing floor
    result = check_adam_identity(n_streams=100, n_steps=200, seed=202, k_g=9.0)
    _report(2, "Adam first-moment identity", result.passed,
            f"100 streams x 200 steps; {result.detail}")


def test_criterion_03_normalized_sgd_limit():
    result = check_normalized_sgd_limit(n_streams=100, n_steps=200, seed=303)
    _report(3, "Normalized-SGD limit", result.passed,
            f"100 streams x 200 steps; {result.detail}")


def test_criterion_04_sgdm_proportionality():
    worst_spread = 0.0
    details = []
    for lam, eta_m in ((0.9, 0.1), (0.5, 0.5), (0.99, 0.01)):
        hp = HyperParams(eta=0.01, k_g=lam / eta_m)
        cs = init_constant_state(8, hp)
        ms = init_momentum_state(8)
        cfg = SgdmParams(eta=eta_m, momentum=lam)
        th_c, th_m = np.zeros(8), np.zeros(8)
        rng = make_rng(404)
        ratios = []
        for _ in range(200):
            g = np.abs(normal(rng, 8)) + 0.25  # nonzero updates
            cvsgd_step(cs, th_c, g, hp)
            sgdm_step(ms, th_m, g, cfg)
            ratios.append(ms.v / cs.mu_g)
        r = np.asarray(ratios)
        spread = float((r.max(axis=0) - r.min(axis=0)).max() / abs(r.mean()))
        worst_spread = max(worst_spread, spread)
        details.append(f"lam={lam}: ratio {r.mean():.12f} (expect {lam + eta_m})")
    _report(
        4,
        "SGDM proportionality",
        worst_spread <= 1e-9,
        f"max elementwise ratio spread {worst_spread:.2e} (bound 1e-9); " + "; ".join(details),
    )


def test_criterion_05_shape_constancy_and_positivity():
    specs = ("quad:dim=10,noise=1.0", "rosenbrock:dim=4,noise=0.5", "logreg:n=400,d=12,batch=16")
    result = check_positivity(n_steps=2000, seed=505, problems=specs)
    _report(
        5,
        "shape constancy and positivity",
        result.passed,
        f"a == gamma+0.5 exactly and min(b_g, b_ghat, sigma2) > 0 on 3 benchmark "
        f"problems; {result.detail}",
    )


def test_criterion_06_second_moment_decomposition():
    rng = make_rng(606)
    per_kg = 2500
    worst = 0.0
    for k_g in (0.5, 3.0, 9.0, 30.0):
        hp = HyperParams(k_g=k_g)
        from vsgd.constant import ConstantVsgdState

        state = ConstantVsgdState(
            t=1,
            mu_g=_log_uniform(rng, 1e-6, 1e3, per_kg)
            * np.where(rng.random(per_kg) < 0.5, -1.0, 1.0),
            b_ghat=_log_uniform(rng, 1e-8, 1e3, per_kg),
            a_ghat=float(_log_uniform(rng, 1e-8, 1e3, 1)[0]),
        )
        g = _log_uniform(rng, 1e-6, 1e3, per_kg) * np.where(
            rng.random(per_kg) < 0.5, -1.0, 1.0
        )
        adam_like, extra = second_moment_decomposition(state, g, hp)
        mu_new, sigma2 = cvsgd_local(state, g, hp)
        total = mu_new * mu_new + sigma2
        worst = max(worst, float(np.max(np.abs(adam_like + extra - total) / total)))
    _report(
        6,
        "second-moment decomposition",
        worst <= 1e-12,
        f"max rel deviation of part sums from mu^2+sigma2: {worst:.2e} over 10000 inputs",
    )


def test_criterion_07_convergence():
    hp = HyperParams(eta=0.01)
    noiseless = run(
        RunConfig(
            optimizer="vsgd",
            problem="quad:dim=10,noise=0",
            steps=5000,
            seed=0,
            hp=hp,
            record_stride=50,
        )
    )
    best_clean = summarize(noiseless).best_loss

    finals = []
    for seed in range(5):
        noisy = run(
            RunConfig(
                optimizer="vsgd",
                problem="quad:dim=10,noise=1.0",
                steps=20_000,
                seed=seed,
                hp=hp,
                scheduler="halve:4000",
                record_stride=1,
            )
        )
        finals.append(float(np.mean([tr.loss for tr in noisy.traces[-100:]])))
    noisy_mean = float(np.mean(finals))
    ok = best_clean < 1e-6 and noisy_mean < 1e-2
    _report(
        7,
        "convergence",
        ok,
        f"noiseless 10-d quad best loss {best_clean:.2e} (< 1e-6 in 5000 steps); "
        f"noisy quad (sigma=1, halve:4000) mean last-100 loss over 5 seeds "
        f"{noisy_mean:.2e} (< 1e-2 in 20000 steps)",
    )


def test_criterion_08_comparative_benchmark():
    start = time.perf_counter()
    grid = (0.001, 0.005, 0.01, 0.02)
    seeds = (0, 1, 2)
    best = {}
    for optimizer in ("vsgd", "adam"):
        means = []
        for lr in grid:
            finals = []
            for seed in seeds:
                result = run(
                    RunConfig(
                        optimizer=optimizer,
                        problem="logreg:n=2000,d=50,seed=7,batch=64",
                        steps=2000,
                        seed=seed,
                        hp=HyperParams(eta=lr),
                        record_stride=2000,
                    )
                )
                finals.append(result.traces[-1].loss)
            means.append(float(np.mean(finals)))
        best[optimizer] = min(means)
    elapsed = time.perf_counter() - start
    gap = abs(best["vsgd"] - best["adam"]) / best["adam"]
    _report(
        8,
        "comparative benchmark",
        gap <= 0.05 and elapsed < 120.0,
        f"best VSGD {best['vsgd']:.5f} vs best Adam {best['adam']:.5f} "
        f"(gap {100 * gap:.2f}%, bound 5%), {elapsed:.1f}s (< 120s)",
    )


def test_criterion_09_per_step_overhead():
    def measure():
        per_step = {}
        for optimizer in ("adam", "vsgd"):
            result = run(
                RunConfig(
                    optimizer=optimizer,
                    problem="quad:dim=1000000,noise=0",
                    steps=1000,
                    seed=0,
                    hp=HyperParams(eta=0.001),
                    record_stride=1000,
                )
            )
            per_step[optimizer] = summarize(result).wallclock_per_step
        return per_step

    # one retry absorbs transient machine load; each attempt still averages
    # the stated 1000 steps
    attempts = 0
    while True:
        per_step = measure()
        ratio = per_step["vsgd"] / per_step["adam"]
        attempts += 1
        if ratio <= 2.0 or attempts == 2:
            break
    _report(
        9,
        "per-step overhead",
        ratio <= 2.0,
        f"dim=1e6 quadratic, 1000 steps: vsgd {per_step['vsgd'] * 1e3:.2f} ms vs "
        f"adam {per_step['adam'] * 1e3:.2f} ms, ratio {ratio:.2f} "
        f"(bound 2.0, attempt {attempts})",
    )


def test_criterion_10_elbo_monotonicity():
    rng = make_rng(1010)
    n = 1000
    sg = lambda: np.where(rng.random(n) < 0.5, -1.0, 1.0)
    mu_prev = _log_uniform(rng, 1e-8, 1e2, n) * sg()
    g_hat = _log_uniform(rng, 1e-8, 1e2, n) * sg()
    gamma = _log_uniform(rng, 1e-8, 1e2, n)
    k_g = _log_uniform(rng, 1e-8, 1e2, n)
    res = coordinate_ascent_fixed_point(
        mu_prev,
        g_hat,
        _log_uniform(rng, 1e-8, 1e2, n),
        _log_uniform(rng, 1e-8, 1e2, n),
        _log_uniform(rng, 1e-8, 1e2, n),
        gamma,
        k_g,
        tol=1e-12,
        max_iter=200,
        return_trace=True,
    )
    ok = elbo_increase_check(res.trace, mu_prev, g_hat, gamma, k_g, slack=1e-9)
    _report(
        10,
        "ELBO monotonicity",
        ok,
        f"nondecreasing (slack 1e-9) along {len(res.trace)} coordinate-ascent "
        f"iterates on {n} random inputs",
    )


def test_criterion_11_harness_gradient_correctness():
    worst = 0.0
    h = 1e-5
    for spec in ("logreg:n=300,d=20,seed=7", "mlp:n=128,d=6,hidden=8,seed=7"):
        problem = make_problem(spec)
        rng = make_rng(1111)
        for _ in range(20):
            theta = 0.5 * normal(rng, problem.dim)
            fd = np.zeros(problem.dim)
            for i in range(problem.dim):
                up, dn = theta.copy(), theta.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (problem.loss(up) - problem.loss(dn)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(problem.true_grad(theta) - fd))))
    _report(
        11,
        "harness gradient correctness",
        worst <= 1e-6,
        f"max |analytic - central difference| = {worst:.2e} "
        f"(bound 1e-6, h=1e-5, 20 points x 2 problems)",
    )


def test_criterion_12_second_order_sanity():
    hp = HyperParams(eta=0.1)
    # hand-derived single-step values
    s = SecondOrderState(
        t=1,
        mu_g=np.array([1.0]),
        mu_h=np.array([0.0]),
        b_h=np.ones(1),
        b_g=np.ones(1),
        b_ghat=np.ones(1),
        a=1.0,
    )
    mu_h, s2h, mu_g, _ = so_local_update(s, np.array([2.0]), hp)
    hand_ok = mu_h[0] == 1.0 / 3.0
    s2 = SecondOrderState(
        t=1,
        mu_g=np.array([1.5]),
        mu_h=np.array([0.0]),
        b_h=np.ones(1),
        b_g=np.ones(1),
        b_ghat=np.ones(1),
        a=1.0,
    )
    mu_h2, _, mu_g2, _ = so_local_update(s2, np.array([1.5]), hp)
    hand_ok = hand_ok and mu_h2[0] == 0.0 and abs(mu_g2[0] - 1.5) < 1e-15
    hand_ok = hand_ok and abs(-0.1 * 1.0 / np.sqrt(3.0 ** 2 + 16.0) - (-0.02)) < 1e-15

    state = init_so_state(10, HyperParams(eta=0.01))
    theta = np.ones(10)
    rng = make_rng(1212)
    finite = True
    for _ in range(10_000):
        g = theta + normal(rng, 10)
        so_vsgd_step(state, theta, g, HyperParams(eta=0.01))
        if not (
            np.isfinite(theta).all()
            and np.isfinite(state.mu_h).all()
            and np.isfinite(state.b_h).all()
            and np.isfinite(state.b_g).all()
            and np.isfinite(state.b_ghat).all()
        ):
            finite = False
            break
    _report(
        12,
        "second-order sanity",
        hand_ok and finite,
        f"hand examples exact: {hand_ok}; 10000 noisy-quadratic steps finite: {finite}",
    )


def test_criterion_13_constant_vsgd_is_the_strong_prior_limit():
    """Constant VSGD is VSGD's strong-prior limit.

    As gamma grows, VSGD's weight on the new observation,
    ``b_g / (b_g + b_ghat)``, settles at its prior value ``1/(1+k_g)``, which
    is Constant VSGD's fixed weight, so the two means agree to O(1/gamma).
    At a weak prior VSGD learns its own weight and the means part.
    """
    rng = make_rng(0)
    grads = [1.0 + 0.5 * normal(rng, 50) for _ in range(500)]

    def compare(gamma, k_g):
        hp = HyperParams(gamma=gamma, k_g=k_g)
        v, c = init_state(50, hp), init_constant_state(50, hp)
        theta_v, theta_c = np.zeros(50), np.zeros(50)
        gap = 0.0
        for t, g in enumerate(grads, 1):
            vsgd_step(v, theta_v, g, hp)
            cvsgd_step(c, theta_c, g, hp)
            if t >= 10:
                gap = max(gap, float(np.max(np.abs(v.mu_g - c.mu_g) / np.abs(c.mu_g))))
        return gap, float(np.mean(v.b_g / (v.b_g + v.b_ghat)))

    details, ok = [], True
    for k_g in (30.0, 3.0):
        runs = {gamma: compare(gamma, k_g) for gamma in (1e-8, 1e2, 1e4, 1e6)}
        scaled = max(runs[gamma][0] * gamma for gamma in (1e2, 1e4, 1e6))
        weak_gap = runs[1e-8][0]
        weight = runs[1e4][1]
        weight_err = abs(weight * (1.0 + k_g) - 1.0)
        ok = ok and scaled <= 1.0 and weak_gap > 1.0 and weight_err <= 1e-3
        details.append(
            f"k_g={k_g:g}: gap*gamma {scaled:.3f} (<= 1 at gamma 1e2..1e6), "
            f"gap {weak_gap:.2f} at gamma=1e-8 (> 1), weight {weight:.5f} vs "
            f"1/(1+k_g) (rel {weight_err:.1e} <= 1e-3)"
        )
    _report(13, "Constant VSGD strong-prior limit", ok, "; ".join(details))
