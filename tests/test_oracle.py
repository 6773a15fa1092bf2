import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vsgd import core
from vsgd.core import VsgdState, local_update
from vsgd.oracle import (
    Iterate,
    coordinate_ascent_fixed_point,
    digamma,
    elbo,
    elbo_increase_check,
    one_pass,
)
from vsgd.rng import make_rng
from vsgd.verify import check_oracle_agreement

EULER_GAMMA = 0.5772156649015329


class TestDigamma:
    def test_known_values(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), abs=1e-13)
        # psi(n) = H_{n-1} - euler_gamma
        h9 = sum(1.0 / k for k in range(1, 10))
        assert digamma(10.0) == pytest.approx(h9 - EULER_GAMMA, rel=1e-13)

    def test_tiny_argument_pole(self):
        # psi(x) ~ -1/x - euler_gamma near zero
        x = 1e-8
        assert digamma(x) == pytest.approx(-1.0 / x - EULER_GAMMA, rel=1e-12)

    @given(st.floats(1e-6, 1e6))
    def test_recurrence(self, x):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(
            1.0 / x, rel=1e-10, abs=1e-12
        )

    def test_vectorized(self):
        xs = np.array([0.5, 1.0, 2.0, 8.0, 100.0])
        out = digamma(xs)
        assert out.shape == xs.shape
        for xi, oi in zip(xs, out):
            assert oi == digamma(float(xi))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(np.array([1.0, -2.0]))


class TestOnePass:
    def test_symmetric_input(self):
        # equal rates and mu_prev = g_hat: mean stays, and the two rate
        # updates differ only by their prior offsets
        gamma, k_g = 0.3, 4.0
        res = one_pass(2.0, 2.0, 0.8, 1.5, 1.5, gamma, k_g)
        assert res.mu == pytest.approx(2.0, rel=1e-15)
        assert res.a_prime == gamma + 0.5
        assert res.b_g_prime - gamma == pytest.approx(
            res.b_ghat_prime - k_g * gamma, rel=1e-14
        )

    def test_matches_closed_form_on_init_point(self):
        res = one_pass(0.0, 1.0, 1e-8, 1e-8, 30e-8, 1e-8, 30.0)
        state = VsgdState(
            t=0,
            mu_g=np.zeros(1),
            b_g=np.full(1, 1e-8),
            b_ghat=np.full(1, 30e-8),
            a=1e-8,
        )
        mu, sigma2 = local_update(state, np.array([1.0]))
        assert abs(res.mu - mu[0]) <= 1e-10 * abs(mu[0])
        assert abs(res.sigma2 - sigma2[0]) <= 1e-10 * abs(sigma2[0])

    def test_full_step_at_t1_matches_first_pass(self):
        # at t=1 the interpolation rates are 1, so the post-step state holds
        # the intermediate globals themselves
        import vsgd

        hp = vsgd.HyperParams(eta=0.1, gamma=1e-8, k_g=30.0)
        state = vsgd.init_state(1, hp)
        vsgd.vsgd_step(state, np.ones(1), np.array([1.0]), hp)
        ref = one_pass(0.0, 1.0, 1e-8, 1e-8, 30e-8, hp.gamma, hp.k_g)
        assert state.mu_g[0] == pytest.approx(float(ref.mu), rel=1e-10)
        assert state.a == pytest.approx(float(ref.a_prime), rel=1e-10)
        assert state.b_g[0] == pytest.approx(float(ref.b_g_prime), rel=1e-10)
        assert state.b_ghat[0] == pytest.approx(float(ref.b_ghat_prime), rel=1e-10)

    def test_vectorized_agreement_with_closed_forms(self):
        rng = make_rng(31)
        n = 1000
        lu = lambda lo, hi: np.exp(rng.uniform(np.log(lo), np.log(hi), n))
        sg = lambda: np.where(rng.random(n) < 0.5, -1.0, 1.0)
        mu_prev = lu(1e-8, 1e2) * sg()
        g_hat = lu(1e-8, 1e2) * sg()
        a = lu(1e-8, 1e2)
        b_g = lu(1e-8, 1e2)
        b_ghat = lu(1e-8, 1e2)
        gamma = lu(1e-8, 1e2)
        k_g = lu(1e-8, 1e2)
        res = one_pass(mu_prev, g_hat, a, b_g, b_ghat, gamma, k_g)
        state = VsgdState(t=1, mu_g=mu_prev, b_g=b_g, b_ghat=b_ghat, a=a)
        mu, sigma2 = local_update(state, g_hat)
        bg_p = gamma + 0.5 * (sigma2 + (mu - mu_prev) ** 2)
        bgh_p = k_g * gamma + 0.5 * (sigma2 + (mu - g_hat) ** 2)
        np.testing.assert_allclose(res.mu, mu, rtol=1e-10)
        np.testing.assert_allclose(res.sigma2, sigma2, rtol=1e-10)
        # the closed forms above difference a rounded mu, so grant them
        # their own subtraction roundoff on top of the relative bound
        eps = np.finfo(float).eps
        atol_g = 4.0 * eps * np.abs(mu - mu_prev) * (np.abs(mu) + np.abs(mu_prev))
        atol_gh = 4.0 * eps * np.abs(mu - g_hat) * (np.abs(mu) + np.abs(g_hat))
        assert np.all(np.abs(res.b_g_prime - bg_p) <= 1e-10 * bg_p + atol_g)
        assert np.all(np.abs(res.b_ghat_prime - bgh_p) <= 1e-10 * bgh_p + atol_gh)


class TestFixedPoint:
    def test_first_sweep_is_one_pass(self):
        args = (-0.7, 1.3, 0.9, 0.4, 2.0, 0.5, 30.0)
        first = one_pass(*args)
        res = coordinate_ascent_fixed_point(*args, max_iter=3, return_trace=True)
        assert first.iterations == 1 and not first.converged
        assert first.residual == math.inf
        assert (res.trace[0].mu, res.trace[0].b_g, res.trace[0].b_ghat) == (
            first.mu, first.b_g_prime, first.b_ghat_prime
        )
        assert math.isfinite(res.residual)

    def test_contracts_on_informative_priors(self):
        # vague priors (gamma << 0.1) open a near-flat variance-collapse
        # valley where plain coordinate ascent crawls; on informative priors
        # the sweep contracts fast
        rng = make_rng(32)
        n = 1000
        lu = lambda lo, hi: np.exp(rng.uniform(np.log(lo), np.log(hi), n))
        sg = lambda: np.where(rng.random(n) < 0.5, -1.0, 1.0)
        res = coordinate_ascent_fixed_point(
            lu(1e-8, 1e2) * sg(),
            lu(1e-8, 1e2) * sg(),
            lu(1e-8, 1e2),
            lu(1e-8, 1e2),
            lu(1e-8, 1e2),
            lu(1e-1, 1e2),
            lu(1e-8, 1e2),
            tol=1e-12,
            max_iter=400,
        )
        assert res.converged
        assert res.residual < 1e-12
        assert res.iterations <= 250

    def test_fixed_point_is_self_consistent(self):
        res = coordinate_ascent_fixed_point(
            -0.7, 1.3, 0.9, 0.4, 2.0, 0.5, 30.0, tol=1e-14, max_iter=500
        )
        assert res.converged
        # plug the fixed point back through one sweep
        prec = res.a_prime / res.b_g_prime + res.a_prime / res.b_ghat_prime
        sigma2 = 1.0 / prec
        mu = (
            res.a_prime / res.b_g_prime * -0.7 + res.a_prime / res.b_ghat_prime * 1.3
        ) * sigma2
        assert mu == pytest.approx(res.mu, rel=1e-10)
        assert sigma2 == pytest.approx(res.sigma2, rel=1e-10)
        assert res.b_g_prime == pytest.approx(
            0.5 + 0.5 * (sigma2 + (mu + 0.7) ** 2), rel=1e-10
        )

    def test_nonconvergence_reported_not_truncated(self):
        res = coordinate_ascent_fixed_point(
            0.0, 1.0, 1e-8, 1e-8, 30e-8, 1e-8, 30.0, tol=1e-12, max_iter=200
        )
        assert not res.converged
        assert res.iterations == 200
        assert res.residual > 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            coordinate_ascent_fixed_point(0.0, 1.0, 0.5, -1.0, 1.0, 0.5, 30.0)
        with pytest.raises(ValueError):
            coordinate_ascent_fixed_point(0.0, 1.0, 0.5, 1.0, 1.0, 0.5, 30.0, tol=0.0)
        with pytest.raises(ValueError):
            coordinate_ascent_fixed_point(0.0, 1.0, 0.5, 1.0, 1.0, 0.5, 30.0, max_iter=0)


class TestElbo:
    def test_monotone_on_converged_run(self):
        res = coordinate_ascent_fixed_point(
            -0.7, 1.3, 0.9, 0.4, 2.0, 0.5, 30.0, return_trace=True
        )
        assert res.trace is not None and len(res.trace) > 2
        assert elbo_increase_check(res.trace, -0.7, 1.3, 0.5, 30.0)

    def test_single_iterate_trivially_monotone(self):
        it = Iterate(
            np.float64(0.1),
            np.float64(0.2),
            np.float64(1.0),
            np.float64(0.5),
            np.float64(0.5),
        )
        assert elbo_increase_check([it], 0.0, 1.0, 0.5, 30.0)

    def test_perturbed_iterate_fails_check(self):
        res = coordinate_ascent_fixed_point(
            -0.7, 1.3, 0.9, 0.4, 2.0, 0.5, 30.0, return_trace=True
        )
        trace = list(res.trace)
        mid = len(trace) // 2
        bad = Iterate(
            trace[mid].mu + 25.0,  # far off the ascent path
            trace[mid].sigma2,
            trace[mid].a,
            trace[mid].b_g,
            trace[mid].b_ghat,
        )
        trace.insert(mid, bad)
        assert not elbo_increase_check(trace, -0.7, 1.3, 0.5, 30.0)

    def test_elbo_decreases_away_from_local_optimum(self):
        # the local update maximizes the ELBO over (mu, sigma2) at fixed
        # global parameters; nudging mu must not increase it
        res = coordinate_ascent_fixed_point(0.2, 1.0, 0.7, 0.9, 1.1, 1.0, 3.0)
        base = Iterate(res.mu, res.sigma2, res.a_prime, res.b_g_prime, res.b_ghat_prime)
        v0 = elbo(base, 0.2, 1.0, 1.0, 3.0)
        for delta in (-0.3, 0.3):
            nudged = Iterate(
                res.mu + delta, res.sigma2, res.a_prime, res.b_g_prime, res.b_ghat_prime
            )
            assert elbo(nudged, 0.2, 1.0, 1.0, 3.0) < v0


class TestOracleCheck:
    def test_checks_the_library_global_update(self, monkeypatch):
        """The check compares core.global_intermediate itself with the oracle,
        so a fault in the library's global update fails it."""
        assert check_oracle_agreement(n_cases=200).passed

        def no_half(mu_new, sigma2, mu_prev, g_hat, hp):  # drops the 0.5
            return (
                hp.gamma + 0.5,
                hp.gamma + (sigma2 + (mu_new - mu_prev) ** 2),
                hp.k_g * hp.gamma + (sigma2 + (mu_new - g_hat) ** 2),
            )

        monkeypatch.setattr(core, "global_intermediate", no_half)
        assert not check_oracle_agreement(n_cases=200).passed
