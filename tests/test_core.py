import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vsgd import (
    ConfigError,
    HyperParams,
    NumericError,
    apply_step,
    global_intermediate,
    global_interpolate,
    init_state,
    local_update,
    state_sigma2,
    svi_rates,
    vsgd_step,
)
from vsgd import core
from vsgd.constant import cvsgd_local, cvsgd_step, init_constant_state
from vsgd.core import VsgdState
from vsgd.rng import make_rng, normal
from vsgd.second_order import init_so_state, so_local_update, so_rates, so_vsgd_step

HP = HyperParams(eta=0.01)


def fresh(dim=3, **kw):
    return init_state(dim, HyperParams(eta=0.01, **kw))


class TestHyperParams:
    def test_defaults(self):
        hp = HyperParams()
        assert hp.gamma == 1e-8
        assert hp.k_g == 30.0
        assert (hp.kappa1, hp.kappa2) == (0.9, 0.81)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(eta=0.0),
            dict(eta=-1.0),
            dict(gamma=0.0),
            dict(k_g=0.0),
            dict(k_h=-1.0),
            dict(kappa1=0.5),
            dict(kappa1=1.5),
            dict(kappa2=0.2),
            dict(kappa2=1.01),
            dict(weight_decay=-0.1),
            dict(mu_guard_eps=-1e-9),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            HyperParams(**kw)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(HyperParams)])
    def test_rejects_non_finite_values(self, name, value):
        # a NaN weight decay would otherwise read as "no decay" (nan > 0 is
        # False), and an infinite gamma, eta or k_g would run to NaN theta
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            HyperParams(**{name: value})

    def test_both_kappa_orderings_expressible(self):
        HyperParams(kappa1=0.9, kappa2=0.81)
        HyperParams(kappa1=0.8, kappa2=0.9)


class TestInit:
    def test_paper_defaults(self):
        st_ = init_state(3, HyperParams(gamma=1e-8, k_g=30.0))
        assert st_.t == 0
        np.testing.assert_array_equal(st_.mu_g, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(st_.b_g, [1e-8] * 3)
        np.testing.assert_array_equal(st_.b_ghat, [3e-7] * 3)
        assert st_.a == 1e-8

    def test_identity_scaling(self):
        st_ = init_state(1, HyperParams(gamma=1.0, k_g=1.0))
        assert st_.b_g[0] == 1.0 and st_.b_ghat[0] == 1.0 and st_.a == 1.0

    def test_rate_product(self):
        st_ = init_state(2, HyperParams(gamma=0.5, k_g=2.0))
        np.testing.assert_array_equal(st_.b_ghat, [1.0, 1.0])

    def test_bad_param_count(self):
        with pytest.raises(ConfigError):
            init_state(0, HP)


class TestSviRates:
    def test_first_step_is_one(self):
        assert svi_rates(1, HyperParams(kappa1=0.7, kappa2=0.99)) == (1.0, 1.0)

    def test_hand_values(self):
        r1, r2 = svi_rates(16, HyperParams(kappa1=0.51, kappa2=1.0))
        # oracle: exp(-kappa * ln t)
        assert r1 == pytest.approx(np.exp(-0.51 * np.log(16.0)), rel=1e-15)
        assert r2 == 0.0625
        assert svi_rates(16, HyperParams(kappa1=0.51, kappa2=1.0))[1] == 1.0 / 16

    def test_defaults_at_100(self):
        assert svi_rates(100, HyperParams()) == (100.0 ** -0.9, 100.0 ** -0.81)

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError):
            svi_rates(0, HP)


class TestLocalUpdate:
    def test_precision_weighted_posterior(self):
        st_ = VsgdState(
            t=1,
            mu_g=np.zeros(1),
            b_g=np.ones(1),
            b_ghat=np.ones(1),
            a=1.0,
        )
        mu, sigma2 = local_update(st_, np.array([2.0]))
        assert mu[0] == 1.0
        assert sigma2[0] == 0.5

    def test_observation_equal_to_mean_is_fixed(self):
        rng = make_rng(0)
        mu_prev = normal(rng, 4)
        st_ = VsgdState(
            t=1,
            mu_g=mu_prev.copy(),
            b_g=np.exp(normal(rng, 4)),
            b_ghat=np.exp(normal(rng, 4)),
            a=0.7,
        )
        mu, _ = local_update(st_, mu_prev)
        # the convex weights may miss 1.0 by one ulp, nothing more
        np.testing.assert_allclose(mu, mu_prev, rtol=5e-16)

    def test_prior_ratio_weight(self):
        st_ = fresh(1, gamma=1e-8, k_g=30.0)
        mu, _ = local_update(st_, np.array([1.0]))
        # oracle: weight on the observation is b_g/(b_g + b_ghat) = 1/31
        assert mu[0] == pytest.approx(1.0 / 31.0, rel=1e-14)

    def test_pure(self):
        st_ = fresh(2)
        before = (st_.mu_g.copy(), st_.b_g.copy(), st_.b_ghat.copy(), st_.a, st_.t)
        local_update(st_, np.array([1.0, -2.0]))
        np.testing.assert_array_equal(st_.mu_g, before[0])
        np.testing.assert_array_equal(st_.b_g, before[1])
        np.testing.assert_array_equal(st_.b_ghat, before[2])
        assert (st_.a, st_.t) == before[3:]

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericError):
            local_update(fresh(2), np.array([1.0, np.nan]))

    @given(
        mu=st.floats(-1e6, 1e6),
        g=st.floats(-1e6, 1e6),
        bg=st.floats(1e-8, 1e8),
        bgh=st.floats(1e-8, 1e8),
    )
    def test_mean_is_convex_combination(self, mu, g, bg, bgh):
        st_ = VsgdState(
            t=1,
            mu_g=np.array([mu]),
            b_g=np.array([bg]),
            b_ghat=np.array([bgh]),
            a=0.5,
        )
        mu_new, sigma2 = local_update(st_, np.array([g]))
        lo, hi = min(mu, g), max(mu, g)
        assert lo - 1e-9 * (1 + abs(lo)) <= mu_new[0] <= hi + 1e-9 * (1 + abs(hi))
        assert sigma2[0] > 0


class TestGlobalIntermediate:
    def test_hand_quadratic_forms(self):
        # gamma=1e-300 contributes nothing at double precision (stands in
        # for the gamma=0 corner, which HyperParams rejects)
        hp = HyperParams(gamma=1e-300, k_g=1.0)
        a_p, bg_p, bgh_p = global_intermediate(
            np.array([1.0]), np.array([0.5]), np.array([0.0]), np.array([2.0]), hp
        )
        assert bg_p[0] == 0.75
        assert bgh_p[0] == 0.75

    def test_vanishing_residuals_leave_priors(self):
        hp = HyperParams(gamma=1.0, k_g=30.0)
        x = np.array([3.0])
        _, bg_p, bgh_p = global_intermediate(x, np.array([1e-30]), x, x, hp)
        assert bg_p[0] == 1.0
        assert bgh_p[0] == 30.0

    def test_shape_is_constant(self):
        hp = HyperParams(gamma=1e-8)
        a_p, _, _ = global_intermediate(
            np.ones(1), np.ones(1), np.ones(1), np.ones(1), hp
        )
        assert a_p == 1e-8 + 0.5


class TestGlobalInterpolate:
    def test_full_replacement_at_rho_one(self):
        st_ = fresh(2)
        bg_p = np.array([0.123456, 7.89])
        bgh_p = np.array([0.5, 0.25])
        new = global_interpolate(st_, bg_p, bgh_p, 1.0, 1.0)
        np.testing.assert_array_equal(new.b_g, bg_p)
        np.testing.assert_array_equal(new.b_ghat, bgh_p)
        assert new.t == st_.t + 1

    def test_arithmetic_mean_at_half(self):
        st_ = VsgdState(
            t=1, mu_g=np.zeros(1), b_g=np.array([2.0]), b_ghat=np.array([2.0]), a=0.5
        )
        new = global_interpolate(st_, np.array([4.0]), np.array([6.0]), 0.5, 0.5)
        assert new.b_g[0] == 3.0
        assert new.b_ghat[0] == 4.0

    @pytest.mark.parametrize("rho", [0.0, -0.1, 1.5])
    def test_rejects_rho_outside_unit_interval(self, rho):
        st_ = fresh(1)
        with pytest.raises(ValueError):
            global_interpolate(st_, st_.b_g, st_.b_ghat, rho, 0.5)


class TestApplyStep:
    def test_hand_displacement(self):
        hp = HyperParams(eta=0.1)
        theta = apply_step(np.zeros(1), np.array([3.0]), np.array([16.0]), hp)
        assert theta[0] == pytest.approx(-0.06, rel=1e-15)  # 0.1 * 3/sqrt(25)

    def test_zero_mean_no_motion(self):
        theta = apply_step(np.array([5.0]), np.zeros(1), np.array([2.0]), HP)
        assert theta[0] == 5.0

    def test_sign_step_limit(self):
        hp = HyperParams(eta=0.1)
        theta = apply_step(np.zeros(1), np.array([-2.0]), np.array([1e-30]), hp)
        assert theta[0] == pytest.approx(0.1, rel=1e-12)

    def test_decoupled_weight_decay_uses_prestep_theta(self):
        hp = HyperParams(eta=0.1, weight_decay=0.5)
        theta0 = np.array([2.0])
        theta = apply_step(theta0, np.array([3.0]), np.array([16.0]), hp)
        assert theta[0] == pytest.approx(2.0 - 0.06 - 0.1 * 0.5 * 2.0, rel=1e-14)
        assert theta0[0] == 2.0  # pure

    @given(
        mu=st.floats(-1e8, 1e8),
        sigma2=st.floats(1e-12, 1e8),
        eta=st.floats(1e-6, 1.0),
    )
    def test_displacement_bounded_by_eta(self, mu, sigma2, eta):
        hp = HyperParams(eta=eta)
        theta = apply_step(np.zeros(1), np.array([mu]), np.array([sigma2]), hp)
        # |mu|/sqrt(mu^2+sigma2) < 1 exactly; floats may round the ratio to
        # one ulp past 1.0 when sigma2 vanishes next to mu^2
        assert abs(theta[0]) <= eta * (1.0 + 4e-16)


class TestVsgdStep:
    def test_zero_gradient_fixed_point(self):
        st_ = fresh(3)
        theta = np.ones(3)
        vsgd_step(st_, theta, np.zeros(3), HP)
        np.testing.assert_array_equal(theta, np.ones(3))
        np.testing.assert_array_equal(st_.mu_g, np.zeros(3))

    def test_first_step_from_init(self):
        hp = HyperParams(eta=0.1, gamma=1e-8, k_g=30.0)
        st_ = init_state(1, hp)
        theta = np.array([1.0])
        vsgd_step(st_, theta, np.array([1.0]), hp)
        assert st_.mu_g[0] == pytest.approx(1.0 / 31.0, rel=1e-12)
        assert theta[0] < 1.0
        assert st_.a == hp.gamma + 0.5
        assert st_.t == 1

    def test_matches_component_composition(self):
        rng = make_rng(11)
        hp = HyperParams(eta=0.05)
        kernel = init_state(6, hp)
        composed = init_state(6, hp)
        th_k = normal(rng, 6)
        th_c = th_k.copy()
        for _ in range(60):
            g = normal(rng, 6)
            vsgd_step(kernel, th_k, g, hp)
            r1, r2 = svi_rates(composed.t + 1, hp)
            mu_new, sigma2 = local_update(composed, g)
            a_p, bg_p, bgh_p = global_intermediate(
                mu_new, sigma2, composed.mu_g, g, hp
            )
            th_c = apply_step(th_c, mu_new, sigma2, hp)
            composed = global_interpolate(
                composed, bg_p, bgh_p, r1, r2, a_prime=a_p, mu_new=mu_new
            )
        np.testing.assert_allclose(kernel.mu_g, composed.mu_g, rtol=5e-14)
        np.testing.assert_allclose(kernel.b_g, composed.b_g, rtol=5e-14)
        np.testing.assert_allclose(kernel.b_ghat, composed.b_ghat, rtol=5e-14)
        np.testing.assert_allclose(th_k, th_c, rtol=5e-14, atol=1e-300)
        assert kernel.a == composed.a and kernel.t == composed.t

    def test_noiseless_quadratic_converges(self):
        hp = HyperParams(eta=0.01)
        st_ = init_state(1, hp)
        theta = np.array([1.0])
        for _ in range(5000):
            vsgd_step(st_, theta, theta.copy(), hp)
        assert abs(theta[0]) < 1e-3

    def test_deterministic_bitwise(self):
        def one_run():
            rng = make_rng(21)
            st_ = fresh(4)
            theta = np.ones(4)
            for _ in range(25):
                vsgd_step(st_, theta, normal(rng, 4), HP)
            return theta, st_

        t1, s1 = one_run()
        t2, s2 = one_run()
        assert np.array_equal(t1, t2)
        assert np.array_equal(s1.b_g, s2.b_g)
        assert np.array_equal(s1.b_ghat, s2.b_ghat)
        assert np.array_equal(s1.mu_g, s2.mu_g)

    def test_rejects_nonfinite_gradient(self):
        st_ = fresh(2)
        with pytest.raises(NumericError):
            vsgd_step(st_, np.ones(2), np.array([np.inf, 0.0]), HP)

    def test_float32_gradients_promoted_to_float64(self):
        st_ = fresh(2)
        theta = np.ones(2)
        vsgd_step(st_, theta, np.array([0.5, -0.5], dtype=np.float32), HP)
        assert st_.mu_g.dtype == np.float64
        assert theta.dtype == np.float64

    def test_rejects_shape_mismatch(self):
        st_ = fresh(2)
        with pytest.raises(ValueError):
            vsgd_step(st_, np.ones(2), np.ones(3), HP)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(1e-3, 1e3))
    def test_positivity_and_bounded_steps(self, seed, scale):
        rng = make_rng(seed)
        hp = HyperParams(eta=0.07)
        st_ = init_state(3, hp)
        theta = np.zeros(3)
        for _ in range(30):
            before = theta.copy()
            g = scale * normal(rng, 3)
            vsgd_step(st_, theta, g, hp)
            assert np.all(st_.b_g > 0)
            assert np.all(st_.b_ghat > 0)
            assert np.all(state_sigma2(st_) > 0)
            assert st_.a == hp.gamma + 0.5
            assert np.all(np.abs(theta - before) <= hp.eta * (1.0 + 4e-16))

    def test_normalized_sgd_limit(self):
        hp = HyperParams(eta=0.1, gamma=1e12, k_g=1e-12)
        st_ = init_state(8, hp)
        theta = np.zeros(8)
        rng = make_rng(13)
        for _ in range(40):
            mag = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 8))
            g = mag * np.where(rng.random(8) < 0.5, -1.0, 1.0)
            before = theta.copy()
            vsgd_step(st_, theta, g, hp)
            np.testing.assert_allclose(
                theta - before, -hp.eta * np.sign(g), atol=1e-4 * hp.eta
            )


class TestBlockedKernel:
    @staticmethod
    def stream(dim, weight_decay):
        hp = HyperParams(eta=0.01, weight_decay=weight_decay)
        rng = make_rng(dim)
        state, theta = init_state(dim, hp), normal(rng, dim)
        for _ in range(5):
            # magnitudes over twelve decades, so any change of rounding shows
            scale = 10.0 ** rng.integers(-6, 7, size=dim)
            vsgd_step(state, theta, normal(rng, dim) * scale, hp)
        return state, theta

    # 50 = 7*7 + 1 and 53 = 7*7 + 4 leave ragged last blocks, one a
    # one-element tail
    @pytest.mark.parametrize("dim", [50, 53])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_small_blocks_bitwise_equal_default_block(self, monkeypatch, dim, weight_decay):
        whole, whole_theta = self.stream(dim, weight_decay)
        monkeypatch.setattr(core, "_BLOCK", 7)
        blocked, blocked_theta = self.stream(dim, weight_decay)
        assert blocked_theta.tobytes() == whole_theta.tobytes()
        for name in ("mu_g", "b_g", "b_ghat"):
            assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes(), name
        assert (blocked.a, blocked.t) == (whole.a, whole.t)

    # Constant and Second-order VSGD run their own kernels through the same block loop
    VARIANTS = {
        "constant-vsgd": (init_constant_state, cvsgd_step),
        "so-vsgd": (init_so_state, so_vsgd_step),
    }

    @staticmethod
    def arrays(state):
        return {k: v for k, v in vars(state).items() if isinstance(v, np.ndarray)}

    def variant_stream(self, name, dim, check_pure=False):
        init, step = self.VARIANTS[name]
        hp = HyperParams(eta=0.01)
        rng = make_rng(dim)
        state, theta = init(dim, hp), normal(rng, dim)
        for _ in range(5):
            scale = 10.0 ** rng.integers(-6, 7, size=dim)
            g_hat = normal(rng, dim) * scale
            pure = self.pure_step(name, state, theta, g_hat, hp) if check_pure else None
            step(state, theta, g_hat, hp)
            if pure is not None:
                for key, value in pure.items():
                    got = theta if key == "theta" else getattr(state, key)
                    np.testing.assert_allclose(got, value, rtol=1e-13, atol=0, err_msg=key)
        return state, theta

    @staticmethod
    def pure_step(name, state, theta, g_hat, hp):
        """The step composed from the pure forms and the documented updates."""
        if name == "constant-vsgd":
            mu, sigma2 = cvsgd_local(state, g_hat, hp)
            rho = float(state.t + 1) ** -hp.kappa2
            b_ghat_prime = (
                hp.gamma + 0.5 * (sigma2 + (mu - g_hat) ** 2)
                + 0.5 * hp.k_g * (sigma2 + (mu - state.mu_g) ** 2)
            )
            return {
                "mu_g": mu,
                "b_ghat": (1 - rho) * state.b_ghat + rho * b_ghat_prime,
                "theta": theta - hp.eta * mu / np.sqrt(mu * mu + sigma2),
            }
        mu_h, sigma2_h, mu_g, sigma2_g = so_local_update(state, g_hat, hp)
        rho1, rho2 = so_rates(state.t + 1, hp)
        b_h_prime = hp.k_h * hp.gamma + 0.5 * (sigma2_h + (mu_h - state.mu_h) ** 2)
        b_g_prime = hp.gamma + 0.5 * (
            (mu_g - state.mu_g - mu_h) ** 2 + sigma2_g + sigma2_h
        )
        b_ghat_prime = hp.k_g * hp.gamma + 0.5 * (sigma2_g + (mu_g - g_hat) ** 2)
        return {
            "mu_g": mu_g,
            "mu_h": mu_h,
            "b_h": (1 - rho1) * state.b_h + rho1 * b_h_prime,
            "b_g": (1 - rho1) * state.b_g + rho1 * b_g_prime,
            "b_ghat": (1 - rho2) * state.b_ghat + rho2 * b_ghat_prime,
            "theta": theta - hp.eta * mu_g / np.sqrt(mu_h * mu_h + sigma2_h),
        }

    @pytest.mark.parametrize("dim", [50, 53])
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_variant_small_blocks_bitwise_equal_one_block(self, monkeypatch, name, dim):
        whole, whole_theta = self.variant_stream(name, dim)
        monkeypatch.setattr(core, "_BLOCK", 7)
        blocked, blocked_theta = self.variant_stream(name, dim, check_pure=True)
        assert blocked_theta.tobytes() == whole_theta.tobytes()
        whole_arrays = self.arrays(whole)
        for key, value in self.arrays(blocked).items():
            assert value.tobytes() == whole_arrays[key].tobytes(), key
        scalars = [(k, v) for k, v in vars(whole).items() if k in ("t", "a", "a_ghat")]
        assert [(k, getattr(blocked, k)) for k, _ in scalars] == scalars

    @pytest.mark.parametrize(
        "name, guard_eps, bad_gradient",
        [("so-vsgd", 0.0, False), ("so-vsgd", 1e-8, True), ("constant-vsgd", 1e-8, True)],
    )
    def test_rejected_step_leaves_every_block_untouched(
        self, monkeypatch, name, guard_eps, bad_gradient
    ):
        # the fault sits in the last of eight blocks, so a check made block
        # by block would already have written the seven before it
        monkeypatch.setattr(core, "_BLOCK", 7)
        init, step = self.VARIANTS[name]
        hp = HyperParams(eta=0.01, mu_guard_eps=guard_eps)
        rng = make_rng(0)
        state, theta = init(53, hp), normal(rng, 53)
        state.mu_g[:] = normal(rng, 53)
        g_hat = normal(rng, 53)
        if bad_gradient:
            g_hat[-1] = np.nan
        else:
            state.mu_g[-1] = 0.0
        before = {k: v.copy() for k, v in self.arrays(state).items()}
        theta_before, t_before = theta.copy(), state.t
        with pytest.raises(NumericError):
            step(state, theta, g_hat, hp)
        assert theta.tobytes() == theta_before.tobytes()
        for key, value in self.arrays(state).items():
            assert value.tobytes() == before[key].tobytes(), key
        assert state.t == t_before
