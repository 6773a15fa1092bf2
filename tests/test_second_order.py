import numpy as np
import pytest

from vsgd import HyperParams
from vsgd.second_order import (
    SecondOrderState,
    guarded_denominator,
    init_so_state,
    so_local_update,
    so_rates,
    so_vsgd_step,
)
from vsgd.rng import make_rng, normal

HP = HyperParams(eta=0.01)


def unit_state(mu_g=1.0, mu_h=0.0, b=1.0, a=1.0):
    return SecondOrderState(
        t=1,
        mu_g=np.atleast_1d(np.float64(mu_g)),
        mu_h=np.atleast_1d(np.float64(mu_h)),
        b_h=np.full(1, float(b)),
        b_g=np.full(1, float(b)),
        b_ghat=np.full(1, float(b)),
        a=a,
    )


class TestInitAndRates:
    def test_init(self):
        hp = HyperParams(gamma=1e-8, k_g=30.0, k_h=3.0)
        s = init_so_state(2, hp)
        np.testing.assert_array_equal(s.b_h, [hp.k_h * hp.gamma] * 2)
        np.testing.assert_array_equal(s.b_g, [1e-8, 1e-8])
        np.testing.assert_array_equal(s.b_ghat, [hp.k_g * hp.gamma] * 2)
        np.testing.assert_array_equal(s.mu_h, [0.0, 0.0])
        assert s.a == 1e-8

    def test_rates_full_at_first_step(self):
        assert so_rates(1, HP) == (1.0, 1.0)

    def test_rates_use_t_plus_one_after(self):
        hp = HyperParams(kappa1=0.9, kappa2=0.81)
        assert so_rates(2, hp) == (3.0 ** -0.9, 3.0 ** -0.81)
        assert so_rates(9, hp) == (10.0 ** -0.9, 10.0 ** -0.81)

    def test_rates_reject_t_zero(self):
        with pytest.raises(ValueError):
            so_rates(0, HP)


class TestGuard:
    def test_zero_mean_with_positive_eps(self):
        d = guarded_denominator(np.array([0.0]))
        assert d[0] == 1e-8

    def test_sign_preserved(self):
        d = guarded_denominator(np.array([-1e-12, 2.0]))
        assert d[0] == -1e-8
        assert d[1] == 2.0


class TestLocalUpdate:
    def test_curvature_mean_hand_value(self):
        # equal rates: ratio (2-1)/1 = 1 weighted by b_h/(3b) = 1/3
        mu_h, _, _, _ = so_local_update(unit_state(), np.array([2.0]), HP)
        assert mu_h[0] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_consistent_observation_fixed_point(self):
        # g_hat = mu_g and mu_h = 0: curvature stays 0 and the mean stays put
        s = unit_state(mu_g=1.5, mu_h=0.0)
        mu_h, _, mu_g, _ = so_local_update(s, np.array([1.5]), HP)
        assert mu_h[0] == 0.0
        assert mu_g[0] == pytest.approx(1.5, rel=1e-15)

    def test_variances_from_rates(self):
        s = unit_state(b=2.0, a=4.0)
        _, s2h, _, s2g = so_local_update(s, np.array([1.0]), HP)
        assert s2h[0] == pytest.approx(2.0 * 2.0 / (4.0 * 4.0), rel=1e-15)
        assert s2g[0] == pytest.approx(2.0 * 2.0 / (4.0 * 4.0), rel=1e-15)

    def test_curvature_mean_is_convex_combination(self):
        rng = make_rng(8)
        for _ in range(20):
            s = SecondOrderState(
                t=1,
                mu_g=normal(rng, 3),
                mu_h=normal(rng, 3),
                b_h=np.exp(normal(rng, 3)),
                b_g=np.exp(normal(rng, 3)),
                b_ghat=np.exp(normal(rng, 3)),
                a=0.5,
            )
            g = normal(rng, 3)
            mu_h, _, _, _ = so_local_update(s, g, HP)
            ratio = (g - s.mu_g) / guarded_denominator(s.mu_g)
            lo = np.minimum(ratio, s.mu_h)
            hi = np.maximum(ratio, s.mu_h)
            assert np.all(mu_h >= lo - 1e-12 * (1 + np.abs(lo)))
            assert np.all(mu_h <= hi + 1e-12 * (1 + np.abs(hi)))


class TestStep:
    def test_step_scales_by_curvature_magnitude(self):
        # displacement is -eta * mu_g' / sqrt(mu_h'^2 + sigma2_h), not the
        # gradient-moment scale
        hp = HyperParams(eta=0.1)
        s = unit_state(mu_g=1.0, mu_h=3.0)
        g = np.array([1.0])
        mu_h, s2h, mu_g, _ = so_local_update(s, g, hp)
        theta = np.zeros(1)
        so_vsgd_step(s, theta, g, hp)
        assert theta[0] == pytest.approx(
            -0.1 * mu_g[0] / np.sqrt(mu_h[0] ** 2 + s2h[0]), rel=1e-14
        )
        # the hand arithmetic for the documented magnitudes
        assert -0.1 * 1.0 / np.sqrt(3.0 ** 2 + 16.0) == pytest.approx(-0.02)

    def test_interpolation_full_replacement_at_t1(self):
        hp = HyperParams(eta=0.1, gamma=0.5, k_g=2.0, k_h=3.0)
        s = init_so_state(1, hp)
        g = np.array([1.0])
        mu_h, s2h, mu_g, s2g = so_local_update(s, g, hp)
        expected_bh = hp.k_h * hp.gamma + 0.5 * (s2h + (mu_h - 0.0) ** 2)
        expected_bg = hp.gamma + 0.5 * ((mu_g - 0.0 - mu_h) ** 2 + s2g + s2h)
        expected_bhg = hp.k_g * hp.gamma + 0.5 * (s2g + (mu_g - g) ** 2)
        so_vsgd_step(s, np.zeros(1), g, hp)
        np.testing.assert_allclose(s.b_h, expected_bh, rtol=1e-15)
        np.testing.assert_allclose(s.b_g, expected_bg, rtol=1e-15)
        np.testing.assert_allclose(s.b_ghat, expected_bhg, rtol=1e-15)
        assert s.a == hp.gamma + 0.5

    def test_b_g_stays_positive_where_the_expanded_form_went_negative(self):
        # from this state a 7-term expansion of b_g' drove b_g to -0.195 in
        # two steps and theta to NaN; the expected squared residual cannot
        s = SecondOrderState(
            t=5,
            mu_g=np.array([1.0]),
            mu_h=np.array([2.0]),
            b_h=np.array([10.0]),
            b_g=np.array([1e-3]),
            b_ghat=np.array([10.0]),
            a=HP.gamma + 0.5,
        )
        theta = np.zeros(1)
        for _ in range(2):
            so_vsgd_step(s, theta, np.array([1.0]), HP)
            assert s.b_g[0] > 0
        assert np.isfinite(theta).all()

    def test_tiny_kh_freezes_curvature(self):
        # k_h -> 0 sends the new-information weight b_h/(b_g+b_h+b_ghat)
        # to zero, so mu_h stays pinned near its initial zero and the step
        # scale reduces to sigma_h alone; the mean is warm-started so the
        # first-step guarded ratio (g/eps at mu_g=0) doesn't dominate
        hp = HyperParams(eta=0.01, k_h=1e-12)
        s = init_so_state(4, hp)
        s.mu_g = np.ones(4)
        theta = np.ones(4)
        rng = make_rng(9)
        for _ in range(100):
            g = theta + 0.1 * normal(rng, 4)
            mu_h, s2h, _, _ = so_local_update(s, g, hp)
            so_vsgd_step(s, theta, g, hp)
            weight = s.b_h / (s.b_g + s.b_h + s.b_ghat)
            assert np.all(weight < 1e-10)
            assert np.all(np.abs(s.mu_h) < 1e-6)
            scale = np.sqrt(mu_h * mu_h + s2h)
            np.testing.assert_allclose(scale, np.sqrt(s2h), rtol=1e-4)

    def test_huge_kh_tracks_new_curvature_information(self):
        # the opposite limit: k_h -> inf puts all mean-update weight on the
        # fresh difference-quotient estimate
        hp = HyperParams(eta=0.01, k_h=1e12)
        s = init_so_state(4, hp)
        s.mu_g = np.ones(4)
        theta = np.ones(4)
        rng = make_rng(9)
        g = theta + 0.1 * normal(rng, 4)
        so_vsgd_step(s, theta, g, hp)
        ratio = (g - 1.0) / 1.0
        np.testing.assert_allclose(s.mu_h, ratio, rtol=1e-9)

    def test_long_noisy_run_stays_finite_and_positive(self):
        hp = HyperParams(eta=0.01)
        s = init_so_state(6, hp)
        theta = np.ones(6)
        rng = make_rng(10)
        for _ in range(1000):
            g = theta + normal(rng, 6)
            so_vsgd_step(s, theta, g, hp)
            assert np.isfinite(theta).all()
            assert np.all(s.b_h > 0) and np.all(s.b_g > 0) and np.all(s.b_ghat > 0)
