import numpy as np
import pytest

from vsgd import ConfigError, HyperParams
from vsgd.baselines import (
    AdamParams,
    SgdmParams,
    adam_step,
    amsgrad_step,
    init_adam_state,
    init_momentum_state,
    normalized_sgd_step,
    sgd_step,
    sgdm_step,
)
from vsgd.rng import make_rng, normal


class TestAdam:
    def test_first_step_bias_correction(self):
        s = init_adam_state(1)
        cfg = AdamParams(eta=0.1, beta1=0.9, beta2=0.999, eps=0.0)
        adam_step(s, np.zeros(1), np.ones(1), cfg)
        assert s.m[0] == pytest.approx(0.1, rel=1e-15)
        m_hat = s.m[0] / (1 - 0.9)
        assert m_hat == pytest.approx(1.0, rel=1e-14)

    def test_zero_gradient_stream_freezes_theta(self):
        s = init_adam_state(3)
        cfg = AdamParams(eta=0.1)
        theta = np.array([1.0, -2.0, 0.5])
        for _ in range(10):
            adam_step(s, theta, np.zeros(3), cfg)
        np.testing.assert_array_equal(theta, [1.0, -2.0, 0.5])

    def test_constant_stream_corrected_mean_is_constant(self):
        # geometric series: m_t = c (1 - beta1^t), so m_t/(1-beta1^t) = c
        s = init_adam_state(1)
        cfg = AdamParams(eta=0.1, beta1=0.9, beta2=0.999, eps=0.0)
        c = 0.7
        theta = np.zeros(1)
        for t in range(1, 50):
            adam_step(s, theta, np.array([c]), cfg)
            assert s.m[0] / (1 - cfg.beta1 ** t) == pytest.approx(c, rel=1e-12)

    def test_moments_match_closed_form_sums(self):
        rng = make_rng(20)
        stream = [normal(rng, 4) for _ in range(20)]
        s = init_adam_state(4)
        cfg = AdamParams(eta=0.01, beta1=0.9, beta2=0.99)
        theta = np.zeros(4)
        for g in stream:
            adam_step(s, theta, g, cfg)
        t = len(stream)
        m_closed = sum(
            (1 - cfg.beta1) * cfg.beta1 ** (t - k - 1) * g for k, g in enumerate(stream)
        )
        v_closed = sum(
            (1 - cfg.beta2) * cfg.beta2 ** (t - k - 1) * g * g
            for k, g in enumerate(stream)
        )
        np.testing.assert_allclose(s.m, m_closed, rtol=1e-12)
        np.testing.assert_allclose(s.v, v_closed, rtol=1e-12)

    def test_rejects_bad_betas(self):
        with pytest.raises(ConfigError):
            AdamParams(eta=0.1, beta1=1.0)
        with pytest.raises(ConfigError):
            AdamParams(eta=0.1, beta2=-0.1)


class TestAmsgrad:
    def test_max_is_monotone_on_decreasing_v(self):
        s = init_adam_state(1, amsgrad=True)
        cfg = AdamParams(eta=0.1, beta2=0.5)
        theta = np.zeros(1)
        amsgrad_step(s, theta, np.array([10.0]), cfg)
        peak = s.v_hat_max[0]
        for _ in range(10):
            amsgrad_step(s, theta, np.array([0.01]), cfg)
            assert s.v_hat_max[0] == peak  # v decays, max holds

    def test_equals_adam_on_nondecreasing_v(self):
        rng = make_rng(21)
        mags = np.cumsum(np.abs(normal(rng, 12))) + 1.0  # |g| grows, so v grows
        s_a, th_a = init_adam_state(1), np.zeros(1)
        s_m, th_m = init_adam_state(1, amsgrad=True), np.zeros(1)
        cfg = AdamParams(eta=0.05, beta2=0.9)
        for mag in mags:
            g = np.array([mag])
            adam_step(s_a, th_a, g, cfg)
            amsgrad_step(s_m, th_m, g, cfg)
            np.testing.assert_array_equal(s_m.v_hat_max, s_m.v)
        np.testing.assert_array_equal(th_a, th_m)

    def test_single_step_identical_to_adam(self):
        g = np.array([0.3, -2.0])
        cfg = AdamParams(eta=0.1)
        s_a, th_a = init_adam_state(2), np.ones(2)
        s_m, th_m = init_adam_state(2, amsgrad=True), np.ones(2)
        adam_step(s_a, th_a, g, cfg)
        amsgrad_step(s_m, th_m, g, cfg)
        np.testing.assert_array_equal(th_a, th_m)

    def test_denominator_at_least_adams(self):
        rng = make_rng(22)
        cfg = AdamParams(eta=0.05)
        s_a, th_a = init_adam_state(8), np.zeros(8)
        s_m, th_m = init_adam_state(8, amsgrad=True), np.zeros(8)
        for _ in range(50):
            g = normal(rng, 8)
            adam_step(s_a, th_a, g, cfg)
            amsgrad_step(s_m, th_m, g, cfg)
            assert np.all(s_m.v_hat_max >= s_a.v - 1e-300)

    def test_requires_amsgrad_state(self):
        s = init_adam_state(1, amsgrad=False)
        with pytest.raises(ValueError):
            amsgrad_step(s, np.zeros(1), np.ones(1), AdamParams(eta=0.1))


class TestSgdm:
    def test_zero_momentum_is_plain_sgd(self):
        s = init_momentum_state(2)
        theta = np.zeros(2)
        g = np.array([1.0, -2.0])
        sgdm_step(s, theta, g, SgdmParams(eta=0.1, momentum=0.0))
        np.testing.assert_allclose(theta, -0.1 * g, rtol=1e-15)

    def test_two_step_hand_recursion(self):
        s = init_momentum_state(1)
        theta = np.zeros(1)
        cfg = SgdmParams(eta=0.1, momentum=0.9)
        sgdm_step(s, theta, np.ones(1), cfg)
        sgdm_step(s, theta, np.ones(1), cfg)
        assert s.v[0] == pytest.approx(0.19, rel=1e-14)


class TestNormalizedSgd:
    def test_sign_step(self):
        theta = normalized_sgd_step(None, np.zeros(1), np.array([-4.0]), HyperParams(eta=0.1))
        assert theta[0] == 0.1

    def test_zero_gradient_convention(self):
        theta = normalized_sgd_step(None, np.array([2.0]), np.zeros(1), HyperParams(eta=0.1))
        assert theta[0] == 2.0

    def test_sgd_step(self):
        theta = sgd_step(None, np.array([1.0]), np.array([2.0]), HyperParams(eta=0.25))
        assert theta[0] == 0.5
