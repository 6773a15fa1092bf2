import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vsgd import ConfigError, HyperParams
from vsgd.baselines import (
    AdamParams,
    SgdmParams,
    adam_step,
    init_adam_state,
    init_momentum_state,
    sgdm_step,
)
from vsgd.constant import (
    ConstantVsgdState,
    adam_first_moment_equivalence,
    cvsgd_local,
    cvsgd_step,
    init_constant_state,
    second_moment_decomposition,
)
from vsgd.rng import make_rng, normal


def manual_state(mu, b, a):
    return ConstantVsgdState(
        t=1, mu_g=np.atleast_1d(np.float64(mu)), b_ghat=np.atleast_1d(np.float64(b)), a_ghat=a
    )


class TestStep:
    def test_init(self):
        hp = HyperParams(gamma=1e-8)
        s = init_constant_state(2, hp)
        assert s.t == 0 and s.a_ghat == 1e-8
        np.testing.assert_array_equal(s.b_ghat, [1e-8, 1e-8])

    def test_fixed_weights_hand_value(self):
        hp = HyperParams(k_g=30.0)
        mu, _ = cvsgd_local(manual_state(31.0, 1.0, 1.0), np.array([0.0]), hp)
        assert mu[0] == 30.0  # 31 * 30/31

    def test_mean_fixed_when_observation_matches(self):
        hp = HyperParams(k_g=7.0)
        rng = make_rng(2)
        prev = normal(rng, 5)
        s = ConstantVsgdState(t=1, mu_g=prev.copy(), b_ghat=np.ones(5), a_ghat=1.0)
        mu, _ = cvsgd_local(s, prev, hp)
        np.testing.assert_allclose(mu, prev, rtol=1e-15)

    def test_sigma2_hand_value(self):
        hp = HyperParams(k_g=30.0)
        _, sigma2 = cvsgd_local(manual_state(0.0, 3.1, 1.0), np.array([0.0]), hp)
        assert sigma2[0] == pytest.approx(0.1, rel=1e-15)  # (1/31) * 3.1

    def test_shape_becomes_gamma_plus_one(self):
        hp = HyperParams(gamma=1e-8)
        s = init_constant_state(1, hp)
        theta = np.zeros(1)
        cvsgd_step(s, theta, np.array([1.0]), hp)
        assert s.a_ghat == 1e-8 + 1.0
        assert s.t == 1

    def test_weights_constant_across_time(self):
        # the implied observation weight stays 1/(k_g+1) at every t
        hp = HyperParams(k_g=4.0)
        s = init_constant_state(1, hp)
        theta = np.zeros(1)
        rng = make_rng(3)
        for _ in range(10):
            prev = s.mu_g.copy()
            g = normal(rng, 1)
            cvsgd_step(s, theta, g, hp)
            implied = (s.mu_g - prev) / (g - prev)
            assert implied[0] == pytest.approx(1.0 / 5.0, rel=1e-12)

    def test_positive_rate(self):
        hp = HyperParams()
        s = init_constant_state(4, hp)
        theta = np.zeros(4)
        rng = make_rng(4)
        for _ in range(200):
            cvsgd_step(s, theta, 10.0 * normal(rng, 4), hp)
            assert np.all(s.b_ghat > 0)


class TestAdamEquivalence:
    def test_hand_ratios(self):
        assert adam_first_moment_equivalence(0.9) == pytest.approx(9.0, rel=1e-15)
        assert adam_first_moment_equivalence(0.5) == 1.0

    @pytest.mark.parametrize("beta1", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_bad_beta(self, beta1):
        with pytest.raises(ConfigError):
            adam_first_moment_equivalence(beta1)

    def test_first_moment_tracks_adam(self):
        k_g = 9.0
        beta1 = 0.9
        hp = HyperParams(eta=0.01, k_g=k_g)
        cs = init_constant_state(16, hp)
        ast = init_adam_state(16)
        cfg = AdamParams(eta=0.01, beta1=beta1, beta2=0.999, eps=0.0)
        th_c, th_a = np.zeros(16), np.zeros(16)
        rng = make_rng(5)
        for _ in range(100):
            g = normal(rng, 16)
            cvsgd_step(cs, th_c, g, hp)
            adam_step(ast, th_a, g, cfg)
            np.testing.assert_allclose(cs.mu_g, ast.m, rtol=1e-12, atol=5e-15)


class TestSecondMomentDecomposition:
    def test_zero_mean_kills_cross_term(self):
        hp = HyperParams(k_g=3.0)
        s = manual_state(0.0, 2.0, 1.0)
        adam_like, extra = second_moment_decomposition(s, np.array([2.0]), hp)
        assert adam_like[0] == pytest.approx(4.0 / 16.0, rel=1e-15)
        noise_part = (1.0 / 4.0) * 2.0 / 1.0
        assert extra[0] == pytest.approx(noise_part, rel=1e-15)  # cross term is 0

    def test_opposing_signs_penalty(self):
        hp = HyperParams(k_g=1.0)
        s = manual_state(1.0, 2.0, 1.0)
        _, extra = second_moment_decomposition(s, np.array([-1.0]), hp)
        cross = extra[0] - (1.0 / 2.0) * 2.0 / 1.0
        assert cross == pytest.approx(-0.5, rel=1e-14)  # 2*1/4 * (1)(-1)

    @settings(max_examples=100, deadline=None)
    @given(
        mu=st.floats(-1e3, 1e3),
        g=st.floats(-1e3, 1e3),
        b=st.floats(1e-8, 1e3),
        a=st.floats(1e-8, 1e3),
        k_g=st.floats(1e-3, 1e3),
    )
    def test_parts_sum_to_second_moment(self, mu, g, b, a, k_g):
        hp = HyperParams(k_g=k_g)
        s = manual_state(mu, b, a)
        g_arr = np.array([g])
        adam_like, extra = second_moment_decomposition(s, g_arr, hp)
        mu_new, sigma2 = cvsgd_local(s, g_arr, hp)
        total = mu_new * mu_new + sigma2
        np.testing.assert_allclose(adam_like + extra, total, rtol=1e-12, atol=1e-300)


class TestSgdmProportionality:
    @pytest.mark.parametrize("lam,eta", [(0.9, 0.1), (0.5, 0.5), (0.99, 0.01)])
    def test_ratio_constant_for_normalized_momentum(self, lam, eta):
        hp = HyperParams(eta=0.01, k_g=lam / eta)
        cs = init_constant_state(1, hp)
        ms = init_momentum_state(1)
        cfg = SgdmParams(eta=eta, momentum=lam)
        th_c, th_m = np.zeros(1), np.zeros(1)
        rng = make_rng(6)
        ratios = []
        for _ in range(120):
            g = np.abs(normal(rng, 1)) + 0.5  # nonzero updates
            cvsgd_step(cs, th_c, g, hp)
            sgdm_step(ms, th_m, g, cfg)
            ratios.append(ms.v[0] / cs.mu_g[0])
        r = np.asarray(ratios)
        spread = (r.max() - r.min()) / abs(r.mean())
        assert spread <= 1e-9
        assert r.mean() == pytest.approx(lam + eta, rel=1e-12)


class TestLongTermMemory:
    def test_rate_is_convex_combination_of_past_s_values(self):
        # unroll b_t = sum_k rho_k * prod_{j>k}(1-rho_j) * s_k (b_0 term
        # vanishes because rho_1 = 1) and compare with the recursion
        hp = HyperParams(k_g=5.0, kappa2=0.7)
        s = init_constant_state(1, hp)
        theta = np.zeros(1)
        rng = make_rng(7)
        s_values, rhos = [], []
        for t in range(1, 11):
            g = normal(rng, 1)
            mu_new, sigma2 = cvsgd_local(s, g, hp)
            s_values.append(
                hp.gamma
                + 0.5 * (sigma2 + (mu_new - g) ** 2)
                + 0.5 * hp.k_g * (sigma2 + (mu_new - s.mu_g) ** 2)
            )
            rhos.append(float(t) ** -hp.kappa2)
            cvsgd_step(s, theta, g, hp)
        weights = []
        for k in range(len(rhos)):
            w = rhos[k]
            for j in range(k + 1, len(rhos)):
                w *= 1.0 - rhos[j]
            weights.append(w)
        assert sum(weights) == pytest.approx(1.0, rel=1e-12)
        unrolled = sum(w * sv for w, sv in zip(weights, s_values))
        np.testing.assert_allclose(s.b_ghat, unrolled, rtol=1e-12)
