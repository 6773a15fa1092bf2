import numpy as np
import pytest

from vsgd import ConfigError, RunConfig, make_problem, run
from vsgd.problems import _FACTORIES, _sigmoid
from vsgd.rng import make_rng, normal


def central_diff(f, theta, h=1e-5):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2 * h)
    return g


class TestSpecParsing:
    def test_defaults(self):
        p = make_problem("quad")
        assert p.dim == 10 and p.name == "quad"

    def test_parameters(self):
        p = make_problem("quad:dim=4,noise=0.5,cond=10")
        assert p.dim == 4
        assert make_problem("quad:dim=4.0").theta0.shape == (4,)  # an integral float is an int

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            make_problem("banana")

    @pytest.mark.parametrize(
        "spec",
        [
            "quad:dim", "quad:dim=abc", "quad:=3", "quad:dim=2.5", "quad:dim=nan",
            "logreg:n=inf", "quad:noise=-1", "quad:cond=nan", "quad:cond=inf",
            "logreg:seed=-1", "mlp:seed=-1",
        ],
    )
    def test_malformed_parameters(self, spec):
        with pytest.raises(ConfigError):
            make_problem(spec)

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            make_problem("quad:banana=1")


@pytest.mark.parametrize("name", sorted(_FACTORIES))
def test_theta0_is_read_only_and_run_leaves_it_unchanged(name):
    problem = make_problem(name)
    before = np.array(problem.theta0)
    assert not problem.theta0.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        problem.theta0[0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        problem.theta0 *= 2.0
    run(RunConfig(optimizer="vsgd", problem=name, steps=5, seed=0), problem)
    assert problem.theta0.tobytes() == before.tobytes()


class TestQuadratic:
    def test_identity_gradient(self):
        p = make_problem("quad:dim=2,noise=0")
        np.testing.assert_array_equal(p.true_grad(np.array([1.0, 1.0])), [1.0, 1.0])
        assert p.loss(np.array([1.0, 1.0])) == 1.0

    def test_conditioned_diagonal(self):
        p = make_problem("quad:dim=3,cond=100")
        g = p.true_grad(np.ones(3))
        assert g[0] == 1.0 and g[-1] == 100.0

    def test_noiseless_sampler_is_exact(self):
        p = make_problem("quad:dim=3,noise=0")
        rng = make_rng(0)
        theta = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(p.sample_grad(theta, rng), p.true_grad(theta))

    @pytest.mark.parametrize("cond", [1.0, 5.0])
    @pytest.mark.parametrize("noise", [0.0, 0.3, 1.0])
    def test_matches_formulas_bitwise(self, cond, noise):
        """Gradient built in the normal draw's buffer == diag*theta + noise*z."""
        dim = 33
        p = make_problem(f"quad:dim={dim},noise={noise},cond={cond}")
        diag = np.geomspace(1.0, cond, dim) if cond != 1.0 else np.ones(dim)
        theta = make_rng(1).standard_normal(dim) * 3.0
        before = theta.copy()
        g = p.sample_grad(theta, make_rng(2))
        expected = diag * theta + noise * normal(make_rng(2), dim)
        assert g.tobytes() == expected.tobytes()
        assert not np.shares_memory(g, theta)
        assert theta.tobytes() == before.tobytes()
        true_grad = p.true_grad(theta)
        assert true_grad.tobytes() == (diag * theta).tobytes()
        assert not np.shares_memory(true_grad, theta)
        assert p.loss(theta) == 0.5 * float(np.dot(theta, diag * theta))


class TestRosenbrock:
    def test_minimizer(self):
        p = make_problem("rosenbrock:dim=2")
        np.testing.assert_array_equal(p.true_grad(np.ones(2)), [0.0, 0.0])
        assert p.loss(np.ones(2)) == 0.0

    def test_gradient_matches_finite_differences(self):
        p = make_problem("rosenbrock:dim=5")
        rng = make_rng(1)
        theta = rng.uniform(-2, 2, 5)
        fd = central_diff(p.loss, theta)
        np.testing.assert_allclose(p.true_grad(theta), fd, atol=1e-5)

    def test_dim_must_be_at_least_two(self):
        with pytest.raises(ConfigError):
            make_problem("rosenbrock:dim=1")


class TestDataProblems:
    @pytest.mark.parametrize(
        "spec", ["logreg:n=120,d=7,seed=3,batch=8", "mlp:n=64,d=4,hidden=5,seed=3,batch=8"]
    )
    def test_gradient_matches_finite_differences(self, spec):
        p = make_problem(spec)
        rng = make_rng(2)
        for _ in range(3):
            theta = 0.5 * rng.standard_normal(p.dim)
            fd = central_diff(p.loss, theta)
            assert np.max(np.abs(p.true_grad(theta) - fd)) <= 1e-6

    def test_logreg_deterministic_data(self):
        p1 = make_problem("logreg:n=50,d=4,seed=9")
        p2 = make_problem("logreg:n=50,d=4,seed=9")
        theta = np.full(4, 0.3)
        assert p1.loss(theta) == p2.loss(theta)
        np.testing.assert_array_equal(p1.true_grad(theta), p2.true_grad(theta))

    def test_sampler_reproducible_given_rng(self):
        p = make_problem("logreg:n=50,d=4,seed=9,batch=5")
        theta = np.full(4, 0.3)
        g1 = p.sample_grad(theta, make_rng(5))
        g2 = p.sample_grad(theta, make_rng(5))
        np.testing.assert_array_equal(g1, g2)


class TestUnbiasedSampler:
    def test_quad_noise_unbiased(self):
        p = make_problem("quad:dim=4,noise=1.0")
        rng = make_rng(11)
        theta = np.array([1.0, -1.0, 2.0, 0.5])
        n = 100_000
        total = np.zeros(4)
        for _ in range(n):
            total += p.sample_grad(theta, rng)
        mean = total / n
        se = 1.0 / np.sqrt(n)
        assert np.all(np.abs(mean - p.true_grad(theta)) <= 3 * se)

    def test_logreg_minibatch_unbiased(self):
        p = make_problem("logreg:n=200,d=6,seed=4,batch=4")
        rng = make_rng(12)
        theta = 0.2 * np.ones(6)
        n = 100_000
        total = np.zeros(6)
        sq_total = np.zeros(6)
        for _ in range(n):
            g = p.sample_grad(theta, rng)
            total += g
            sq_total += g * g
        mean = total / n
        var = sq_total / n - mean * mean
        se = np.sqrt(var / n)
        assert np.all(np.abs(mean - p.true_grad(theta)) <= 3 * se + 1e-12)


def test_sigmoid_matches_piecewise_form_bitwise():
    """exp(-|z|) in one branch-free form == the masked piecewise sigmoid."""
    rng = make_rng(3)
    mags = 10.0 ** rng.uniform(-300, 3, 20_000)
    edges = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0, 5e-324, -5e-324]
    z = np.concatenate([mags, -mags, edges])
    pos = z >= 0
    piecewise = np.empty_like(z)
    piecewise[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    piecewise[~pos] = ez / (1.0 + ez)
    assert _sigmoid(z).tobytes() == piecewise.tobytes()
    assert np.isnan(_sigmoid(np.array([np.nan]))).all()
