import dataclasses
import warnings

import numpy as np
import pytest

from vsgd import ConfigError, HyperParams, NumericError, RunConfig, run, summarize
from vsgd.harness import (
    DIVERGENCE_LIMIT,
    OPTIMIZER_NAMES,
    RunResult,
    make_stepper,
    parse_scheduler,
)
from vsgd.problems import Problem


def cfg(**kw):
    base = dict(
        optimizer="vsgd",
        problem="quad:dim=4,noise=0.5",
        steps=50,
        seed=1,
        hp=HyperParams(eta=0.01),
    )
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_unknown_optimizer(self):
        with pytest.raises(ConfigError):
            cfg(optimizer="adamw")

    def test_bad_steps_and_stride(self):
        with pytest.raises(ConfigError):
            cfg(steps=0)
        with pytest.raises(ConfigError):
            cfg(record_stride=0)

    def test_weight_decay_restricted_to_vsgd(self):
        cfg(hp=HyperParams(eta=0.01, weight_decay=0.01))  # fine
        with pytest.raises(ConfigError):
            cfg(optimizer="adam", hp=HyperParams(eta=0.01, weight_decay=0.01))

    def test_bad_scheduler_rejected_up_front(self):
        with pytest.raises(ConfigError):
            cfg(scheduler="warmup:10")

    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZER_NAMES))
    def test_schedule_that_underflows_eta_rejected_up_front(self, optimizer):
        # 0.01 * 0.5**1199 underflows to 0.0; 0.01 * 0.5**999 is still > 0
        with pytest.raises(ConfigError, match="eta must stay > 0"):
            cfg(optimizer=optimizer, steps=1200, scheduler="halve:1")
        result = run(cfg(optimizer=optimizer, steps=1000, scheduler="halve:1"))
        assert result.steps_run == 1000


class TestScheduler:
    def test_none(self):
        s = parse_scheduler("none")
        assert s(1) == s(10_000) == 1.0

    def test_halving(self):
        s = parse_scheduler("halve:100")
        assert s(1) == 1.0
        assert s(100) == 1.0
        assert s(101) == 0.5
        assert s(201) == 0.25

    @pytest.mark.parametrize("spec", ["halve", "halve:", "halve:0", "halve:x", "step"])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ConfigError):
            parse_scheduler(spec)


class TestRun:
    def test_deterministic_traces_bitwise(self):
        r1 = run(cfg(seed=7))
        r2 = run(cfg(seed=7))
        assert len(r1.traces) == len(r2.traces)
        for a, b in zip(r1.traces, r2.traces):
            assert dataclasses.astuple(a) == dataclasses.astuple(b)

    def test_different_seeds_differ(self):
        r1 = run(cfg(seed=1))
        r2 = run(cfg(seed=2))
        assert r1.traces[-1].loss != r2.traces[-1].loss

    def test_record_stride_thins_traces(self):
        r = run(cfg(steps=50, record_stride=10))
        assert [tr.t for tr in r.traces] == [10, 20, 30, 40, 50]

    def test_final_step_always_recorded(self):
        r = run(cfg(steps=55, record_stride=10))
        assert r.traces[-1].t == 55

    def test_stride_larger_than_run_still_records_final(self):
        r = run(cfg(steps=5, record_stride=1000))
        assert [tr.t for tr in r.traces] == [5]

    @pytest.mark.parametrize("name", sorted(OPTIMIZER_NAMES))
    def test_trace_state_columns(self, name):
        filled = {
            "vsgd": {"mean_b_g", "mean_b_ghat", "mean_sigma2"},
            "so-vsgd": {"mean_b_g", "mean_b_ghat", "mean_sigma2"},
            "constant-vsgd": {"mean_b_ghat", "mean_sigma2"},
        }.get(name, set())
        tr = run(cfg(optimizer=name, steps=5)).traces[-1]
        for column in ("mean_b_g", "mean_b_ghat", "mean_sigma2"):
            value = getattr(tr, column)
            if column in filled:
                assert value is not None and np.isfinite(value) and value > 0, column
            else:
                assert value is None, column

    @pytest.mark.parametrize(
        "name", ["vsgd", "constant-vsgd", "so-vsgd", "sgd", "sgdm", "adam", "amsgrad", "nsgd"]
    )
    def test_every_optimizer_runs(self, name):
        r = run(cfg(optimizer=name, steps=10))
        assert not r.diverged
        assert len(r.traces) == 10
        assert np.isfinite(r.traces[-1].loss)

    def test_divergence_flagged_and_stopped(self):
        # plain SGD at a huge learning rate blows up on the quadratic
        r = run(
            cfg(
                optimizer="sgd",
                problem="quad:dim=2,cond=100",
                steps=600,
                hp=HyperParams(eta=10.0),
            )
        )
        assert r.diverged
        assert r.steps_run == 2  # the loss passes the limit first
        assert r.traces[-1].t == r.steps_run

    @pytest.mark.parametrize("stride, stop", [(1, 2), (50, 3)])
    def test_norm_bound_flags_divergence_between_record_points(self, stride, stop):
        # the loss passes the limit at step 2, but only a record point checks
        # it; at stride 50 the per-step bound on ||theta|| stops the run at
        # step 3, before the sampled gradient overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails the test
            r = run(
                cfg(
                    optimizer="sgd",
                    problem="rosenbrock:dim=2",
                    steps=1000,
                    hp=HyperParams(eta=0.05),
                    record_stride=stride,
                )
            )
        assert r.diverged
        assert r.steps_run == stop
        assert r.traces[-1].t == r.steps_run
        if stride > 1:
            assert r.traces[-1].theta_norm > DIVERGENCE_LIMIT

    @pytest.mark.parametrize("name", sorted(OPTIMIZER_NAMES))
    def test_strided_traces_equal_stride_one_traces(self, name):
        every = run(cfg(optimizer=name, problem="logreg:n=200,d=5", scheduler="halve:20"))
        strided = run(
            cfg(optimizer=name, problem="logreg:n=200,d=5", scheduler="halve:20", record_stride=7)
        )
        assert not every.diverged and not strided.diverged
        by_t = {tr.t: dataclasses.astuple(tr) for tr in every.traces}
        assert [tr.t for tr in strided.traces] == [7, 14, 21, 28, 35, 42, 49, 50]
        for tr in strided.traces:
            assert dataclasses.astuple(tr) == by_t[tr.t]

    def test_scheduler_shrinks_updates(self):
        base = cfg(optimizer="sgd", problem="quad:dim=1,noise=0", steps=40)
        decayed = cfg(
            optimizer="sgd",
            problem="quad:dim=1,noise=0",
            steps=40,
            scheduler="halve:10",
        )
        r_base = run(base)
        r_dec = run(decayed)
        # slower learning once halving kicks in
        assert r_dec.traces[-1].loss > r_base.traces[-1].loss

    def test_problem_injection(self):
        calls = {"n": 0}

        def sample(theta, rng):
            calls["n"] += 1
            return theta.copy()

        p = Problem(
            name="custom",
            dim=2,
            theta0=np.ones(2),
            loss=lambda th: float(th @ th),
            true_grad=lambda th: 2 * th,
            sample_grad=sample,
        )
        r = run(cfg(problem="ignored-when-injected", steps=7), problem=p)
        assert calls["n"] == 7
        assert not r.diverged


class TestSummarize:
    def test_constant_trace(self):
        r = run(cfg(optimizer="sgd", problem="quad:dim=1,noise=0", steps=3,
                    hp=HyperParams(eta=1e-30)))
        m = summarize(r)
        assert m.final_loss == m.best_loss

    def test_wallclock_positive(self):
        m = summarize(run(cfg(steps=5)))
        assert m.wallclock_per_step > 0

    def test_empty_traces_rejected(self):
        r = RunResult(
            config=cfg(),
            traces=[],
            diverged=False,
            steps_run=0,
            initial_loss=1.0,
            wallclock_seconds=0.0,
        )
        with pytest.raises(ValueError):
            summarize(r)


class TestSteppers:
    def test_vsgd_and_adam_first_moments_agree_on_shared_stream(self):
        # theta-independent gradients give both optimizers the same stream
        from vsgd.rng import make_rng, normal
        from vsgd.baselines import AdamParams, adam_step, init_adam_state

        hp = HyperParams(eta=0.01, k_g=9.0)
        c = make_stepper("constant-vsgd", 8, cfg(optimizer="constant-vsgd", hp=hp))
        a_state = init_adam_state(8)
        a_cfg = AdamParams(eta=0.01, beta1=0.9, beta2=0.999, eps=0.0)
        th_c, th_a = np.zeros(8), np.zeros(8)
        rng = make_rng(33)
        for _ in range(50):
            g = normal(rng, 8)
            th_c = c.step(th_c, g, 0.01)
            adam_step(a_state, th_a, g, a_cfg)
            np.testing.assert_allclose(c.state.mu_g, a_state.m, rtol=1e-12, atol=5e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", sorted(OPTIMIZER_NAMES))
    def test_non_finite_gradient_raises(self, name, bad):
        stepper = make_stepper(name, 3, cfg(optimizer=name))
        theta = np.ones(3)
        with pytest.raises(NumericError):
            stepper.step(theta, np.array([0.1, bad, -0.2]), 0.01)
        np.testing.assert_array_equal(theta, np.ones(3))
