import dataclasses
import importlib
import math
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vsgd import ConfigError, HyperParams, NumericError, RunConfig, run, summarize
from vsgd import harness as harness_module
from vsgd.harness import (
    DIVERGENCE_LIMIT,
    OPTIMIZER_NAMES,
    RunResult,
    Trace,
    _mean,
    _norm,
    make_stepper,
    parse_scheduler,
)
from vsgd.problems import Problem, make_problem
from vsgd.rng import Stream, make_rng, normal


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

    def test_negative_seed_rejected(self):
        cfg(seed=0)  # fine
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            cfg(seed=-1)

    def test_weight_decay_accepted_for_every_optimizer(self):
        for name in OPTIMIZER_NAMES:
            cfg(optimizer=name, hp=HyperParams(eta=0.01, weight_decay=0.01))  # no ConfigError

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

    @pytest.mark.parametrize(
        "convert",
        [
            lambda g: g.astype(np.float32),
            list,
            lambda g: np.repeat(g, 2)[::2],  # strided view
            lambda g: np.round(10 * g).astype(np.int64),
        ],
        ids=["float32", "list", "strided", "int64"],
    )
    def test_custom_gradient_types_accepted(self, convert):
        base = make_problem("quad:dim=5,noise=0.5")
        norms = []

        def sample(theta, rng):
            g = convert(base.sample_grad(theta, rng))
            norms.append(float(np.linalg.norm(g)))
            return g

        p = dataclasses.replace(base, sample_grad=sample)
        r = run(cfg(problem="quad", steps=6), problem=p)
        assert [tr.grad_norm for tr in r.traces] == norms

    def test_large_dim_step_allocates_no_temporary_arrays(self):
        """At large dim a run, its problem included, holds the state, theta
        and one gradient or summary buffer; beyond those, only block-sized
        buffers.  ``quad``'s theta0 is a broadcast view, so the run's copy is
        the only theta."""
        dim = 200_000
        array_bytes = 8 * dim
        config = cfg(optimizer="so-vsgd", problem="quad", steps=5, record_stride=1)
        # a first run's lazy imports would count against the bound
        run(cfg(optimizer="so-vsgd", problem="quad:dim=10,noise=1.0", steps=2))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run(config, make_problem(f"quad:dim={dim},noise=1.0"))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # 5 state arrays, theta, and the gradient or the sigma2 summary
        assert peak <= 7 * array_bytes + 2_000_000, peak / array_bytes

    def test_quad_problem_allocates_nothing_dim_sized(self):
        make_problem("quad:dim=10,noise=1")  # lazy imports
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            problem = make_problem("quad:dim=200000,noise=1")
            allocated = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert problem.dim == 200_000
        assert allocated < 64 * 1024, allocated

    def test_conditioned_quad_sample_makes_no_product_temporary(self):
        """``quad`` with ``cond > 1`` adds ``diag * theta`` into the normal
        draw block by block: its run peaks where the ``cond=1`` run does."""
        dim = 200_000
        run(cfg(problem="quad:dim=10,cond=100,noise=1", steps=2))  # lazy imports

        def peak(spec):
            problem = make_problem(spec)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run(cfg(problem="quad", steps=5, record_stride=1), problem)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        conditioned = peak(f"quad:dim={dim},cond=100,noise=1")
        plain = peak(f"quad:dim={dim},noise=1")
        assert conditioned <= plain + 1_000_000, (conditioned - plain) / (8 * dim)


# problems whose draws a Stream serves from chunks: normals of an even and an
# odd size (with a diagonal and a noise scale), and index batches
STREAM_PROBLEMS = [
    "quad:dim=10,noise=1",
    "quad:dim=11,cond=5,noise=0.3",
    "rosenbrock:dim=4,noise=0.1",
    "logreg:n=50,d=5,batch=1",
    "mlp",
]


@pytest.mark.parametrize("spec", STREAM_PROBLEMS)
@pytest.mark.parametrize("name", sorted(OPTIMIZER_NAMES))
def test_run_through_a_stream_is_the_run_on_a_plain_generator(name, spec, monkeypatch):
    """``run`` draws through a chunking ``Stream``; a run handed the plain
    generator, drawing per step, gives bitwise the same result."""
    config = cfg(optimizer=name, problem=spec, steps=300, scheduler="halve:50")
    problem = make_problem(spec)
    streamed = run(config, problem)
    monkeypatch.setattr(harness_module, "Stream", lambda gen: gen)
    plain = run(config, problem)
    key = lambda r: (
        [tuple(map(repr, dataclasses.astuple(tr))) for tr in r.traces],
        r.diverged, r.steps_run, repr(r.initial_loss),
    )
    assert key(streamed) == key(plain)


def test_custom_sample_grad_gets_a_generator_from_the_stream(monkeypatch):
    """A ``sample_grad`` that needs a real ``Generator`` builds one on the
    stream's bit generator; mixed with chunked draws, the run is bitwise the
    run handed the plain generator."""
    dim, calls = 6, [0]

    def sample_grad(theta, rng):
        z = normal(rng, dim)  # chunked under a stream
        calls[0] += 1
        if calls[0] % 6 == 0:  # the third row of a 4-step chunk
            gen = np.random.Generator(rng.bit_generator)  # rewinds the stream first
            assert isinstance(gen, np.random.Generator)
            z += 0.1 * gen.standard_normal(dim)
        return z + theta

    problem = Problem("custom", dim, np.ones(dim), lambda t: float(t @ t), lambda t: 2 * t,
                      sample_grad)
    config = cfg(optimizer="vsgd", problem="quad", steps=50)
    streamed = run(config, problem)
    monkeypatch.setattr(harness_module, "Stream", lambda gen: gen)
    calls[0] = 0
    plain = run(config, problem)
    assert streamed.traces == plain.traces


@np.errstate(over="ignore")  # magnitudes near 1e200 overflow the sum of squares
def test_norm_and_mean_match_numpy_bitwise():
    rng = make_rng(11)
    for _ in range(300):
        dim = int(10 ** rng.uniform(0, 5))
        x = rng.standard_normal(dim) * 10.0 ** rng.uniform(-200, 200)
        assert _norm(x) == float(np.linalg.norm(x))
        assert math.sqrt(x.dot(x)) == float(np.linalg.norm(x))  # run's ‖theta‖
        assert _mean(x) == float(np.mean(x))
    for other in (x.astype(np.float32), list(x[:50]), x[::3], np.arange(-4, 7)):
        assert _norm(other) == float(np.linalg.norm(other))


class TestWeightDecay:
    @pytest.mark.parametrize("name", sorted(OPTIMIZER_NAMES))
    @settings(max_examples=10, deadline=None)
    @given(weight_decay=st.sampled_from([0.01, 0.3]), every=st.integers(1, 8))
    def test_run_scales_theta_then_steps(self, name, weight_decay, every):
        """``run`` decays theta once per step, after the sample and before the
        step, at the scheduled eta: bitwise a hand loop that does the same."""
        hp = HyperParams(eta=0.05, weight_decay=weight_decay)
        config = cfg(optimizer=name, steps=20, hp=hp, scheduler=f"halve:{every}")
        traces = run(config).traces
        problem = make_problem(config.problem)
        stepper = make_stepper(name, problem.dim, config)
        scale, rng = parse_scheduler(config.scheduler), Stream(make_rng(config.seed))
        theta, losses, norms = problem.theta0.copy(), array("d"), array("d")
        for t in range(1, config.steps + 1):
            g_hat = problem.sample_grad(theta, rng)
            eta_t = hp.eta * scale(t)
            theta *= 1.0 - eta_t * weight_decay
            theta = stepper.step(theta, g_hat, eta_t)
            losses.append(problem.loss(theta))
            norms.append(np.linalg.norm(theta))
        assert array("d", (tr.loss for tr in traces)).tobytes() == losses.tobytes()
        assert array("d", (tr.theta_norm for tr in traces)).tobytes() == norms.tobytes()

    def test_one_sgd_step_hand_value(self):
        # noiseless quad: g = theta, so theta1 = (1 - eta*(1 + wd)) * theta0
        config = cfg(optimizer="sgd", problem="quad:dim=3,noise=0", steps=1,
                     hp=HyperParams(eta=0.1, weight_decay=0.5))
        theta0 = make_problem(config.problem).theta0
        ratio = run(config).traces[0].theta_norm / np.linalg.norm(theta0)
        assert ratio == pytest.approx(abs(1.0 - 0.1 * (1.0 + 0.5)), rel=1e-14)


class TestTrace:
    def test_sequence_of_step_traces(self):
        trace = run(cfg(steps=30)).traces
        rows = list(trace)
        assert isinstance(trace, Trace) and len(trace) == len(rows) == 30
        assert [tr.t for tr in trace] == list(range(1, 31))
        assert trace[-1] == rows[-1] and trace[-30] == rows[0] and trace[12] == rows[12]
        for bad in (30, -31):
            with pytest.raises(IndexError):
                trace[bad]
        assert trace == rows and rows == trace and trace == tuple(rows)
        assert trace != rows[:-1] and trace != rows[::-1]
        assert trace[10:20] == rows[10:20] and trace[::7] == rows[::7]
        assert list(reversed(trace)) == rows[::-1]

    def test_iteration_crosses_chunks_in_order(self):
        trace = run(cfg(optimizer="sgd", steps=2500)).traces
        assert list(trace) == [trace[i] for i in range(len(trace))]
        assert [tr.t for tr in trace] == list(range(1, 2501))

    @pytest.mark.parametrize("name", sorted(OPTIMIZER_NAMES))
    def test_items_are_python_numbers(self, name):
        tr = run(cfg(optimizer=name, steps=5)).traces[-1]
        assert type(tr.t) is int
        values = dataclasses.astuple(tr)[1:]
        assert all(type(v) is float for v in values[:3])
        assert all(v is None or type(v) is float for v in values[3:])

    def test_missing_summaries_have_no_column(self):
        constant = run(cfg(optimizer="constant-vsgd", steps=5)).traces
        assert [c is None for c in constant._columns] == [False, False, False, True, False, False]
        assert all(tr.mean_b_g is None and tr.mean_b_ghat is not None for tr in constant)
        sgd = run(cfg(optimizer="sgd", steps=5)).traces
        assert [c is None for c in sgd._columns] == [False, False, False, True, True, True]
        assert sgd._t.typecode == "q" and sgd._t.tolist() == [1, 2, 3, 4, 5]
        assert all(c.typecode == "d" and len(c) == 5 for c in sgd._columns[:3])
        assert all(tr.mean_b_g is tr.mean_b_ghat is tr.mean_sigma2 is None for tr in sgd)

    def test_slice_copies_its_rows(self):
        """A kept tail must not pin the whole run's columns."""
        trace = run(cfg(steps=300)).traces
        tail = trace[-100:]
        columns = [tail._t, *tail._columns]
        assert len(columns) == 7 and all(len(c) == 100 for c in columns)
        for mine, theirs in zip(columns, [trace._t, *trace._columns]):
            assert not np.shares_memory(np.asarray(memoryview(mine)), np.asarray(memoryview(theirs)))
        assert tail == list(trace)[-100:]

    def test_items_are_copies_and_columns_read_only(self):
        trace = run(cfg(steps=10)).traces
        item = trace[-1]
        before = dataclasses.astuple(item)
        item.t, item.loss, item.mean_b_g = -1, float("nan"), None
        assert dataclasses.astuple(trace[-1]) == before
        with pytest.raises(TypeError):
            trace[0] = item

    def test_record_point_costs_columns_not_objects(self):
        """A stride-1 vsgd run keeps 7 columns of 8 bytes per record point
        (56 B plus the arrays' growth reserve); StepTrace objects in a list
        took about 320 B.  The columns grow in place, so the peak while the
        run records stays near what they hold."""
        steps = 20_000
        problem = make_problem("quad:dim=10,noise=1.0")
        config = cfg(problem="quad", steps=steps)
        run(cfg(steps=2))  # lazy imports
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = run(config, problem)
            held, peak = tracemalloc.get_traced_memory()
            result.traces = None
            per_point = (held - tracemalloc.get_traced_memory()[0]) / steps
        finally:
            tracemalloc.stop()
        assert per_point <= 80, per_point
        assert (peak - start) / steps <= 110, (peak - start) / steps


class TestSummarize:
    def test_constant_trace(self):
        r = run(cfg(optimizer="sgd", problem="quad:dim=1,noise=0", steps=3,
                    hp=HyperParams(eta=1e-30)))
        m = summarize(r)
        assert m.final_loss == m.best_loss

    def test_wallclock_positive(self):
        m = summarize(run(cfg(steps=5)))
        assert m.wallclock_per_step > 0

    def test_reads_the_trace_without_a_list_of_losses(self):
        """Summarizing a 40000-row vsgd trace holds one row at a time: a list
        of every loss would peak at about 1.3 MB."""
        rows = 40_000
        losses = array("d", [float(rows - t) for t in range(rows)])
        losses[rows // 2] = 0.5
        columns = (losses, *(array("d", bytes(8 * rows)) for _ in range(5)))
        trace = Trace(array("q", range(1, rows + 1)), columns)
        result = RunResult(cfg(), trace, False, rows, 1.0, 1.0)
        summarize(result)  # lazy first-call costs would count against the bound
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            m = summarize(result)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert (m.final_loss, m.best_loss) == (1.0, 0.5)
        assert peak <= 100_000, peak

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

    # the eight public step functions, named here and not read from the
    # harness table: a patch on these module attributes must reach the run
    STEP_FUNCTIONS = {
        "vsgd": ("vsgd.core", "vsgd_step"),
        "constant-vsgd": ("vsgd.constant", "cvsgd_step"),
        "so-vsgd": ("vsgd.second_order", "so_vsgd_step"),
        "adam": ("vsgd.baselines", "adam_step"),
        "amsgrad": ("vsgd.baselines", "amsgrad_step"),
        "sgdm": ("vsgd.baselines", "sgdm_step"),
        "sgd": ("vsgd.baselines", "sgd_step"),
        "nsgd": ("vsgd.baselines", "normalized_sgd_step"),
    }

    @pytest.mark.parametrize("name", sorted(OPTIMIZER_NAMES))
    def test_step_returns_theta_and_calls_the_patched_function(self, name, monkeypatch):
        g = np.array([0.1, -0.2, 0.3])
        theta = np.ones(3)
        assert make_stepper(name, 3, cfg(optimizer=name)).step(theta, g, 0.01) is theta

        module_name, fn = self.STEP_FUNCTIONS[name]
        module = importlib.import_module(module_name)
        step, calls = getattr(module, fn), []

        def spy(state, theta, g_hat, params):
            calls.append((state, theta))
            return step(state, theta, g_hat, params)

        monkeypatch.setattr(module, fn, spy)
        stepper = make_stepper(name, 3, cfg(optimizer=name))
        theta = np.ones(3)
        assert stepper.step(theta, g, 0.01) is theta
        assert len(calls) == 1
        assert calls[0][0] is stepper.state and calls[0][1] is theta
