from dataclasses import replace

import pytest

import vsgd.cli
from vsgd import harness, problems

from perfbench import layers
from perfbench.spans import Tracer, span_cost
from perfbench.workloads import WORKLOADS, Runner, state_bytes

# shrunk copies of the real workloads, so a pass takes milliseconds
SWEEP = replace(
    WORKLOADS["quad_small_sweep"],
    optimizers=("vsgd", "adam", "sgd"),
    steps=200,
    loss_ratio={"vsgd": 1.0, "adam": 1.0, "sgd": 1.0},
)
LIBRARY = replace(
    WORKLOADS["quad_1m"],
    problem="quad:dim=1000,noise=1.0",
    dim=1000,
    steps=5,
    loss_ratio=dict.fromkeys(WORKLOADS["quad_1m"].optimizers, 1.0),
)


class FaultyProblems:
    """make_problem whose ``bad``-th call returns a broken Problem."""

    def __init__(self, bad: int, fault: str):
        self.calls, self.bad, self.fault = 0, bad, fault

    def __call__(self, spec):
        self.calls += 1
        problem = problems.make_problem(spec)
        if self.calls != self.bad:
            return problem
        if self.fault == "nan":
            return replace(problem, loss=lambda theta: float("nan"))

        def sample_grad(theta, rng):
            raise RuntimeError("sampler broke")

        return replace(problem, sample_grad=sample_grad)


def test_a_clean_pass_and_its_repeat_pass(tmp_path):
    for workload in (SWEEP, LIBRARY):
        runner = Runner(workload, seed=3, out_dir=str(tmp_path / workload.name))
        runner.run_pass()
        runner.repeat_first()
        assert runner.failures == []
        assert runner.attempted == workload.runs_per_pass + 1
        assert runner.steps == workload.runs_per_pass * workload.steps
        assert runner.csv_bytes > 0


def test_a_nan_loss_run_is_counted_and_the_pass_goes_on(tmp_path):
    runner = Runner(SWEEP, seed=3, out_dir=str(tmp_path), make_problem=FaultyProblems(2, "nan"))
    runner.run_pass()
    assert runner.attempted == SWEEP.runs_per_pass
    assert len(runner.failures) == 1
    assert "diverged at step 1" in runner.failures[0]
    # every run after the bad one still ran to the end
    assert runner.steps == (SWEEP.runs_per_pass - 1) * SWEEP.steps + 1


def test_a_raising_run_stops_only_its_own_sweep(tmp_path):
    runner = Runner(SWEEP, seed=3, out_dir=str(tmp_path), make_problem=FaultyProblems(1, "raise"))
    runner.run_pass()
    runner.run_pass()
    per_sweep = SWEEP.runs_per_pass // len(SWEEP.optimizers)
    assert runner.attempted == 2 * SWEEP.runs_per_pass
    assert len(runner.failures) == per_sweep
    assert "RuntimeError: sampler broke" in runner.failures[0]
    assert all("not run" in f for f in runner.failures[1:])
    assert vsgd.cli.run is harness.run


def test_a_repeat_that_differs_is_a_failure(tmp_path):
    calls = []

    def drifting(spec):
        calls.append(spec)
        problem = problems.make_problem(spec)
        return replace(problem, theta0=problem.theta0 * (1.0 + 1e-12 * len(calls)))

    runner = Runner(LIBRARY, seed=3, out_dir=str(tmp_path), make_problem=drifting)
    runner.run_pass()
    runner.repeat_first()
    assert len(runner.failures) == 1
    assert "differs from its same-seed run" in runner.failures[0]


def test_traced_layers_account_for_the_traced_time(tmp_path):
    runner = Runner(SWEEP, seed=3, out_dir=str(tmp_path))
    untraced = runner.run_pass()
    tracer = Tracer()
    traced = runner.run_pass(tracer)
    assert runner.failures == []
    stats = tracer.stats()
    assert stats["problems.sample_grad"].calls == SWEEP.runs_per_pass * SWEEP.steps
    assert stats["harness.summaries"].calls == SWEEP.runs_per_pass * SWEEP.steps
    assert stats["bench.run"].calls == SWEEP.runs_per_pass
    assert stats["cli.main"].calls == len(SWEEP.optimizers)
    cost = span_cost()
    kernels = layers.kernel_us(SWEEP.dim, cost.own_s)
    out = layers.metrics(tracer.stats(cost), 1, kernels, 1.0, [traced], [untraced])
    # the layers, the benchmark's own spans and the tracer's cost make up the
    # traced pass, and without that cost it takes about what the untraced one did
    assert out["trace.accounted_frac"][0] == pytest.approx(1.0, abs=0.25)
    shares = sum(v for name, (v, _) in out.items() if name.endswith(".share"))
    assert shares == pytest.approx(1.0)
    assert out["problems.loss.calls_per_step"][0] == pytest.approx(1 + 1 / SWEEP.steps)
    # calls the pass never makes are left out, never read as 0
    assert "second_order.share" not in out and "constant.share" not in out
    assert out["cli.main.self_ms"][0] > 0
    for module_name, fn, _ in layers.STEP_FUNCTIONS:
        assert out[f"{module_name}.{fn}.us_per_call"][0] > 0
    for module, attr, _ in layers.targets(Tracer()):
        assert getattr(module, attr).__module__.startswith("vsgd.")


def test_state_bytes_scale_with_dim():
    assert state_bytes("adam", 1_000_000) == 2 * 8_000_000
    assert state_bytes("sgd", 1_000_000) == 0
    assert state_bytes("vsgd", 2000) == 2 * state_bytes("vsgd", 1000)
