"""The layer boundaries the traced run wraps, and the metrics derived from them.

A layer is a module of ``vsgd``; a span's layer is the part of its name
before the first dot.  ``bench.*`` spans are the benchmark's own: the pass
loop and the checks and bookkeeping around each training run.  ``oracle``,
``verify`` and ``config`` lie on no training path and are not measured.
"""
from __future__ import annotations

import contextlib
import importlib
import statistics
import time

import numpy as np

import vsgd.problems
from vsgd import harness

from .spans import SpanStats, Tracer

__all__ = ["STEP_FUNCTIONS", "LAYERS", "targets", "patched", "kernel_us", "metrics"]

# (module, step function, the optimizer whose stepper calls it)
STEP_FUNCTIONS = (
    ("core", "vsgd_step", "vsgd"),
    ("constant", "cvsgd_step", "constant-vsgd"),
    ("second_order", "so_vsgd_step", "so-vsgd"),
    ("baselines", "adam_step", "adam"),
    ("baselines", "amsgrad_step", "amsgrad"),
    ("baselines", "sgdm_step", "sgdm"),
    ("baselines", "sgd_step", "sgd"),
    ("baselines", "normalized_sgd_step", "nsgd"),
)
LAYERS = (
    "rng", "problems", "core", "constant", "second_order",
    "baselines", "harness", "traceio", "cli",
)


def _step_targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    out = []
    for module_name, fn, _ in STEP_FUNCTIONS:
        module = importlib.import_module(f"vsgd.{module_name}")
        out.append((module, fn, tracer.wrap(f"{module_name}.{fn}", getattr(module, fn))))
    return out


def targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(module, attribute, traced replacement) for each module-level call.

    The harness and problems look these names up on their modules at call
    time, so replacing the module attribute puts a span around every call.
    The Problem fields, ``harness.run``, ``cli.main`` and ``write_csv`` are
    wrapped by the runner, which makes those calls itself.
    """
    out = [(
        vsgd.problems, "normal",
        tracer.wrap("rng.normal", vsgd.problems.normal, items=lambda rng, size: size),
    )]
    out += _step_targets(tracer)
    make = tracer.wrap("harness.make_stepper", harness.make_stepper)

    def make_stepper(name, dim, cfg):
        stepper = make(name, dim, cfg)
        stepper.summaries = tracer.wrap("harness.summaries", stepper.summaries)
        return stepper

    out.append((harness, "make_stepper", make_stepper))
    return out


@contextlib.contextmanager
def patched(replacements):
    """Set each (module, attribute, value); restore every one on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    for module, attr, new in replacements:
        setattr(module, attr, new)
    try:
        yield
    finally:
        for module, attr, old in saved:
            setattr(module, attr, old)


def kernel_us(dim: int, own_s: float) -> dict[str, float]:
    """Median microseconds of one call of each step function at ``dim``.

    Every step function is probed, not only those of the workload's
    optimizers, so that each has a figure on every workload.  Each runs on
    its own optimizer's stepper with a fixed gradient, timed by a span
    around the function alone, less ``own_s``, the part of a span's cost
    inside it.  ``ref.pass`` is one ``np.add(a, b, out=c)``: one array pass.
    Before each timed call, one ``np.add`` over each of four disjoint
    (a, b, c) triples, 96 MB at dim=1e6 or three times a 32 MiB L3, evicts
    the caches, so that at large dims each call streams from memory as the
    workload's steps do; at small dims all of it stays in L1, as in the
    workload.
    """
    triples = [tuple(np.ones(dim) for _ in range(3)) for _ in range(4)]

    def evict():
        for a, b, c in triples:
            np.add(a, b, out=c)

    reps = min(2001, max(21, 10_000_000 // dim))
    tracer = Tracer()
    out = {}

    def timed(name: str, call) -> None:
        first = len(tracer)
        for i in range(reps):
            evict()
            call(i)
        dur = np.asarray(tracer.end[first:]) - np.asarray(tracer.start[first:])
        out[name] = (float(np.median(dur)) - own_s) * 1e6

    add = tracer.wrap("ref.pass", np.add)
    timed("ref.pass", lambda i: add(*triples[i % 4][:2], out=triples[i % 4][2]))
    grad = np.random.default_rng(0).standard_normal(dim)
    with patched(_step_targets(tracer)):
        for module_name, fn, optimizer in STEP_FUNCTIONS:
            config = harness.RunConfig(optimizer=optimizer, problem="quad", steps=1, seed=0)
            stepper = harness.make_stepper(optimizer, dim, config)
            theta = [stepper.step(np.ones(dim), grad, config.hp.eta)]  # warm-up, not counted

            def step(_, stepper=stepper, theta=theta, eta=config.hp.eta):
                theta[0] = stepper.step(theta[0], grad, eta)

            timed(f"{module_name}.{fn}", step)
            del stepper, theta
    return out


def metrics(
    stats: dict[str, SpanStats],
    passes: int,
    kernels: dict[str, float],
    csv_bytes_per_pass: float,
    traced_walls: list[float],
    untraced_walls: list[float],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced passes, as name -> (value, unit).

    ``stats`` must have the spans' own cost taken out (``Tracer.stats(cost)``).
    A metric of a call the workload never makes is left out, never read as 0.
    Shares are self times over the traced passes' time less the spans' cost;
    ``trace.accounted_frac`` is that time over the same number of untraced
    passes, so it strays from 1 by what the cost correction misses.
    """
    empty = SpanStats(0, 0.0, 0.0, 0)

    def get(name: str) -> SpanStats:
        return stats.get(name, empty)

    out: dict[str, tuple[float, str]] = {}

    def put(metric: str, count: int, value, unit: str) -> None:
        if count:
            out[metric] = (value(), unit)

    steps = get("problems.sample_grad").calls
    normal, grad, loss = get("rng.normal"), get("problems.sample_grad"), get("problems.loss")
    make, run, summ = get("problems.make_problem"), get("harness.run"), get("harness.summaries")
    write, cli = get("traceio.write_csv"), get("cli.main")
    put("rng.normal.us_per_call", normal.calls, lambda: normal.self_s / normal.calls * 1e6, "us")
    put("rng.normal.ns_per_draw", normal.items, lambda: normal.self_s / normal.items * 1e9, "ns")
    put("problems.sample_grad.self_us_per_call", grad.calls,
        lambda: grad.self_s / grad.calls * 1e6, "us")
    put("problems.loss.us_per_call", loss.calls, lambda: loss.self_s / loss.calls * 1e6, "us")
    put("problems.loss.calls_per_step", steps, lambda: loss.calls / steps, "count")
    put("problems.make_problem.s", make.calls, lambda: make.total_s / make.calls, "s")
    for module_name, fn, _ in STEP_FUNCTIONS:
        name = f"{module_name}.{fn}"
        out[f"{name}.us_per_call"] = (kernels[name], "us")
        out[f"{name}.passes"] = (kernels[name] / kernels["ref.pass"], "count")
    out["ref.pass_us"] = (kernels["ref.pass"], "us")
    put("harness.run.self_us_per_step", steps, lambda: run.self_s / steps * 1e6, "us")
    put("harness.summaries.us_per_call", summ.calls, lambda: summ.self_s / summ.calls * 1e6, "us")
    out["harness.record.calls"] = (summ.calls / passes, "count")
    put("traceio.write_csv.us_per_row", write.items,
        lambda: write.self_s / write.items * 1e6, "us")
    out["traceio.write_csv.bytes"] = (csv_bytes_per_pass, "B")
    put("cli.main.self_ms", cli.calls, lambda: cli.self_s / cli.calls * 1e3, "ms")

    accounted = sum(s.self_s for s in stats.values())
    for layer in (*LAYERS, "bench"):
        chosen = [s for name, s in stats.items() if name.startswith(layer + ".")]
        put(f"{layer}.share", sum(s.calls for s in chosen),
            lambda: sum(s.self_s for s in chosen) / accounted, "frac")
    out["trace.accounted_frac"] = (accounted / sum(untraced_walls), "frac")
    out["trace.wall_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls), "ratio")
    return out
