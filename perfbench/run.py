#!/usr/bin/env python3
"""Layered benchmark of vsgd: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload quad_1m --seed 1 --seconds 20 --trace 0

Workloads: quad_1m, logreg_sweep, quad_small_sweep (see README.md here).
``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes for ``--seconds`` and reports the
per-layer metrics; its spans are written to ``.perfbench_out/``.  Metrics
are printed as a table with units, then the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``,
which holds the metrics BENCHMARK.json declares for the mode.  Exits 2,
printing no result, when there is no vsgd source next to the benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 21


def _end_to_end(runner, workload, seed: int, seconds: float, notes: dict) -> dict:
    import numpy as np

    from perfbench import machine, stats

    setup = machine.setup_seconds(ROOT, workload.problem, "vsgd", SETUP_REPEATS)
    rss = machine.pass_peak_rss(workload.name, seed, os.path.join(runner.out_dir, "rss"))
    runner.attempted += rss["attempted"]
    runner.failures += rss["failures"]
    walls = []
    end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < end:
        walls.append(runner.run_pass())
    runner.repeat_first()
    if not runner.steps:
        raise SystemExit("error: no run took a step, so nothing was timed:\n"
                         + "\n".join(runner.failures))
    intervals_us = np.concatenate(runner.intervals) * 1e6
    p50 = stats.percentile(intervals_us, 0.5)
    p90, beyond = stats.tail_percentile(intervals_us, 0.9)
    stamp_us = machine.stamp_overhead_us()
    notes.update(
        passes=len(walls),
        step_intervals=int(intervals_us.size),
        step_intervals_beyond_p90=beyond,
        stamp_overhead_us=stamp_us,
        stamp_overhead_frac_of_p50=stamp_us / p50,
        setup_samples_s=setup,
        pass_walls_s=walls,
    )
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "steps_per_s": (runner.steps / runner.run_s, "1/s"),
        "step_us_p50": (p50, "us"),
        "step_us_p90": (p90, "us"),
        "peak_rss_mb": (rss["peak_rss_mb"], "MB"),
    }


def _per_layer(runner, workload, seconds: float, notes: dict, spans_path: str) -> dict:
    from perfbench import layers
    from perfbench.spans import Tracer, span_cost

    cost = span_cost()
    # before the passes, so that no thread numpy left busy slows the probe
    kernels = layers.kernel_us(workload.dim, cost.own_s)
    tracer = Tracer()
    untraced, traced = [], []
    end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < end:
        untraced.append(runner.run_pass())
        traced.append(runner.run_pass(tracer))
    runner.repeat_first()
    tracer.save(spans_path)
    notes.update(
        untraced_passes=len(untraced), traced_passes=len(traced),
        spans=len(tracer), spans_file=os.path.relpath(spans_path, ROOT),
        span_cost_ns={k: round(v * 1e9, 1) for k, v in vars(cost).items()},
    )
    return layers.metrics(
        tracer.stats(cost),
        passes=len(traced),
        kernels=kernels,
        csv_bytes_per_pass=runner.csv_bytes / runner.passes,
        traced_walls=traced,
        untraced_walls=untraced,
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")

    if not os.path.isfile(os.path.join(SRC, "vsgd", "__init__.py")):
        print(f"error: no vsgd source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import vsgd

    if not os.path.abspath(vsgd.__file__).startswith(SRC + os.sep):
        print(f"error: imported vsgd from {vsgd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench import machine, workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(
        ROOT, ".perfbench_out", f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    notes = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **machine.facts(ROOT),
        "array_bytes": workload.dim * 8,
        "state_bytes": {
            name: workloads.state_bytes(name, workload.dim) for name in workload.optimizers
        },
    }
    # theta and g_hat besides the state; temporaries come on top
    notes["min_working_set_bytes"] = {
        name: nbytes + 2 * notes["array_bytes"]
        for name, nbytes in notes["state_bytes"].items()
    }
    runner = workloads.Runner(workload, args.seed, os.path.join(out_dir, "passes"))
    if args.trace:
        spans_path = os.path.join(out_dir, "spans.npz")
        metrics = _per_layer(runner, workload, args.seconds, notes, spans_path)
    else:
        metrics = _end_to_end(runner, workload, args.seed, args.seconds, notes)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if metrics.get(m["name"], (0, None))[1] != m["unit"]]
    if missing:
        raise SystemExit(f"error: {workload.name} measured no {', '.join(missing)} in its unit")
    failed = len(runner.failures)
    print(f"# perfbench {workload.name}: {workload.runs_per_pass} runs per pass "
          f"of {workload.problem}, {workload.steps} steps each")
    for key, value in notes.items():
        if not isinstance(value, list):
            print(f"#   {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    if args.trace:
        overhead = metrics["trace.wall_ratio"][0] - 1.0
        print(f"{'trace.overhead_frac':<44} {overhead:>16.6g} frac")
    print(f"{'fail_frac':<44} {failed / runner.attempted:>16.6g} frac "
          f"({failed} of {runner.attempted} runs)")
    for failure in runner.failures:
        print(f"FAILED {failure}")

    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
            for m in declared
        },
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "notes": notes, "failures": runner.failures}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
