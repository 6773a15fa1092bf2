#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py --workload quad_1m --seeds 1-10

Runs the benchmark once per seed for BENCHMARK.json's ``run_seconds``, each
in a fresh process, and prints for every end-to-end metric its median,
quartiles and quartile spread (Q3 - Q1 over the median,
``statistics.quantiles(values, n=4)``) next to its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} runs failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: {len(args.seeds)} runs of {seconds} s")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        q1, med, q3 = statistics.quantiles(values[name], n=4)
        print(f"{name:<14} median {med:<12.6g} Q1 {q1:<12.6g} Q3 {q3:<12.6g} "
              f"spread {(q3 - q1) / med:.4f} (bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
