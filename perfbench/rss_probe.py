"""Peak memory of one pass of a workload, in a fresh process.

    python3 perfbench/rss_probe.py WORKLOAD SEED OUT_DIR

Runs one untraced pass, as ``run.py`` does, and prints one JSON line:
``peak_rss_mb`` (``ru_maxrss`` of this process), ``attempted`` and
``failures``.  A process of its own keeps the benchmark's bookkeeping of
later passes out of the figure.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import machine, workloads  # noqa: E402

name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
runner = workloads.Runner(workloads.WORKLOADS[name], seed, out_dir)
runner.run_pass()
print(json.dumps({
    "peak_rss_mb": machine.peak_rss_mb(),
    "attempted": runner.attempted,
    "failures": runner.failures,
}))
