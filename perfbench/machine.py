"""Machine and version facts, memory, set-up time and stamping cost."""
from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

__all__ = ["facts", "peak_rss_mb", "pass_peak_rss", "setup_seconds", "stamp_overhead_us"]

HERE = os.path.dirname(os.path.abspath(__file__))


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return out.stdout.strip()


def facts(root: str) -> dict:
    """Where and with what the numbers were measured."""
    import vsgd

    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_cache": l3.strip() if l3 else "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "vsgd": vsgd.__version__,
        "git_commit": _git_commit(root),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(root: str, problem: str, optimizer: str, repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its first optimizer step.

    Each sample starts ``setup_probe.py``, which imports vsgd, builds the
    problem and the optimizer state, then prints ``ready``; the clock stops
    when that line arrives.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), root, problem, optimizer],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return samples


def pass_peak_rss(workload: str, seed: int, out_dir: str) -> dict:
    """Run ``rss_probe.py``: one pass in a fresh process; return its report."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "rss_probe.py"), workload, str(seed), out_dir],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def stamp_overhead_us(calls: int = 200_000) -> float:
    """Extra microseconds a step-stamping ``sample_grad`` wrapper adds per call."""
    stamps: list[float] = []
    append, clock = stamps.append, time.perf_counter

    def bare(theta, rng):
        return theta

    def stamped(theta, rng):
        append(clock())
        return bare(theta, rng)

    timings = {}
    for fn in (bare, stamped):
        start = time.perf_counter()
        for _ in range(calls):
            fn(None, None)
        timings[fn] = time.perf_counter() - start
    return (timings[stamped] - timings[bare]) / calls * 1e6
