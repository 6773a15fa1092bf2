import hashlib
import os
import platform
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import vsgd
from vsgd import RunConfig, run
from vsgd.harness import OPTIMIZER_NAMES
from vsgd.rng import _BLOCK, Stream, make_rng, normal


@pytest.mark.parametrize("size", [1, 11, 2 * _BLOCK + 1, 10**6])
def test_normal_is_numpy_standard_normal_bitwise(size):
    rng, ref_rng = make_rng(5), make_rng(5)
    z = normal(rng, size)
    assert z.shape == (size,) and z.dtype == np.float64
    assert z.tobytes() == ref_rng.standard_normal(size).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# numpy's Generator policy (NEP 19) lets the normal stream change between
# numpy releases; these pins say when it has, and every noisy trace with it
PINNED_FIRST_FOUR = [
    "0x1.017ed89db8441p-3", "-0x1.0e8cfe9bd45ccp-3", "0x1.47e57a468b06dp-1", "0x1.adabbec84d4f0p-4",
]
PINNED_SHA256_100K = "8f486b451c3c9bd045aa3f6339cdf819f6c2bcccd8f64f9c514bbe5976527997"


def test_normal_stream_is_pinned():
    first = [float(x).hex() for x in normal(make_rng(0), 4)]
    digest = hashlib.sha256(normal(make_rng(0), 100_000).tobytes()).hexdigest()
    assert (first, digest) == (PINNED_FIRST_FOUR, PINNED_SHA256_100K), (
        f"numpy {np.__version__} draws another normal stream from PCG64(0): "
        f"first four {first}, sha256 of 100000 {digest}"
    )


# -- portability across numpy's SIMD dispatch levels ---------------------------

# every level above the x86-64 baseline, turned off in a child process only
BASELINE_DISPATCH = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def dispatch_digests() -> tuple[str, str]:
    """sha256 of 1e6 normal draws, and of the traces of every optimizer on
    two noisy problems.  No ``cond > 1``: ``np.geomspace``'s diagonal
    differs across dispatch levels."""
    draws = hashlib.sha256(normal(make_rng(0), 10**6).tobytes()).hexdigest()
    traces = hashlib.sha256()
    for problem in ("quad:dim=10,noise=1", "rosenbrock:noise=0.1"):
        for optimizer in sorted(OPTIMIZER_NAMES):
            r = run(RunConfig(optimizer=optimizer, problem=problem, steps=45, seed=0,
                              scheduler="halve:20"))
            rows = [astuple(tr) for tr in r.traces]  # repr of a float is exact
            traces.update(repr((r.diverged, r.steps_run, r.initial_loss, rows)).encode())
    return draws, traces.hexdigest()


@pytest.mark.skipif(platform.machine() != "x86_64", reason="x86-64 dispatch levels")
def test_draws_and_traces_are_the_same_at_baseline_dispatch():
    src = Path(vsgd.__file__).resolve().parents[1]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BASELINE_DISPATCH,
               PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).resolve().parent)]))
    child = subprocess.run(
        [sys.executable, "-c", "import test_rng; print(*test_rng.dispatch_digests())"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert tuple(child.stdout.split()) == dispatch_digests()


# -- Stream: chunked draws, bitwise the per-step draws -----------------------

def steps_through(size: int) -> int:
    """Steps that take a stream of ``size`` normals past a full chunk and
    end mid-chunk, capped for large sizes."""
    cap = max(1, 2 * _BLOCK // size)
    return min(4 * cap + 3, 5000) if cap > 1 else 3


@pytest.mark.parametrize("size", [1, 10, 11, 2 * _BLOCK - 1, 2 * _BLOCK + 1, 100_000])
def test_stream_normal_rows_are_the_per_step_draws(size):
    stream, plain = Stream(make_rng(7)), make_rng(7)
    for _ in range(steps_through(size)):
        assert normal(stream, size).tobytes() == plain.standard_normal(size).tobytes()
    assert stream.bit_generator.state == plain.bit_generator.state
    assert stream.random() == plain.random()


@pytest.mark.parametrize(
    "high,size", [(7, 1), (2000, 64), (int(3e9), 5), (2**40, 3)],
    ids=["7x1", "2000x64", "3e9x5", "2^40x3"],
)
def test_stream_integer_rows_are_the_per_step_draws(high, size):
    stream, plain = Stream(make_rng(8)), make_rng(8)
    for _ in range(min(4 * (2 * _BLOCK // size) + 3, 3000)):
        row = stream.integers(0, high, size=size)
        assert row.dtype == np.int64
        assert row.tobytes() == plain.integers(0, high, size=size).tobytes()
    assert stream.bit_generator.state == plain.bit_generator.state
    assert stream.integers(0, high) == plain.integers(0, high)


# each call is made on a stream and on a plain generator alike
CALLS = {
    "normal10": lambda rng: normal(rng, 10),
    "normal11": lambda rng: normal(rng, 11),
    "batch": lambda rng: rng.integers(0, 2000, size=64),
    "random": lambda rng: rng.random(),
    "standard_normal": lambda rng: rng.standard_normal(3),
    "odd_integers": lambda rng: rng.integers(3, size=4, dtype=np.int32),
}


@pytest.mark.parametrize("other", ["normal11", "batch", "random", "standard_normal",
                                   "odd_integers"])
@pytest.mark.parametrize("before", [1, 2, 5, 6, 9, 100])
def test_stream_rewinds_exactly_mid_chunk(before, other):
    """``before`` draws open chunks of 1, 2, 4, ... steps; a different call
    then finds the generator where per-step draws left it."""
    stream, plain = Stream(make_rng(9)), make_rng(9)
    script = ["normal10"] * before + [other] * 3 + ["normal10"] * 7 + ["batch"] * 5
    for name in script + ["random"]:
        got, want = CALLS[name](stream), CALLS[name](plain)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
    assert stream.bit_generator.state == plain.bit_generator.state


def test_stream_rows_stay_valid_after_later_draws():
    stream = Stream(make_rng(10))
    row, batch = normal(stream, 10), stream.integers(0, 2000, size=64)
    kept = row.copy(), batch.copy()
    for _ in range(5000):
        z = normal(stream, 10)
        z *= 3.0  # callers build in the row's buffer, as problems do
        stream.integers(0, 2000, size=64)
    assert row.tobytes() == kept[0].tobytes() and batch.tobytes() == kept[1].tobytes()


def test_stream_keeps_nothing_at_large_dim():
    stream = Stream(make_rng(11))
    for _ in range(3):
        normal(stream, 2 * _BLOCK + 1)
        assert stream._chunk is None and stream._saved is None
