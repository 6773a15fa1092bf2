import numpy as np
import pytest

from vsgd.rng import _BLOCK, Stream, make_rng, normal


def textbook_normal(rng, size):
    """Box-Muller as first written: two uniform draws, then concatenate."""
    pairs = (size + 1) // 2
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:size]


# pair counts at and around the Box-Muller block edges, as odd and even sizes
BLOCK_EDGE_SIZES = [
    size
    for pairs in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)
    for size in (2 * pairs - 1, 2 * pairs)
]


@pytest.mark.parametrize("size", [1, 2, 9, 10, 999_999, 1_000_000, *BLOCK_EDGE_SIZES])
def test_normal_is_textbook_box_muller_bitwise(size):
    rng, ref_rng = make_rng(5), make_rng(5)
    z = normal(rng, size)
    assert z.shape == (size,) and z.dtype == np.float64
    assert z.tobytes() == textbook_normal(ref_rng, size).tobytes()
    assert rng.random() == ref_rng.random()  # both consumed the same uniforms


# -- Stream: chunked draws, bitwise the per-step draws -----------------------

def steps_through(size: int) -> int:
    """Steps that take a stream of ``size`` normals past a full chunk and
    end mid-chunk, capped for large sizes."""
    cap = max(1, 2 * _BLOCK // (2 * ((size + 1) // 2)))
    return min(4 * cap + 3, 5000) if cap > 1 else 3


@pytest.mark.parametrize("size", [1, 10, 11, 2 * _BLOCK - 1, 2 * _BLOCK + 1, 100_000])
def test_stream_normal_rows_are_the_per_step_draws(size):
    stream, plain = Stream(make_rng(7)), make_rng(7)
    for _ in range(steps_through(size)):
        assert normal(stream, size).tobytes() == textbook_normal(plain, size).tobytes()
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
