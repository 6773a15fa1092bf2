import numpy as np
import pytest

from vsgd.rng import _BLOCK, make_rng, normal


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
