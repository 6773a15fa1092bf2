"""Seedable, portable randomness for the benchmark harness.

The generator is numpy's PCG64 (a named, documented algorithm whose integer
and uniform-double streams are reproducible across platforms for a given
seed).  Normal variates are produced by the basic Box-Muller transform on
those uniforms — a deterministic transform with no rejection loop, so traces
depend only on (seed, draw order).  The transform runs in place in the
buffer of uniforms, over blocks of pairs the size of the optimizer kernels'
blocks, so a draw allocates nothing beyond its result and one block-sized
buffer.
"""
from __future__ import annotations

import numpy as np

from .core import _BLOCK
from .errors import ConfigError


def make_rng(seed: int) -> np.random.Generator:
    if seed < 0:  # PCG64 takes no negative seed
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normal draws via Box-Muller (no rejection sampling).

    Computed in place in one buffer of uniforms: its first half becomes the
    radii times the cosines, its second half the radii times the sines.
    Every pass is elementwise, so running it over blocks of at most
    ``_BLOCK`` pairs changes no bit; a draw of one block is one pass over
    the whole halves, with no slicing.
    """
    pairs = (size + 1) // 2
    z = rng.random(2 * pairs)
    if pairs <= _BLOCK:
        _box_muller(z[:pairs], z[pairs:], np.empty(pairs))
        return z[:size]
    cos = np.empty(_BLOCK)
    for lo in range(0, pairs, _BLOCK):
        hi = min(lo + _BLOCK, pairs)
        _box_muller(z[lo:hi], z[pairs + lo : pairs + hi], cos[: hi - lo])
    return z[:size]


def _box_muller(radius: np.ndarray, angle: np.ndarray, cos: np.ndarray) -> None:
    """Uniforms (radius, angle) -> radius*cos, radius*sin, in place."""
    np.subtract(1.0, radius, out=radius)  # (0, 1]: keeps the log finite
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    np.cos(angle, out=cos)
    np.sin(angle, out=angle)
    angle *= radius
    radius *= cos
