"""Seedable, portable randomness for the benchmark harness.

The generator is numpy's PCG64 (a named, documented algorithm whose integer
and uniform-double streams are reproducible across platforms for a given
seed).  Normal variates are produced by the basic Box-Muller transform on
those uniforms — a deterministic transform with no rejection loop, so traces
depend only on (seed, draw order).
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError


def make_rng(seed: int) -> np.random.Generator:
    if seed < 0:  # PCG64 takes no negative seed
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normal draws via Box-Muller (no rejection sampling).

    Computed in place in one buffer of uniforms: its first half becomes the
    radii times the cosines, its second half the radii times the sines.
    """
    pairs = (size + 1) // 2
    z = rng.random(2 * pairs)
    radius, angle = z[:pairs], z[pairs:]
    np.subtract(1.0, radius, out=radius)  # (0, 1]: keeps the log finite
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    cos = np.cos(angle)
    np.sin(angle, out=angle)
    angle *= radius
    radius *= cos
    return z[:size]
