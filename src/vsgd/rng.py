"""Seedable, portable randomness for the benchmark harness.

The generator is numpy's PCG64 (a named, documented algorithm whose integer
and uniform-double streams are reproducible across platforms for a given
seed).  Normal variates are produced by the basic Box-Muller transform on
those uniforms — a deterministic transform with no rejection loop, so traces
depend only on (seed, draw order).  The transform runs in place in the
buffer of uniforms, over blocks of pairs the size of the optimizer kernels'
blocks, so a draw allocates nothing beyond its result and one block-sized
buffer.

A run draws through a ``Stream``, which serves a request repeated step
after step (``normal(stream, size)``, ``stream.integers(low, high,
size=b)``) from chunks drawn ahead.  The contract:

- **Bitwise.**  Every row equals the per-step draw: a PCG64 double takes
  one 64-bit output, and a bounded integer one or more 32- or 64-bit
  outputs in order, so one draw of ``k`` steps' values is ``k`` per-step
  draws laid end to end.
- **Chunks of at most ``2*_BLOCK`` values.**  A chunk holds
  ``max(1, 2*_BLOCK // values_per_step)`` steps at most; it starts at one
  step for a new request and doubles with each chunk of the same request.
  At large dim a chunk is one step, and the stream then keeps nothing.
- **Exact rewind.**  Any other request, and any other ``Generator``
  attribute (delegated), first puts the generator back where per-step
  draws would have left it: the state saved before the chunk is restored
  and the rows handed out are drawn again.
- **At most one over-drawn chunk per run**, never rewound when the run
  ends; the rows handed out stay valid, since a chunk's buffer is never
  reused.
- **Plain generators still work** everywhere a stream does, drawing per
  step.
- **A stream is no ``Generator``.**  ``harness.run`` hands one to
  ``sample_grad``; code that needs a real ``Generator`` takes
  ``np.random.Generator(stream.bit_generator)``, which shares the bit
  generator after the rewind that reading ``bit_generator`` makes.
"""
from __future__ import annotations

import numpy as np

from .core import _BLOCK
from .errors import ConfigError

__all__ = ["Stream", "make_rng", "normal"]


def make_rng(seed: int) -> np.random.Generator:
    if seed < 0:  # PCG64 takes no negative seed
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def normal(rng: np.random.Generator | Stream, size: int) -> np.ndarray:
    """Standard normal draws via Box-Muller (no rejection sampling).

    ``rng`` is a ``Stream`` (the next row of its chunk) or a plain
    ``Generator`` (a one-step chunk, drawn now).
    """
    if type(rng) is Stream:
        return rng._row(("normal", size))
    return _normal_rows(rng, size, 1)[0]


def _normal_rows(gen: np.random.Generator, size: int, steps: int) -> np.ndarray:
    """``steps`` rows of ``size`` normals, each row a per-step draw.

    Computed in place in one (steps, 2*pairs) buffer of uniforms: each
    row's first half becomes the radii times the cosines, its second half
    the radii times the sines.  The passes run over column blocks of at
    most ``_BLOCK`` pairs of all rows at once; every pass is elementwise, so
    the blocking changes no bit.  A stream's chunk of more than one step
    holds at most ``_BLOCK`` pairs, so it is one pass over the whole halves.
    """
    pairs = (size + 1) // 2
    z = gen.random(steps * 2 * pairs).reshape(steps, 2 * pairs)
    cos = np.empty((steps, min(pairs, _BLOCK)))
    for lo in range(0, pairs, _BLOCK):
        hi = min(lo + _BLOCK, pairs)
        _box_muller(z[:, lo:hi], z[:, pairs + lo : pairs + hi], cos[:, : hi - lo])
    return z[:, :size]


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


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _rows(gen: np.random.Generator, key, steps: int) -> np.ndarray:
    """``steps`` per-step draws of ``key``'s request, one row each."""
    if key[0] == "normal":
        return _normal_rows(gen, key[1], steps)
    _, low, high, size = key
    return gen.integers(low, high, size=steps * size).reshape(steps, size)


class Stream:
    """One run's generator; repeated draws come from chunks drawn ahead.

    See the module docstring for the contract.  Any public ``Generator``
    attribute not defined here is the wrapped generator's, reached after a
    rewind.
    """

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._key = None  # the last request: ("normal", size) or ("integers", low, high, size)
        self._steps = 1  # steps in its next chunk
        self._chunk = None  # the open chunk of its rows, or None
        self._used = 0  # the chunk's rows handed out
        self._saved = None  # the generator's state before the chunk

    def _row(self, key) -> np.ndarray:
        if key != self._key:
            self._sync()
            self._key, self._steps = key, 1
        if self._chunk is None:
            steps = self._steps
            per_step = 2 * ((key[1] + 1) // 2) if key[0] == "normal" else key[3]
            self._steps = min(2 * steps, max(1, 2 * _BLOCK // max(1, per_step)))
            if steps == 1:  # nothing to rewind: draw and keep nothing
                return _rows(self._gen, key, 1)[0]
            self._saved = self._gen.bit_generator.state
            self._chunk, self._used = _rows(self._gen, key, steps), 0
        row = self._chunk[self._used]
        self._used += 1
        if self._used == len(self._chunk):  # used up: dropped at once
            self._chunk = self._saved = None
        return row

    def _sync(self) -> None:
        """Put the generator where per-step draws would have left it."""
        key, self._key = self._key, None
        if self._chunk is not None:  # restore, then redraw the rows handed out
            self._gen.bit_generator.state = self._saved
            _rows(self._gen, key, self._used)
            self._chunk = self._saved = None

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        """``Generator.integers``; int bounds and an int ``size`` come from chunks."""
        if (
            _is_int(size) and size >= 1 and _is_int(low) and _is_int(high) and low < high
            and dtype is np.int64 and not endpoint
        ):
            return self._row(("integers", int(low), int(high), int(size)))
        self._sync()
        return self._gen.integers(low, high, size=size, dtype=dtype, endpoint=endpoint)

    def __getattr__(self, name: str):
        if name.startswith("_"):  # not delegated: copy and pickle probe these
            raise AttributeError(name)
        self._sync()
        return getattr(self._gen, name)
