"""Seedable randomness for the benchmark harness.

The generator is numpy's PCG64, and normal variates are numpy's own
``Generator.standard_normal`` (a ziggurat sampler on PCG64's 64-bit outputs)
with no transform of ours on top.  For one numpy version a run's draws
depend only on (seed, draw order): the sampler is scalar C code, not
numpy's SIMD-dispatched ufuncs, so its bits are the same at every SIMD
dispatch level.  numpy's stream policy (NEP 19) lets the normal stream
change between numpy releases; the tests pin it.  A draw allocates nothing
beyond its result.

A run draws through a ``Stream``, which serves a request repeated step
after step (``normal(stream, size)``, ``stream.integers(low, high,
size=b)``) from chunks drawn ahead.  The contract:

- **Bitwise.**  Every row equals the per-step draw: a normal takes one or
  more 64-bit outputs, and a bounded integer one or more 32- or 64-bit
  outputs, always in order, so one draw of ``k`` steps' values is ``k``
  per-step draws laid end to end.
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
    """``size`` standard normal draws: ``Generator.standard_normal(size)``.

    ``rng`` is a ``Stream`` (the next row of its chunk) or a plain
    ``Generator`` (drawn now).
    """
    if type(rng) is Stream:
        return rng._row(("normal", size))
    return rng.standard_normal(size)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _rows(gen: np.random.Generator, key, steps: int) -> np.ndarray:
    """``steps`` per-step draws of ``key``'s request, one row each."""
    if key[0] == "normal":
        return gen.standard_normal(steps * key[1]).reshape(steps, key[1])
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
            # key[-1] is the size, the values either request draws per step
            self._steps = min(2 * steps, max(1, 2 * _BLOCK // max(1, key[-1])))
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
