"""In-memory span recording for the traced benchmark run.

A span is one call into a wrapped callable: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when it
started (its parent, -1 for none), the training run it belongs to, and an
item count the caller may attach (normal draws, CSV rows).  Spans live in
compact column arrays until the run ends; ``save`` writes them out.

Each span costs some time of its own (the wrapper's bookkeeping), most of
it outside the span's clock reads and so inside its parent's self time.
``span_cost`` measures that cost and ``Tracer.stats`` takes it back out.
"""
from __future__ import annotations

import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Tracer", "SpanStats", "SpanCost", "span_cost", "self_times"]


@dataclass
class SpanStats:
    """Totals over every span of one name."""

    calls: int
    total_s: float
    self_s: float
    items: int


@dataclass(frozen=True)
class SpanCost:
    """Seconds one span adds to its parent's self time and to its own.

    The ``counted_`` pair is the same for a span that also takes an item count.
    """

    parent_s: float
    own_s: float
    counted_parent_s: float
    counted_own_s: float


class Tracer:
    """Records one span per call of every callable passed through ``wrap``.

    Spans are recorded by one thread with an explicit stack, so the children
    of one span never overlap each other and lie inside their parent.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.counted: list[bool] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.items = array("q")
        self.run_id = -1
        self._stack: list[int] = []

    def wrap(
        self, name: str, fn: Callable, items: Callable[..., int] | None = None
    ) -> Callable:
        """Return ``fn`` wrapped so that each call records one span.

        ``items(*args, **kwargs)``, when given, is the span's item count.
        """
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self.counted.append(items is not None)
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, runs, counts, stack = self.parent, self.run, self.items, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            counts.append(items(*args, **kwargs) if items else 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def stats(self, cost: SpanCost | None = None) -> dict[str, SpanStats]:
        """Calls, total time, self time and items per span name.

        With ``cost``, the spans' own cost is taken out of the self times:
        each span's ``own_s`` from itself and its ``parent_s`` from its
        parent.  Total times are the spans' durations as measured.
        """
        start, end, parent = self._columns()
        names = np.array(self.name_id, dtype=np.int32)
        items = np.array(self.items, dtype=np.int64)
        dur = end - start
        if cost is None:
            own = self_times(start, end, parent)
        else:
            counted = np.array(self.counted, dtype=bool)[names]
            own = self_times(
                start, end, parent,
                parent_cost=np.where(counted, cost.counted_parent_s, cost.parent_s),
                own_cost=np.where(counted, cost.counted_own_s, cost.own_s),
            )
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = SpanStats(
                calls=int(sel.sum()),
                total_s=float(dur[sel].sum()),
                self_s=float(own[sel].sum()),
                items=int(items[sel].sum()),
            )
        return out

    def save(self, path) -> None:
        """Write every span to ``path`` as a compressed ``.npz`` archive."""
        start, end, parent = self._columns()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=start,
            end=end,
            parent=parent,
            run=np.array(self.run, dtype=np.int64),
            items=np.array(self.items, dtype=np.int64),
        )

    def _columns(self):
        if self._stack:
            raise RuntimeError("spans are still open")
        return (
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.parent, dtype=np.int64),
        )


def self_times(start, end, parent, parent_cost=0.0, own_cost=0.0) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to their parent's; children of one parent
    must not overlap each other, which holds for spans from one thread.
    ``parent_cost`` (per span, or one value for all) is also taken from each
    span's parent, and ``own_cost`` from the span itself; a self time can
    then come out slightly negative for a span shorter than its cost.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    parent_cost = np.broadcast_to(np.asarray(parent_cost, dtype=np.float64), start.shape)
    child = parent >= 0
    up = parent[child]
    covered = np.clip(
        np.minimum(end[child], end[up]) - np.maximum(start[child], start[up]),
        0.0,
        None,
    ) + parent_cost[child]
    return (end - start) - own_cost - np.bincount(up, weights=covered, minlength=len(start))


def span_cost(calls: int = 20_000, batches: int = 7) -> SpanCost:
    """Measure what one span adds to the time of the calls it wraps.

    A no-op is called ``calls`` times bare, then wrapped, from inside an
    open span.  The difference per call is one span's whole cost.  The
    wrapped no-op's own mean duration is the part inside the span; the rest
    lands in the parent's self time.  Medians over ``batches`` batches, for
    spans without and with an item count.
    """

    def noop(x):
        return x

    def bare():
        for _ in range(calls):
            noop(1)

    pairs = []
    for items in (None, noop):
        tracer = Tracer()
        inner = tracer.wrap("inner", noop, items=items)

        def wrapped():
            for _ in range(calls):
                inner(1)

        outer = tracer.wrap("outer", wrapped)
        whole, own = [], []
        for _ in range(batches):
            start = time.perf_counter()
            bare()
            bare_s = time.perf_counter() - start
            first = len(tracer)
            outer()
            dur = np.asarray(tracer.end[first:]) - np.asarray(tracer.start[first:])
            whole.append(float(dur[0] - bare_s) / calls)
            own.append(float(dur[1:].mean()))
        whole_s, own_s = statistics.median(whole), statistics.median(own)
        pairs += [whole_s - own_s, own_s]
    return SpanCost(*pairs)
