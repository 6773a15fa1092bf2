"""CSV persistence for step traces.

Fixed schema for every optimizer: one column per ``StepTrace`` field, in
field order.  Columns an optimizer has no state for are left empty, so
files from different optimizers stay column-compatible.  Floats are
serialized as shortest round-trip decimals (repr of a 64-bit float), so
re-parsing an emitted file reproduces the values bitwise.

``write_csv`` takes any sequence of ``StepTrace`` (a ``harness.Trace`` or a
list) and formats it in chunks of ``_CHUNK_ROWS`` rows, so writing never
holds the whole file as one string.
"""
from __future__ import annotations

import operator
import typing
from collections.abc import Sequence
from dataclasses import fields
from itertools import islice

from .harness import StepTrace

__all__ = ["CSV_HEADER", "write_csv", "read_csv"]

_FIELDS = fields(StepTrace)
_INT_FIELDS = {name for name, hint in typing.get_type_hints(StepTrace).items() if hint is int}
CSV_HEADER = ",".join(f.name for f in _FIELDS)
_CHUNK_ROWS = 1024


def _column(f, traces: list[StepTrace]):
    """One field's cells over a chunk of traces, formatted by the field's type.

    ``map`` over builtins formats a column with no Python call per cell.
    """
    values = map(operator.attrgetter(f.name), traces)
    if f.name in _INT_FIELDS:
        return map(str, values)
    if f.default is None:  # an optional state summary: empty cell for None
        return ("" if v is None else repr(float(v)) for v in values)
    return map(repr, map(float, values))


def _parse_optional(cell: str) -> float | None:
    return float(cell) if cell else None


_PARSERS = tuple(
    int if f.name in _INT_FIELDS else _parse_optional if f.default is None else float
    for f in _FIELDS
)


def _chunks(traces):
    """Row chunks of a sequence of StepTrace, each cell read from its trace."""
    it = iter(traces)
    while chunk := list(islice(it, _CHUNK_ROWS)):
        yield map(",".join, zip(*[_column(f, chunk) for f in _FIELDS]))


def write_csv(traces: Sequence[StepTrace], path) -> None:
    """Write traces as UTF-8 CSV with LF line endings; traces must be nonempty."""
    if not traces:
        raise ValueError("refusing to write an empty trace list")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rows in _chunks(traces):
            fh.write("\n".join(rows))
            fh.write("\n")


def read_csv(path) -> list[StepTrace]:
    """Parse a file produced by write_csv back into StepTrace rows."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected header")
    traces = []
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(_PARSERS):
            raise ValueError(f"{path}: malformed row {line!r}")
        traces.append(StepTrace(*[parse(cell) for parse, cell in zip(_PARSERS, cells)]))
    return traces
