"""CSV persistence for step traces.

Fixed schema for every optimizer: one column per ``StepTrace`` field, in
field order.  Columns an optimizer has no state for are left empty, so
files from different optimizers stay column-compatible.  Floats are
serialized as shortest round-trip decimals (repr of a 64-bit float), so
re-parsing an emitted file reproduces the values bitwise.

``write_csv`` formats a ``harness.Trace`` a whole column at a time and
writes it in chunks of ``_CHUNK_ROWS`` rows, so writing never holds the
whole file as one string; ``read_csv`` parses a file back into a ``Trace``.
Neither builds a ``StepTrace`` per row.
"""
from __future__ import annotations

from array import array
from dataclasses import fields
from itertools import islice, repeat

from .harness import StepTrace, Trace

__all__ = ["CSV_HEADER", "write_csv", "read_csv"]

_FIELDS = fields(StepTrace)  # t, then the float fields; optional ones default to None
CSV_HEADER = ",".join(f.name for f in _FIELDS)
_CHUNK_ROWS = 1024


def write_csv(trace: Trace, path) -> None:
    """Write a trace as UTF-8 CSV with LF line endings; the trace must be nonempty."""
    if not trace:
        raise ValueError("refusing to write an empty trace")
    t, *columns = (trace.column(f.name) for f in _FIELDS)
    cells = [map(str, t), *(repeat("") if c is None else map(repr, c) for c in columns)]
    rows = map(",".join, zip(*cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            fh.write("\n".join(chunk))
            fh.write("\n")


def read_csv(path) -> Trace:
    """Parse a file produced by write_csv back into a Trace.

    An optional column must be all empty (it reads None) or all filled.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, _, body = fh.read().partition("\n")
    if header != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected header")
    rows = [line.split(",") for line in body.split("\n") if line]
    for cells in rows:
        if len(cells) != len(_FIELDS):
            raise ValueError(f"{path}: malformed row {','.join(cells)!r}")
    t, *columns = zip(*rows) if rows else [()] * len(_FIELDS)
    parsed = []
    for f, cells in zip(_FIELDS[1:], columns):
        if f.default is None and not any(cells):
            parsed.append(None)
        elif "" in cells:
            raise ValueError(f"{path}: empty cell in column {f.name}")
        else:
            parsed.append(array("d", map(float, cells)))
    return Trace(array("q", map(int, t)), tuple(parsed))
