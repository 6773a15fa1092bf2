"""Build a ``harness.Trace`` from StepTrace rows, for tests."""
from array import array
from dataclasses import fields

from vsgd.harness import StepTrace, Trace


def trace_of(rows: list[StepTrace]) -> Trace:
    """The Trace holding ``rows``; a field that every row leaves None has no column."""
    columns = []
    for f in fields(StepTrace)[1:]:
        values = [getattr(row, f.name) for row in rows]
        columns.append(None if values and values.count(None) == len(values) else array("d", values))
    return Trace(array("q", [row.t for row in rows]), tuple(columns))
