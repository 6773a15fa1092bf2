import dataclasses
import math

import pytest

from trace_rows import trace_of
from vsgd import HyperParams, RunConfig, run
from vsgd.cli import main
from vsgd.harness import OPTIMIZER_NAMES, StepTrace, Trace
from vsgd.traceio import CSV_HEADER, read_csv, write_csv


def trace(t=1, **kw):
    base = dict(
        t=t,
        loss=0.1,
        grad_norm=2.5,
        theta_norm=1.0,
        mean_b_g=3e-7,
        mean_b_ghat=0.5,
        mean_sigma2=1e-9,
    )
    base.update(kw)
    return StepTrace(**base)


def test_single_row_gives_two_lines(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(trace_of([trace()]), path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert text.endswith("\n")
    assert "\r" not in text


def test_round_trip_is_bitwise(tmp_path):
    rows = [
        trace(t=1, loss=1 / 3, grad_norm=math.pi, mean_sigma2=1e-300),
        trace(t=2, loss=-0.0, grad_norm=1e308),
        trace(t=3, loss=float("nan")),
    ]
    path = tmp_path / "t.csv"
    write_csv(trace_of(rows), path)
    back = read_csv(path)
    assert isinstance(back, Trace) and len(back) == 3
    for orig, parsed in zip(rows, back):
        for a, b in zip(dataclasses.astuple(orig), dataclasses.astuple(parsed)):
            # shortest-round-trip decimals reparse exactly, the sign of -0.0 too
            assert type(a) is type(b) and repr(a) == repr(b)


def test_missing_state_columns_stay_in_schema(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(trace_of([trace(mean_b_g=None, mean_b_ghat=None, mean_sigma2=None)]), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].endswith(",,,")
    back = read_csv(path)
    assert back[0].mean_sigma2 is None and back.column("mean_sigma2") is None


def test_empty_trace_list_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(trace_of([]), tmp_path / "t.csv")


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_csv(path)


@pytest.mark.parametrize(
    "row",
    [
        "2,0.1,2.5,1.0,,0.5,1e-09",  # an optional column empty on one row only
        "2,,2.5,1.0,3e-07,0.5,1e-09",  # a loss missing
        "2,0.1,2.5,1.0,3e-07,0.5",  # a short row
    ],
    ids=["partly-empty-summary", "empty-loss", "short-row"],
)
def test_read_rejects_a_row_that_breaks_its_columns(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n1,0.1,2.5,1.0,3e-07,0.5,1e-09\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.csv"):
        read_csv(path)


@pytest.mark.parametrize("optimizer", ["sgd", "constant-vsgd", "vsgd"])
def test_trace_writes_the_bytes_of_its_list(tmp_path, optimizer):
    """A Trace is written in row chunks; the bytes are those of its rows
    joined at once."""
    config = RunConfig(optimizer=optimizer, problem="quad:dim=3,noise=1.0",
                       steps=2500, seed=4, hp=HyperParams(eta=0.01))
    trace = run(config).traces
    rows = list(trace)
    write_csv(trace, tmp_path / "trace.csv")
    expected = "\n".join([
        CSV_HEADER,
        *(",".join("" if v is None else repr(v) for v in dataclasses.astuple(tr))
          for tr in rows),
        "",
    ])
    assert (tmp_path / "trace.csv").read_bytes() == expected.encode("utf-8")
    assert read_csv(tmp_path / "trace.csv") == rows


def test_sweep_files_read_back_to_their_runs(tmp_path):
    """Each optimizer's `vsgd sweep` file reads back as the run's Trace, and
    writing that Trace again gives the file's bytes."""
    names = sorted(OPTIMIZER_NAMES)
    argv = ["sweep", "--optimizer", ",".join(names), "--problem", "quad:dim=3,noise=1.0",
            "--lr", "0.01", "--steps", "1500", "--seed", "3", "--out", str(tmp_path / "sweep")]
    assert main(argv) == 0
    for name in names:
        (path,) = (tmp_path / "sweep").glob(f"{name}_*.csv")
        config = RunConfig(optimizer=name, problem="quad:dim=3,noise=1.0", steps=1500,
                           seed=3, hp=HyperParams(eta=0.01))
        back = read_csv(path)
        assert back == run(config).traces, name
        write_csv(back, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes(), name

