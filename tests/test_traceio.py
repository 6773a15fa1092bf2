import dataclasses
import math

import pytest

from vsgd import HyperParams, RunConfig, run
from vsgd.harness import StepTrace
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
    write_csv([trace()], path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert text.endswith("\n")
    assert "\r" not in text


def test_round_trip_is_bitwise(tmp_path):
    rows = [
        trace(t=1, loss=1 / 3, grad_norm=math.pi, mean_sigma2=1e-300),
        trace(t=2, loss=-0.0, grad_norm=1e308, mean_b_g=None),
        trace(t=3, loss=float("nan")),
    ]
    path = tmp_path / "t.csv"
    write_csv(rows, path)
    back = read_csv(path)
    assert len(back) == 3
    for orig, parsed in zip(rows, back):
        assert parsed.t == orig.t
        for name in ("loss", "grad_norm", "theta_norm", "mean_b_g", "mean_b_ghat", "mean_sigma2"):
            a, b = getattr(orig, name), getattr(parsed, name)
            if a is None:
                assert b is None
            elif math.isnan(a):
                assert math.isnan(b)
            else:
                assert a == b  # shortest-round-trip decimals reparse exactly


def test_missing_state_columns_stay_in_schema(tmp_path):
    path = tmp_path / "t.csv"
    write_csv([trace(mean_b_g=None, mean_b_ghat=None, mean_sigma2=None)], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].endswith(",,,")
    assert read_csv(path)[0].mean_sigma2 is None


def test_empty_trace_list_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv([], tmp_path / "t.csv")


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_csv(path)


@pytest.mark.parametrize("optimizer", ["sgd", "constant-vsgd", "vsgd"])
def test_trace_writes_the_bytes_of_its_list(tmp_path, optimizer):
    """A Trace and its list are written in row chunks; the bytes are those of
    the whole file joined at once."""
    config = RunConfig(optimizer=optimizer, problem="quad:dim=3,noise=1.0",
                       steps=2500, seed=4, hp=HyperParams(eta=0.01))
    trace = run(config).traces
    rows = list(trace)
    write_csv(trace, tmp_path / "trace.csv")
    write_csv(rows, tmp_path / "list.csv")
    expected = "\n".join([
        CSV_HEADER,
        *(",".join("" if v is None else repr(v) for v in dataclasses.astuple(tr))
          for tr in rows),
        "",
    ])
    data = (tmp_path / "trace.csv").read_bytes()
    assert data == (tmp_path / "list.csv").read_bytes() == expected.encode("utf-8")
    assert read_csv(tmp_path / "trace.csv") == rows
