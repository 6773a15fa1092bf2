import numpy as np
import pytest

from perfbench.spans import SpanCost, Tracer, self_times, span_cost


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 6]; g [2, 3] sits inside a
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    np.testing.assert_allclose(self_times(start, end, parent), [6.0, 2.0, 1.0, 1.0])


def test_self_time_clips_children_to_their_parent():
    # the child runs past its parent's end; only [8, 10] is covered
    np.testing.assert_allclose(
        self_times([0.0, 8.0], [10.0, 12.0], [-1, 0]), [8.0, 4.0]
    )


def test_wrapped_calls_nest_and_self_times_partition_the_root():
    tracer = Tracer()
    inner = tracer.wrap("layer.inner", lambda n: sum(range(n)), items=lambda n: n)

    def body():
        inner(1000)
        inner(2000)

    tracer.wrap("bench.pass", body)()
    assert list(tracer.parent) == [-1, 0, 0]
    stats = tracer.stats()
    assert stats["layer.inner"].calls == 2
    assert stats["layer.inner"].items == 3000
    root = stats["bench.pass"]
    assert root.self_s == pytest.approx(root.total_s - stats["layer.inner"].total_s)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(root.total_s)


def test_span_cost_comes_off_the_parent_and_the_span_itself():
    # as above; each span costs 0.5 in its parent and 0.25 in itself
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    np.testing.assert_allclose(
        self_times(start, end, parent, parent_cost=0.5, own_cost=0.25),
        [6.0 - 1.0 - 0.25, 2.0 - 0.5 - 0.25, 0.75, 0.75],
    )


def test_stats_take_the_cost_of_counted_spans_from_their_own_pair():
    tracer = Tracer()
    plain = tracer.wrap("layer.plain", lambda: None)
    counted = tracer.wrap("layer.counted", lambda: None, items=lambda: 1)

    def body():
        plain()
        counted()

    tracer.wrap("bench.pass", body)()
    bare = tracer.stats()
    cost = SpanCost(parent_s=1e-3, own_s=1e-4, counted_parent_s=2e-3, counted_own_s=2e-4)
    net = tracer.stats(cost)
    assert net["bench.pass"].self_s == pytest.approx(bare["bench.pass"].self_s - 3e-3 - 1e-4)
    assert net["layer.plain"].self_s == pytest.approx(bare["layer.plain"].self_s - 1e-4)
    assert net["layer.counted"].self_s == pytest.approx(bare["layer.counted"].self_s - 2e-4)
    assert net["layer.counted"].total_s == bare["layer.counted"].total_s


def test_measured_span_cost_is_positive_and_below_ten_microseconds():
    cost = span_cost(calls=2000, batches=3)
    for value in vars(cost).values():
        assert 0.0 < value < 1e-5


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise RuntimeError("bad")

    wrapped = tracer.wrap("layer.boom", boom)
    with pytest.raises(RuntimeError):
        wrapped()
    assert tracer.stats()["layer.boom"].calls == 1
    assert tracer.end[0] >= tracer.start[0]


def test_spans_are_written_out(tmp_path):
    tracer = Tracer()
    tracer.run_id = 7
    tracer.wrap("layer.f", lambda: None)()
    tracer.save(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as saved:
        assert list(saved["names"]) == ["layer.f"]
        assert list(saved["run"]) == [7]
        assert list(saved["parent"]) == [-1]
