"""Span self-time arithmetic and entry-point wrapping."""

import types

import numpy as np
import pytest

from spans import Instrumentation, SpanRecorder, self_times


def _tree(rows):
    span_id, parent, start, end = (np.array(col) for col in zip(*rows))
    return self_times(span_id.astype(np.int64), parent.astype(np.int64),
                      start.astype(float), end.astype(float))


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    got = _tree([(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0),
                 (2, 0, 5.0, 9.0), (3, 2, 6.0, 7.0)])
    assert got.tolist() == [3.0, 3.0, 3.0, 1.0]
    assert got.sum() == 10.0          # self times tile the root


def test_self_time_of_leaf_and_orphan_is_duration():
    # span 5's parent (id 4) was dropped: nothing is subtracted from it
    got = _tree([(0, -1, 0.0, 2.0), (5, 4, 3.0, 3.5)])
    assert got.tolist() == [2.0, 0.5]


def test_self_time_of_empty_tree():
    empty = np.array([], dtype=np.int64)
    assert self_times(empty, empty, np.array([]), np.array([])).size == 0


def _ticking_clock():
    t = iter(range(1000))
    return lambda: float(next(t))


def test_wrapped_calls_nest_and_unwrap():
    mod = types.SimpleNamespace(outer=None, inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    rec = SpanRecorder(clock=_ticking_clock())
    inst = Instrumentation(rec)
    original = mod.inner
    inst.wrap(mod, "outer", "outer")
    inst.wrap(mod, "inner", "inner")
    rec.request_id = 7
    assert mod.outer(1) == 4
    inst.remove()
    assert mod.inner is original
    a = rec.arrays()
    names = [rec.names[i] for i in a["name"]]
    assert names == ["inner", "outer"]            # closed inner first
    assert a["parent"].tolist() == [a["span_id"][1], -1]
    assert a["request"].tolist() == [7, 7]
    st = self_times(a["span_id"], a["parent"], a["start"], a["end"])
    assert st.sum() == a["end"][1] - a["start"][1]


def test_dropped_span_leaves_its_time_with_the_parent():
    mod = types.SimpleNamespace(outer=None, inner=lambda: None)
    mod.outer = lambda: mod.inner()
    rec = SpanRecorder(clock=_ticking_clock())
    with Instrumentation(rec) as inst:
        inst.wrap(mod, "outer", "outer")
        inst.wrap(mod, "inner", "inner", keep=lambda args, out: False)
        mod.outer()
    a = rec.arrays()
    assert [rec.names[i] for i in a["name"]] == ["outer"]
    st = self_times(a["span_id"], a["parent"], a["start"], a["end"])
    assert st[0] == a["end"][0] - a["start"][0]


def test_span_is_recorded_when_the_call_raises():
    def boom():
        raise ValueError("bad payload")

    mod = types.SimpleNamespace(boom=boom)
    rec = SpanRecorder(clock=_ticking_clock())
    with Instrumentation(rec) as inst:
        inst.wrap(mod, "boom", "boom")
        with pytest.raises(ValueError):
            mod.boom()
    assert len(rec.arrays()["span_id"]) == 1
    assert rec._stack == [-1]
