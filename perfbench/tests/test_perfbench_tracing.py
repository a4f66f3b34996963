"""Span recording, self time with nested children, and restore."""

import itertools
import types

import rfbench.tracing as tracing
from rfbench.tracing import SpanRecorder


class Layer:
    def __init__(self, inner=None):
        self.inner = inner

    def work(self, request_id):
        if self.inner is not None:
            self.inner.work(request_id)
            self.inner.work(request_id)
        return request_id


def _fake_clock(monkeypatch, stamps):
    ticks = iter(stamps)
    monkeypatch.setattr(tracing, "perf_counter_ns", lambda: next(ticks))


def test_self_time_subtracts_nested_children(monkeypatch):
    leaf = Layer()
    middle = Layer(leaf)
    top = Layer(middle)
    recorder = SpanRecorder()
    recorder.wrap(top, "work", "top", request=lambda args, kwargs: args[0])
    recorder.wrap(middle, "work", "middle")
    recorder.wrap(leaf, "work", "leaf")
    # top [0, 100]; middle [10, 50] with leaves [12, 20] and [30, 45];
    # middle [60, 90] with leaves [61, 62] and [70, 80].
    _fake_clock(monkeypatch, [0, 10, 12, 20, 30, 45, 50, 60, 61, 62, 70, 80, 90, 100])
    assert top.work("epc-1") == "epc-1"
    spans = recorder.spans
    assert [span.name for span in spans] == ["top", "middle", "leaf", "leaf", "middle", "leaf",
                                             "leaf"]
    assert [span.parent for span in spans] == [None, 0, 1, 1, 0, 4, 4]
    assert {span.request for span in spans} == {"epc-1"}
    own = recorder.self_ns_by_name()
    assert own["top"] == [100 - 40 - 30]
    assert own["middle"] == [40 - 8 - 15, 30 - 1 - 10]
    assert own["leaf"] == [8, 15, 1, 10]
    assert recorder.durations_ns("middle") == [40, 30]


def test_count_and_warmup_pairs(monkeypatch):
    positioner, tracer = Layer(), Layer()
    recorder = SpanRecorder()
    recorder.wrap(positioner, "work", "core.candidates")
    recorder.wrap(tracer, "work", "core.begin", count=lambda result, args: len(result))
    _fake_clock(monkeypatch, itertools.count(0, 5))
    for word in ("ab", "abc"):
        positioner.work(word)
        tracer.work(word)
    assert recorder.warmups_ns() == [10, 10]
    assert [span.count for span in recorder.spans if span.name == "core.begin"] == [2, 3]


def test_restore_puts_back_instance_class_and_module_attributes():
    module = types.ModuleType("fake_layer")
    module.helper = lambda: "module"
    layer = Layer()
    original_class_work = Layer.__dict__["work"]
    recorder = SpanRecorder()
    recorder.wrap(layer, "work", "instance")
    recorder.wrap(Layer, "work", "class")
    recorder.wrap(module, "helper", "module")
    assert "work" in vars(layer)
    layer.work("x")
    Layer().work("y")
    module.helper()
    assert len(recorder) == 3
    recorder.restore()
    assert "work" not in vars(layer)
    assert Layer.__dict__["work"] is original_class_work
    assert module.helper() == "module"
    recorder.truncate(1)
    assert [span.name for span in recorder.spans] == ["instance"]
