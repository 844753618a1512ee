"""Span self-time arithmetic on a synthetic nested trace."""

import pytest

from spans import LAYERS, Recorder, layer_of_module


def _clock(ticks):
    iterator = iter(ticks)
    return lambda: next(iterator)


def test_self_time_is_duration_minus_direct_children():
    # outer 0..100 holds middle 10..70, which holds leaf 20..50.
    recorder = Recorder(8, _clock([0, 10, 20, 50, 70, 100]))
    leaf = recorder.span(lambda: None, "c.leaf", "srp")
    middle = recorder.span(lambda: leaf(), "b.middle", "net")
    outer = recorder.span(lambda: middle(), "a.outer", "sim")
    recorder.start()
    outer()
    recorder.fold()
    names = recorder.by_name()
    assert names["a.outer"] == {"layer": "sim", "count": 1,
                                "total_ns": 100, "self_ns": 40}
    assert names["b.middle"]["self_ns"] == 30
    assert names["c.leaf"]["self_ns"] == 30
    layers = recorder.by_layer()
    assert sum(row["self_ns"] for row in layers.values()) == 100
    assert set(layers) == set(LAYERS)


def test_siblings_and_a_second_slice_accumulate():
    recorder = Recorder(8, _clock([0, 10, 30, 40, 70, 100,
                                   200, 210, 220, 230, 240, 250]))
    inner = recorder.span(lambda: None, "x.inner", "srp")
    outer = recorder.span(lambda: (inner(), inner()), "x.outer", "sim")
    for _ in range(2):
        recorder.start()
        outer()
        recorder.fold()
    names = recorder.by_name()
    assert names["x.inner"]["count"] == 4
    assert names["x.inner"]["total_ns"] == 20 + 30 + 10 + 10
    assert names["x.outer"]["self_ns"] == (100 - 50) + (50 - 20)


def test_sample_rows_carry_parent_and_root():
    recorder = Recorder(8, _clock([5, 10, 20, 50, 70, 100]))
    leaf = recorder.span(lambda: None, "c.leaf", "srp")
    event = recorder.span(lambda: leaf(), "b.event", "net")
    loop = recorder.span(lambda: event(), "a.loop", "sim")
    recorder.start()
    loop()
    recorder.fold()
    assert recorder.sample == [
        ["a.loop", "sim", 0, 95, 35, -1, 0],
        ["b.event", "net", 5, 65, 30, 0, 1],
        ["c.leaf", "srp", 15, 45, 30, 1, 1],
    ]


def test_nothing_is_recorded_outside_a_slice():
    recorder = Recorder(2, _clock([]))  # the clock must not be read
    wrapped = recorder.span(lambda value: value + 1, "x.f", "sim")
    assert wrapped(1) == 2
    assert recorder.by_name() == {}


def test_exceptions_close_the_span():
    recorder = Recorder(4, _clock([0, 7]))

    def boom():
        raise KeyError("boom")
    wrapped = recorder.span(boom, "x.boom", "sim")
    recorder.start()
    with pytest.raises(KeyError):
        wrapped()
    recorder.fold()
    assert recorder.by_name()["x.boom"]["total_ns"] == 7


class _Owner:
    def method(self, sink):
        sink.append("fired")


def test_trampoline_names_an_event_after_its_callback():
    recorder = Recorder(4, _clock([0, 3, 10, 14]))
    trampoline = recorder.trampoline("ev:")
    sink = []
    recorder.start()
    trampoline(_Owner().method, sink)
    trampoline(sink.append, "builtin")
    recorder.fold()
    assert sink == ["fired", "builtin"]
    names = recorder.by_name()
    assert names["ev:_Owner.method"]["total_ns"] == 3
    assert names["ev:builtin_function_or_method"]["layer"] == "other"


def test_layers_follow_the_package_of_the_module():
    assert layer_of_module("repro.srp.engine") == "srp"
    assert layer_of_module("repro.types") == "api"
    assert layer_of_module("loadgen") == "gen"
    assert layer_of_module("repro.wire.codec") == "other"
