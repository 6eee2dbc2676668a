"""Self-time arithmetic of the span recorder."""

from __future__ import annotations

import pytest

from perfbench.spans import SpanRecorder, check_coverage, wrap_methods


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, *instants: int) -> None:
        self.instants = list(instants)

    def __call__(self) -> int:
        return self.instants.pop(0)


def test_self_time_subtracts_nested_children():
    # outer [0, 100] > a [10, 30], b [40, 70] > c [50, 60]
    recorder = SpanRecorder(clock=FakeClock(0, 10, 30, 40, 50, 60, 70, 100))
    recorder.begin("outer")
    recorder.begin("a")
    recorder.end()
    recorder.begin("b")
    recorder.begin("c")
    recorder.end()
    recorder.end()
    recorder.end()
    totals = recorder.totals
    assert totals["outer"].total_ns == 100
    assert totals["outer"].self_ns == 100 - 20 - 30
    assert totals["a"].self_ns == 20
    assert totals["b"].total_ns == 30
    assert totals["b"].self_ns == 30 - 10
    assert totals["c"].self_ns == 10
    assert recorder.self_ns("outer", "a", "b", "c") == 100


def test_self_times_aggregate_per_name():
    recorder = SpanRecorder(clock=FakeClock(0, 5, 15, 20, 40, 50))
    recorder.begin("root")
    recorder.begin("leaf")
    recorder.end()
    recorder.begin("leaf")
    recorder.end()
    recorder.end()
    leaf = recorder.totals["leaf"]
    assert (leaf.calls, leaf.total_ns, leaf.self_ns) == (2, 30, 30)
    assert recorder.self_ns("root") == 20
    assert recorder.calls("leaf", "root", "absent") == 3


def test_wrapped_calls_nest_and_survive_exceptions():
    recorder = SpanRecorder(clock=FakeClock(0, 10, 20, 30, 40, 60))

    def boom():
        raise RuntimeError("fails inside a span")

    inner = recorder.wrap("inner", lambda: 7)
    failing = recorder.wrap("failing", boom)

    def outer():
        value = inner()
        with pytest.raises(RuntimeError):
            failing()
        return value

    assert recorder.wrap("outer", outer)() == 7
    assert recorder.totals["outer"].self_ns == 60 - 10 - 10
    assert recorder.totals["failing"].calls == 1
    assert recorder.self_ns("outer", "inner", "failing") == 60


def test_wrap_methods_shadows_one_instance_only():
    class Layer:
        def work(self, x):
            return x + 1

    traced, plain = Layer(), Layer()
    recorder = SpanRecorder()
    wrap_methods(recorder, traced, {"work": "layer.work"})
    assert traced.work(1) == 2
    assert plain.work(1) == 2
    assert recorder.calls("layer.work") == 1


def _traced_pass(recorder, helper_wrapped):
    """root [0, 100] > pipeline [0, 90] > branch [20, 50], then a helper
    that runs for the last 10 ns directly under the root."""
    recorder.begin("root")
    recorder.begin("pipeline")
    recorder.begin("branch")
    recorder.end()
    recorder.end()
    if helper_wrapped:
        recorder.begin("helper")
        recorder.end()
    recorder.end()


def test_fully_attributed_pass_passes_coverage():
    recorder = SpanRecorder(clock=FakeClock(0, 0, 20, 50, 90, 90, 100, 100))
    _traced_pass(recorder, helper_wrapped=True)
    layers = ("pipeline", "branch", "helper")
    assert check_coverage(recorder, 100, layers, layers) == (0.0, [])


def test_unwrapped_layer_fails_coverage():
    # The helper's 10 ns stay in the root's self time: no reported
    # metric carries them, so the check fails although the self times
    # of all spans, root included, still add up to the wall time.
    recorder = SpanRecorder(clock=FakeClock(0, 0, 20, 50, 90, 100))
    _traced_pass(recorder, helper_wrapped=False)
    assert recorder.self_ns("root", "pipeline", "branch") == 100
    gap, problems = check_coverage(recorder, 100, ("pipeline", "branch"))
    assert gap == pytest.approx(0.1)
    assert problems == [
        "layer self times leave 10.00% of the traced wall time "
        "unattributed (tolerance 1%)"
    ]


def test_layer_never_entered_fails_coverage():
    recorder = SpanRecorder(clock=FakeClock(0, 0, 20, 50, 90, 90, 100, 100))
    _traced_pass(recorder, helper_wrapped=True)
    gap, problems = check_coverage(
        recorder, 100, ("pipeline", "branch", "helper", "memory"),
        required=("branch", "memory"),
    )
    assert gap == 0.0
    assert problems == ["layer span memory was never entered"]
