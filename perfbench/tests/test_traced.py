"""Traced sweep passes run the same cell path as untraced ones."""

from __future__ import annotations

from contextlib import ExitStack

from perfbench import common, sweep
from perfbench.spans import SpanRecorder


def test_traced_cell_matches_untraced_and_records_every_layer():
    from repro.harness import runner

    originals = (runner.simulate, runner.speedup, sweep.CLOCK)
    (composite,) = [
        c for c in sweep.build_cells(0)
        if c.spec["kind"] == "composite" and c.spec["workload"] == "gcc2k"
    ]
    spec = dict(composite.spec, length=2048)
    plain = sweep.cell(spec)
    runner.clear_caches()

    recorder = SpanRecorder()
    counters: dict = {}
    with ExitStack() as stack:
        sweep.instrument(recorder, counters, stack)
        traced = sweep.cell(spec)

    assert traced["stats"] == plain["stats"]
    # Two ticks for the composite run and two for its baseline, which
    # no earlier base cell memoized.
    assert len(traced["chunk_ms"]) == len(plain["chunk_ms"]) == 4
    assert traced["ref_samples"] == 0  # RawClock: no reference loop
    entered = {
        name for name in sweep.LAYER_SPANS if recorder.calls(name)
    }
    # One cell, called directly: no supervisor, no EVES.
    assert entered == set(sweep.LAYER_SPANS) - {
        "harness.resilient", "eves.predict", "eves.train"
    }
    # The composite run and the baseline it is compared with.
    assert recorder.calls("pipeline") == 2
    assert counters["composite_predicted"] == plain["stats"][
        "predicted_loads"
    ]
    assert (runner.simulate, runner.speedup, sweep.CLOCK) == originals
    assert sweep.CLOCK is common.HostClock
