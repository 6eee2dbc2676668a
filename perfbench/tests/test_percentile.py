"""Tail percentiles are refused when the sample cannot support them."""

from __future__ import annotations

import pytest

from perfbench.common import select_percentile


def test_p99_refused_with_fewer_than_ten_samples_beyond():
    values = list(range(1, 501))  # p99 of 500 has 5 beyond it
    with pytest.raises(ValueError, match="beyond"):
        select_percentile(values, 0.99)


def test_p99_accepted_at_exactly_ten_beyond():
    values = list(range(1, 1001))
    assert select_percentile(values, 0.99) == 990


def test_nearest_rank_is_exact_at_boundaries():
    # 0.7 * 10 is 7.000000000000001 in binary floating point.
    values = list(range(1, 101))
    assert select_percentile(values, 0.7) == 70


def test_minimum_sweep_runs_support_p99():
    from perfbench import search, sweep

    chunks_per_cell = sweep.LENGTH // 1024
    cells = len(sweep.build_cells(0))
    select_percentile(
        list(range(cells * chunks_per_cell * sweep.MIN_PASSES)), 0.99
    )
    select_percentile(list(range(144 * search.MIN_PASSES)), 0.99)


def test_serve_tail_is_median_of_window_p99s():
    from perfbench import tier

    window = tier.TAIL_WINDOW_S
    acks = []
    for slot, worst in enumerate((50.0, 10.0, 30.0)):
        for i in range(1000):
            latency = worst if i >= 989 else 1.0
            acks.append((slot * window + i * window / 2000, 32, latency))
    # A partial fourth window is ignored, a sparse one cannot hold a p99.
    acks.append((3 * window + 0.1, 32, 999.0))
    tail, windows = tier.windowed_tail(acks, 3 * window + 1.0)
    assert (tail, windows) == (30.0, 3)


def test_scaled_cpu_removes_reference_time_and_scales_by_speed():
    from perfbench import common

    samples = 10
    at_nominal = samples * common.REFERENCE_ITERATIONS / common.REFERENCE_NOMINAL
    assert common.scaled_cpu(1.0 + at_nominal, at_nominal, samples) == (
        pytest.approx(1.0)
    )
    # A host running the reference half as fast ran the program's CPU
    # second at half speed too: it counts as half a nominal second.
    assert common.scaled_cpu(1.0 + 2 * at_nominal, 2 * at_nominal,
                             samples) == pytest.approx(0.5)


def test_host_clock_tick_scales_by_median_of_recent_speeds():
    from perfbench import common

    # Timer reads: the first reference run (two), the clock's start,
    # the tick's end and the next tick's start.
    clock = common.HostClock(timer=iter([0.0, 0.001, 0.0, 1.0, 1.0]).__next__)
    # One stalled sample among the last five does not move the median.
    nominal = common.REFERENCE_NOMINAL
    clock.speeds = [nominal / 2] * 3 + [1.0]
    clock._sample = lambda: clock.speeds.append(nominal / 2)
    assert clock.tick() == pytest.approx(500.0)


def test_host_clock_ticks_exclude_the_reference_loop():
    from perfbench import common

    clock = common.HostClock()
    assert clock.tick() >= 0.0
    assert clock.ref_samples == 2
    assert clock.ref_seconds > 0.0


def test_raw_clock_runs_no_reference_loop():
    from perfbench import common

    clock = common.RawClock()
    assert clock.tick() >= 0.0
    assert (clock.speeds, clock.ref_seconds) == ([], 0.0)
