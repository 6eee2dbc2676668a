"""In-memory span recorder for the traced benchmark runs.

A span covers one call into a layer: it has a name, a start, an end,
and the span that was open when it started (its parent).  The hot
layers are entered hundreds of thousands of times per sweep, so the
recorder aggregates instead of keeping one record per call: for each
span name it keeps the call count, the total duration, and the total
*self* time -- the duration minus the part of it covered by child
spans.  Calls are synchronous and strictly nested (a wrapper cannot
return before the wrappers it called), so the covered part is exactly
the sum of the children's durations.

Every nanosecond of a root span is either self time of the root or
lies inside exactly one child.  The root spans (one per traced pass)
stand for the benchmark's own code, so their self time is time no
layer metric carries.  :func:`check_coverage` sums the self times of
the layer spans only -- the ones that feed a reported metric -- and
compares the sum against a wall time measured independently of the
recorder.  Work done outside every wrapped layer leaves its time in
the root and shows up as a gap; a layer whose wrapper is no longer
called at all is reported by name, because its span was never
entered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

#: The self times of the layer spans must sum to the independently
#: measured wall time of the traced passes within this share.
COVERAGE_TOLERANCE = 0.01


@dataclass
class SpanTotals:
    """Aggregated calls, duration and self time of one span name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class SpanRecorder:
    """Stack-based recorder: wraps callables, aggregates by span name."""

    clock: Callable[[], int] = time.perf_counter_ns
    totals: dict[str, SpanTotals] = field(default_factory=dict)
    #: Open spans, innermost last: ``[name, start_ns, child_ns]``.
    _stack: list = field(default_factory=list)

    def begin(self, name: str) -> None:
        """Open a span; :meth:`end` closes the innermost open span."""
        self._stack.append([name, self.clock(), 0])

    def end(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        return self._finish(self._stack.pop())

    def _finish(self, frame: list) -> int:
        name, start, child_ns = frame
        duration = self.clock() - start
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = SpanTotals()
        entry.calls += 1
        entry.total_ns += duration
        entry.self_ns += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        stack = self._stack
        clock = self.clock
        finish = self._finish

        def traced(*args, **kwargs):
            stack.append([name, clock(), 0])
            try:
                return fn(*args, **kwargs)
            finally:
                finish(stack.pop())

        traced.__wrapped__ = fn
        return traced

    def self_ns(self, *names: str) -> int:
        """Summed self time of the named spans (absent names count 0)."""
        return sum(
            self.totals[n].self_ns for n in names if n in self.totals
        )

    def total_ns(self, *names: str) -> int:
        """Summed duration of the named spans."""
        return sum(
            self.totals[n].total_ns for n in names if n in self.totals
        )

    def calls(self, *names: str) -> int:
        """Summed call count of the named spans."""
        return sum(self.totals[n].calls for n in names if n in self.totals)

    def as_dict(self) -> dict:
        """JSON-friendly dump of every aggregated span."""
        return {
            name: {
                "calls": entry.calls,
                "total_ms": entry.total_ns / 1e6,
                "self_ms": entry.self_ns / 1e6,
            }
            for name, entry in sorted(self.totals.items())
        }


def wrap_methods(recorder: SpanRecorder, obj, names: dict[str, str]) -> None:
    """Shadow methods of one instance with traced wrappers.

    ``names`` maps method name to span name.  The wrapper is stored as
    an *instance* attribute, so only this object is traced, and code
    that looks the method up afterwards (the timing loop binds its
    callees to locals when it starts) calls the wrapper.
    """
    for method, span_name in names.items():
        setattr(obj, method, recorder.wrap(span_name, getattr(obj, method)))


def check_coverage(
    recorder: SpanRecorder, wall_ns: int, layers, required=(),
    tolerance: float = COVERAGE_TOLERANCE,
) -> tuple[float, list[str]]:
    """Do the self times of the layer spans sum to ``wall_ns``?

    ``layers`` names every span whose self time feeds a reported
    metric; time in any other span (the root spans, a span no metric
    reads) is unattributed.  Every span in ``required`` must have been
    entered at least once.  Returns the unattributed share
    ``|wall - sum(self of layers)| / wall`` and one problem line per
    check that did not hold.
    """
    if wall_ns <= 0:
        return float("inf"), [f"traced wall time is {wall_ns} ns"]
    gap = abs(wall_ns - recorder.self_ns(*layers)) / wall_ns
    problems = [
        f"layer span {name} was never entered"
        for name in required if not recorder.calls(name)
    ]
    if gap > tolerance:
        problems.append(
            f"layer self times leave {gap:.2%} of the traced wall time "
            f"unattributed (tolerance {tolerance:.0%})"
        )
    return gap, problems
