"""Shared plumbing: paths, workspace, statistics, set-up probes, guards.

Everything the three workloads have in common lives here: where the
benchmark keeps its private trace store and scratch directories (under
``perfbench/_work`` of the checkout, removed after each run), how a
timing is summarized (median, and p99 only when at least ten samples
lie beyond it), how set-up time is sampled (fresh subprocesses), and
the cache guards that turn a run which measured a cache hit into a
broken run instead of a fast one.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"
EXPECTED_DIR = BENCH_DIR / "expected"

#: Environment variables the package reads (see repro.workloads.store
#: and repro.harness.resultsdb); set explicitly so an ambient value in
#: the caller's shell can never point a run at a shared cache.
TRACE_STORE_ENV = "REPRO_TRACE_CACHE_DIR"
RESULTS_DB_ENV = "REPRO_RESULTS_DB_DIR"

#: Fresh-process set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, bad flags)."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def select_percentile(sorted_values: list, fraction: float):
    """Nearest-rank percentile, refused when the sample cannot support it.

    Same rank rule as ``repro.serve.loadgen.percentile_ns``
    (``ceil(n * fraction)``, 1-based), but a percentile with fewer than
    :data:`MIN_BEYOND` samples beyond its rank raises ``ValueError``:
    with 500 samples, "p99" would be the 5th-largest value, which is an
    outlier, not a percentile.
    """
    n = len(sorted_values)
    exact = fraction if isinstance(fraction, Fraction) else Fraction(str(fraction))
    rank = max(1, math.ceil(n * exact))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{float(exact) * 100:g} of {n} samples has {n - rank} beyond "
            f"it; need at least {MIN_BEYOND}"
        )
    return sorted_values[rank - 1]


def median(values) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Host-speed normalization
# ----------------------------------------------------------------------

#: Iterations of the reference loop per host-speed sample (~0.2 ms).
REFERENCE_ITERATIONS = 400
#: Reference-loop speed, in iterations per CPU second, that normalized
#: CPU times are scaled to (the typical speed of the recorded runner).
REFERENCE_NOMINAL = 2.5e6


def reference_sample(timer=time.process_time) -> float:
    """Seconds on ``timer`` one run of the fixed reference loop takes.

    The loop is interpreter-bound dict and list work, like the
    simulator's hot loop, and is this benchmark's own code, so no
    change to the package under test can speed it up or slow it down.
    """
    started = timer()
    table: dict = {}
    ring = [0] * 1024
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        k = (i * 2654435761) & 1023
        v = table.get(k, 0) + i
        table[k] = v & 0xFFFF
        ring[k] = (ring[k] + v) & 0xFFFFFFFF
        acc ^= ring[(k + 7) & 1023]
    return timer() - started


#: A tick scales by the median speed of this many latest reference
#: samples.  In wall time one sample can be stalled by preemption; the
#: median drops it, and a window this short still follows the host's
#: speed changes, which take seconds.
SPEED_WINDOW = 5


class HostClock:
    """A timer (process CPU time by default) scaled to a nominal host
    speed.

    On a shared host the CPU itself runs fast or slow as neighbours
    come and go, within seconds, so CPU time alone drifts by 20-30 %
    between runs.  This clock runs the reference loop at every
    operation boundary and scales each operation's time by the host
    speed measured around it, on the same timer:
    ``time * speed / REFERENCE_NOMINAL``, with ``speed`` the median of
    the last :data:`SPEED_WINDOW` samples.  A change to the program
    moves the scaled time; a change in host speed moves the program and
    the reference alike and cancels.  The reference's own time is never
    counted as the operation's.
    """

    def __init__(self, timer=time.process_time) -> None:
        self.timer = timer
        self.ref_seconds = 0.0
        #: Reference-loop speed of every sample, iterations per second.
        self.speeds: list[float] = []
        self._sample()
        self._last = timer()

    @property
    def ref_samples(self) -> int:
        return len(self.speeds)

    def _sample(self) -> None:
        spent = reference_sample(self.timer)
        self.ref_seconds += spent
        self.speeds.append(REFERENCE_ITERATIONS / spent)

    def tick(self) -> float:
        """Scaled milliseconds since the previous tick."""
        spent = self.timer() - self._last
        self._sample()
        self._last = self.timer()
        recent = self.speeds[-SPEED_WINDOW:]
        speed = median(recent) if recent else REFERENCE_NOMINAL
        return spent * 1e3 * speed / REFERENCE_NOMINAL


class RawClock(HostClock):
    """:class:`HostClock` without the reference loop: its ticks are
    unscaled process CPU time.  Traced passes use it, because the
    reference loop would run inside the layer spans."""

    def _sample(self) -> None:
        pass


def scaled_cpu(cpu_seconds: float, ref_seconds: float,
               ref_samples: int) -> float:
    """A span's CPU seconds, minus the reference runs inside it, scaled
    by the mean reference speed measured during it.

    The samples are taken once per operation, so the mean weights each
    host speed by the work done at it.  In CPU time a preempted sample
    is not slowed, so no outlier skews the mean.
    """
    speed = ref_samples * REFERENCE_ITERATIONS / ref_seconds
    return (cpu_seconds - ref_seconds) * speed / REFERENCE_NOMINAL


def timed_passes(seconds: float, min_passes: int = 1):
    """Yield pass numbers (from 1) until ``seconds`` have elapsed.

    At least ``min_passes`` passes run.  After that, no new pass starts
    when it would likely end more than half a pass past the deadline.
    """
    deadline = time.perf_counter() + seconds
    number = 0
    while True:
        began = time.perf_counter()
        number += 1
        yield number
        pass_s = time.perf_counter() - began
        if (number >= min_passes
                and time.perf_counter() + pass_s / 2 > deadline):
            return


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

#: End-to-end metrics every workload reports (untraced runs): name ->
#: unit.  An "operation" is the unit of work a caller waits on: one
#: sweep cell, one design-search cell, one serve apply request.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "kinst_per_s": "kinst/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

#: Per-layer metrics (traced runs): name -> unit.  Every workload
#: reports all of them; a layer the workload never enters reads 0.
PER_LAYER = {
    "pipeline.self_ms": "ms",
    "pipeline.sim_cycles": "count",
    "branch.fetch_ms": "ms",
    "branch.resolve_ms": "ms",
    "branch.calls": "count",
    "branch.mispredicts": "count",
    "predictors.predict_ms": "ms",
    "predictors.train_ms": "ms",
    "predictors.probes": "count",
    "composite.self_ms": "ms",
    "composite.predicted_loads": "count",
    "composite.accuracy": "ratio",
    "eves.predict_ms": "ms",
    "eves.train_ms": "ms",
    "memory.load_ms": "ms",
    "memory.fetch_ms": "ms",
    "memory.accesses": "count",
    "memory.l1d_hit_ratio": "ratio",
    "harness.explore.self_ms": "ms",
    "harness.resilient.overhead_ms": "ms",
    "harness.runner.self_ms": "ms",
    "harness.functional.run_ms": "ms",
    "harness.functional_vec.precompute_ms": "ms",
    "harness.functional.loads": "count",
    "harness.resultsdb.store_ms": "ms",
    "harness.resultsdb.lookup_ms": "ms",
    "harness.resultsdb.hits": "count",
    "workloads.trace_acquire_ms": "ms",
    "workloads.store_hits": "count",
    "serve.protocol.codec_us": "us",
    "serve.session.apply_us": "us",
    "serve.durability.append_us": "us",
    "serve.durability.sync_us": "us",
    "serve.durability.fsyncs": "count",
    "serve.durability.wal_bytes": "bytes",
    "serve.standby.ingest_us": "us",
    "serve.standby.polls": "count",
    "serve.standby.replayed_share": "ratio",
    "serve.server.batches": "count",
    "serve.server.mean_batch": "count",
    "serve.server.peak_queue_depth": "count",
    "serve.server.backpressure": "count",
    "serve.router.forwarded": "count",
    "trace.coverage_gap": "ratio",
    "trace.overhead": "ratio",
}


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    #: Output checks and cache guards that did not hold (one line each).
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Informational figures, printed to stderr only.
    info: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def problem(self, text: str) -> None:
        self.problems.append(text)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0

    def as_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def report_operations(outcome: Outcome, kinst_per_s: float,
                      latencies_ms: list, tail_ms: float | None = None
                      ) -> None:
    """Set the throughput and operation-latency end-to-end metrics.

    The tail is the p99 of the operations (refused by
    :func:`select_percentile` when the run has too few), unless the
    workload passes its own ``tail_ms``.
    """
    ordered = sorted(latencies_ms)
    if tail_ms is None:
        tail_ms = select_percentile(ordered, 0.99)
    for name, value in (("kinst_per_s", kinst_per_s),
                        ("op_p50_ms", median(ordered)),
                        ("op_tail_ms", tail_ms)):
        outcome.metric(name, value, END_TO_END[name])
    outcome.info["operations"] = len(ordered)


def report_layers(outcome: Outcome, layers: dict) -> None:
    """Set per-layer metrics; unknown names are a programming error."""
    for name, value in layers.items():
        outcome.metric(name, value, PER_LAYER[name])


def log(message: str) -> None:
    """Progress and information go to stderr; stdout ends with JSON."""
    print(f"# {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Workspace and environment
# ----------------------------------------------------------------------

def check_sources() -> None:
    """Fail fast when the checkout lacks the package under test."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"package sources not found at {SRC / 'repro'}; run the "
            "benchmark from the root of a repository checkout"
        )


def make_workspace(workload: str, seed: int) -> Path:
    """A fresh private directory for one run (removed by the caller)."""
    path = WORK_ROOT / f"{workload}-s{seed}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def child_env(extra: dict | None = None) -> dict:
    """Environment for subprocesses: the checkout's sources first, and no
    ambient cache directories unless ``extra`` names private ones."""
    env = dict(os.environ)
    env.pop(TRACE_STORE_ENV, None)
    env.pop(RESULTS_DB_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(extra or {})
    return env


def host_cpu_counters() -> tuple[int, int]:
    """``(steal, total)`` jiffies of all CPUs from ``/proc/stat``.

    Steal is time the hypervisor ran something else while this machine
    wanted the CPU.  It comes in bursts on shared hosts and inflates
    wall-clock figures, so runs report their steal share.
    """
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()[1:]
    values = [int(v) for v in fields[:8]]
    return values[7], sum(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of another live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Set-up probes
# ----------------------------------------------------------------------

def wall_reference_speed(samples: int = 10) -> float:
    """Median reference-loop iterations per wall second over ``samples``
    runs."""
    return median(
        REFERENCE_ITERATIONS / reference_sample(time.perf_counter)
        for _ in range(samples)
    )


def run_setup_probe(workload: str, seed: int, store: Path) -> float:
    """Scaled wall time of one fresh-process set-up into an empty store.

    The child imports the layers the workload drives and acquires its
    traces through the package's trace store at ``store``: generation,
    the store write, and a load back (see :func:`probe_traces`).  It
    times the reference loop in wall time before and after, and the
    probe's wall time is scaled by that speed like the sweeps' CPU
    time (see :class:`HostClock`).  Raises :class:`BenchError` if the
    probe fails.
    """
    if store.exists():
        shutil.rmtree(store)
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    started = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env({TRACE_STORE_ENV: str(store)}),
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise BenchError(
            f"set-up probe failed ({proc.returncode}): "
            f"{proc.stderr.strip()[-400:]}"
        )
    speed = json.loads(proc.stdout.splitlines()[-1])["reference_speed"]
    return elapsed * speed / REFERENCE_NOMINAL


def probe_traces(triples) -> list:
    """The set-up a probe times: acquire the traces into the (empty)
    store, drop every in-process cache, and load them back."""
    from repro.harness import runner

    acquire_traces(triples)
    runner.clear_caches()
    return acquire_traces(triples)


def acquire_traces(triples) -> list:
    """Acquire traces through the trace store (generating on a miss).

    Called with ``REPRO_TRACE_CACHE_DIR`` naming the run's private
    store.  A store hit loads packed columns; a miss generates, packs
    and writes the entry.
    """
    from repro.workloads.generator import generate_trace

    return [generate_trace(name, length, seed) for name, length, seed in triples]


def store_stats() -> dict:
    """Counters of the ambient trace-store handle (zeros when none)."""
    from repro.workloads import store

    handle = store.active_store()
    if handle is None:
        return {"hits": 0, "misses": 0, "saves": 0, "corrupt": 0}
    return handle.stats.as_dict()


# ----------------------------------------------------------------------
# Cache guards
# ----------------------------------------------------------------------

def baseline_memo_size() -> int:
    """Entries in ``repro.harness.runner``'s baseline-result memo.

    The memo is module state without a public accessor; the guard only
    reads its length, never its contents.
    """
    from repro.harness import runner

    return len(runner._baseline_cache)


def pass_counters() -> dict:
    """Cache counters at the end of a pass (before the next clear)."""
    from repro.harness import resilient

    return {
        "store": store_stats(),
        "db_hits": resilient.db_usage_totals().hits,
    }


def guard_pass(outcome: Outcome, label: str, fresh: bool, counters: dict,
               expected_loads: int) -> None:
    """The cache guards: a pass that measured a cache hit is broken.

    ``fresh`` says the baseline memo was empty when the pass started;
    ``counters`` (from :func:`pass_counters`) must show no results-DB
    hit and exactly ``expected_loads`` trace-store loads, all hits.
    """
    if not fresh:
        outcome.problem(f"{label}: baseline memo not empty at pass start")
    if counters["db_hits"]:
        outcome.problem(
            f"{label}: results DB answered {counters['db_hits']} cell(s)"
        )
    store = counters["store"]
    if (store["hits"] != expected_loads or store["misses"]
            or store["corrupt"]):
        outcome.problem(
            f"{label}: trace store counters {store}, expected "
            f"{expected_loads} hits and no misses"
        )
