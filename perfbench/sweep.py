"""``timing_sweep``: speed-up cells through the cycle model.

Twelve cells per pass -- baseline, composite (homogeneous, 256 entries
per component) and EVES-32KB on ``gcc2k``, ``mcf``, ``leslie3d`` and
``sunspider`` at quick-scale length -- executed in-process by
``repro.harness.resilient.run_cells`` with no journal and no results
database, the path every ``repro-lvp run`` artifact takes.

Each pass starts from ``repro.harness.runner.clear_caches()`` and
reloads the traces from the run's private trace store, so the baseline
cells always simulate (the baseline memo is empty, which a guard
asserts, and each cell's progress ticks prove it) and the
composite/EVES cells reuse those baselines exactly as a real sweep
does.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import time
from contextlib import ExitStack
from unittest import mock

from perfbench import common
from perfbench.common import Outcome, log
from perfbench.spans import SpanRecorder, check_coverage, wrap_methods

WORKLOADS = ("gcc2k", "mcf", "leslie3d", "sunspider")
#: Quick-scale trace length (``repro.harness.presets.QUICK``).
LENGTH = 25_000
PREDICTORS = ("base", "composite", "eves32k")
EXPECTED_FILE = common.EXPECTED_DIR / "timing_sweep.json"

#: An operation is one interval of the timing loop's progress hook:
#: 1 024 simulated instructions (``CoreModel.run``'s default
#: ``interrupt_interval``), 24 per cell.
INTERVAL = 1024
#: A run has at least this many passes (1 152 operations), enough for
#: a p99 with ten beyond it.
MIN_PASSES = 4

#: The clock :func:`cell` ticks at every progress interval.  Traced
#: passes replace it with ``common.RawClock``.
CLOCK = common.HostClock

#: SimResult statistics each cell is checked on.
STAT_FIELDS = (
    "instructions", "cycles", "loads", "predicted_loads",
    "correct_predictions", "value_mispredictions",
    "memory_order_violations", "branch_mispredictions",
)


def traces(seed: int) -> list[tuple[str, int, int]]:
    return [(name, LENGTH, seed) for name in WORKLOADS]


def predictor_spec(kind: str, seed: int) -> dict:
    from repro.composite import CompositeConfig
    from repro.harness.presets import QUICK

    if kind == "base":
        return {"kind": "none"}
    if kind == "composite":
        config = CompositeConfig(
            epoch_instructions=QUICK.epoch_instructions, seed=seed
        ).homogeneous(256)
        return {"kind": "composite", "config": config}
    return {"kind": "eves", "variant": "32kb", "seed": seed}


def build_cells(seed: int) -> list:
    """Baselines first, so each later cell finds its baseline memoized."""
    from repro.harness.resilient import Cell

    return [
        Cell(
            id=f"timing_sweep/{kind}/{name}/s{seed}",
            fn="perfbench.sweep:cell",
            spec={
                "workload": name, "length": LENGTH, "seed": seed,
                "kind": kind, "predictor": predictor_spec(kind, seed),
            },
        )
        for kind in PREDICTORS
        for name in WORKLOADS
    ]


def sim_stats(result) -> dict:
    return {name: getattr(result, name) for name in STAT_FIELDS}


def stats_digest(stats: dict) -> str:
    """Short stable digest of one cell's statistics."""
    raw = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode("ascii")).hexdigest()[:16]


def _cell_value(gain: float, result) -> dict:
    return {
        "speedup": gain,
        "coverage": result.coverage,
        "stats": sim_stats(result),
    }


def cell(spec: dict) -> dict:
    """One sweep cell through the public runner functions.

    The timing loop's progress hook ticks a :data:`CLOCK` every
    1 024 simulated instructions; the value carries those intervals
    (``chunk_ms``) and the clock's reference-loop totals next to the
    checked statistics.  A cell whose result came from a cache has no
    ticks, which :func:`check_values` counts as a failure.
    """
    from repro.harness import runner

    chunks: list[float] = []
    clock = CLOCK()

    def progress(_done: int) -> bool:
        chunks.append(clock.tick())
        return False

    name, length, seed = spec["workload"], spec["length"], spec["seed"]
    if spec["kind"] == "base":
        gain, result = 1.0, runner.baseline_result(
            name, length, seed, interrupt=progress
        )
    else:
        gain, result = runner.speedup(
            name, length, runner.build_predictor(spec["predictor"]), seed,
            interrupt=progress,
        )
    return {
        "speedup": gain,
        "coverage": result.coverage,
        "stats": sim_stats(result),
        "chunk_ms": chunks,
        "ref_seconds": clock.ref_seconds,
        "ref_samples": clock.ref_samples,
    }


# ----------------------------------------------------------------------
# Traced passes
# ----------------------------------------------------------------------

def instrument_core(recorder: SpanRecorder, core) -> None:
    """Trace one ``CoreModel``'s branch unit, memory hierarchy and
    predictor assembly (instance attributes, set before ``run``)."""
    from repro.composite import CompositePredictor
    from repro.pipeline import EvesAdapter

    wrap_methods(recorder, core.branch_unit, {
        "fetch_branch_fields": "branch.fetch",
        "resolve_fields": "branch.resolve",
    })
    wrap_methods(recorder, core.hierarchy, {
        "load_latency": "memory.load",
        "fetch_latency": "memory.fetch",
    })
    predictor = core.predictor
    if isinstance(predictor, CompositePredictor):
        wrap_methods(recorder, predictor, {
            "predict": "composite",
            "validate_and_train": "composite",
            "tick_instructions": "composite",
        })
        for component in predictor.components.values():
            wrap_methods(recorder, component, {
                "predict": "predictors.predict",
                "train": "predictors.train",
                "penalize": "predictors.train",
                "invalidate": "predictors.train",
            })
    elif isinstance(predictor, EvesAdapter):
        wrap_methods(recorder, predictor.eves, {
            "predict": "eves.predict",
            "train": "eves.train",
        })


#: Span names whose self times feed a reported metric; every one is
#: entered on every traced pass.
LAYER_SPANS = (
    "pipeline", "branch.fetch", "branch.resolve", "memory.load",
    "memory.fetch", "predictors.predict", "predictors.train", "composite",
    "eves.predict", "eves.train", "harness.resilient", "harness.runner",
    "workloads.trace_acquire",
)


def instrument(recorder: SpanRecorder, counters: dict,
               stack: ExitStack) -> None:
    """Trace the layers a timing sweep calls into.

    The cells and the runner look these module attributes up when they
    are called, so replacing them reaches every cell; closing ``stack``
    puts the originals back.  ``runner.simulate`` is replaced by the
    same two steps -- build a ``CoreModel``, run it -- with the core's
    layers traced before ``run``.
    """
    from repro.composite import CompositePredictor
    from repro.harness import resilient, runner
    from repro.pipeline import CoreModel

    def patch(owner, name: str, value) -> None:
        stack.enter_context(mock.patch.object(owner, name, value))

    def count(key: str, amount) -> None:
        counters[key] = counters.get(key, 0) + amount

    def traced_simulate(trace, predictor=None, config=None, seed=0,
                        interrupt=None, interrupt_interval=1024,
                        columnar=None):
        core = CoreModel(config=config, predictor=predictor, seed=seed)
        instrument_core(recorder, core)
        result = core.run(
            trace, interrupt=interrupt, interrupt_interval=interrupt_interval,
            columnar=columnar,
        )
        l1d = core.hierarchy.l1d.stats
        count("l1d_accesses", l1d.accesses)
        count("l1d_hits", l1d.hits)
        count("sim_cycles", result.cycles)
        count("branch_mispredicts", result.branch_mispredictions)
        if isinstance(predictor, CompositePredictor):
            count("composite_predicted", result.predicted_loads)
            count("composite_correct", result.correct_predictions)
        return result

    patch(runner, "simulate", recorder.wrap("pipeline", traced_simulate))
    for name in ("baseline_result", "speedup", "build_predictor"):
        patch(runner, name,
              recorder.wrap("harness.runner", getattr(runner, name)))
    patch(runner, "workload_trace", recorder.wrap(
        "workloads.trace_acquire", runner.workload_trace
    ))
    patch(common, "acquire_traces", recorder.wrap(
        "workloads.trace_acquire", common.acquire_traces
    ))
    patch(resilient, "run_cells", recorder.wrap(
        "harness.resilient", resilient.run_cells
    ))
    # The reference loop would run inside the ``pipeline`` span.
    patch(sys.modules[__name__], "CLOCK", common.RawClock)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def load_expected(seed: int) -> dict | None:
    """Recorded per-cell digests for ``seed``, if this seed was recorded."""
    if not EXPECTED_FILE.is_file():
        return None
    recorded = json.loads(EXPECTED_FILE.read_text())
    return recorded["seeds"].get(str(seed))


def check_values(report, cells, expected: dict | None,
                 reference: dict | None) -> tuple[int, list[str], dict]:
    """Failed-cell count, problem lines, and this pass's digests.

    A cell fails when it errored, when it did not simulate (its
    progress hook did not tick once per 1 024 instructions, as when the
    baseline memo answered it), when its statistics digest differs from
    the recorded one (``expected``), or -- for seeds without a
    recording -- when it differs from the run's first pass
    (``reference``).
    """
    failed = 0
    problems = []
    digests = {}
    for c in cells:
        value = report.value(c.id)
        if value is None:
            failed += 1
            outcome = report.outcomes.get(c.id)
            problems.append(
                f"{c.id}: {outcome.error if outcome else 'missing'}"
            )
            continue
        stats = value["stats"]
        digest = digests[c.id] = stats_digest(stats)
        want = (expected or reference or {}).get(c.id)
        ticks = len(value["chunk_ms"])
        if ticks != c.spec["length"] // INTERVAL:
            failed += 1
            problems.append(f"{c.id}: {ticks} progress ticks, expected "
                            f"{c.spec['length'] // INTERVAL}; the cell "
                            "did not simulate")
        elif stats["instructions"] != c.spec["length"]:
            failed += 1
            problems.append(f"{c.id}: simulated {stats['instructions']} "
                            f"of {c.spec['length']} instructions")
        elif want is not None and digest != want:
            failed += 1
            problems.append(f"{c.id}: statistics digest {digest} != "
                            f"expected {want}")
    return failed, problems, digests


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def _pass(seed: int, cells, recorder: SpanRecorder | None) -> dict:
    """One measured pass: fresh caches, trace reload, the sweep.

    With a recorder the pass is one root span (``pass``) holding the
    trace reload and the ``run_cells`` call; the layers inside record
    into it through the wrappers :func:`instrument` installed.
    """
    from repro.harness import resilient, runner

    runner.clear_caches()
    gc.collect()
    fresh = common.baseline_memo_size() == 0
    started = time.perf_counter_ns()
    if recorder is not None:
        recorder.begin("pass")
    common.acquire_traces(traces(seed))
    cpu_started = time.process_time()
    report = resilient.run_cells(cells, resilient.ExecutionPolicy())
    cpu_s = time.process_time() - cpu_started
    if recorder is not None:
        recorder.end()
    finished = time.perf_counter_ns()
    values = report.values().values()
    ref_seconds = sum(v.get("ref_seconds", 0.0) for v in values)
    ref_samples = sum(v.get("ref_samples", 0) for v in values)
    return {
        "fresh": fresh, "report": report,
        "raw_s": cpu_s - ref_seconds,
        "scaled_s": (
            common.scaled_cpu(cpu_s, ref_seconds, ref_samples)
            if ref_samples else None
        ),
        "pass_ns": finished - started, **common.pass_counters(),
    }


def _account(outcome: Outcome, result: dict, cells, expected,
             reference, label: str) -> dict:
    """Fold one pass into ``outcome``; returns its digests."""
    outcome.attempted += len(cells)
    common.guard_pass(outcome, label, result["fresh"], result,
                      len(WORKLOADS))
    failed, problems, digests = check_values(
        result["report"], cells, expected, reference
    )
    outcome.failed += failed
    for line in problems:
        outcome.problem(f"{label}: {line}")
    return digests


def _simulated(report, cells) -> int:
    return sum(
        report.value(c.id)["stats"]["instructions"]
        for c in cells if report.value(c.id) is not None
    )


def _run_passes(outcome, seed, seconds, expected, reference,
                recorder=None, min_passes=1):
    """Passes for ``seconds`` (see ``common.timed_passes``), traced when
    a recorder is given.

    Returns the per-pass kinst/s in scaled CPU time (raw CPU time for
    traced passes, which run no reference loop), the same in raw CPU
    time, the operations' scaled CPU times, the pass results and the
    digests later passes must match.
    """
    cells = build_cells(seed)
    rates, raw_rates, latencies, results = [], [], [], []
    for number in common.timed_passes(seconds, min_passes):
        result = _pass(seed, cells, recorder)
        label = f"{'traced ' if recorder else ''}pass {number}"
        digests = _account(outcome, result, cells, expected, reference,
                           label)
        reference = reference or digests
        report = result["report"]
        simulated = _simulated(report, cells)
        raw_rates.append(simulated / result["raw_s"] / 1e3)
        rates.append(simulated / (result["scaled_s"] or result["raw_s"]) / 1e3)
        for value in report.values().values():
            latencies.extend(value.get("chunk_ms", ()))
        results.append(result)
    return rates, raw_rates, latencies, results, reference


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def probe(seed: int) -> None:
    """One fresh-process set-up (see ``common.run_setup_probe``)."""
    prepare()
    common.probe_traces(traces(seed))


def prepare() -> None:
    """Import the layers this workload drives."""
    import repro.harness.resilient  # noqa: F401
    import repro.harness.runner  # noqa: F401
    import repro.pipeline  # noqa: F401


def run(seed: int, seconds: float, trace: bool, workspace,
        probes: list) -> Outcome:
    outcome = Outcome()
    expected = load_expected(seed)
    log(f"timing_sweep: seed {seed}, "
        f"{'recorded digests' if expected else 'no recorded digests; checking passes agree'}")
    if not trace:
        rates, raw_rates, latencies, results, _ = _run_passes(
            outcome, seed, seconds, expected, None, min_passes=MIN_PASSES
        )
        common.report_operations(outcome, common.median(rates), latencies)
        outcome.info.update({
            "sim_kips_raw_cpu": common.median(raw_rates),
            "passes": len(rates),
            "pass_kinst_per_s": [round(r, 2) for r in rates],
            "pass_kinst_per_s_raw_cpu": [round(r, 2) for r in raw_rates],
            "cells_per_pass": len(build_cells(seed)),
            "speedups": _speedups(results[-1]["report"]),
        })
        return outcome

    # Traced run: an untraced half for the overhead comparison, then
    # traced passes for the per-layer numbers.
    _, rates, _, _, reference = _run_passes(
        outcome, seed, seconds / 2, expected, None
    )
    recorder = SpanRecorder()
    counters: dict = {}
    with ExitStack() as stack:
        instrument(recorder, counters, stack)
        _, traced_rates, _, results, _ = _run_passes(
            outcome, seed, seconds / 2, expected, reference, recorder
        )
    passes = len(results)
    gap, problems = check_coverage(
        recorder, sum(r["pass_ns"] for r in results), LAYER_SPANS,
        required=LAYER_SPANS,
    )
    for line in problems:
        outcome.problem(line)
    layers = sweep_layers(recorder, counters, passes)
    layers["trace.coverage_gap"] = gap
    layers["trace.overhead"] = common.median(rates) / common.median(
        traced_rates
    )
    layers["workloads.store_hits"] = sum(
        r["store"]["hits"] for r in results
    ) / passes
    common.report_layers(outcome, layers)
    outcome.info.update({
        "sim_kips_raw_cpu_untraced": common.median(rates),
        "sim_kips_raw_cpu_traced": common.median(traced_rates),
        "traced_passes": passes, "spans": recorder.as_dict(),
    })
    return outcome


def _speedups(report) -> dict:
    return {
        cid.split("/", 1)[1]: round(value["speedup"], 4)
        for cid, value in report.values().items()
        if not cid.startswith("timing_sweep/base/")
    }


def sweep_layers(recorder: SpanRecorder, counters: dict,
                 passes: int) -> dict:
    """Per-pass layer metrics from one traced run's spans and counters."""
    def ms(*names):
        return recorder.self_ns(*names) / 1e6 / passes

    def per_pass(value):
        return value / passes

    predicted = counters.get("composite_predicted", 0)
    accesses = counters.get("l1d_accesses", 0)
    return {
        "pipeline.self_ms": ms("pipeline"),
        "pipeline.sim_cycles": per_pass(counters.get("sim_cycles", 0)),
        "branch.fetch_ms": ms("branch.fetch"),
        "branch.resolve_ms": ms("branch.resolve"),
        "branch.calls": per_pass(
            recorder.calls("branch.fetch", "branch.resolve")
        ),
        "branch.mispredicts": per_pass(
            counters.get("branch_mispredicts", 0)
        ),
        "predictors.predict_ms": ms("predictors.predict"),
        "predictors.train_ms": ms("predictors.train"),
        "predictors.probes": per_pass(recorder.calls("predictors.predict")),
        "composite.self_ms": ms("composite"),
        "composite.predicted_loads": per_pass(predicted),
        "composite.accuracy": (
            counters.get("composite_correct", 0) / predicted
            if predicted else 0.0
        ),
        "eves.predict_ms": ms("eves.predict"),
        "eves.train_ms": ms("eves.train"),
        "memory.load_ms": ms("memory.load"),
        "memory.fetch_ms": ms("memory.fetch"),
        "memory.accesses": per_pass(
            recorder.calls("memory.load", "memory.fetch")
        ),
        "memory.l1d_hit_ratio": (
            counters.get("l1d_hits", 0) / accesses if accesses else 0.0
        ),
        "harness.resilient.overhead_ms": ms("harness.resilient"),
        "harness.runner.self_ms": ms("harness.runner"),
        "workloads.trace_acquire_ms": ms("workloads.trace_acquire"),
    }
