"""``design_search``: an ``explore`` campaign on the functional backend.

Each pass runs ``repro.harness.explore.run_explore`` over the
``table6`` grid (15 heterogeneous allocations in three budget groups)
in ``functional`` mode, ranked by coverage, on a benchmark-defined
scale: the 16 representative workloads at 10 K instructions, one trace
seed (the benchmark seed).  Cells run in-process under the resilient
supervisor with the results database pointed at a directory that is
empty when the pass starts, so every cell is computed and written back.

The predictors run through ``harness/functional_vec``; the cycle
model, memory hierarchy and branch unit are never entered, so a change
confined to those layers should leave this workload unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import ExitStack
from unittest import mock

from perfbench import common
from perfbench.common import Outcome, log
from perfbench.spans import SpanRecorder, check_coverage, wrap_methods

LENGTH = 10_000
GRID = "table6"
METRIC = "coverage"
EXPECTED_FILE = common.EXPECTED_DIR / "design_search.json"
#: A run has at least this many passes (1 008 cells), enough for a p99
#: with ten cells beyond it.
MIN_PASSES = 7

#: The budget group whose winner the object-backend oracle re-scores.
ORACLE_GROUP = "t256"


def scale(seed: int):
    from repro.harness.presets import ExperimentScale
    from repro.workloads.profiles import REPRESENTATIVE_WORKLOADS

    return ExperimentScale(
        name="perfbench", workloads=REPRESENTATIVE_WORKLOADS,
        trace_length=LENGTH, seed=seed,
    )


def traces(seed: int) -> list[tuple[str, int, int]]:
    return [(name, LENGTH, seed) for name, seed in scale(seed).runs()]


def report_digest(report: dict) -> str:
    raw = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def load_expected(seed: int) -> str | None:
    if not EXPECTED_FILE.is_file():
        return None
    return json.loads(EXPECTED_FILE.read_text())["seeds"].get(str(seed))


def search(seed: int) -> dict:
    """One campaign (the measured call)."""
    from repro.harness import explore
    from repro.harness.presets import EXPLORE_GRIDS

    return explore.run_explore(
        EXPLORE_GRIDS[GRID], scale(seed), metric=METRIC, mode="functional"
    )


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def _fresh_db(workspace, index: int) -> None:
    """Point the results DB at a new empty directory."""
    path = workspace / f"db{index}"
    path.mkdir()
    os.environ[common.RESULTS_DB_ENV] = str(path)


def _pass(seed: int, workspace, index: int,
          recorder: SpanRecorder | None) -> dict:
    """One measured pass: fresh caches, an empty DB, trace reload, the
    campaign.  With a recorder the pass is one root span (``pass``)."""
    from repro.harness import resilient, runner

    runner.clear_caches()
    _fresh_db(workspace, index)
    fresh = common.baseline_memo_size() == 0
    started = time.perf_counter_ns()
    if recorder is not None:
        recorder.begin("pass")
    common.acquire_traces(traces(seed))
    wall_started = time.perf_counter()
    # Cells run inline one after another, so the wall time between two
    # completions is one cell's cost under the supervisor, its DB
    # lookup and write-back (fsync included) too.  Wall time, scaled
    # by the reference loop's wall-time speed, so that I/O waits count.
    # Traced passes run no reference loop: it would land inside the
    # supervisor's span.
    latencies: list[float] = []
    clock = common.HostClock(time.perf_counter) if recorder is None else None
    policy = resilient.ExecutionPolicy(
        progress=None if clock is None
        else lambda outcome, done, total: latencies.append(clock.tick())
    )
    with resilient.use_policy(policy):
        report = search(seed)
    wall_s = time.perf_counter() - wall_started
    if recorder is not None:
        recorder.end()
    finished = time.perf_counter_ns()
    ref_seconds = clock.ref_seconds if clock else 0.0
    return {
        "fresh": fresh, "report": report, "latencies": latencies,
        "raw_s": wall_s - ref_seconds,
        # The cells' scaled times cover the pass from the clock's start
        # to the last completion, each scaled by the host speed around
        # it; one mean speed over a pass that spans both of the host's
        # speed modes, or holds one preempted sample, would not be.
        "scaled_s": sum(latencies) / 1e3 if clock else None,
        "pass_ns": finished - started, **common.pass_counters(),
    }


def _account(outcome: Outcome, result: dict, want: str | None,
             label: str) -> str:
    report = result["report"]
    cells = report["evaluated_cells"]
    outcome.attempted += cells
    failed = report.get("failures", {}).get("failed_cells", 0)
    common.guard_pass(outcome, label, result["fresh"], result,
                      len(traces(0)))
    digest = report_digest(report)
    if want is not None and digest != want:
        outcome.problem(f"{label}: ranked report digest {digest} != "
                        f"expected {want}")
        failed = cells
    outcome.failed += failed
    return digest


def _run_passes(outcome, seed, seconds, workspace, want, first_index,
                recorder=None, min_passes=1):
    """Passes for ``seconds`` (see ``common.timed_passes``), traced when
    a recorder is given.

    Returns the per-pass kinst/s in scaled wall time (raw wall time for
    traced passes), the same in raw wall time, the cells' scaled wall
    times, the pass results and the report digest later passes must
    match.
    """
    rates, raw_rates, latencies, results = [], [], [], []
    for number in common.timed_passes(seconds, min_passes):
        index = first_index + len(results)
        result = _pass(seed, workspace, index, recorder)
        label = f"{'traced ' if recorder else ''}pass {number}"
        digest = _account(outcome, result, want, label)
        want = want or digest
        work = result["report"]["evaluated_cells"] * LENGTH / 1e3
        raw_rates.append(work / result["raw_s"])
        rates.append(work / (result["scaled_s"] or result["raw_s"]))
        latencies.extend(result["latencies"])
        results.append(result)
    return rates, raw_rates, latencies, results, want


def oracle_check(outcome: Outcome, seed: int, report: dict) -> None:
    """Re-score one group's winner on the object backend (the oracle
    the vectorized backend is proven against) and compare the mean."""
    from repro.composite import CompositePredictor
    from repro.harness.functional import run_functional
    from repro.harness.presets import EXPLORE_GRIDS
    from repro.harness.runner import workload_trace

    group = report["groups"][ORACLE_GROUP]
    row = group["ranking"][0]
    point = next(
        p for p in EXPLORE_GRIDS[GRID].points if p.label == row["label"]
    )
    the_scale = scale(seed)
    runs = the_scale.runs()[:row["scored_runs"]]
    values = [
        run_functional(
            workload_trace(name, LENGTH, run_seed),
            CompositePredictor(point.config(the_scale)), backend="object",
        ).coverage
        for name, run_seed in runs
    ]
    outcome.attempted += 1
    mean = sum(values) / len(values)
    if mean != row[METRIC]:
        outcome.failed += 1
        outcome.problem(
            f"oracle: {row['label']} object-backend {METRIC} {mean!r} != "
            f"reported {row[METRIC]!r}"
        )


# ----------------------------------------------------------------------
# Traced pass instrumentation
# ----------------------------------------------------------------------

def instrument(recorder: SpanRecorder, counters: dict,
               stack: ExitStack) -> None:
    """Trace the layers a functional explore campaign calls into.

    The cells look these module functions up when they are called, so
    replacing the module attributes reaches them; closing ``stack``
    puts the originals back.
    """
    from repro.composite import CompositePredictor
    from repro.harness import (
        explore,
        functional,
        functional_vec,
        resilient,
        resultsdb,
        runner,
    )

    def patch(owner, name: str, value) -> None:
        stack.enter_context(mock.patch.object(owner, name, value))

    run_functional = recorder.wrap(
        "harness.functional", functional.run_functional
    )

    def counted_run_functional(*args, **kwargs):
        result = run_functional(*args, **kwargs)
        counters["loads"] = counters.get("loads", 0) + result.loads
        return result

    patch(explore, "run_explore", recorder.wrap(
        "harness.explore", explore.run_explore
    ))
    patch(common, "acquire_traces", recorder.wrap(
        "workloads.trace_acquire", common.acquire_traces
    ))
    patch(functional, "run_functional", counted_run_functional)
    patch(functional_vec, "precompute_load_batch", recorder.wrap(
        "harness.functional_vec.precompute",
        functional_vec.precompute_load_batch,
    ))
    patch(runner, "run_functional_cell", recorder.wrap(
        "harness.runner", runner.run_functional_cell
    ))
    patch(resilient, "run_cells", recorder.wrap(
        "harness.resilient", resilient.run_cells
    ))
    build = runner.build_predictor

    def traced_build(spec):
        predictor = build(spec)
        if isinstance(predictor, CompositePredictor):
            for component in predictor.components.values():
                wrap_methods(recorder, component, {
                    "predict": "predictors.predict",
                    "train": "predictors.train",
                    "penalize": "predictors.train",
                    "invalidate": "predictors.train",
                })
        return predictor

    patch(runner, "build_predictor", traced_build)

    # Each pass gets a new DB handle (clear_caches drops it), so its
    # methods are wrapped when the supervisor first asks for it.
    active_db = resultsdb.active_db

    def traced_active_db():
        db = active_db()
        if db is not None and "store_cell" not in vars(db):
            wrap_methods(recorder, db, {
                "store_cell": "harness.resultsdb.store",
                "lookup_cell": "harness.resultsdb.lookup",
            })
        return db

    patch(resilient, "active_db", traced_active_db)


#: Span names whose self times feed a reported metric.
LAYER_SPANS = (
    "harness.explore", "harness.resilient", "harness.runner",
    "harness.functional", "harness.functional_vec.precompute",
    "harness.resultsdb.store", "harness.resultsdb.lookup",
    "workloads.trace_acquire", "predictors.predict", "predictors.train",
)
#: The vector backend never calls the component objects, so the
#: ``predictors.*`` spans stay empty here; every other layer is entered.
REQUIRED_SPANS = LAYER_SPANS[:-2]


def _traced_passes(outcome, seed, seconds, workspace, want, first_index):
    recorder = SpanRecorder()
    counters: dict = {}
    with ExitStack() as stack:
        instrument(recorder, counters, stack)
        _, rates, _, results, _ = _run_passes(
            outcome, seed, seconds, workspace, want, first_index, recorder
        )
    passes = len(results)
    gap, problems = check_coverage(
        recorder, sum(r["pass_ns"] for r in results), LAYER_SPANS,
        required=REQUIRED_SPANS,
    )
    for line in problems:
        outcome.problem(line)

    def ms(*names):
        return recorder.self_ns(*names) / 1e6 / passes

    layers = {
        "predictors.predict_ms": ms("predictors.predict"),
        "predictors.train_ms": ms("predictors.train"),
        "predictors.probes": recorder.calls("predictors.predict") / passes,
        "harness.explore.self_ms": ms("harness.explore"),
        "harness.resilient.overhead_ms": ms("harness.resilient"),
        "harness.runner.self_ms": ms("harness.runner"),
        "harness.functional.run_ms": ms("harness.functional"),
        "harness.functional_vec.precompute_ms": ms(
            "harness.functional_vec.precompute"
        ),
        "harness.functional.loads": counters.get("loads", 0) / passes,
        "harness.resultsdb.store_ms": ms("harness.resultsdb.store"),
        "harness.resultsdb.lookup_ms": ms("harness.resultsdb.lookup"),
        "harness.resultsdb.hits": sum(r["db_hits"] for r in results),
        "workloads.trace_acquire_ms": ms("workloads.trace_acquire"),
        "workloads.store_hits": sum(
            r["store"]["hits"] for r in results
        ) / passes,
        "trace.coverage_gap": gap,
    }
    return rates, layers, recorder


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def probe(seed: int) -> None:
    """One fresh-process set-up (see ``common.run_setup_probe``)."""
    prepare()
    common.probe_traces(traces(seed))


def prepare() -> None:
    """Import the layers this workload drives."""
    import repro.harness.explore  # noqa: F401
    import repro.harness.functional_vec  # noqa: F401
    import repro.harness.runner  # noqa: F401


def run(seed: int, seconds: float, trace: bool, workspace,
        probes: list) -> Outcome:
    outcome = Outcome()
    want = load_expected(seed)
    log(f"design_search: seed {seed}, "
        f"{'recorded report digest' if want else 'no recorded digest; checking passes agree'}")
    if not trace:
        rates, raw_rates, latencies, results, _ = _run_passes(
            outcome, seed, seconds, workspace, want, 0,
            min_passes=MIN_PASSES,
        )
        oracle_check(outcome, seed, results[-1]["report"])
        common.report_operations(outcome, common.median(rates), latencies)
        cells = results[-1]["report"]["evaluated_cells"]
        outcome.info.update({
            "search_cells_per_s": common.median(rates) * 1000 / LENGTH,
            "passes": len(rates), "cells_per_pass": cells,
            "pass_kinst_per_s": [round(r, 2) for r in rates],
            "search_cells_per_s_raw_wall":
                common.median(raw_rates) * 1000 / LENGTH,
            "winners": {
                group: entry["winner"]
                for group, entry in results[-1]["report"]["groups"].items()
            },
        })
        return outcome

    _, rates, _, results, want = _run_passes(
        outcome, seed, seconds / 2, workspace, want, 0
    )
    traced_rates, layers, recorder = _traced_passes(
        outcome, seed, seconds / 2, workspace, want, len(results)
    )
    layers["trace.overhead"] = common.median(rates) / common.median(
        traced_rates
    )
    common.report_layers(outcome, layers)
    outcome.info.update({
        "search_cells_per_s_raw_wall_untraced":
            common.median(rates) * 1000 / LENGTH,
        "search_cells_per_s_raw_wall_traced":
            common.median(traced_rates) * 1000 / LENGTH,
        "spans": recorder.as_dict(),
    })
    return outcome
