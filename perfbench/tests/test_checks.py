"""Output checks and cache guards count failures instead of passing."""

from __future__ import annotations

import pytest

from perfbench import common, search, sweep


def _sweep_report(cells, stats):
    from repro.harness.resilient import CellOutcome, SweepReport

    return SweepReport(outcomes={
        c.id: CellOutcome(
            id=c.id, status="ok",
            value={
                "speedup": 1.0, "coverage": 0.0, "stats": dict(stats),
                "chunk_ms": [1.0] * (sweep.LENGTH // sweep.INTERVAL),
            },
        )
        for c in cells
    })


@pytest.fixture
def cells_and_stats():
    cells = sweep.build_cells(0)[:3]
    stats = {name: 1000 + i for i, name in enumerate(sweep.STAT_FIELDS)}
    stats["instructions"] = sweep.LENGTH
    return cells, stats


def test_matching_digests_pass(cells_and_stats):
    cells, stats = cells_and_stats
    expected = {c.id: sweep.stats_digest(stats) for c in cells}
    failed, problems, digests = sweep.check_values(
        _sweep_report(cells, stats), cells, expected, None
    )
    assert (failed, problems) == (0, [])
    assert digests == expected


def test_perturbed_expected_digest_counts_as_failed(cells_and_stats):
    cells, stats = cells_and_stats
    expected = {c.id: sweep.stats_digest(stats) for c in cells}
    expected[cells[1].id] = "0" * 16
    failed, problems, _ = sweep.check_values(
        _sweep_report(cells, stats), cells, expected, None
    )
    assert failed == 1
    assert cells[1].id in problems[0]


def test_unrecorded_seed_checks_against_first_pass(cells_and_stats):
    cells, stats = cells_and_stats
    reference = {c.id: sweep.stats_digest(stats) for c in cells}
    drifted = dict(stats, cycles=stats["cycles"] + 1)
    failed, _, _ = sweep.check_values(
        _sweep_report(cells, drifted), cells, None, reference
    )
    assert failed == len(cells)


def test_cell_without_progress_ticks_counts_as_failed(cells_and_stats):
    # A baseline answered by the memo returns the right statistics but
    # never runs the timing loop, so its progress hook never ticks.
    cells, stats = cells_and_stats
    expected = {c.id: sweep.stats_digest(stats) for c in cells}
    report = _sweep_report(cells, stats)
    report.outcomes[cells[0].id].value["chunk_ms"] = []
    failed, problems, _ = sweep.check_values(report, cells, expected, None)
    assert failed == 1
    assert "did not simulate" in problems[0]


def test_memoized_base_cell_has_no_ticks():
    from repro.harness import runner

    spec = dict(sweep.build_cells(0)[0].spec, length=2048)
    assert len(sweep.cell(spec)["chunk_ms"]) == 2
    assert sweep.cell(spec)["chunk_ms"] == []
    runner.clear_caches()
    assert len(sweep.cell(spec)["chunk_ms"]) == 2


def test_errored_cell_counts_as_failed(cells_and_stats):
    from repro.harness.resilient import CellOutcome

    cells, stats = cells_and_stats
    report = _sweep_report(cells, stats)
    report.outcomes[cells[0].id] = CellOutcome(
        id=cells[0].id, status="failed", error="boom"
    )
    failed, problems, _ = sweep.check_values(report, cells, None, None)
    assert failed == 1
    assert "boom" in problems[0]


def _search_pass(report: dict) -> dict:
    return {
        "fresh": True, "report": report, "db_hits": 0,
        "store": {"hits": len(search.traces(0)), "misses": 0, "saves": 0,
                  "corrupt": 0},
    }


def test_perturbed_search_report_fails_every_cell():
    report = {"evaluated_cells": 12, "groups": {}}
    outcome = common.Outcome()
    digest = search._account(outcome, _search_pass(report), None, "pass 1")
    assert (outcome.attempted, outcome.failed) == (12, 0)
    outcome = common.Outcome()
    search._account(outcome, _search_pass(report), "0" * 16, "pass 1")
    assert outcome.failed == 12
    assert digest != "0" * 16
    assert not outcome.correct


def _functional_cells():
    from repro.harness.runner import functional_cell

    return [
        functional_cell(
            f"guard/{name}", name, 2000,
            {"kind": "component", "name": "lvp", "entries": 64},
        )
        for name in ("gcc2k", "mcf")
    ]


def test_cache_guard_fires_on_prepopulated_results_db(monkeypatch, tmp_path):
    from repro.harness import resilient, runner

    monkeypatch.setenv(common.RESULTS_DB_ENV, str(tmp_path / "db"))
    resilient.run_cells(_functional_cells())  # populates the DB
    runner.clear_caches()

    resilient.run_cells(_functional_cells())
    counters = common.pass_counters()
    outcome = common.Outcome()
    common.guard_pass(outcome, "pass 1", True, counters,
                      counters["store"]["hits"])
    assert counters["db_hits"] == 2
    assert any("results DB answered 2" in line for line in outcome.problems)


def test_cache_guard_quiet_on_empty_results_db(monkeypatch, tmp_path):
    from repro.harness import resilient, runner

    common.acquire_traces([("gcc2k", 2000, 0), ("mcf", 2000, 0)])
    runner.clear_caches()
    monkeypatch.setenv(common.RESULTS_DB_ENV, str(tmp_path / "db"))
    resilient.run_cells(_functional_cells())
    counters = common.pass_counters()
    outcome = common.Outcome()
    common.guard_pass(outcome, "pass 1", True, counters,
                      counters["store"]["hits"])
    assert outcome.problems == []


def test_cache_guard_fires_on_memoized_baseline():
    from repro.harness import runner

    runner.baseline_result("gcc2k", 2000, 0)
    fresh = common.baseline_memo_size() == 0
    outcome = common.Outcome()
    common.guard_pass(outcome, "pass 1", fresh, {
        "db_hits": 0,
        "store": {"hits": 0, "misses": 0, "saves": 0, "corrupt": 0},
    }, 0)
    assert any("baseline memo" in line for line in outcome.problems)


def test_cache_guard_fires_on_unexpected_store_traffic():
    outcome = common.Outcome()
    common.guard_pass(outcome, "pass 1", True, {
        "db_hits": 0,
        "store": {"hits": 3, "misses": 1, "saves": 1, "corrupt": 0},
    }, 4)
    assert any("trace store" in line for line in outcome.problems)
