"""``BENCHMARK.json`` and the metric registry agree; a checkout without
the package sources fails fast without printing a result."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from perfbench import common

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_registry():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == common.END_TO_END
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_metrics_match_registry():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == common.PER_LAYER


def test_workloads_match_runner():
    from perfbench.run import WORKLOADS

    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == WORKLOADS


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        common.BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "timing_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "sources not found" in proc.stderr
