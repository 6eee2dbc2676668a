"""Make the checkout's sources and the benchmark package importable, and
keep ambient cache directories out of every test."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[2]
for path in (str(_ROOT / "src"), str(_ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(autouse=True)
def _isolated_caches(monkeypatch, tmp_path):
    from perfbench import common
    from repro.harness import runner

    monkeypatch.delenv(common.RESULTS_DB_ENV, raising=False)
    monkeypatch.setenv(common.TRACE_STORE_ENV, str(tmp_path / "store"))
    runner.clear_caches()
    yield
    runner.clear_caches()
