"""Record the expected outputs the benchmark checks runs against.

Usage, from the root of a checkout::

    python3 perfbench/record.py [--seeds 0-31]

Runs one untraced pass of ``timing_sweep`` and ``design_search`` per
seed and writes, under ``perfbench/expected/``:

* ``timing_sweep.json`` -- per seed, each cell's ``SimResult``
  statistics digest (cycles, committed instructions, loads, predicted
  and correct loads, value mispredictions, memory-order violations,
  branch mispredictions);
* ``design_search.json`` -- per seed, the digest of the ranked
  ``explore`` report.

It also writes ``perfbench/environment.json``: the
``environment_fingerprint()`` of the machine the figures in the README
were measured on.  Re-record only when a change is meant to alter
simulated results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import common, search, sweep  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31", type=parse_seeds)
    args = parser.parse_args(argv)
    common.check_sources()
    workspace = common.make_workspace("record", 0)
    os.environ.pop(common.RESULTS_DB_ENV, None)
    os.environ[common.TRACE_STORE_ENV] = str(workspace / "store")
    timing, reports = {}, {}
    try:
        for seed in args.seeds:
            common.acquire_traces(sweep.traces(seed) + search.traces(seed))
            result = sweep._pass(seed, sweep.build_cells(seed), None)
            outcome = common.Outcome()
            timing[str(seed)] = sweep._account(
                outcome, result, sweep.build_cells(seed), None, None,
                f"seed {seed}",
            )
            result = search._pass(seed, workspace, seed, None)
            reports[str(seed)] = search._account(
                outcome, result, None, f"seed {seed}"
            )
            if outcome.problems or outcome.failed:
                print(f"seed {seed}: {outcome.problems}", file=sys.stderr)
                return 1
            common.log(f"recorded seed {seed}")
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
        os.environ.pop(common.RESULTS_DB_ENV, None)
    common.EXPECTED_DIR.mkdir(exist_ok=True)
    for path, seeds in ((sweep.EXPECTED_FILE, timing),
                        (search.EXPECTED_FILE, reports)):
        path.write_text(json.dumps({"seeds": seeds}, indent=1) + "\n")
    from repro.harness.benchdiff import environment_fingerprint

    (common.BENCH_DIR / "environment.json").write_text(
        json.dumps(environment_fingerprint(), indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
