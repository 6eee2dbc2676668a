"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload timing_sweep --seed 0 \\
        --seconds 20 --trace 0

Workloads: ``timing_sweep`` (cycle model), ``design_search``
(functional backend) and ``serve_replicated`` (serve tier with a warm
standby).  ``--trace 0`` prints the end-to-end metrics of an untraced
run; ``--trace 1`` runs the traced variant and prints the per-layer
metrics.  The last line of stdout is always the result object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Progress, output-check problems and informational figures (simulated
speed-ups, coverage) go to stderr.  Exit status is 0 when a result was
printed, 2 for bad flags or a checkout without the package sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(1, str(_ROOT / "src"))

from perfbench import common  # noqa: E402

WORKLOADS = ("timing_sweep", "design_search", "serve_replicated")


def _module(workload: str):
    if workload == "timing_sweep":
        from perfbench import sweep
        return sweep
    if workload == "design_search":
        from perfbench import search
        return search
    from perfbench import tier
    return tier


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.seconds <= 0:
        parser.error(f"--seconds must be > 0, got {args.seconds}")
    return args


def run(args) -> common.Outcome:
    module = _module(args.workload)
    workspace = common.make_workspace(args.workload, args.seed)
    try:
        probes = [
            common.run_setup_probe(
                args.workload, args.seed, workspace / f"store{i}"
            )
            for i in range(common.SETUP_SAMPLES)
        ]
        os.environ.pop(common.RESULTS_DB_ENV, None)
        os.environ[common.TRACE_STORE_ENV] = str(
            workspace / f"store{common.SETUP_SAMPLES - 1}"
        )
        module.prepare()
        steal, total = common.host_cpu_counters()
        outcome = module.run(
            args.seed, args.seconds, bool(args.trace), workspace, probes
        )
        steal_end, total_end = common.host_cpu_counters()
        outcome.info["host_steal_share"] = round(
            (steal_end - steal) / max(1, total_end - total), 4
        )
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
    if args.trace:
        for name in list(outcome.metrics):
            if name not in common.PER_LAYER:
                del outcome.metrics[name]
        for name, unit in common.PER_LAYER.items():
            outcome.metrics.setdefault(name, (0.0, unit))
    else:
        if "setup_s" not in outcome.metrics:
            outcome.metric("setup_s", common.median(probes), "s")
        if "peak_rss_mb" not in outcome.metrics:
            outcome.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
        missing = set(common.END_TO_END) - set(outcome.metrics)
        if missing:
            raise common.BenchError(f"workload left metrics unset: {missing}")
    return outcome


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.check_sources()
        if args.setup_probe:
            speeds = [common.wall_reference_speed()]
            _module(args.workload).probe(args.seed)
            speeds.append(common.wall_reference_speed())
            print(json.dumps({"reference_speed": sum(speeds) / 2}))
            return 0
        outcome = run(args)
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spans = outcome.info.pop("spans", None)
    if spans is not None:
        path = common.WORK_ROOT / f"spans-{args.workload}-s{args.seed}.json"
        path.write_text(json.dumps(spans, indent=1) + "\n")
        common.log(f"spans written to {path.relative_to(common.ROOT)}")
    for key, value in outcome.info.items():
        common.log(f"{key}: {json.dumps(value)}")
    for line in outcome.problems:
        common.log(f"CHECK FAILED: {line}")
    print(json.dumps(outcome.as_json()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
