"""Trace-replaying load generator and the serve benchmark lanes.

The generator turns a workload trace (store-backed when
``REPRO_TRACE_CACHE_DIR`` is set) into the instruction-event stream a
:class:`~repro.serve.session.PredictorSession` consumes, then drives N
concurrent sessions -- each over its own connection, each with a
pipeline window of in-flight ``apply`` requests -- against a server
while recording per-request latency.  :func:`run_benchmark` packages
four lanes into a ``repro-bench/1`` payload (``BENCH_serve.json``):

* ``serve_single`` -- one session, micro-batching on (baseline);
* ``serve_durable`` -- one durable session (write-ahead log on a
  tempdir, seq-stamped requests), quantifying the WAL overhead
  against ``serve_single``;
* ``serve_concurrent<N>`` -- N sessions, micro-batching on;
* ``serve_concurrent<N>_unbatched`` -- N sessions, one request per
  event-loop tick, the path micro-batching must beat;
* ``serve_sharded1`` / ``serve_sharded<S>`` -- the same concurrent
  load through the sharded tier's router with 1 and S worker shard
  *processes*; their throughput ratio is the tier's scaling factor
  (bounded above by the machine's core count -- the ``environment``
  section records ``cpus`` so the ratio is interpretable);
* ``serve_sharded1_durable`` / ``serve_standby`` -- one durable worker
  shard behind the router, without and with a warm standby streaming
  its WAL; their ratio is the replication tax on the serving path
  (the standby polls ``wal-ship``, so the primary pays disk reads and
  frame encoding on top of the WAL writes it was already doing).

Each lane reports ``median_ns`` (the p50 request latency, which is
what ``benchdiff`` tracks across commits) plus p95/p99 -- the tail is
where failover and migration stalls would show -- throughput in
requests and events per second, and the server's own counters.
"""

from __future__ import annotations

import asyncio
import math
import os
import tempfile
import time
from collections import deque
from fractions import Fraction
from typing import Callable

from repro.harness.benchdiff import make_payload
from repro.isa.instruction import OpClass
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import PredictionServer, ServerConfig
from repro.serve.session import spec_from_name

#: Resubmissions of one chunk after ``backpressure`` before giving up.
MAX_BACKPRESSURE_RETRIES = 200


def trace_to_events(trace) -> list[dict]:
    """Flatten a trace into the session event vocabulary.

    Branches, stores, and loads become explicit events; runs of
    instructions the predictor never sees (ALU work) coalesce into
    ``tick`` events so the epoch clock still advances instruction-for-
    instruction (sessions tick once per explicit event themselves).
    """
    events: list[dict] = []
    ticks = 0
    for inst in trace.instructions:
        op = inst.op
        if op.is_branch:
            if ticks:
                events.append({"k": "t", "n": ticks})
                ticks = 0
            events.append({
                "k": "b", "pc": inst.pc, "taken": bool(inst.taken),
                "cond": op is OpClass.BRANCH_COND,
            })
        elif op is OpClass.STORE:
            if ticks:
                events.append({"k": "t", "n": ticks})
                ticks = 0
            events.append({
                "k": "s", "pc": inst.pc, "addr": inst.addr,
                "size": inst.size, "value": inst.value,
            })
        elif op is OpClass.LOAD:
            if ticks:
                events.append({"k": "t", "n": ticks})
                ticks = 0
            events.append({
                "k": "l", "pc": inst.pc, "addr": inst.addr,
                "size": inst.size, "value": inst.value,
                "pred": inst.predictable,
            })
        else:
            ticks += 1
    if ticks:
        events.append({"k": "t", "n": ticks})
    return events


def percentile_ns(sorted_ns: list[int], fraction: float) -> int:
    """Nearest-rank percentile of an ascending latency list.

    ``rank = ceil(n * fraction)``, computed exactly: the obvious float
    ceil misfires at exact boundaries (``0.7 * 10`` is
    ``7.000000000000001`` in binary floating point, so p70 of 10
    samples would read rank 8 instead of 7).  Routing the fraction
    through its decimal literal (``Fraction(str(...))``) keeps the
    multiply-and-ceil in exact rational arithmetic.
    """
    if not sorted_ns:
        return 0
    rank = math.ceil(len(sorted_ns) * Fraction(str(fraction)))
    return sorted_ns[min(len(sorted_ns), max(1, rank)) - 1]


async def _drive_session(
    host: str,
    port: int,
    session_id: str,
    spec: dict | None,
    workload: dict | None,
    chunks: list[list[dict]],
    pipeline_depth: int,
    latencies: list[int],
    tallies: dict,
    durable: bool = False,
) -> None:
    """Replay one session's chunks with a window of in-flight requests."""
    client = await ServeClient.connect(host, port)
    try:
        if durable:
            open_params: dict = {
                "session": session_id, "spec": spec, "durable": True,
            }
            if workload is not None:
                open_params["workload"] = workload
            opened = await client.request("open", **open_params)
            next_seq = int(opened.get("applied_seq", 1)) + 1
        else:
            await client.open_session(session_id, spec, workload=workload)
            next_seq = None
        window: deque = deque()
        for index, chunk in enumerate(chunks):
            params = {"session": session_id, "events": chunk}
            if next_seq is not None:
                params["seq"] = next_seq + index
            while len(window) >= pipeline_depth:
                await _settle(client, window.popleft(), latencies, tallies)
            window.append(await _launch(client, params))
        while window:
            await _settle(client, window.popleft(), latencies, tallies)
        close_params: dict = {"session": session_id}
        if next_seq is not None:
            close_params["seq"] = next_seq + len(chunks)
        closed = await client.request("close", **close_params)
        tallies["sessions"].append(closed["closed"])
        tallies["stream_errors"] += len(client.stream_errors)
    finally:
        await client.close()


async def _launch(client: ServeClient, params: dict):
    start = time.perf_counter_ns()
    future = await client.submit("apply", **params)
    return start, future, params


async def _settle(
    client: ServeClient,
    inflight,
    latencies: list[int],
    tallies: dict,
) -> None:
    """Await one in-flight request; retry (re-submit) on backpressure."""
    start, future, params = inflight
    for attempt in range(MAX_BACKPRESSURE_RETRIES + 1):
        try:
            await future
        except ServeError as exc:
            if (exc.code == "backpressure"
                    and attempt < MAX_BACKPRESSURE_RETRIES):
                tallies["backpressure_retries"] += 1
                # An explicitly rejected request was never applied or
                # WAL-logged, so resubmitting the same chunk -- with the
                # same seq, in durable mode -- is safe.
                await asyncio.sleep(0.0005 * (attempt + 1))
                start = time.perf_counter_ns()
                future = await client.submit("apply", **params)
                continue
            tallies["errors"] += 1
            code_counts = tallies["error_codes"]
            code_counts[exc.code] = code_counts.get(exc.code, 0) + 1
            return
        latencies.append(time.perf_counter_ns() - start)
        tallies["ok"] += 1
        return


async def run_loadgen(
    host: str,
    port: int,
    events: list[dict],
    spec: dict | None,
    workload: dict | None = None,
    sessions: int = 1,
    events_per_request: int = 256,
    pipeline_depth: int = 4,
    durable: bool = False,
) -> dict:
    """Drive ``sessions`` concurrent replays; returns the lane dict.

    With ``durable=True`` each session opens with ``durable: true`` and
    stamps its ``apply``/``close`` requests with contiguous sequence
    numbers, exercising the server's write-ahead log on every request.
    Requests from one session travel a single connection, so pipelined
    seqs arrive (and execute) in order.
    """
    chunks = [
        events[i:i + events_per_request]
        for i in range(0, len(events), events_per_request)
    ]
    latencies: list[int] = []
    tallies: dict = {
        "ok": 0, "errors": 0, "backpressure_retries": 0,
        "stream_errors": 0, "error_codes": {}, "sessions": [],
    }
    started = time.perf_counter()
    await asyncio.gather(*[
        _drive_session(
            host, port, f"loadgen-{index}", spec, workload,
            chunks, pipeline_depth, latencies, tallies, durable=durable,
        )
        for index in range(sessions)
    ])
    elapsed = time.perf_counter() - started
    ordered = sorted(latencies)
    closed = tallies["sessions"]
    events_applied = sum(s["events"] for s in closed)
    loads = sum(s["loads"] for s in closed)
    predicted = sum(s["predicted_loads"] for s in closed)
    correct = sum(s["correct_predictions"] for s in closed)
    return {
        # benchdiff tracks median_ns: the p50 apply-request latency.
        "median_ns": percentile_ns(ordered, 0.50),
        "p50_ns": percentile_ns(ordered, 0.50),
        "p95_ns": percentile_ns(ordered, 0.95),
        "p99_ns": percentile_ns(ordered, 0.99),
        "max_ns": ordered[-1] if ordered else 0,
        "requests_ok": tallies["ok"],
        "requests_failed": tallies["errors"],
        "error_codes": tallies["error_codes"],
        "backpressure_retries": tallies["backpressure_retries"],
        "stream_errors": tallies["stream_errors"],
        "sessions": sessions,
        "events_per_request": events_per_request,
        "pipeline_depth": pipeline_depth,
        "durable": durable,
        "events_applied": events_applied,
        "loads": loads,
        "predicted_loads": predicted,
        "accuracy": (correct / predicted) if predicted else 0.0,
        "elapsed_s": elapsed,
        "throughput_rps": tallies["ok"] / elapsed if elapsed else 0.0,
        "throughput_eps": events_applied / elapsed if elapsed else 0.0,
    }


async def _run_lane(
    events: list[dict],
    spec: dict | None,
    workload: dict | None,
    sessions: int,
    events_per_request: int,
    pipeline_depth: int,
    micro_batching: bool,
    max_queue: int,
    max_batch: int,
    data_dir: str | None = None,
    fsync_interval: float = 0.02,
) -> dict:
    """One benchmark lane against a fresh in-process server.

    Passing ``data_dir`` turns the lane durable: the server write-ahead
    logs every mutating request, and the load generator seq-stamps them.
    """
    server = PredictionServer(ServerConfig(
        port=0,
        max_queue=max_queue,
        max_batch=max_batch,
        micro_batching=micro_batching,
        max_sessions=sessions + 4,
        request_timeout=None,
        data_dir=data_dir,
        fsync_interval=fsync_interval,
    ))
    await server.start()
    try:
        lane = await run_loadgen(
            "127.0.0.1", server.port, events, spec,
            workload=workload, sessions=sessions,
            events_per_request=events_per_request,
            pipeline_depth=pipeline_depth,
            durable=data_dir is not None,
        )
        counters = server.counters.as_dict()
        lane["server"] = {
            "micro_batching": micro_batching,
            "batches": counters["batches"],
            "mean_batch_size": counters["mean_batch_size"],
            "max_batch_seen": counters["max_batch_seen"],
            "peak_queue_depth": counters["peak_queue_depth"],
            "backpressure": counters["backpressure"],
            "timeouts": counters["timeouts"],
            "protocol_errors": counters["protocol_errors"],
            "internal_errors": counters["internal_errors"],
            "evictions": server.sessions.evictions,
        }
        if server.durability is not None:
            stats = server.durability.stats.as_dict()
            lane["server"]["durability"] = {
                "wal_appends": stats["wal_appends"],
                "wal_bytes": stats["wal_bytes"],
                "wal_fsyncs": stats["wal_fsyncs"],
                "checkpoint_count": stats["checkpoint_count"],
            }
    finally:
        await server.drain()
    return lane


async def _run_sharded_lane(
    events: list[dict],
    spec: dict | None,
    workload: dict | None,
    sessions: int,
    events_per_request: int,
    pipeline_depth: int,
    shards: int,
    max_queue: int,
    max_batch: int,
    standbys: int = 0,
    data_dir: str | None = None,
) -> dict:
    """One benchmark lane through the sharded tier.

    The router runs in-process (same as the other lanes' servers); the
    worker shards are real subprocesses, which is the whole point --
    they are the processes that escape the GIL.  Durability stays off
    by default so the sharded/unsharded ratio isolates compute
    distribution; passing ``data_dir`` turns the load durable
    (seq-stamped, WAL-logged), and ``standbys=1`` additionally streams
    each worker's WAL to a warm standby while the load runs.
    """
    from repro.serve.router import RouterConfig, ShardRouter

    router = ShardRouter(RouterConfig(
        port=0,
        shards=shards,
        data_dir=data_dir,
        standbys=standbys,
        max_queue=max_queue,
        max_batch=max_batch,
        max_sessions=sessions + 4,
        ping_interval=0,
    ))
    await router.start()
    try:
        lane = await run_loadgen(
            "127.0.0.1", router.port, events, spec,
            workload=workload, sessions=sessions,
            events_per_request=events_per_request,
            pipeline_depth=pipeline_depth,
            durable=data_dir is not None,
        )
        lane["shards"] = shards
        lane["standbys"] = standbys
        stats = await router.stats()
        lane["router"] = {
            "counters": stats["router_counters"],
            "ring_points": stats["ring"]["points"],
            "shard_sessions": {
                name: entry.get("stats", {}).get("sessions", {})
                .get("opened", 0)
                for name, entry in stats["shards"].items()
            },
        }
        # Aggregate the workers' counters into the same "server" block
        # the single-process lanes report, so lane shapes stay uniform
        # and total_failures() sees worker-side errors too.
        workers = [
            entry.get("stats", {}).get("counters", {})
            for entry in stats["shards"].values()
        ]
        lane["server"] = {
            "micro_batching": True,
            "batches": sum(w.get("batches", 0) for w in workers),
            "mean_batch_size": (
                sum(w.get("mean_batch_size", 0.0) for w in workers)
                / max(1, len(workers))
            ),
            "max_batch_seen": max(
                (w.get("max_batch_seen", 0) for w in workers), default=0
            ),
            "peak_queue_depth": max(
                (w.get("peak_queue_depth", 0) for w in workers), default=0
            ),
            "backpressure": sum(w.get("backpressure", 0) for w in workers),
            "timeouts": sum(w.get("timeouts", 0) for w in workers),
            "protocol_errors": (
                sum(w.get("protocol_errors", 0) for w in workers)
                + stats["router_counters"]["protocol_errors"]
            ),
            "internal_errors": sum(
                w.get("internal_errors", 0) for w in workers
            ),
            "evictions": sum(
                entry.get("stats", {}).get("sessions", {})
                .get("evictions", 0)
                for entry in stats["shards"].values()
            ),
        }
    finally:
        await router.drain()
    return lane


def run_benchmark(
    workload: str = "gcc2k",
    length: int = 8000,
    seed: int = 0,
    predictor: str = "composite",
    entries: int = 256,
    sessions: int = 16,
    events_per_request: int = 32,
    pipeline_depth: int = 4,
    max_queue: int = 1024,
    max_batch: int = 16,
    shards: int = 4,
    quick: bool = False,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """The ``repro-lvp loadgen`` benchmark: six lanes, one payload.

    The defaults (32 events per request, batches capped at 16) keep the
    per-request compute small enough that scheduling overhead is
    visible, and the batch cap below the total in-flight window
    (``sessions * pipeline_depth``) so the scheduler never swallows a
    whole request wave in one event-loop tick and convoys the clients.
    """
    from repro.workloads.generator import ensure_stored, generate_trace

    if quick:
        length = min(length, 2000)
        sessions = min(sessions, 4)
        events_per_request = min(events_per_request, 128)
        shards = min(shards, 2)
    note = progress or (lambda name: None)

    spec = spec_from_name(predictor, entries)
    ensure_stored(workload, length, seed)  # no-op without a store
    trace = generate_trace(workload, length, seed)
    events = trace_to_events(trace)
    workload_desc = {"name": workload, "length": length, "seed": seed}

    async def _all_lanes() -> dict:
        lanes = {}
        note("serve_single")
        lanes["serve_single"] = await _run_lane(
            events, spec, workload_desc, 1, events_per_request,
            pipeline_depth, True, max_queue, max_batch,
        )
        note("serve_durable")
        with tempfile.TemporaryDirectory(prefix="loadgen-wal-") as wal_dir:
            # Same shape as serve_single, plus the write-ahead log --
            # the two lanes differ only in durability, so their ratio
            # is the WAL overhead.
            lanes["serve_durable"] = await _run_lane(
                events, spec, workload_desc, 1, events_per_request,
                pipeline_depth, True, max_queue, max_batch,
                data_dir=wal_dir,
            )
        concurrent = f"serve_concurrent{sessions}"
        note(concurrent)
        lanes[concurrent] = await _run_lane(
            events, spec, workload_desc, sessions, events_per_request,
            pipeline_depth, True, max_queue, max_batch,
        )
        note(f"{concurrent}_unbatched")
        lanes[f"{concurrent}_unbatched"] = await _run_lane(
            events, spec, workload_desc, sessions, events_per_request,
            pipeline_depth, False, max_queue, max_batch,
        )
        if shards >= 2:
            note("serve_sharded1")
            lanes["serve_sharded1"] = await _run_sharded_lane(
                events, spec, workload_desc, sessions,
                events_per_request, pipeline_depth, 1,
                max_queue, max_batch,
            )
            sharded = f"serve_sharded{shards}"
            note(sharded)
            lanes[sharded] = await _run_sharded_lane(
                events, spec, workload_desc, sessions,
                events_per_request, pipeline_depth, shards,
                max_queue, max_batch,
            )
            # Replication tax: identical durable load through one
            # worker shard, without and with a warm standby streaming
            # its WAL off the same process.
            note("serve_sharded1_durable")
            with tempfile.TemporaryDirectory(
                prefix="loadgen-durable-"
            ) as tier_dir:
                lanes["serve_sharded1_durable"] = await _run_sharded_lane(
                    events, spec, workload_desc, sessions,
                    events_per_request, pipeline_depth, 1,
                    max_queue, max_batch, data_dir=tier_dir,
                )
            note("serve_standby")
            with tempfile.TemporaryDirectory(
                prefix="loadgen-standby-"
            ) as tier_dir:
                lanes["serve_standby"] = await _run_sharded_lane(
                    events, spec, workload_desc, sessions,
                    events_per_request, pipeline_depth, 1,
                    max_queue, max_batch, standbys=1, data_dir=tier_dir,
                )
        return lanes

    benchmarks = asyncio.run(_all_lanes())

    concurrent = benchmarks[f"serve_concurrent{sessions}"]
    unbatched = benchmarks[f"serve_concurrent{sessions}_unbatched"]
    single = benchmarks["serve_single"]
    durable = benchmarks["serve_durable"]
    payload = make_payload(
        "serve",
        {
            "workload": workload,
            "length": length,
            "seed": seed,
            "predictor": predictor,
            "entries": entries,
            "sessions": sessions,
            "events_per_request": events_per_request,
            "pipeline_depth": pipeline_depth,
            "max_queue": max_queue,
            "max_batch": max_batch,
            "shards": shards,
            "quick": quick,
            "timer": "time.perf_counter_ns",
            "statistic": "median (p50 request latency)",
        },
        benchmarks,
    )
    # Scaling ratios only mean something relative to the cores the
    # worker processes could actually spread across; the shared
    # environment fingerprint records ``cpus`` for every suite.
    payload["comparison"] = {
        "description": (
            "micro-batching vs one-request-per-tick on the "
            f"{sessions}-session concurrent lane (>1 means batching wins)"
        ),
        "micro_batching_throughput_speedup": (
            round(concurrent["throughput_eps"]
                  / unbatched["throughput_eps"], 3)
            if unbatched["throughput_eps"] else None
        ),
        "micro_batching_p50_speedup": (
            round(unbatched["p50_ns"] / concurrent["p50_ns"], 3)
            if concurrent["p50_ns"] else None
        ),
        # serve_durable vs serve_single: identical load, write-ahead
        # logging on -- >1 means the WAL costs latency/throughput.
        "durability_p50_overhead": (
            round(durable["p50_ns"] / single["p50_ns"], 3)
            if single["p50_ns"] else None
        ),
        "durability_throughput_cost": (
            round(single["throughput_eps"] / durable["throughput_eps"], 3)
            if durable["throughput_eps"] else None
        ),
    }
    if shards >= 2:
        sharded1 = benchmarks["serve_sharded1"]
        shardedN = benchmarks[f"serve_sharded{shards}"]
        payload["comparison"].update({
            # serve_sharded<S> vs serve_sharded1: same router, more
            # worker processes -- the tier's scaling factor (capped by
            # environment.cpus; on a 1-core box it cannot exceed ~1).
            "sharded_scaling_throughput": (
                round(shardedN["throughput_eps"]
                      / sharded1["throughput_eps"], 3)
                if sharded1["throughput_eps"] else None
            ),
            "sharded_scaling_p99_ratio": (
                round(sharded1["p99_ns"] / shardedN["p99_ns"], 3)
                if shardedN["p99_ns"] else None
            ),
            # Router tax: one shard behind the router vs the in-process
            # concurrent lane (>1 means the extra hop costs throughput).
            "router_overhead_throughput": (
                round(concurrent["throughput_eps"]
                      / sharded1["throughput_eps"], 3)
                if sharded1["throughput_eps"] else None
            ),
        })
        sharded1_durable = benchmarks["serve_sharded1_durable"]
        standby = benchmarks["serve_standby"]
        payload["comparison"].update({
            # serve_sharded1_durable vs serve_standby: same durable
            # load, plus a standby polling wal-ship -- >1 means the
            # replication stream costs serving throughput.
            "standby_shipping_overhead_throughput": (
                round(sharded1_durable["throughput_eps"]
                      / standby["throughput_eps"], 3)
                if standby["throughput_eps"] else None
            ),
            "standby_shipping_p50_overhead": (
                round(standby["p50_ns"] / sharded1_durable["p50_ns"], 3)
                if sharded1_durable["p50_ns"] else None
            ),
        })
    return payload


def total_failures(payload: dict) -> int:
    """Failed requests + protocol errors across every lane."""
    total = 0
    for lane in payload.get("benchmarks", {}).values():
        if not isinstance(lane, dict):
            continue
        total += lane.get("requests_failed", 0)
        total += lane.get("stream_errors", 0)
        total += lane.get("server", {}).get("protocol_errors", 0)
        total += lane.get("server", {}).get("internal_errors", 0)
    return total


__all__ = [
    "MAX_BACKPRESSURE_RETRIES",
    "percentile_ns",
    "run_benchmark",
    "run_loadgen",
    "total_failures",
    "trace_to_events",
]
