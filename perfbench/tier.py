"""``serve_replicated``: the serve tier with a warm standby, under load.

The tier is ``repro-lvp serve --shards 1 --standbys 1 --data-dir
<fresh>``: the router process, one durable primary writing its WAL, and
one warm standby pulling that WAL through ``wal-ship`` and replaying
it.  The load is a closed loop from this process over 2 connections:
2 concurrent durable sessions, each keeping 4 ``apply`` requests of 32
events in flight, each replaying ``gcc2k``.  A lane that finishes its
session closes it, checks its final counters against in-process
``run_functional`` over the same trace, and opens the next one until
the run's time is up.

The traced variant reads the tier's own counters (``stats``,
``standby-status``) at the end of a live load, then replays one
session's request stream through the public functions of each serve
layer in this process -- frame codec, ``PredictorSession.apply_batch``,
``SessionDurability.append``, ``SessionReplica.ingest_chunk`` -- to
time them.  Spans inside the tier's processes are not recorded.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time

from perfbench import common
from perfbench.common import BenchError, Outcome, log
from perfbench.spans import SpanRecorder, check_coverage

WORKLOAD = "gcc2k"
LENGTH = 50_000
PREDICTOR = "composite"
ENTRIES = 256
SESSIONS = 2
PIPELINE_DEPTH = 4
EVENTS_PER_REQUEST = 32
#: Resubmissions of a chunk refused with ``backpressure``.
MAX_RETRIES = 200
#: Throughput is the median over windows of this many seconds.
WINDOW_S = 1.0
#: The tail latency is the median of per-window p99s over windows of
#: this many seconds (each holds thousands of requests), so one stall
#: moves one window's p99, not the run's.
TAIL_WINDOW_S = 5.0
#: Peak RSS is read when this many sessions have closed: a fixed amount
#: of work however fast the host runs (the standby keeps every closed
#: session's replica, so the tier's RSS grows with sessions served).
RSS_AT_SESSIONS = 4
#: ``serve`` CLI defaults the in-process replay mirrors.
FSYNC_INTERVAL = 0.02
CHECKPOINT_EVERY = 200
#: ``wal-ship`` byte budget per poll, used for the replay's chunks.
SHIP_BYTES = 192 * 1024
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def traces(seed: int) -> list[tuple[str, int, int]]:
    return [(WORKLOAD, LENGTH, seed)]


def spec() -> dict:
    from repro.serve.session import spec_from_name

    return spec_from_name(PREDICTOR, ENTRIES)


def chunks_of(events: list) -> list[list]:
    return [
        events[i:i + EVENTS_PER_REQUEST]
        for i in range(0, len(events), EVENTS_PER_REQUEST)
    ]


def instructions_in(chunk: list) -> int:
    """Trace instructions one ``apply`` chunk stands for."""
    return sum(event["n"] if event["k"] == "t" else 1 for event in chunk)


def reference_counters(trace) -> dict:
    """In-process ``run_functional`` over the trace (the oracle)."""
    from repro.harness.functional import run_functional
    from repro.harness.runner import build_predictor
    from repro.serve.session import resolve_spec

    result = run_functional(trace, build_predictor(resolve_spec(spec())))
    return {
        "loads": result.loads,
        "predicted_loads": result.predicted_loads,
        "correct_predictions": result.correct_predictions,
    }


COUNTERS = ("loads", "predicted_loads", "correct_predictions")


def final_counters(snapshot: dict) -> dict:
    return {key: snapshot[key] for key in COUNTERS}


def session_counters(session) -> dict:
    return {key: getattr(session, key) for key in COUNTERS}


# ----------------------------------------------------------------------
# The tier's processes
# ----------------------------------------------------------------------

class Tier:
    """One ``repro-lvp serve`` tier process tree, started and stopped."""

    def __init__(self, workspace, index: int, store) -> None:
        self.dir = workspace / f"tier{index}"
        self.dir.mkdir()
        self.log_path = workspace / f"tier{index}.out"
        self.err_path = workspace / f"tier{index}.err"
        self.store = store
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port: int | None = None
        self.start_s = 0.0
        self.member_pids: list[int] = []

    def start(self) -> float:
        """Launch and wait for the first answered ``ping``; returns the
        elapsed seconds."""
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--shards", "1", "--standbys", "1",
            "--data-dir", str(self.dir), "--port", "0",
        ]
        started = time.perf_counter()
        with open(self.log_path, "wb") as out, \
                open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=common.ROOT, stdout=out, stderr=err,
                env=common.child_env({common.TRACE_STORE_ENV: str(self.store)}),
            )
        deadline = started + START_TIMEOUT_S
        while self.port is None:
            if self.proc.poll() is not None:
                raise BenchError(
                    f"serve tier exited {self.proc.returncode}: "
                    f"{self.err_path.read_text()[-400:]}"
                )
            if time.perf_counter() > deadline:
                raise BenchError("serve tier did not start in time")
            for line in self.log_path.read_text().splitlines():
                if line.startswith("serving on "):
                    self.port = int(line.rsplit(":", 1)[1])
                    break
            else:
                time.sleep(0.01)
        asyncio.run(self._ping_until_answered(deadline, started))
        return self.start_s

    async def _ping_until_answered(self, deadline: float,
                                   started: float) -> None:
        """Ping until answered (the set-up clock stops there), then note
        the worker and standby pids so :meth:`stop` can wait for them."""
        from repro.serve.client import ServeClient

        while True:
            try:
                client = await ServeClient.connect(self.host, self.port)
                try:
                    await client.ping()
                    self.start_s = time.perf_counter() - started
                    tier = await client.request("shards")
                    self.member_pids = [
                        entry["pid"]
                        for group in ("shards", "standbys")
                        for entry in tier[group].values() if entry["pid"]
                    ]
                    return
                finally:
                    await client.close()
            except OSError:
                if time.perf_counter() > deadline:
                    raise BenchError("serve tier never answered ping")
                await asyncio.sleep(0.01)

    def stop(self) -> None:
        """SIGTERM the router (it drains its worker and standby), then
        make sure every process of the tree has exited."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in self.member_pids:
            _reap(pid)
        self.proc = None


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False


def _reap(pid: int) -> None:
    """Wait for a tier member (not our child) to exit; kill a straggler."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while _alive(pid):
        if time.monotonic() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + STOP_TIMEOUT_S
        time.sleep(0.02)


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------

class LoadResult:
    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        #: (ack time since load start, instructions acked, latency ms)
        self.acks: list[tuple[float, int, float]] = []
        self.requests = 0
        self.failed = 0
        self.retries = 0
        self.sessions = 0
        self.elapsed = 0.0
        self.problems: list[str] = []
        #: Tier pids, and their summed VmHWM once RSS_AT_SESSIONS closed.
        self.tier_pids: list[int] = []
        self.rss_by_process: list[float] | None = None

    def session_closed(self) -> None:
        self.sessions += 1
        if self.sessions == RSS_AT_SESSIONS:
            self.sample_rss()

    def sample_rss(self) -> None:
        self.rss_by_process = [common.vm_hwm_mb(p) for p in self.tier_pids]


async def _settle(client, inflight, load: LoadResult, t0: float) -> bool:
    """Await one apply (resubmitting on backpressure); True when acked."""
    from repro.serve.client import ServeError

    start, future, params, instructions = inflight
    for attempt in range(MAX_RETRIES + 1):
        try:
            await future
        except ServeError as exc:
            if exc.code == "backpressure" and attempt < MAX_RETRIES:
                load.retries += 1
                await asyncio.sleep(0.0005 * (attempt + 1))
                future = await client.submit("apply", **params)
                continue
            load.failed += 1
            load.problems.append(f"apply {params['session']} seq "
                                 f"{params['seq']}: {exc.code}")
            return False
        now = time.perf_counter()
        latency = (now - start) * 1e3
        load.latencies_ms.append(latency)
        load.acks.append((now - t0, instructions, latency))
        return True
    return False


async def _lane(host, port, lane: int, chunks, workload, reference,
                load: LoadResult, t0: float, deadline: float) -> None:
    from repro.serve.client import ServeClient

    counts = [instructions_in(chunk) for chunk in chunks]
    client = await ServeClient.connect(host, port)
    try:
        index = 0
        while time.perf_counter() < deadline:
            session = f"bench-{lane}-{index}"
            index += 1
            opened = await client.request(
                "open", session=session, spec=spec(), durable=True,
                workload=workload,
            )
            seq = int(opened.get("applied_seq", 1)) + 1
            window: list = []
            acked = 0
            for k, chunk in enumerate(chunks):
                while len(window) >= PIPELINE_DEPTH:
                    acked += await _settle(client, window.pop(0), load, t0)
                params = {"session": session, "events": chunk, "seq": seq + k}
                started = time.perf_counter()
                future = await client.submit("apply", **params)
                window.append((started, future, params, counts[k]))
                load.requests += 1
            while window:
                acked += await _settle(client, window.pop(0), load, t0)
            closed = await client.request(
                "close", session=session, seq=seq + len(chunks)
            )
            load.session_closed()
            final = final_counters(closed["closed"])
            if final != reference:
                load.failed += acked
                load.problems.append(
                    f"{session}: final {final} != run_functional {reference}"
                )
        if client.stream_errors:
            load.problems.append(f"lane {lane}: stream errors "
                                 f"{client.stream_errors[:3]}")
    finally:
        await client.close()


async def _drive(tier: Tier, chunks, workload, reference,
                 seconds: float) -> LoadResult:
    load = LoadResult()
    load.tier_pids = [tier.proc.pid] + tier.member_pids
    t0 = time.perf_counter()
    deadline = t0 + seconds
    await asyncio.gather(*[
        _lane(tier.host, tier.port, lane, chunks, workload, reference,
              load, t0, deadline)
        for lane in range(SESSIONS)
    ])
    load.elapsed = time.perf_counter() - t0
    if load.rss_by_process is None:
        load.sample_rss()
    return load


def windowed_rate(acks, elapsed: float) -> float:
    """Median over whole ``WINDOW_S`` windows of instructions acked per
    second (the partial last window is dropped)."""
    windows = int(elapsed // WINDOW_S)
    if windows < 1:
        raise BenchError(f"load ran {elapsed:.2f}s, under one window")
    totals = [0] * windows
    for at, instructions, _ in acks:
        slot = int(at // WINDOW_S)
        if slot < windows:
            totals[slot] += instructions
    return common.median(totals) / WINDOW_S


def windowed_tail(acks, elapsed: float) -> tuple[float, int]:
    """``(median of per-window p99 latencies, windows)``; windows of
    ``TAIL_WINDOW_S`` whose sample cannot support a p99 are skipped."""
    windows: dict[int, list[float]] = {}
    for at, _, latency in acks:
        slot = int(at // TAIL_WINDOW_S)
        if (slot + 1) * TAIL_WINDOW_S <= elapsed:
            windows.setdefault(slot, []).append(latency)
    tails = []
    for latencies in windows.values():
        try:
            tails.append(common.select_percentile(sorted(latencies), 0.99))
        except ValueError:
            continue
    if not tails:
        raise BenchError("no load window held enough requests for a p99")
    return common.median(tails), len(tails)


async def _tier_counters(tier: Tier) -> dict:
    """``stats`` from the router and ``standby-status`` from the standby."""
    from repro.serve.client import ServeClient

    client = await ServeClient.connect(tier.host, tier.port)
    try:
        stats = await client.stats()
    finally:
        await client.close()
    (standby,) = stats["standbys"].values()
    replica = await ServeClient.connect(tier.host, standby["port"])
    try:
        status = await replica.request("standby-status")
    finally:
        await replica.close()
    return {"stats": stats, "standby": status}


def tier_layers(counters: dict) -> dict:
    stats = counters["stats"]
    (shard,) = stats["shards"].values()
    worker = shard["stats"]
    served = worker["counters"]
    wal = worker["durability"]
    replicas = counters["standby"]["replicas"]
    return {
        "serve.durability.fsyncs": wal["wal_fsyncs"],
        "serve.durability.wal_bytes": wal["wal_bytes"],
        "serve.standby.polls": counters["standby"]["polls"],
        "serve.standby.replayed_share": (
            replicas["records"] / wal["wal_appends"]
            if wal["wal_appends"] else 0.0
        ),
        "serve.server.batches": served["batches"],
        "serve.server.mean_batch": served["mean_batch_size"],
        "serve.server.peak_queue_depth": served["peak_queue_depth"],
        "serve.server.backpressure": served["backpressure"],
        "serve.router.forwarded": stats["router_counters"]["forwarded"],
    }


# ----------------------------------------------------------------------
# In-process replay of one session's request stream
# ----------------------------------------------------------------------

#: The replay's own driver code -- building each request, reading the
#: WAL segments for the standby, and the wrappers' call overhead --
#: stays in the root span: about 1.1-1.3 % of the replay on a 2-vCPU
#: runner.  Its layer self times must cover the rest within this share.
REPLAY_TOLERANCE = 0.03

#: Span names of the in-process replay whose self times feed a
#: reported metric; every one is entered.
LAYER_SPANS = (
    "serve.protocol.codec", "serve.session.apply",
    "serve.durability.append", "serve.durability.sync",
    "serve.standby.ingest",
)


def replay(workspace, name: str, trace, chunks, workload,
           recorder: SpanRecorder | None) -> tuple[float, dict]:
    """Replay one session through codec, session, WAL and standby.

    Returns ``(wall seconds, final counters of the session and of the
    standby replica)``.  With a recorder, each layer call is a span
    inside one root span, ``replay``: :data:`LAYER_SPANS`, where
    ``serve.durability.sync`` is the WAL's fsync cadence, checkpoints
    and final flush (``after_record``, ``maybe_fsync``, ``close_all``).
    """
    from repro.serve import protocol
    from repro.serve.durability import DurabilityManager
    from repro.serve.session import (
        SEQ_CACHE_BYTES,
        SEQ_CACHE_SIZE,
        PredictorSession,
        SeqTracker,
    )
    from repro.serve.standby import SessionReplica

    def traced(span: str, fn):
        return fn if recorder is None else recorder.wrap(span, fn)

    root = workspace / name
    manager = DurabilityManager(
        root / "primary", fsync_interval=FSYNC_INTERVAL,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    session_id = "replay"
    started = time.perf_counter()
    if recorder is not None:
        recorder.begin("replay")
    session = PredictorSession(
        spec(), session_id, initial_memory=trace.initial_memory
    )
    handle = manager.create(session_id, spec(), workload, SeqTracker())
    encode = traced("serve.protocol.codec", protocol.encode_frame)
    decode = traced("serve.protocol.codec", protocol.decode_body)
    append = traced("serve.durability.append", handle.append)
    apply_batch = traced("serve.session.apply", session.apply_batch)
    after_record = traced("serve.durability.sync", handle.after_record)
    for k, chunk in enumerate(chunks):
        frame = encode(protocol.REQUEST, {
            "id": k + 1, "op": "apply", "session": session_id,
            "seq": k + 2, "events": chunk,
        })
        body = decode(protocol.REQUEST, frame[5:])
        append(k + 2, "apply", {"events": body["events"]})
        apply_batch(body["events"])
        after_record(session)
    traced("serve.durability.sync", handle.maybe_fsync)(force=True)
    traced("serve.durability.sync", manager.close_all)()

    replica = SessionReplica(
        session_id, root / "standby", SEQ_CACHE_SIZE, SEQ_CACHE_BYTES
    )
    ingest = traced("serve.standby.ingest", replica.ingest_chunk)
    segments = sorted(manager.session_dir(session_id).glob("wal-*.log"))
    for segment_path in segments:
        segment = int(segment_path.stem.split("-")[1])
        data = segment_path.read_bytes()
        for offset in range(0, len(data), SHIP_BYTES):
            ingest(segment, offset, data[offset:offset + SHIP_BYTES])
    replica.close_files()
    if recorder is not None:
        recorder.end()
    wall = time.perf_counter() - started
    return wall, {
        "session": session_counters(session),
        "replica": session_counters(replica.session),
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def probe(seed: int) -> None:
    """One fresh-process set-up of the load generator's side."""
    from repro.serve.loadgen import trace_to_events

    prepare()
    (trace,) = common.probe_traces(traces(seed))
    trace_to_events(trace)


def prepare() -> None:
    """Import the layers this workload drives."""
    import repro.serve.client  # noqa: F401
    import repro.serve.loadgen  # noqa: F401


def run(seed: int, seconds: float, trace_mode: bool, workspace,
        probes: list) -> Outcome:
    from repro.serve.loadgen import trace_to_events

    outcome = Outcome()
    store = os.environ[common.TRACE_STORE_ENV]
    fresh = common.baseline_memo_size() == 0
    acquire_started = time.perf_counter()
    (trace,) = common.acquire_traces(traces(seed))
    acquire_ms = (time.perf_counter() - acquire_started) * 1e3
    # The one trace comes from the private store, and nothing here
    # consulted a results DB (the tier runs with none configured).
    common.guard_pass(outcome, "set-up", fresh, common.pass_counters(), 1)
    events = trace_to_events(trace)
    chunks = chunks_of(events)
    workload = {"name": WORKLOAD, "length": LENGTH, "seed": seed}
    reference = reference_counters(trace)
    log(f"serve_replicated: seed {seed}, {len(events)} events in "
        f"{len(chunks)} requests per session")

    tiers = [Tier(workspace, i, store) for i in range(common.SETUP_SAMPLES)]
    try:
        for tier in tiers[:-1]:
            tier.start()
            tier.stop()
        live = tiers[-1]
        live.start()
        # An untraced load spans at least two tail windows; the traced
        # run reports no end-to-end metrics and loads for half the time.
        load = asyncio.run(_drive(
            live, chunks, workload, reference,
            seconds / 2 if trace_mode else max(seconds, 2 * TAIL_WINDOW_S),
        ))
        counters = asyncio.run(_tier_counters(live))
    finally:
        for tier in tiers:
            tier.stop()

    outcome.attempted += load.requests
    outcome.failed += load.failed
    for line in load.problems:
        outcome.problem(line)
    if not load.sessions:
        outcome.problem("no session completed")
    rate = windowed_rate(load.acks, load.elapsed) / 1000
    outcome.info.update({
        "serve_eps": rate * 1000 * len(events) / len(trace),
        "sessions_completed": load.sessions,
        "backpressure_retries": load.retries,
        "tier_start_s": [round(t.start_s, 3) for t in tiers],
        "peak_rss_mb_router_primary_standby": [
            round(mb, 1) for mb in load.rss_by_process
        ],
    })
    if not trace_mode:
        setup = [p + t.start_s for p, t in zip(probes, tiers)]
        outcome.metric("setup_s", common.median(setup), "s")
        outcome.metric("peak_rss_mb", sum(load.rss_by_process), "MB")
        tail, windows = windowed_tail(load.acks, load.elapsed)
        common.report_operations(
            outcome, rate, load.latencies_ms, tail_ms=tail
        )
        outcome.info["op_tail_windows"] = windows
        return outcome

    layers = tier_layers(counters)
    untraced_wall, plain = replay(workspace, "replay0", trace, chunks,
                                  workload, None)
    recorder = SpanRecorder()
    traced_wall, final = replay(workspace, "replay1", trace, chunks,
                                workload, recorder)
    for label, counts in (("untraced", plain), ("traced", final)):
        for part in ("session", "replica"):
            outcome.attempted += 1
            if counts[part] != reference:
                outcome.failed += 1
                outcome.problem(f"{label} replay {part}: {counts[part]} != "
                                f"run_functional {reference}")

    def per_call_us(span: str) -> float:
        calls = recorder.calls(span)
        return recorder.total_ns(span) / 1e3 / calls if calls else 0.0

    gap, problems = check_coverage(
        recorder, int(traced_wall * 1e9), LAYER_SPANS, required=LAYER_SPANS,
        tolerance=REPLAY_TOLERANCE,
    )
    for line in problems:
        outcome.problem(line)
    layers.update({
        "serve.protocol.codec_us":
            recorder.total_ns("serve.protocol.codec") / 1e3 / len(chunks),
        "serve.session.apply_us": per_call_us("serve.session.apply"),
        "serve.durability.append_us": per_call_us("serve.durability.append"),
        "serve.durability.sync_us":
            recorder.total_ns("serve.durability.sync") / 1e3 / len(chunks),
        "serve.standby.ingest_us": per_call_us("serve.standby.ingest"),
        "workloads.store_hits": common.store_stats()["hits"],
        "workloads.trace_acquire_ms": acquire_ms,
        "trace.overhead": traced_wall / untraced_wall,
        "trace.coverage_gap": gap,
    })
    common.report_layers(outcome, layers)
    outcome.info["spans"] = recorder.as_dict()
    return outcome
