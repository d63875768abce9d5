"""The three workloads: compile_table2, serve_warm, serve_mixed.

Each workload function takes a :class:`Run` (seed, size, trace flag,
work directory) and returns a :class:`Outcome`: the metric values, the
request counts, and whether every output passed its checks.  Untraced
runs report the end-to-end metrics; traced runs repeat the timed phase
with spans on and report the per-layer metrics.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import inputs
import tracing
from served import Server, histogram_delta, program_env, quantile_ms, vm_hwm_mb

import repro.qasm as qasm
from repro import compile_circuit
from repro.engine.cache import cache_stats, clear_cache, get_cached_device
from repro.service.request import CompileRequest
from repro.service.store import ShardedResultStore, StoredResult
from repro.verify import compliance, equivalence

#: Closed-loop serve_warm requests per second of ``--seconds``.
WARM_REQUESTS_PER_S = 30
#: The fixed offered load of serve_mixed, requests per second of wall
#: time; a run sends it for ``--seconds``.  On the 2-core host it was
#: measured on, queue wait starts to grow at about 31 requests/s of
#: this mix and the server and its workers keep 38% of the two cores
#: busy at 16 (see README.md): about half of the server's capacity.
MIXED_RATE_PER_S = 16.0
#: Blocks of :data:`inputs.BLOCK` per open-loop segment (24 requests,
#: 1.5 s): short enough that the host speed probed around a segment
#: holds through it.
MIXED_SEGMENT_BLOCKS = 3
#: Probe runs (per core) on each side of an open-loop segment.
SEGMENT_PROBES = 9
#: Probe runs on each side of an in-process request.
REQUEST_PROBES = 5
#: compile_table2 passes per run; each request reports its median.
COMPILE_PASSES = 3
#: Times set-up is repeated per run; the median is reported.
SETUP_REPEATS = 5
#: Spans the per-layer table counts as layers.  The per-request root
#: span and the pipeline around the passes are not layers: their self
#: time is what no layer accounts for.
LAYERS = (
    "qasm.parse", "qasm.emit", "circuits.decompose", "hardware.distance",
    "circuits.flatdag_build", "core.layout", "core.route", "core.emit_circuit",
    "verify.compliance", "verify.equivalence", "service.request.decode",
    "service.request.from_payload", "service.request.fingerprint",
    "service.store.get", "service.store.put", "service.response.encode",
)
#: The accounting gate on compile_table2: layers must explain the time.
COVERED_SHARE_FLOOR = 0.95
#: Median seconds of one :func:`probe_work` on the reference host (a
#: 2-core Python 3.11 container).  Timed metrics are scaled by
#: ``PROBE_REFERENCE_S / probe time`` measured next to them.
PROBE_REFERENCE_S = 0.005


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    workdir: str
    #: Shrinks every workload to a few requests (the self-test).
    tiny: bool = False


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.problems.append(message)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------


def probe_work() -> int:
    """A fixed pure-Python kernel (dict and list traffic, a sort) that
    shares no code with the program."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(20000):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) % 13
    values = [(i * 2654435761) & 0xFFFF for i in range(10000)]
    values.sort()
    return acc + values[-1]


def probe_times(repeats: int) -> List[float]:
    """Seconds of each of ``repeats`` :func:`probe_work` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        probe_work()
        times.append(time.perf_counter() - t0)
    return times


class Speed:
    """Host speed relative to the reference host, sampled next to the
    measured work.

    Shared hosts change speed by up to 2x over seconds (frequency and
    neighbour load), which no run length averages away.  Every timed
    metric is therefore reported at reference speed: its wall time
    multiplied by the factor probed right before and after it, with
    nothing else of the benchmark's running.  A change to the program
    moves the work and not the probe, so it still shows in full.

    With a two-process ``pool`` every probe runs on both cores at once:
    the host's speed with every core busy, as an open loop of several
    processes has it.  An otherwise idle host runs one probe faster
    than it runs a loaded server.
    """

    def __init__(self, pool=None) -> None:
        self.pool = pool
        #: (wall-clock time, seconds) of every probe.
        self.stamps: List[Tuple[float, float]] = []

    def probe(self, repeats: int = 3) -> float:
        """Median seconds of ``repeats`` probe runs (recorded)."""
        if self.pool is None:
            times = probe_times(repeats)
        else:
            times = sum(self.pool.map(probe_times, [repeats, repeats], 1), [])
        median = statistics.median(times)
        self.stamps.append((time.time(), median))
        return median

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiplier taking a wall time measured between two probes to
        reference speed."""
        return PROBE_REFERENCE_S / ((before + after) / 2)

    def run_factor(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(t for _, t in self.stamps)


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------


def compile_item(item: inputs.Item, circuit=None):
    """One in-process request: QASM text -> parse -> compile -> emit.

    Returns ``(result, routed_qasm, ok)``; ``ok`` is the verdict of the
    hardware-compliance and structural-equivalence checks.  A caller
    that already parsed the text passes ``circuit``.
    """
    coupling = get_cached_device(item.device)
    if circuit is None:
        circuit = qasm.parse_qasm(item.qasm)
    result = compile_circuit(circuit, coupling, seed=0)
    routed = qasm.emit_qasm(result.physical_circuit())
    ok = compliance.is_hardware_compliant(result.physical_circuit(), coupling)
    routing = result.routing
    logical = equivalence.extract_logical_circuit(
        routing.circuit,
        routing.initial_layout,
        result.original_circuit.num_qubits,
        routing.swap_positions,
    )
    ok = ok and equivalence.structurally_equivalent(result.original_circuit, logical)
    return result, routed, ok


def reference(items: Sequence[inputs.Item], out: Outcome) -> Dict[str, Tuple[str, int, int]]:
    """In-process compiles of ``items``: label -> (qasm, g_add, depth)."""
    expected = {}
    for item in items:
        result, routed, ok = compile_item(item)
        if not ok:
            out.fail(f"in-process result for {item.label} failed verification")
        expected[item.label] = (routed, result.added_gates, result.routed_depth)
    return expected


def check_served(
    snap: Dict[str, object], item: inputs.Item, expected: Dict[str, Tuple[str, int, int]]
) -> Optional[str]:
    """Why a served job snapshot is wrong, or ``None``."""
    if snap.get("state") != "done":
        return f"{item.label}: state {snap.get('state')} ({snap.get('error')})"
    if snap.get("degraded"):
        return f"{item.label}: degraded result"
    result = snap["result"]
    routed, g_add, depth = expected[item.label]
    if result["routed_qasm"] != routed:
        return f"{item.label}: served QASM differs from compile_circuit"
    if result["metrics"]["g_add"] != g_add or result["metrics"]["d_out"] != depth:
        return f"{item.label}: served metrics differ from compile_circuit"
    return None


def subprocess_setup_seconds() -> float:
    """Wall seconds for a fresh interpreter to import the package and
    resolve both devices and their distance matrices: what a new
    ``repro map`` pays before it compiles."""
    code = (
        "import repro\n"
        "from repro.engine.cache import get_cached_device, get_flat_distance_matrix\n"
        f"for name in {inputs.DEVICES!r}:\n"
        "    get_flat_distance_matrix(get_cached_device(name))\n"
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=program_env(), check=True)
    return time.perf_counter() - start


def layer_metrics(rec: tracing.Recorder, out: Outcome) -> None:
    """Per-layer self times and counts from one recorder."""
    m = out.metrics
    for name in LAYERS:
        m[f"{name}_s"] = rec.self_time(name)
    parse_s = rec.self_time("qasm.parse")
    m["qasm.parse_lines_per_s"] = out.info.get("parsed_lines", 0) / parse_s if parse_s else 0.0
    runs = rec.count("core.route")
    m["core.router_runs"] = runs
    # One forward traversal per compile is kept; every other run only
    # moves the initial mapping.
    m["core.useful_run_share"] = rec.count("core.layout") / runs if runs else 0.0


# ----------------------------------------------------------------------
# compile_table2
# ----------------------------------------------------------------------


def compile_table2(run: Run) -> Outcome:
    out = Outcome()
    items = inputs.table2_items(100 if run.tiny else inputs.COMPILE_MAX_GATES)
    order = inputs.shuffled(items, random.Random(run.seed))
    warm = inputs.warmup_items(run.seed)
    out.info["requests"] = len(order)
    speed = Speed()
    if not run.trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = speed.probe()
            seconds = subprocess_setup_seconds()
            setups.append(seconds * speed.factor(before, speed.probe()))
        out.metrics["setup_s"] = statistics.median(setups)

    def one_pass(recorder: Optional[tracing.Recorder] = None):
        """One pass over ``order`` on a cold engine cache, re-warmed on
        the disjoint warm-up circuits.  Returns per-request wall
        seconds, the same at reference speed, the outputs, and the
        exact metrics."""
        clear_cache()
        for item in warm:
            compile_item(item)
        latencies, scaled, routed_out, exact = [], [], [], []
        ok_count = 0
        cache_start = cache_stats()
        if recorder is not None:
            recorder.instrument()
        before = speed.probe(REQUEST_PROBES)
        for index, item in enumerate(order):
            t0 = time.perf_counter()
            if recorder is None:
                result, routed, ok = compile_item(item)
            else:
                recorder.request_id = index
                with recorder.span("request"):
                    result, routed, ok = compile_item(item)
            latency = time.perf_counter() - t0
            after = speed.probe(REQUEST_PROBES)
            latencies.append(latency)
            scaled.append(latency * speed.factor(before, after))
            before = after
            ok_count += ok
            routed_out.append(routed)
            exact.append(result)
        if recorder is not None:
            recorder.restore()
        cache = {k: v - cache_start[k] for k, v in cache_stats().items()}
        # Depth is read after the clock stops: it is the benchmark's
        # report, not part of the request.
        g_add = sum(r.added_gates for r in exact)
        depth = sum(r.routed_depth for r in exact)
        return latencies, scaled, routed_out, ok_count, g_add, depth, cache

    passes = [one_pass() for _ in range(1 if run.trace else COMPILE_PASSES)]
    latencies, scaled, routed_out, ok_count, g_add, depth, _ = passes[0]
    out.attempted = len(order)
    out.failed = len(order) - ok_count
    if out.failed:
        out.fail(f"{out.failed} compiled outputs failed verification")
    # Determinism: every pass must reproduce the first one's outputs.
    if any(p[2] != routed_out or p[3:6] != passes[0][3:6] for p in passes[1:]):
        out.fail("outputs changed between passes")
    gates = sum(item.gates for item in order)
    m = out.metrics
    out.info["host_speed"] = speed.run_factor()
    out.info["raw_wall_s"] = sum(latencies)
    if not run.trace:
        # Each request's latency is its median over the passes.
        scaled = [statistics.median(p[1][i] for p in passes) for i in range(len(order))]
        m.update(
            compile_gates_per_s=gates / sum(scaled),
            g_add=g_add,
            depth_out=depth,
            latency_p50_ms=1000 * percentile(scaled, 50),
            latency_p95_ms=1000 * percentile(scaled, 95),
            throughput_rps=len(order) / sum(scaled),
            ok_share=ok_count / len(order),
            peak_rss_mb=vm_hwm_mb(os.getpid()),
        )
        out.info["latency_samples"] = len(scaled)
        out.info["passes"] = len(passes)
        return out

    # Traced pass: the same requests with spans on.
    rec = tracing.Recorder()
    try:
        t_latencies, t_scaled, t_routed, _, t_g_add, t_depth, cache = one_pass(rec)
    finally:
        rec.restore()
    rec.dump(os.path.join(run.workdir, "spans.json"))
    if t_routed != routed_out or (t_g_add, t_depth) != (g_add, depth):
        out.fail("traced pass produced different outputs")
    out.info["parsed_lines"] = sum(item.lines for item in order)
    layer_metrics(rec, out)
    # Coverage is measured within the traced pass: the untraced pass
    # ran at another host speed, which would read as (un)coverage.
    covered = sum(rec.self_time(n) for n in LAYERS) / sum(t_latencies)
    m["trace.covered_share"] = covered
    m["trace.overhead_share"] = sum(t_scaled) / sum(scaled) - 1.0
    m["engine.cache.hits"] = cache["hits"]
    m["engine.cache.misses"] = cache["misses"]
    if covered < COVERED_SHARE_FLOOR and not run.tiny:
        uncovered = sorted(
            (s, n) for n, s in rec.self_seconds.items() if n not in LAYERS
        )[-1]
        out.fail(
            f"trace.covered_share {covered:.3f} < {COVERED_SHARE_FLOOR}: "
            f"{uncovered[0]:.3f} s of self time in '{uncovered[1]}' has no layer span"
        )
    return out


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------


def start_server(
    run: Run, out: Outcome, speed: Speed, name: str, measure_setup: bool
) -> Server:
    """Start the server; for the setup metric, start it several times
    and keep the last."""
    times = []
    for attempt in range(SETUP_REPEATS if measure_setup else 1):
        before = speed.probe()
        server = Server(run.workdir, f"{name}{attempt}")
        times.append(server.setup_seconds * speed.factor(before, speed.probe()))
        if measure_setup and attempt < SETUP_REPEATS - 1:
            server.stop()
    if measure_setup:
        out.metrics["setup_s"] = statistics.median(times)
    return server


def prime(server: Server, items: Sequence[inputs.Item], out: Outcome, expected=None):
    """Store ``items`` through the server and check every result
    against an in-process compile.  Returns the expected outputs and
    the served results (as store entries)."""
    snaps = server.compile_all([item.payload() for item in items])
    expected = expected or reference(items, out)
    entries = []
    for item, snap in zip(items, snaps):
        problem = check_served(snap, item, expected)
        if problem:
            out.fail("priming: " + problem)
        else:
            entries.append(StoredResult(**snap["result"]))
    return expected, entries


def stat_delta(before: Dict, after: Dict, section: str, key: str) -> float:
    return after[section][key] - before[section][key]


def server_layers(out: Outcome, before, after, h_before, h_after) -> None:
    m = out.metrics
    for key in ("hits", "memory_hits", "disk_hits", "puts"):
        m[f"service.store.{key}"] = stat_delta(before, after, "store", key)
    for key in ("executions", "coalesced", "store_answered", "rejected", "timeouts"):
        m[f"service.scheduler.{key}"] = stat_delta(before, after, "scheduler", key)
    bounds, counts = histogram_delta(h_before, h_after, "repro_queue_wait_seconds")
    m["service.scheduler.queue_wait_p50_ms"] = quantile_ms(bounds, counts, 0.5)
    m["service.scheduler.queue_wait_p95_ms"] = quantile_ms(bounds, counts, 0.95)
    bounds, counts = histogram_delta(h_before, h_after, "repro_execute_seconds")
    m["service.scheduler.execute_p50_ms"] = quantile_ms(bounds, counts, 0.5)


def replay(
    rec: tracing.Recorder,
    bodies: Sequence[bytes],
    entries: Sequence[StoredResult],
    workdir: str,
    compile_misses: Dict[bytes, inputs.Item],
    out: Outcome,
) -> Dict[str, Tuple[str, int, int]]:
    """Run a request stream through the public functions the server's
    request path calls, in this process, with spans on: JSON decode,
    request validation, parse, fingerprint, store lookup, (for a miss)
    compile and store write, and the reply's JSON encode.  Returns the
    compiled misses as :func:`reference` does."""
    compiled = {}
    store = ShardedResultStore(root=os.path.join(workdir, "replay-store"), num_shards=8)
    for entry in entries:
        store.put(entry)
    cache_before = cache_stats()
    rec.instrument()
    try:
        for index, body in enumerate(bodies):
            rec.request_id = index
            with rec.span("request"):
                with rec.span("service.request.decode"):
                    payload = json.loads(body)
                payload.pop("wait", None)
                payload.pop("trace", None)
                request = CompileRequest.from_payload(payload)
                circuit = request.parsed_circuit()
                key = request.fingerprint(circuit)
                entry = store.get(key)
                if entry is None:
                    item = compile_misses[body]
                    result, routed, ok = compile_item(item, circuit)
                    if not ok:
                        out.fail(f"in-process result for {item.label} failed verification")
                    compiled[item.label] = (routed, result.added_gates, result.routed_depth)
                    entry = StoredResult(key=key, routed_qasm=routed)
                    store.put(entry)
                with rec.span("service.response.encode"):
                    json.dumps({"state": "done", "result": entry.to_payload()})
    finally:
        rec.restore()
    cache_after = cache_stats()
    for key in ("hits", "misses"):
        out.metrics[f"engine.cache.{key}"] = cache_after[key] - cache_before[key]
    rec.dump(os.path.join(workdir, "spans.json"))
    return compiled


def healthz_ms(server: Server, count: int = 60) -> float:
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        server.get("/healthz")
        samples.append(time.perf_counter() - t0)
    return 1000 * statistics.median(samples)


# ----------------------------------------------------------------------
# serve_warm
# ----------------------------------------------------------------------


def serve_warm(run: Run) -> Outcome:
    out = Outcome()
    items = inputs.table2_items(100 if run.tiny else inputs.WARM_MAX_GATES)
    rng = random.Random(run.seed)
    passes = max(1, round(WARM_REQUESTS_PER_S * run.seconds / len(items)))
    if run.tiny:
        passes = 2
    stream: List[inputs.Item] = []
    for _ in range(passes):
        stream.extend(inputs.shuffled(items, rng))
    bodies = {item.label: json.dumps(item.payload()).encode() for item in items}
    out.info["requests"] = len(stream)

    speed = Speed()
    server = start_server(run, out, speed, "warm", measure_setup=not run.trace)
    try:
        expected, entries = prime(server, items, out)
        for item in items:  # warm the hit path
            server.post(bodies[item.label])

        def closed_loop(extra: bytes = b""):
            """Per-request seconds, the same at reference speed, and
            the raw replies (checked after the loop)."""
            replies, latencies, scaled = [], [], []
            before = speed.probe()
            for item in stream:
                body = bodies[item.label]
                if extra:
                    body = body[:-1] + extra
                t0 = time.perf_counter()
                replies.append(server.post(body))
                latency = time.perf_counter() - t0
                after = speed.probe()
                latencies.append(latency)
                scaled.append(latency * speed.factor(before, after))
                before = after
            return latencies, scaled, replies

        before, h_before = server.stats(), server.histograms()
        latencies, scaled, replies = closed_loop()
        after, h_after = server.stats(), server.histograms()
        ok = 0
        answered = {}
        refused = []
        for item, (status, body) in zip(stream, replies):
            if status != 200:  # a failed attempt, not a wrong output
                refused.append(f"{item.label}: HTTP {status}")
                continue
            snap = json.loads(body)
            problem = check_served(snap, item, expected)
            if not problem and not snap.get("cached"):
                problem = f"{item.label}: not answered from the store"
            if problem:
                out.fail(problem)
            else:
                ok += 1
                answered[item.label] = snap["result"]["metrics"]
        out.attempted = len(stream)
        out.failed = len(stream) - ok
        out.info["refused"] = refused[:10]
        m = out.metrics
        out.info["host_speed"] = speed.run_factor()
        if not run.trace:
            m.update(
                compile_gates_per_s=sum(i.gates for i in stream) / sum(scaled),
                g_add=sum(a["g_add"] for a in answered.values()),
                depth_out=sum(a["d_out"] for a in answered.values()),
                latency_p50_ms=1000 * percentile(scaled, 50),
                latency_p95_ms=1000 * percentile(scaled, 95),
                throughput_rps=len(stream) / sum(scaled),
                ok_share=ok / len(stream),
                peak_rss_mb=server.peak_rss_mb(),
            )
            out.info["latency_samples"] = len(latencies)
            return out

        server_layers(out, before, after, h_before, h_after)
        _, t_scaled, t_replies = closed_loop(b', "trace": true}')
        if any(status != 200 for status, _ in t_replies):
            out.fail("traced requests failed")
        m["http.healthz_ms"] = healthz_ms(server)
    finally:
        server.stop()

    rec = tracing.Recorder()
    before = speed.probe()
    replay(rec, [bodies[i.label] for i in stream], entries, run.workdir, {}, out)
    replay_factor = speed.factor(before, speed.probe())
    out.info["parsed_lines"] = sum(item.lines for item in stream)
    layer_metrics(rec, out)
    # Both sides at reference speed: the replay ran in another phase.
    covered = sum(rec.self_time(n) for n in LAYERS) * replay_factor
    m["trace.covered_share"] = covered / sum(scaled)
    m["trace.overhead_share"] = sum(t_scaled) / sum(scaled) - 1.0
    return out


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------


def open_loop(
    server: Server, schedule, trace: bool, rate: float
) -> Tuple[List[float], List[float], List[str], List[str], float]:
    """Send ``schedule`` at ``rate`` requests per second from two threads.

    A duplicate pair shares one due time and goes out on both threads
    at once.  Returns per-request due times and send lags, the job ids
    (empty for a refused request), the refusals, and the wall-clock
    start.  A transport error ends the run.
    """
    n = len(schedule)
    slots, slot = [], 0
    for index, (kind, _, _) in enumerate(schedule):
        slots.append(slot)
        first_of_pair = kind == "dup" and schedule[index - 1][0] != "dup"
        slot += not first_of_pair
    # Spread the slots so that requests go out at ``rate`` on average.
    due = [s * n / (rate * slot) for s in slots]
    bodies = []
    for kind, item, text in schedule:
        payload = dict(item.payload(text), wait=False)
        if trace and kind != "repeat":
            payload["trace"] = True
        bodies.append(json.dumps(payload).encode())
    lags = [0.0] * n
    job_ids = [""] * n
    refused: List[str] = []
    errors: List[str] = []
    start = time.time() + 0.05

    def sender(parity: int) -> None:
        try:
            for index in range(parity, n, 2):
                target = start + due[index]
                delay = target - time.time()
                if delay > 0:
                    time.sleep(delay)
                lags[index] = time.time() - target
                status, body = server.post(bodies[index])
                if status == 202:
                    job_ids[index] = json.loads(body)["job_id"]
                else:
                    refused.append(f"{schedule[index][1].label}: HTTP {status}")
        except Exception as exc:  # reported as a failed run
            errors.append(f"sender {parity}: {exc!r}")

    threads = [threading.Thread(target=sender, args=(p,)) for p in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError("; ".join(errors[:3]))
    return [start + d for d in due], lags, job_ids, refused, start


def serve_mixed(run: Run) -> Outcome:
    # The loaded-host probe's two processes live for the run.
    pool = multiprocessing.get_context("fork").Pool(2)
    try:
        return mixed_run(run, Speed(pool))
    finally:
        pool.close()
        pool.join()


def mixed_run(run: Run, loaded: Speed) -> Outcome:
    out = Outcome()
    warm = inputs.table2_items(100 if run.tiny else inputs.WARM_MAX_GATES)
    total = 16 if run.tiny else int(MIXED_RATE_PER_S * run.seconds)
    schedule, novel = inputs.mixed_schedule(run.seed, warm, total)
    out.info["requests"] = len(schedule)
    out.info["rate_per_s"] = MIXED_RATE_PER_S

    def timed_phase(server: Server, trace: bool):
        """The open loop at the fixed MIXED_RATE_PER_S, sent in segments
        of MIXED_SEGMENT_BLOCKS blocks.  Returns its length, the
        latencies at reference speed (``None`` for a refused request),
        the per-request scale factors, the send lags, job ids, refusals
        and finished jobs, and the server's counters around it.

        Each segment's latencies are scaled by the loaded-host probes
        taken right before it and after its last job finished, while
        the server is idle.  A probe inside the open loop would compete
        with the server for the CPU and so measure the program's own
        load."""
        before, h_before = server.stats(), server.histograms()
        span = 0.0
        latencies: List[Optional[float]] = []
        factors: List[float] = []
        lags: List[float] = []
        job_ids: List[str] = []
        refused: List[str] = []
        snaps: Dict[str, Dict] = {}
        step = MIXED_SEGMENT_BLOCKS * len(inputs.BLOCK)
        for first in range(0, len(schedule), step):
            segment = schedule[first:first + step]
            idle_before = loaded.probe(SEGMENT_PROBES)
            due, seg_lags, seg_ids, seg_refused, start = open_loop(
                server, segment, trace, MIXED_RATE_PER_S
            )
            seg_snaps = {j: server.wait_job(j) for j in set(seg_ids) if j}
            factor = Speed.factor(idle_before, loaded.probe(SEGMENT_PROBES))
            latencies += [
                (seg_snaps[j]["finished_at"] - due_at) * factor if j else None
                for j, due_at in zip(seg_ids, due)
            ]
            factors += [factor] * len(segment)
            last = max((s["finished_at"] for s in seg_snaps.values()), default=start)
            span += last - start
            lags += seg_lags
            job_ids += seg_ids
            refused += seg_refused
            snaps.update(seg_snaps)
        after, h_after = server.stats(), server.histograms()
        return span, latencies, factors, lags, job_ids, refused, snaps, (
            before, after, h_before, h_after
        )

    speed = Speed()
    server = start_server(run, out, speed, "mixed", measure_setup=not run.trace)
    try:
        expected, entries = prime(server, warm, out)
        span, latencies, factors, lags, job_ids, refused, snaps, counters = (
            timed_phase(server, False)
        )
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    passes = [(job_ids, snaps)]

    distinct_novel = {item.label: item for item in novel}
    m = out.metrics
    if run.trace:
        # Traced pass on a fresh server: cold requests carry "trace": true.
        server = start_server(run, out, speed, "mixed-traced", measure_setup=False)
        try:
            prime(server, warm, out, expected)
            _, t_latencies, t_factors, _, t_ids, t_refused, t_snaps, _ = timed_phase(
                server, True
            )
            refused += t_refused
            waits, hops = [], []
            for (kind, _, _), job_id, factor in zip(schedule, t_ids, t_factors):
                if not job_id or kind == "repeat" or t_snaps[job_id].get("cached"):
                    continue
                walls = {}
                for entry in server.get_json(f"/trace/{job_id}")["spans"]:
                    walls.setdefault(entry["name"], entry["wall_seconds"])
                waits.append(walls.get("queue.wait", 0.0) * factor)
                if "job.execute" in walls and "worker.compile" in walls:
                    hops.append(walls["job.execute"] - walls["worker.compile"])
            m["http.healthz_ms"] = healthz_ms(server)
        finally:
            server.stop()
        passes.append((t_ids, t_snaps))
        # The replay's in-process compiles of the cold requests are the
        # reference the served outputs are checked against.
        rec = tracing.Recorder()
        bodies = [json.dumps(item.payload(text)).encode() for _, item, text in schedule]
        misses = {b: item for b, (_, item, _) in zip(bodies, schedule)}
        before = speed.probe()
        expected.update(replay(rec, bodies, entries, run.workdir, misses, out))
        replay_factor = speed.factor(before, speed.probe())
    else:
        expected.update(reference(list(distinct_novel.values()), out))

    ok = 0
    answered = {}
    for ids, snapshots in passes:
        for (kind, item, _), job_id in zip(schedule, ids):
            if not job_id:  # refused: a failed attempt, not a wrong output
                continue
            problem = check_served(snapshots[job_id], item, expected)
            if not problem and kind == "repeat" and not snapshots[job_id].get("cached"):
                problem = f"{item.label}: reformatted repeat missed the store"
            if problem:
                out.fail(problem)
            else:
                ok += 1
                answered[item.label] = snapshots[job_id]["result"]["metrics"]
    out.attempted = len(schedule) * len(passes)
    out.failed = out.attempted - ok
    out.info["refused"] = refused[:10]
    answered_latencies = [lat for lat in latencies if lat is not None]
    if not run.trace:
        m.update(
            compile_gates_per_s=sum(item.gates for _, item, _ in schedule) / span,
            g_add=sum(a["g_add"] for a in answered.values()),
            depth_out=sum(a["d_out"] for a in answered.values()),
            latency_p50_ms=1000 * percentile(answered_latencies, 50),
            latency_p95_ms=1000 * percentile(answered_latencies, 95),
            throughput_rps=len(schedule) / span,
            ok_share=ok / len(schedule),
            peak_rss_mb=rss,
        )
        out.info["latency_samples"] = len(answered_latencies)
        # The same latencies before scaling, and the speed they were
        # scaled by.
        wall = [lat / f for lat, f in zip(latencies, factors) if lat is not None]
        out.info["wall_p50_p95_ms"] = [
            round(1000 * percentile(wall, q), 2) for q in (50, 95)
        ]
        out.info["loaded_host_speed"] = loaded.run_factor()
        for kind in ("novel", "dup", "repeat"):
            own = [
                lat for (k, _, _), lat in zip(schedule, latencies)
                if k == kind and lat is not None
            ]
            out.info[f"{kind}_p50_p95_ms"] = [
                round(1000 * percentile(own, q), 2) for q in (50, 95)
            ]
        return out

    server_layers(out, *counters)
    m["loadgen.lag_p95_ms"] = 1000 * percentile(lags, 95)
    executions = m["service.scheduler.executions"]
    m["service.useful_execution_share"] = (
        len(distinct_novel) / executions if executions else 0.0
    )
    m["service.worker_hop_p50_ms"] = 1000 * percentile(hops, 50)
    t_answered = [lat for lat in t_latencies if lat is not None]
    m["trace.overhead_share"] = (
        statistics.mean(t_answered) / statistics.mean(answered_latencies) - 1.0
    )
    out.info["parsed_lines"] = sum(item.lines for _, item, _ in schedule)
    layer_metrics(rec, out)
    # Queue wait is the one request-path layer the replay cannot run.
    # Every term is at reference speed, like the latencies.
    covered = sum(rec.self_time(n) for n in LAYERS) * replay_factor + sum(waits)
    m["trace.covered_share"] = covered / sum(answered_latencies)
    return out


WORKLOADS = {
    "compile_table2": compile_table2,
    "serve_warm": serve_warm,
    "serve_mixed": serve_mixed,
}
