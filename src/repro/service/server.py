"""Stdlib-only HTTP JSON front-end of the compilation service.

A :class:`ThreadingHTTPServer` (one thread per connection, no external
dependencies) over the coalescing scheduler and the persistent result
store.  Endpoints:

- ``POST /compile`` — one request (see
  :meth:`~repro.service.request.CompileRequest.from_payload` for the
  body schema).  Synchronous by default: the response carries the
  routed QASM, metrics, and property set.  ``"wait": false`` switches
  to fire-and-forget: a 202 with the job id, to be polled via
  ``GET /jobs/<id>``.
- ``POST /batch`` — ``{"requests": [...], "wait": bool}``; duplicates
  inside the batch coalesce onto one computation.
- ``GET /jobs/<id>`` — job state snapshot (result attached when done).
- ``DELETE /jobs/<id>`` — cancel a job: queued jobs cancel
  immediately; running jobs on the process tier have their worker
  process terminated (the lane rebuilds).
- ``GET /devices`` — the device registry, via the same
  :func:`~repro.hardware.devices.device_catalog` the CLI prints.
- ``GET /healthz`` — health: ``status`` is ``ok``, ``degraded``
  (serving, but under enough pressure that degradable presets fall
  back to ``fast``), or ``draining`` (shutting down; the only state
  answered with a 503).  Also reports uptime and queue depth.
- ``GET /stats`` — store counters, scheduler counters (including
  per-preset pass timings aggregated from result PropertySets), and
  the engine cache's :func:`~repro.engine.cache.cache_stats`; one
  :func:`~repro.telemetry.snapshot.service_snapshot` shared with the
  CLI's shutdown report.
- ``GET /metrics`` — the same numbers as Prometheus text exposition
  (format 0.0.4), rendered at scrape time from the live objects plus
  the scheduler's queue-wait/execute latency histograms.
- ``GET /trace/<job_id>`` — the span timeline of a job submitted with
  ``"trace": true`` (or ``"profile": true``, which also turns on the
  router profiling aggregates): JSON span batch covering HTTP
  handling, queue wait, worker-lane execution, and every pipeline
  pass, with cross-process spans stitched under the submit-side
  parent.  Retention is bounded (oldest traces evicted first).

Backpressure contract: when the scheduler's admission queue is full,
``POST /compile`` / ``POST /batch`` return **429** with a
``Retry-After`` header (seconds, estimated from queue depth and recent
execution times) and the same value in the JSON body — the queue never
grows unboundedly.  Compile bodies accept ``"timeout"`` (seconds,
covering queue wait + execution); a job that exceeds it fails with
``error_kind: "timeout"`` and surfaces as **504**.

Error contract: malformed bodies, unknown devices/presets/objectives,
and QASM parse errors are 400s with ``{"error": ...}``; unknown job ids
and paths are 404s; a failed compilation surfaces as a 500 (timeouts:
504) carrying the job snapshot; a cancelled job surfaces as 409.  The
server never leaks a traceback over the wire.
"""

from __future__ import annotations

import io
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.hardware.devices import device_catalog
from repro.service import faults
from repro.service.request import CompileRequest
from repro.service.scheduler import (
    HEALTH_DRAINING,
    CoalescingScheduler,
    Job,
)
from repro.service.store import ResultStore
from repro.service.workers import QueueFullError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.snapshot import (
    register_service_collectors,
    service_snapshot,
)
from repro.telemetry.trace import TraceStore, Tracer, span, tracing

#: Largest request body accepted, in bytes (a Table II-scale QASM file
#: is tens of KB; this guards the server against accidental uploads).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Default bound on requests per ``POST /batch`` call.
MAX_BATCH_REQUESTS = 256


class ServiceState:
    """Everything the request handlers share."""

    def __init__(
        self,
        store: ResultStore,
        scheduler: CoalescingScheduler,
        verbose: bool = False,
        log_json: bool = False,
        max_traces: int = 128,
    ) -> None:
        self.store = store
        self.scheduler = scheduler
        self.verbose = verbose
        self.log_json = log_json
        self.started_at = time.time()
        self.requests_served = 0
        self._lock = threading.Lock()
        self.traces = TraceStore(max_traces=max_traces)
        # One registry per server instance (tests build many servers
        # per process; a process-global registry would cross streams).
        # The scheduler's latency histograms are live instruments; the
        # rest of the exposition renders from stats() snapshots at
        # scrape time, so /stats and /metrics can never disagree.
        self.registry = MetricsRegistry()
        for hist in (
            getattr(scheduler, "queue_wait_hist", None),
            getattr(scheduler, "execute_hist", None),
        ):
            if hist is not None:
                self.registry.register(hist)
        register_service_collectors(self.registry, self.snapshot)

    def count_request(self) -> None:
        with self._lock:
            self.requests_served += 1

    def uptime(self) -> float:
        return time.time() - self.started_at

    def snapshot(self) -> Dict[str, object]:
        """The one stats snapshot behind ``GET /stats``, ``/metrics``,
        and the CLI's shutdown report."""
        return service_snapshot(
            self.store,
            self.scheduler,
            uptime_seconds=self.uptime(),
            requests_served=self.requests_served,
        )


class ServiceHandler(BaseHTTPRequestHandler):
    """Route table + JSON plumbing; all state lives on ``server.state``."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # Replies are written whole (``_send_body``), but Nagle's algorithm
    # would still hold the tail of one longer than a TCP segment until
    # the client's delayed ACK.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------

    @property
    def state(self) -> ServiceState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        state = self.state
        if state.log_json:
            import sys

            print(
                json.dumps(
                    {
                        "ts": round(time.time(), 6),
                        "level": "info",
                        "logger": "repro.service",
                        "client": self.client_address[0],
                        "message": format % args,
                    }
                ),
                file=sys.stderr,
                flush=True,
            )
        elif state.verbose:
            import sys

            print(
                f"[{self.log_date_time_string()}] {format % args}",
                file=sys.stderr,
            )

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_body(status, "application/json", body, headers)

    def _send_body(
        self,
        status: int,
        content_type: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Send a whole reply in one write.  Headers and body in two
        sends would leave the body to Nagle's algorithm, which holds it
        for a keep-alive client's delayed ACK (~40 ms per reply)."""
        sink, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            reply = self.wfile.getvalue() + body
        finally:
            self.wfile = sink
        sink.write(reply)

    def _read_json_body(self) -> object:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # Body size unknowable, so the connection cannot be resynced
            # for keep-alive — close it after the error response.
            self.close_connection = True
            raise ReproError(
                "Content-Length header is not an integer"
            ) from None
        if length <= 0:
            raise ReproError("request needs a JSON body")
        if length > MAX_BODY_BYTES:
            # Drain the in-flight body (bounded) before erroring, or a
            # keep-alive client still writing it would hit a broken
            # pipe and never see the 400.
            self._drain_body(length)
            raise ReproError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(f"request body is not valid JSON: {exc}") from exc

    def _drain_body(self, length: int) -> None:
        """Discard a declared body we refuse to process.

        Reads at most ``4 * MAX_BODY_BYTES``; anything larger gets the
        connection closed after the response instead (we won't stream
        gigabytes to /dev/null on an attacker's say-so).
        """
        cap = 4 * MAX_BODY_BYTES
        remaining = min(length, cap)
        while remaining > 0:
            chunk = self.rfile.read(min(65536, remaining))
            if not chunk:
                break
            remaining -= len(chunk)
        if length > cap:
            self.close_connection = True

    def _discard_request_body(self) -> None:
        """Consume a body we will never look at (e.g. POST to an
        unknown path), keeping the keep-alive connection in sync —
        unread body bytes would be parsed as the next request line."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            return
        if length > 0:
            self._drain_body(length)

    @staticmethod
    def _coerce_priority(value: object) -> int:
        try:
            return int(value or 0)
        except (TypeError, ValueError):
            raise ReproError(
                f"field 'priority' must be an integer, got {value!r}"
            ) from None

    @staticmethod
    def _coerce_timeout(value: object) -> Optional[float]:
        if value is None:
            return None
        try:
            timeout = float(value)
        except (TypeError, ValueError):
            raise ReproError(
                f"field 'timeout' must be a number of seconds, got {value!r}"
            ) from None
        if timeout <= 0:
            raise ReproError("field 'timeout' must be > 0 seconds")
        return timeout

    def _connection_fault(self) -> bool:
        """The ``http.connection`` injection seam; True means the
        request was swallowed (connection dropped with no response,
        exactly what a mid-request network partition looks like)."""
        rule = faults.maybe_inject(faults.SITE_HTTP)
        if rule is None:
            return False
        if rule.kind == "drop":
            self.close_connection = True
            return True
        if rule.kind == "slow":
            time.sleep(rule.param)
        return False

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self.state.count_request()
        if self._connection_fault():
            return
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            health = self.state.scheduler.health()
            # Draining is the only 503: degraded still serves traffic
            # (at reduced quality), so load balancers keep routing to
            # it; a draining server is on its way out.  Health checks
            # fire constantly, so this reads the cheap queue-depth
            # accessor instead of building a full stats() snapshot.
            self._send_json(
                200 if health != HEALTH_DRAINING else 503,
                {
                    "status": health,
                    "uptime_seconds": round(self.state.uptime(), 3),
                    "queue_depth": self.state.scheduler.queue_depth(),
                },
            )
        elif path == "/devices":
            self._send_json(200, {"devices": device_catalog()})
        elif path == "/stats":
            self._send_json(200, self.state.snapshot())
        elif path == "/metrics":
            self._send_body(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                self.state.registry.render().encode("utf-8"),
            )
        elif path.startswith("/trace/"):
            job_id = path[len("/trace/"):]
            trace = self.state.traces.get(job_id)
            if trace is None:
                self._send_json(
                    404,
                    {
                        "error": f"no trace for job {job_id!r}; submit "
                        "with \"trace\": true (traces are evicted "
                        "oldest-first)"
                    },
                )
            else:
                self._send_json(200, trace)
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            job = self.state.scheduler.job(job_id)
            if job is None:
                self._send_json(404, {"error": f"unknown job {job_id!r}"})
            else:
                self._send_json(200, job.snapshot())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self.state.count_request()
        if self._connection_fault():
            return
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            if path == "/compile":
                self._handle_compile()
            elif path == "/batch":
                self._handle_batch()
            else:
                self._discard_request_body()
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        except QueueFullError as exc:
            # Backpressure: the admission queue is at capacity.  The
            # client backs off for Retry-After seconds instead of the
            # server queueing unboundedly.
            retry_after = max(1, int(round(exc.retry_after)))
            self._send_json(
                429,
                {"error": str(exc), "retry_after": retry_after},
                headers={"Retry-After": str(retry_after)},
            )
        except ReproError as exc:
            # Bad request bodies, unknown devices/presets, QASM parse
            # errors: the client's fault, with the library's message.
            self._send_json(400, {"error": str(exc)})

    def do_DELETE(self) -> None:  # noqa: N802 — http.server API
        self.state.count_request()
        if self._connection_fault():
            return
        path = self.path.split("?", 1)[0].rstrip("/")
        if not path.startswith("/jobs/"):
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        job_id = path[len("/jobs/"):]
        job = self.state.scheduler.cancel(job_id)
        if job is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        if job.state == "running" and job.cancel_requested:
            # Process-tier kill in flight: give the dispatcher a moment
            # to observe the broken lane and resolve the job.
            job.wait(5)
        snapshot = job.snapshot()
        cancelled = job.state == "cancelled"
        status = 200 if cancelled else 409
        snapshot["cancelled"] = cancelled
        if not cancelled and "error" not in snapshot:
            snapshot["error"] = (
                f"job is {job.state} and could not be cancelled"
            )
        self._send_json(status, snapshot)

    # -- handlers ------------------------------------------------------

    def _handle_compile(self) -> None:
        payload = self._read_json_body()
        wait = True
        priority = 0
        timeout = None
        trace = False
        profile = False
        if isinstance(payload, dict):
            wait = bool(payload.pop("wait", True))
            priority = self._coerce_priority(payload.pop("priority", 0))
            timeout = self._coerce_timeout(payload.pop("timeout", None))
            # ``profile`` implies ``trace`` — the router aggregates
            # land as a span, so there must be a trace to carry them.
            profile = bool(payload.pop("profile", False))
            trace = bool(payload.pop("trace", False)) or profile
        request = CompileRequest.from_payload(payload)
        if not trace:
            job = self.state.scheduler.submit(
                request, priority=priority, timeout=timeout
            )
            if not wait:
                self._send_json(202, {"job_id": job.id, "state": job.state})
                return
            job.wait()
            status, body = self._job_response(job)
            self._send_json(status, body)
            return
        tracer = Tracer()
        with tracing(tracer):
            with tracer.start_span("http.request") as root:
                root.set("path", "/compile").set("priority", priority)
                job = self.state.scheduler.submit(
                    request,
                    priority=priority,
                    timeout=timeout,
                    tracer=tracer,
                    trace_parent=root.span_id,
                    profile=profile,
                )
                # Registered at submission: the trace endpoint shows a
                # fire-and-forget job's spans as they land.
                self.state.traces.put(job.id, tracer)
                if not wait:
                    self._send_json(
                        202,
                        {
                            "job_id": job.id,
                            "state": job.state,
                            "trace_id": tracer.trace_id,
                        },
                    )
                    return
                with span("job.wait") as wait_span:
                    job.wait()
                    wait_span.set("state", job.state)
        status, body = self._job_response(job)
        body["trace_id"] = tracer.trace_id
        self._send_json(status, body)

    def _handle_batch(self) -> None:
        payload = self._read_json_body()
        if not isinstance(payload, dict) or not isinstance(
            payload.get("requests"), list
        ):
            raise ReproError(
                "batch body must be {'requests': [...], 'wait': bool}"
            )
        raw_requests = payload["requests"]
        if not raw_requests:
            raise ReproError("batch needs at least one request")
        if len(raw_requests) > MAX_BATCH_REQUESTS:
            raise ReproError(
                f"batch of {len(raw_requests)} exceeds the "
                f"{MAX_BATCH_REQUESTS}-request limit"
            )
        wait = bool(payload.get("wait", True))
        priority = self._coerce_priority(payload.get("priority", 0))
        timeout = self._coerce_timeout(payload.get("timeout"))
        requests = [CompileRequest.from_payload(r) for r in raw_requests]
        # Per-request priority/timeout override the batch-wide default.
        priorities = [
            self._coerce_priority(r.get("priority", priority))
            if isinstance(r, dict)
            else priority
            for r in raw_requests
        ]
        timeouts = [
            self._coerce_timeout(r.get("timeout", timeout))
            if isinstance(r, dict)
            else timeout
            for r in raw_requests
        ]
        jobs = self.state.scheduler.submit_batch(
            requests,
            priority=priority,
            priorities=priorities,
            timeout=timeout,
            timeouts=timeouts,
        )
        if not wait:
            self._send_json(
                202,
                {"jobs": [{"job_id": j.id, "state": j.state} for j in jobs]},
            )
            return
        for job in jobs:
            job.wait()
        results = []
        for job in jobs:
            _, body = self._job_response(job)
            results.append(body)
        failed = sum(1 for job in jobs if job.state == "failed")
        self._send_json(
            200 if failed == 0 else 500,
            {"results": results, "failed": failed},
        )

    def _job_response(self, job: Job) -> Tuple[int, Dict[str, object]]:
        """(status, body) for a *finished* job."""
        snapshot = job.snapshot()
        if job.state == "cancelled":
            return 409, snapshot
        if job.state == "failed":
            return 504 if job.error_kind == "timeout" else 500, snapshot
        return 200, snapshot

def build_server(
    host: str = "127.0.0.1",
    port: int = 0,
    store: Optional[ResultStore] = None,
    scheduler: Optional[CoalescingScheduler] = None,
    workers: int = 2,
    verbose: bool = False,
    execution: str = "thread",
    mp_start_method: Optional[str] = None,
    max_queue_depth: Optional[int] = None,
    default_timeout: Optional[float] = None,
    degrade: bool = False,
    trial_jobs: Optional[int] = None,
    log_json: bool = False,
) -> ThreadingHTTPServer:
    """Construct (but do not start) a service instance.

    ``port=0`` binds a free ephemeral port — read the actual one from
    ``server.server_address``.  The caller owns the lifecycle:
    ``serve_forever()`` to run, ``shutdown_service`` to stop cleanly.

    ``execution="process"`` routes compiles to the process-worker
    fleet (the production tier; ``repro serve`` defaults to it);
    ``"thread"`` keeps them in-process.  ``max_queue_depth`` and
    ``default_timeout`` configure backpressure and per-request
    deadlines; both pass straight to :class:`CoalescingScheduler` and
    are ignored when a pre-built ``scheduler`` is supplied.
    """
    store = store if store is not None else ResultStore()
    scheduler = (
        scheduler
        if scheduler is not None
        else CoalescingScheduler(
            store=store,
            workers=workers,
            execution=execution,
            mp_start_method=mp_start_method,
            max_queue_depth=max_queue_depth,
            default_timeout=default_timeout,
            degrade=degrade,
            trial_jobs=trial_jobs,
        )
    )
    server = ThreadingHTTPServer((host, port), ServiceHandler)
    server.daemon_threads = True
    server.state = ServiceState(  # type: ignore[attr-defined]
        store=store, scheduler=scheduler, verbose=verbose, log_json=log_json
    )
    return server


def start_in_thread(server: ThreadingHTTPServer) -> threading.Thread:
    """Run ``server`` on a daemon thread (tests, benchmarks, examples)."""
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-service",
        daemon=True,
    )
    thread.start()
    return thread


def shutdown_service(server: ThreadingHTTPServer) -> None:
    """Stop the listener and drain the scheduler's worker pool."""
    server.shutdown()
    server.server_close()
    server.state.scheduler.shutdown()  # type: ignore[attr-defined]


def serve_url(server: ThreadingHTTPServer) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"
