"""Coalescing scheduler: dedup identical work onto one computation.

The serving tier's traffic is dominated by *repeats*: benchmark suites
re-submit the same circuits, VQA loops re-compile near-identical
ansätze, and concurrent clients race each other with the same request.
The scheduler exploits that shape twice:

- a **store check at submission** answers anything already compiled
  (this process or a previous one) without queueing at all;
- an **in-flight table** keyed by request fingerprint merges concurrent
  identical submissions onto one :class:`Job` — N racing clients cost
  exactly one pipeline execution, and all N wake when it finishes.  A
  coalescing submission *escalates* the shared job to the highest
  priority any of its waiters asked for, so a high-priority client is
  never stuck behind the low priority of whoever asked first.

Everything else is a bounded set of dispatcher threads draining a
priority queue (higher priority first, FIFO within a priority).  Each
dispatcher executes :func:`repro.service.request.execute_request` —
the same pass-pipeline/trial-engine path as ``compile_circuit`` and
the CLI; the scheduler adds no second compile implementation — on one
of two tiers:

- ``execution="process"`` (the production fleet): each dispatcher owns
  a :class:`~repro.service.workers.WorkerLane`, a single-process
  executor, so N workers are N truly parallel compiles instead of N
  GIL-serialized threads.  Lanes give the scheduler hard per-request
  timeouts, cancellation of *running* jobs, and crash isolation (a
  dead worker process fails its own job only; the lane rebuilds).
- ``execution="thread"`` (in-process tier): compiles run on the
  dispatcher thread itself — zero process overhead, used by tests
  that inject unpicklable ``compile_fn`` stand-ins and by embedders
  that want a lightweight in-process server.

Production backpressure: ``max_queue_depth`` bounds admission — a full
queue rejects with :class:`~repro.service.workers.QueueFullError`
(mapped to HTTP 429 + ``Retry-After`` by the server) instead of
queueing unboundedly.

Self-healing (the robustness tier):

- **retry-on-crash** — a job whose worker process dies is requeued up
  to ``crash_retries`` times (transient OOM kills and chaos-injected
  crashes recover without the client noticing);
- **poison-job quarantine** — a fingerprint that has killed
  ``poison_threshold`` workers is quarantined: its job fails with
  ``error_kind: "poison"`` and later submissions of the same
  fingerprint fail fast instead of grinding lanes down one by one;
- **lane supervision** — each dispatcher backs off exponentially after
  consecutive crashes, with a circuit breaker that takes the lane out
  of rotation for ``breaker_cooldown`` seconds once
  ``breaker_threshold`` consecutive crashes accumulate (half-open: the
  next job is the probe);
- **graceful degradation** (opt-in ``degrade=True``; ``repro serve``
  enables it) — under sustained queue pressure or repeated lane loss,
  presets in :data:`DEGRADE_PRESET_MAP` fall back to the cheaper
  ``fast`` pipeline, stamped ``degraded: true`` in the job snapshot
  and result properties; degraded artifacts are *never* written to
  the content-addressed store (a later non-degraded request must not
  be served a degraded artifact).  :meth:`CoalescingScheduler.health`
  reports ``ok | degraded | draining`` for ``GET /healthz``.
"""

from __future__ import annotations

import heapq
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.exceptions import ReproError
from repro.service import faults
from repro.service.request import CompileRequest, execute_request
from repro.service.store import ResultStore, StoredResult
from repro.service.workers import (
    JobTimeout,
    LaneStartupError,
    QueueFullError,
    WorkerCrashed,
    WorkerLane,
    apply_worker_fault,
    resolve_mp_context,
)
from repro.telemetry.metrics import Histogram
from repro.telemetry.profile import profiled_routing
from repro.telemetry.trace import Tracer, span, tracing

#: Job lifecycle states (strings so snapshots are JSON-native).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Execution tiers (see module docstring).
EXECUTION_MODES = ("thread", "process")

#: Completed/failed jobs retained for ``GET /jobs/<id>`` lookups.
MAX_FINISHED_JOBS = 512

#: ``Retry-After`` estimates are clamped into this range (seconds) —
#: wide enough to be honest about a deep queue, narrow enough that a
#: client is never told to go away for minutes on a hiccup.
MIN_RETRY_AFTER = 0.05
MAX_RETRY_AFTER = 60.0

#: Per-job drain estimate used before any job has completed (the
#: cold-start case: the EWMA has no samples yet).
COLD_START_EXEC_ESTIMATE = 0.5

#: Health states served by ``GET /healthz``.
HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"
HEALTH_DRAINING = "draining"

#: Presets that may fall back to a cheaper preset under degradation.
#: ``directed_device`` is deliberately absent: degrading it would drop
#: direction legalization and break the compliance contract.
DEGRADE_PRESET_MAP: Dict[str, str] = {
    "paper_default": "fast",
    "best_effort": "fast",
}

# Heap entries are ``[neg_priority, seq, job, alive]`` — lists, not
# tuples, so a priority escalation can mark the old entry dead in
# place (index ``_ENTRY_ALIVE``) and push a replacement instead of
# rebuilding the heap.  ``seq`` is unique, so comparison never reaches
# the job object.
_ENTRY_JOB = 2
_ENTRY_ALIVE = 3


@dataclass
class Job:
    """One scheduled (or store-answered) compilation.

    A job is shared by every submission that coalesced onto it; its
    ``event`` fires once, when the single underlying computation (or
    store lookup) resolves.
    """

    id: str
    key: str
    request: CompileRequest
    #: The request's circuit, parsed once at submission and reused by
    #: the worker (fingerprinting already had to parse it).
    circuit: Optional[object] = None
    priority: int = 0
    state: str = QUEUED
    cached: bool = False
    coalesced: int = 0
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: Machine-readable failure class: ``"timeout"``, ``"crash"``,
    #: ``"poison"`` (fingerprint quarantined after repeated crashes),
    #: ``"shutdown"``, or ``"error"`` (plain compile exception).
    error_kind: Optional[str] = None
    result: Optional[StoredResult] = None
    #: Crash-retry attempt this job is on (0 = first dispatch).
    attempt: int = 0
    #: True when the job executed on a degraded (cheaper) preset.
    degraded: bool = False
    #: Effective timeout (seconds) and its monotonic deadline; the
    #: deadline covers queue wait *and* execution, and coalescing
    #: keeps the most generous waiter's deadline.
    timeout_seconds: Optional[float] = None
    deadline: Optional[float] = None
    cancel_requested: bool = False
    #: Tracing (optional): the tracer collecting this job's spans, the
    #: span id the execution spans parent under (the submitter's HTTP
    #: span), and whether router profiling was requested.  Carried by
    #: the job so the dispatcher thread — and, via serialized context,
    #: the worker process — can contribute spans to the right trace.
    tracer: Optional[Tracer] = field(default=None, repr=False)
    trace_parent: Optional[str] = None
    profile: bool = False
    event: threading.Event = field(default_factory=threading.Event)
    #: Scheduler internals: the live heap entry while queued, and the
    #: lane executing the job while running (process tier only).
    entry: Optional[list] = field(default=None, repr=False)
    lane: Optional[WorkerLane] = field(default=None, repr=False)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job resolves; True unless the wait timed out."""
        return self.event.wait(timeout)

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED, CANCELLED)

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe view served by ``GET /jobs/<id>``."""
        snap: Dict[str, object] = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "priority": self.priority,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "request": self.request.summary(),
        }
        if self.timeout_seconds is not None:
            snap["timeout_seconds"] = self.timeout_seconds
        if self.attempt:
            snap["attempts"] = self.attempt + 1
        if self.degraded:
            snap["degraded"] = True
        if self.error is not None:
            snap["error"] = self.error
        if self.error_kind is not None:
            snap["error_kind"] = self.error_kind
        if self.state == DONE and self.result is not None:
            snap["result"] = self.result.to_payload()
        return snap


class LaneSupervisor:
    """Restart policy for one dispatcher's lane.

    Tracks consecutive crash-class failures.  Each failure earns an
    exponentially growing backoff (``backoff_base * 2**(n-1)``, capped
    at ``backoff_max``); once ``breaker_threshold`` consecutive
    failures accumulate the breaker *opens* — the lane sits out
    ``breaker_cooldown`` seconds, then half-opens (the next job is the
    probe; success closes the breaker, another crash re-opens it).
    The dispatcher thread owns its supervisor, so no locking is needed
    for the failure bookkeeping; snapshots read racily for stats.
    """

    def __init__(
        self,
        backoff_base: float = 0.05,
        backoff_max: float = 5.0,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
    ) -> None:
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.consecutive_failures = 0
        self.breaker_trips = 0
        self.breaker_open = False

    def record_failure(self) -> float:
        """Count one lane loss; returns how long the lane sits out."""
        self.consecutive_failures += 1
        if (
            self.breaker_threshold > 0
            and self.consecutive_failures >= self.breaker_threshold
        ):
            self.breaker_trips += 1
            self.breaker_open = True
            return self.breaker_cooldown
        return min(
            self.backoff_base * (2 ** (self.consecutive_failures - 1)),
            self.backoff_max,
        )

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.breaker_open = False

    def snapshot(self) -> Dict[str, object]:
        return {
            "consecutive_failures": self.consecutive_failures,
            "breaker": "open" if self.breaker_open else "closed",
            "breaker_trips": self.breaker_trips,
        }


class CoalescingScheduler:
    """Bounded dispatcher fleet with store-backed request coalescing.

    Args:
        store: the result store consulted before queueing and written
            after every execution.
        workers: dispatcher count (request-level concurrency; on the
            process tier, also the worker-process count).
        compile_fn: the request executor, called as
            ``compile_fn(request, circuit=..., key=...)`` with the
            circuit and fingerprint already resolved at submission (so
            the worker never re-parses or re-hashes); overridable so
            tests can inject slow or counting stand-ins.  Production
            uses :func:`repro.service.request.execute_request`.  On the
            process tier it must be picklable (module-level).
        execution: ``"process"`` runs each compile in the dispatcher's
            private worker process; ``"thread"`` runs it on the
            dispatcher thread (see module docstring).
        mp_start_method: multiprocessing start method for the process
            tier (``fork``/``spawn``/``forkserver``); defaults to the
            ``REPRO_MP_START_METHOD`` env var, then the platform
            default.
        max_queue_depth: bound on *queued* (not running) jobs; a full
            queue rejects submissions with :class:`QueueFullError`.
            ``None`` means unbounded (embedded/test use).
        default_timeout: per-job deadline in seconds applied when a
            submission doesn't carry its own; ``None`` disables.
        join_timeout: total seconds ``shutdown(wait=True)`` spends
            joining dispatchers before declaring them hung and failing
            their jobs.
        crash_retries: times a crash-failed job is requeued before
            giving up (transient crashes recover invisibly).
        poison_threshold: worker crashes a single fingerprint may cause
            before it is quarantined as a poison job (fails fast with
            ``error_kind: "poison"`` on this and later submissions).
        restart_backoff_base / restart_backoff_max: exponential lane
            sit-out after consecutive crashes (seconds).
        breaker_threshold / breaker_cooldown: consecutive crashes that
            open a lane's circuit breaker, and how long it stays open.
        degrade: enable graceful degradation (``repro serve`` turns
            this on; library default is off so embedded schedulers
            never silently change what they compile).
        degrade_queue_threshold: queued jobs at/above which degraded
            mode engages; defaults to 3/4 of ``max_queue_depth`` when
            bounded, else disabled.
        degrade_crash_threshold: consecutive fleet-wide crashes
            at/above which degraded mode engages.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 2,
        compile_fn: Callable[..., StoredResult] = execute_request,
        execution: str = "thread",
        mp_start_method: Optional[str] = None,
        max_queue_depth: Optional[int] = None,
        default_timeout: Optional[float] = None,
        join_timeout: float = 30.0,
        crash_retries: int = 2,
        poison_threshold: int = 3,
        restart_backoff_base: float = 0.05,
        restart_backoff_max: float = 5.0,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        degrade: bool = False,
        degrade_queue_threshold: Optional[int] = None,
        degrade_crash_threshold: int = 3,
        trial_jobs: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ReproError("CoalescingScheduler needs workers >= 1")
        if execution not in EXECUTION_MODES:
            raise ReproError(
                f"unknown execution mode {execution!r}; "
                f"available: {list(EXECUTION_MODES)}"
            )
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ReproError("max_queue_depth must be >= 1 (or None)")
        if trial_jobs is not None and trial_jobs < 1:
            raise ValueError(
                f"trial_jobs must be a positive integer, got {trial_jobs!r}"
            )
        if crash_retries < 0:
            raise ReproError("crash_retries must be >= 0")
        if poison_threshold < 1:
            raise ReproError("poison_threshold must be >= 1")
        self.store = store if store is not None else ResultStore()
        self.compile_fn = compile_fn
        #: Opt-in multi-core trial sweeps: cores granted to each
        #: compile's best-of-K fan-out (the hybrid/ensemble engine
        #: path).  ``None`` keeps the classic serial in-worker sweep.
        #: When set, ``compile_fn`` must accept a ``trial_jobs`` kwarg
        #: (the production ``execute_request`` does).
        self.trial_jobs = trial_jobs
        self.workers = workers
        self.execution = execution
        self.max_queue_depth = max_queue_depth
        self.default_timeout = default_timeout
        self.join_timeout = join_timeout
        self.crash_retries = crash_retries
        self.poison_threshold = poison_threshold
        self.degrade_enabled = degrade
        if degrade_queue_threshold is None and max_queue_depth is not None:
            degrade_queue_threshold = max(1, (3 * max_queue_depth) // 4)
        self.degrade_queue_threshold = degrade_queue_threshold
        self.degrade_crash_threshold = degrade_crash_threshold
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._heap: List[list] = []
        self._queued = 0  # live (non-stale) heap entries
        self._seq = itertools.count()
        self._job_ids = itertools.count(1)
        self._inflight: Dict[str, Job] = {}
        self._jobs: Dict[str, Job] = {}
        self._finished_order: List[str] = []
        self._shutdown = False
        self._unjoined: List[str] = []
        # Counters
        self._submitted = 0
        self._store_answered = 0
        self._coalesced = 0
        self._executions = 0
        self._completed = 0
        self._failed = 0
        self._cancelled = 0
        self._timeouts = 0
        self._worker_crashes = 0
        self._rejected = 0
        self._store_put_failures = 0
        self._retries = 0
        self._degraded_executions = 0
        self._poisoned_failures = 0
        self._consecutive_crashes = 0
        #: key -> crash count so far (cleared on success/quarantine).
        self._crash_counts: Dict[str, int] = {}
        #: key -> crash count at quarantine time (the poison list).
        self._poisoned: Dict[str, int] = {}
        #: Interrupts supervisor backoff/breaker waits at shutdown.
        self._stop_event = threading.Event()
        #: EWMA of execution wall time, feeding Retry-After estimates.
        self._avg_exec_seconds: Optional[float] = None
        #: Per-preset pass-timing aggregation harvested from each
        #: executed result's PropertySet: preset -> pass -> [calls, sec].
        self._pass_timings: Dict[str, Dict[str, List[float]]] = {}
        #: Latency histograms, observed unconditionally (a bisect plus
        #: two adds under a small lock) so the series exist whether or
        #: not anything scrapes them; the server registers them on its
        #: metrics registry for ``GET /metrics``.
        self.queue_wait_hist = Histogram(
            "repro_queue_wait_seconds",
            "Seconds jobs spent queued before first dispatch",
        )
        self.execute_hist = Histogram(
            "repro_execute_seconds",
            "Wall seconds per successful compile execution",
        )
        # Resolve any env-configured fault plan now, while the process
        # is still effectively single-threaded — not lazily from a
        # dispatcher racing the first worker fork.
        faults.active_plan()
        if execution == "process":
            context = resolve_mp_context(mp_start_method)
            self._lanes: List[Optional[WorkerLane]] = [
                WorkerLane(compile_fn, context, trial_jobs=trial_jobs)
                for _ in range(workers)
            ]
        else:
            self._lanes = [None] * workers
        self._supervisors = [
            LaneSupervisor(
                backoff_base=restart_backoff_base,
                backoff_max=restart_backoff_max,
                breaker_threshold=breaker_threshold,
                breaker_cooldown=breaker_cooldown,
            )
            for _ in range(workers)
        ]
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(lane, supervisor),
                name=f"repro-compile-{i}",
                daemon=True,
            )
            for i, (lane, supervisor) in enumerate(
                zip(self._lanes, self._supervisors)
            )
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        request: CompileRequest,
        priority: int = 0,
        timeout: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        trace_parent: Optional[str] = None,
        profile: bool = False,
    ) -> Job:
        """Submit one request; returns its (possibly shared) job.

        Resolution order: persistent store (job completes immediately,
        ``cached=True``), then the in-flight table (returns the already
        scheduled job, escalated to ``max`` of the waiters' priorities
        and the most generous of their deadlines), then a fresh queue
        entry — admitted only while the queue is below
        ``max_queue_depth`` (:class:`QueueFullError` otherwise, which
        the HTTP layer maps to 429 + ``Retry-After``).  QASM parse
        errors surface here, synchronously — a request that cannot be
        fingerprinted is rejected before it can occupy a worker.

        ``tracer`` / ``trace_parent`` / ``profile`` attach trace
        collection to a *fresh* job: the dispatcher (and, across the
        process boundary, the worker) records queue-wait, execution,
        pipeline-pass, and — with ``profile`` — router-step spans into
        the tracer, parented under ``trace_parent``.  A submission that
        coalesces onto an existing job keeps that job's tracer (first
        submitter wins); store-answered jobs execute nothing, so their
        trace is just the submitter's own spans.
        """
        if self._shutdown:
            raise ReproError("scheduler is shut down")
        # Parse once: the fingerprint needs the gate list anyway, and
        # the worker reuses the parsed circuit via the job.  The two
        # spans are most of a store hit's time.
        with span("request.parse"):
            circuit = request.parsed_circuit()
        with span("request.fingerprint"):
            key = request.fingerprint(circuit)
        effective_timeout = timeout if timeout is not None else self.default_timeout
        with self._lock:
            self._submitted += 1
            poisoned = self._poisoned.get(key)
            if poisoned is not None:
                # Poison-job quarantine: this fingerprint has already
                # killed enough workers; fail fast instead of feeding
                # it another lane.
                self._poisoned_failures += 1
                job = self._new_job(key, request, priority)
                job.error = (
                    f"fingerprint {key[:12]} is quarantined as a poison "
                    f"job ({poisoned} worker crashes); refusing to "
                    "schedule it again"
                )
                job.error_kind = "poison"
                self._finish(job, FAILED)
                return job
            inflight = self._inflight.get(key)
            if inflight is not None:
                self._coalesce_onto(inflight, priority, effective_timeout)
                return inflight
        entry = self.store.get(key)
        with self._lock:
            if entry is not None:
                self._store_answered += 1
                job = self._new_job(key, request, priority)
                job.cached = True
                job.result = entry
                self._finish(job, DONE)
                return job
            # Re-check the in-flight table: a racing submit may have
            # queued this key while we were probing the store.
            inflight = self._inflight.get(key)
            if inflight is not None:
                self._coalesce_onto(inflight, priority, effective_timeout)
                return inflight
            # Re-check shutdown under the lock: after the workers have
            # drained and exited, an enqueued job would hang its
            # waiters forever.
            if self._shutdown:
                raise ReproError("scheduler is shut down")
            if (
                self.max_queue_depth is not None
                and self._queued >= self.max_queue_depth
            ):
                self._rejected += 1
                retry_after = self._retry_after_estimate()
                raise QueueFullError(
                    f"compile queue is full ({self._queued} queued, "
                    f"limit {self.max_queue_depth}); retry in "
                    f"~{retry_after:.0f}s",
                    retry_after=retry_after,
                )
            job = self._new_job(key, request, priority)
            job.circuit = circuit
            job.tracer = tracer
            job.trace_parent = trace_parent
            job.profile = profile
            job.timeout_seconds = effective_timeout
            if effective_timeout is not None:
                job.deadline = time.monotonic() + effective_timeout
            self._inflight[key] = job
            job.entry = [-priority, next(self._seq), job, True]
            heapq.heappush(self._heap, job.entry)
            self._queued += 1
            self._not_empty.notify()
            return job

    def submit_batch(
        self,
        requests: Sequence[CompileRequest],
        priority: int = 0,
        priorities: Optional[Sequence[int]] = None,
        timeout: Optional[float] = None,
        timeouts: Optional[Sequence[Optional[float]]] = None,
    ) -> List[Job]:
        """Submit many requests; duplicates inside the batch coalesce
        exactly like concurrent clients do (same in-flight table).
        ``priorities`` / ``timeouts`` override the batch-wide
        ``priority`` / ``timeout`` per item.
        """
        if priorities is None:
            priorities = [priority] * len(requests)
        if len(priorities) != len(requests):
            raise ReproError(
                "submit_batch needs one priority per request "
                f"(got {len(priorities)} for {len(requests)})"
            )
        if timeouts is None:
            timeouts = [timeout] * len(requests)
        if len(timeouts) != len(requests):
            raise ReproError(
                "submit_batch needs one timeout per request "
                f"(got {len(timeouts)} for {len(requests)})"
            )
        return [
            self.submit(request, item_priority, timeout=item_timeout)
            for request, item_priority, item_timeout in zip(
                requests, priorities, timeouts
            )
        ]

    def _coalesce_onto(
        self, job: Job, priority: int, timeout: Optional[float]
    ) -> None:
        """Merge one more waiter onto ``job``; lock held.

        Escalates the queued entry to the max of its waiters'
        priorities — without this, a priority-10 request coalesced onto
        a queued priority-0 job would wait at priority 0 (the
        inversion this re-push fixes) — and keeps the most generous
        waiter's deadline (``timeout=None`` waiters remove it).
        """
        job.coalesced += 1
        self._coalesced += 1
        if priority > job.priority:
            job.priority = priority
            if job.state == QUEUED and job.entry is not None:
                job.entry[_ENTRY_ALIVE] = False
                job.entry = [-priority, next(self._seq), job, True]
                heapq.heappush(self._heap, job.entry)
        if timeout is None:
            job.deadline = None
            job.timeout_seconds = None
        elif job.deadline is not None:
            deadline = time.monotonic() + timeout
            if deadline > job.deadline:
                job.deadline = deadline
                job.timeout_seconds = timeout

    def _new_job(self, key: str, request: CompileRequest, priority: int) -> Job:
        job = Job(
            id=f"job-{next(self._job_ids):06d}",
            key=key,
            request=request,
            priority=priority,
        )
        self._jobs[job.id] = job
        return job

    def _retry_after_estimate(self) -> float:
        """Seconds a 429'd client should wait; lock held.

        Queue drain time at the recent average execution cost, spread
        across the worker fleet, clamped into
        [:data:`MIN_RETRY_AFTER`, :data:`MAX_RETRY_AFTER`].  Before
        any job has completed (cold start, no EWMA samples) each
        queued job is assumed to cost
        :data:`COLD_START_EXEC_ESTIMATE` seconds.
        """
        per_job = (
            self._avg_exec_seconds
            if self._avg_exec_seconds is not None
            else COLD_START_EXEC_ESTIMATE
        )
        estimate = (self._queued / max(self.workers, 1)) * per_job
        return min(max(estimate, MIN_RETRY_AFTER), MAX_RETRY_AFTER)

    # ------------------------------------------------------------------
    # Lookup / waiting / cancellation
    # ------------------------------------------------------------------

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def wait(self, job: Job, timeout: Optional[float] = None) -> Job:
        """Block until ``job`` resolves; raises on timeout."""
        if not job.wait(timeout):
            raise ReproError(
                f"timed out after {timeout}s waiting for {job.id}"
            )
        return job

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a job (``DELETE /jobs/<id>``); returns it, or ``None``
        for an unknown id.

        A *queued* job cancels immediately (every coalesced waiter
        wakes with state ``cancelled`` — the job is shared, so is its
        cancellation).  A *running* job on the process tier has its
        worker process terminated; the dispatcher then resolves it as
        cancelled and the lane rebuilds.  A running thread-tier job
        cannot be interrupted, and a finished job is past cancelling —
        both return unchanged (callers inspect ``job.state``).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.finished:
                return job
            if job.state == QUEUED:
                if job.entry is not None:
                    job.entry[_ENTRY_ALIVE] = False
                    job.entry = None
                    self._queued -= 1
                self._inflight.pop(job.key, None)
                job.error = "cancelled while queued"
                job.error_kind = "cancelled"
                self._finish(job, CANCELLED)
                return job
            # RUNNING
            lane = job.lane
            if lane is None:
                return job  # thread tier: uninterruptible, still running
            job.cancel_requested = True
        # Kill outside the lock: the dispatcher blocked on this lane's
        # future observes the broken pool and resolves the job.
        lane.kill()
        return job

    # ------------------------------------------------------------------
    # Dispatcher loop
    # ------------------------------------------------------------------

    def _next_job(self, lane: Optional[WorkerLane]) -> Optional[Job]:
        """Block for the next runnable job; ``None`` means shut down.

        Skips stale heap entries (escalated duplicates, cancelled or
        shutdown-failed jobs) and fails queue-waiters whose deadline
        already passed before a worker could get to them.
        """
        with self._not_empty:
            while True:
                while not self._heap and not self._shutdown:
                    self._not_empty.wait()
                if not self._heap and self._shutdown:
                    return None
                entry = heapq.heappop(self._heap)
                job = entry[_ENTRY_JOB]
                if not entry[_ENTRY_ALIVE] or job.state != QUEUED:
                    continue
                self._queued -= 1
                job.entry = None
                if (
                    job.deadline is not None
                    and time.monotonic() >= job.deadline
                ):
                    self._inflight.pop(job.key, None)
                    self._timeouts += 1
                    job.error = (
                        f"timed out after {job.timeout_seconds}s waiting "
                        "in the queue"
                    )
                    job.error_kind = "timeout"
                    self._finish(job, FAILED)
                    continue
                job.state = RUNNING
                job.started_at = time.time()
                job.lane = lane
                return job

    def _worker(
        self, lane: Optional[WorkerLane], supervisor: LaneSupervisor
    ) -> None:
        while True:
            job = self._next_job(lane)
            if job is None:
                return
            if job.attempt == 0:
                # First dispatch only: a retry's "wait" would include
                # the failed execution and lie about queue pressure.
                wait = max(
                    (job.started_at or job.created_at) - job.created_at, 0.0
                )
                self.queue_wait_hist.observe(wait)
                if job.tracer is not None:
                    job.tracer.add_raw(
                        "queue.wait",
                        job.trace_parent,
                        start=job.created_at,
                        wall_seconds=wait,
                        attrs={"priority": job.priority},
                    )
            remaining = None
            if job.deadline is not None:
                remaining = max(job.deadline - time.monotonic(), 0.001)
            # The fault token folds in the attempt number so injected
            # crashes are transient: the retry's token differs.
            token = f"{job.key}#a{job.attempt}"
            exec_request, degraded = self._dispatch_request(job)
            started = time.perf_counter()
            try:
                rule = faults.maybe_inject(faults.SITE_DISPATCH, token=token)
                if rule is not None:
                    if rule.kind == "slow":
                        time.sleep(rule.param)
                    elif rule.kind == "crash":
                        raise WorkerCrashed(
                            f"injected dispatch crash (token {token!r})"
                        )
                if lane is not None:
                    result = self._run_on_lane(
                        lane, job, exec_request, remaining, token
                    )
                else:
                    apply_worker_fault(token, hard=False)
                    result = self._run_inline(job, exec_request)
            except BaseException as exc:  # noqa: BLE001 — job carries it
                delay = self._handle_dispatch_failure(job, exc, supervisor)
                if delay > 0.0:
                    # Lane supervision: sit out the backoff (or the
                    # breaker cooldown), interruptibly so shutdown
                    # never waits on a cooling lane.
                    self._stop_event.wait(delay)
                continue
            supervisor.record_success()
            if degraded:
                job.degraded = True
                result.properties = dict(result.properties)
                result.properties["degraded"] = True
                result.properties["degraded_from"] = job.request.pipeline
            if not degraded:
                # Degraded artifacts never reach the content-addressed
                # store: the key promises the *requested* pipeline, and
                # a healthy-mode repeat must recompile, not get served
                # the cheap fallback forever.
                try:
                    self.store.put(result)
                except OSError:
                    # The compile succeeded; a full or read-only store
                    # must degrade to serving uncached results, not
                    # fail jobs.
                    with self._lock:
                        self._store_put_failures += 1
            duration = time.perf_counter() - started
            self.execute_hist.observe(duration)
            with self._lock:
                self._executions += 1
                if degraded:
                    self._degraded_executions += 1
                self._consecutive_crashes = 0
                self._crash_counts.pop(job.key, None)
                if self._avg_exec_seconds is None:
                    self._avg_exec_seconds = duration
                else:
                    self._avg_exec_seconds = (
                        0.8 * self._avg_exec_seconds + 0.2 * duration
                    )
                self._harvest_timings(exec_request.pipeline, result)
                job.lane = None
                job.result = result
                self._inflight.pop(job.key, None)
                self._finish(job, DONE)

    def _run_on_lane(
        self,
        lane: WorkerLane,
        job: Job,
        exec_request: CompileRequest,
        remaining: Optional[float],
        token: str,
    ) -> StoredResult:
        """Process-tier execution, with trace context shipped across
        the boundary when the job is traced: the lane call carries
        ``(trace_id, parent span id, profile?)`` in and the worker's
        serialized span batch comes back alongside the result."""
        tracer = job.tracer
        if tracer is None:
            return lane.run(
                exec_request,
                job.circuit,
                job.key,
                timeout=remaining,
                fault_token=token,
            )
        with tracer.start_span(
            "job.execute", parent_id=job.trace_parent
        ) as exec_span:
            exec_span.set("tier", "process").set("attempt", job.attempt)
            result, worker_spans = lane.run(
                exec_request,
                job.circuit,
                job.key,
                timeout=remaining,
                fault_token=token,
                trace_ctx=(tracer.trace_id, exec_span.span_id, job.profile),
            )
        tracer.add_spans(worker_spans)
        return result

    def _run_inline(
        self, job: Job, exec_request: CompileRequest
    ) -> StoredResult:
        """Thread-tier execution on the dispatcher thread itself,
        activating the job's tracer (and profiler) around the call."""
        kwargs: Dict[str, object] = {}
        if self.trial_jobs is not None:
            # Injected test compile_fns may not accept the kwarg, so it
            # is only passed when the multi-core sweep is configured.
            kwargs["trial_jobs"] = self.trial_jobs
        tracer = job.tracer
        if tracer is None:
            return self.compile_fn(
                exec_request, circuit=job.circuit, key=job.key, **kwargs
            )
        with tracing(tracer, parent_id=job.trace_parent):
            with span("job.execute") as exec_span:
                exec_span.set("tier", "thread").set("attempt", job.attempt)
                if not job.profile:
                    return self.compile_fn(
                        exec_request, circuit=job.circuit, key=job.key,
                        **kwargs,
                    )
                with profiled_routing() as profiler:
                    result = self.compile_fn(
                        exec_request, circuit=job.circuit, key=job.key,
                        **kwargs,
                    )
                if not profiler.empty:
                    tracer.add_raw(
                        "router.profile",
                        exec_span.span_id,
                        start=time.time(),
                        wall_seconds=profiler.kernel_seconds,
                        attrs=profiler.to_dict(),
                    )
                return result

    def _dispatch_request(self, job: Job) -> tuple:
        """(request to execute, degraded?) — the degradation decision,
        made at dispatch time so pressure is measured when the job
        actually runs, not when it was queued."""
        if self.degrade_enabled:
            fallback = DEGRADE_PRESET_MAP.get(job.request.pipeline)
            if fallback is not None:
                with self._lock:
                    pressured = not self._shutdown and self._pressure_locked()
                if pressured:
                    return replace(job.request, pipeline=fallback), True
        return job.request, False

    def _handle_dispatch_failure(
        self, job: Job, exc: BaseException, supervisor: LaneSupervisor
    ) -> float:
        """Classify a dispatch exception; returns the lane's sit-out
        seconds (0 for failures that aren't lane losses).

        Crash-class failures walk the self-healing ladder: requeue up
        to ``crash_retries`` times; a fingerprint reaching
        ``poison_threshold`` total crashes is quarantined and fails
        with ``error_kind: "poison"``.
        """
        delay = 0.0
        with self._lock:
            job.lane = None
            if job.cancel_requested:
                self._inflight.pop(job.key, None)
                job.error = "cancelled while running"
                job.error_kind = "cancelled"
                self._finish(job, CANCELLED)
            elif isinstance(exc, JobTimeout):
                self._inflight.pop(job.key, None)
                self._timeouts += 1
                job.error = f"{type(exc).__name__}: {exc}"
                job.error_kind = "timeout"
                self._finish(job, FAILED)
            elif isinstance(exc, WorkerCrashed):
                self._worker_crashes += 1
                self._consecutive_crashes += 1
                delay = supervisor.record_failure()
                if isinstance(exc, LaneStartupError):
                    # The lane's worker never came up — a sick lane,
                    # not a killer job.  Retry like a crash, but never
                    # charge the fingerprint's poison count: the job's
                    # code was never reached.
                    crashes = self._crash_counts.get(job.key, 0)
                else:
                    crashes = self._crash_counts.get(job.key, 0) + 1
                    self._crash_counts[job.key] = crashes
                if crashes >= self.poison_threshold:
                    self._poisoned[job.key] = crashes
                    self._crash_counts.pop(job.key, None)
                    self._inflight.pop(job.key, None)
                    job.error = (
                        f"poison job: fingerprint {job.key[:12]} crashed "
                        f"{crashes} worker process(es); quarantined"
                    )
                    job.error_kind = "poison"
                    self._finish(job, FAILED)
                elif job.attempt < self.crash_retries and not self._shutdown:
                    self._retries += 1
                    self._requeue_locked(job)
                else:
                    self._inflight.pop(job.key, None)
                    job.error = f"{type(exc).__name__}: {exc}"
                    job.error_kind = "crash"
                    self._finish(job, FAILED)
            else:
                self._inflight.pop(job.key, None)
                job.error = f"{type(exc).__name__}: {exc}"
                job.error_kind = "error"
                self._finish(job, FAILED)
        return delay

    def _requeue_locked(self, job: Job) -> None:
        """Put a crash-retried job back on the queue; lock held.  The
        job stays in the in-flight table (waiters keep their handle),
        keeps its priority and deadline, and bumps its attempt."""
        job.attempt += 1
        job.state = QUEUED
        job.started_at = None
        job.entry = [-job.priority, next(self._seq), job, True]
        heapq.heappush(self._heap, job.entry)
        self._queued += 1
        self._not_empty.notify()

    def _finish(self, job: Job, state: str) -> None:
        """Terminal transition + finished-job retention; lock held.

        Idempotent: a job can race shutdown's pending-sweep against a
        slow worker's own completion — first transition wins.
        """
        if job.finished:
            return
        job.state = state
        job.finished_at = time.time()
        if state == DONE:
            self._completed += 1
        elif state == CANCELLED:
            self._cancelled += 1
        else:
            self._failed += 1
        self._finished_order.append(job.id)
        while len(self._finished_order) > MAX_FINISHED_JOBS:
            self._jobs.pop(self._finished_order.pop(0), None)
        job.event.set()

    def _harvest_timings(self, preset: str, result: StoredResult) -> None:
        per_pass = self._pass_timings.setdefault(preset, {})
        for name, seconds in result.properties.get("pass_timings", []):
            bucket = per_pass.setdefault(name, [0, 0.0])
            bucket[0] += 1
            bucket[1] += float(seconds)

    # ------------------------------------------------------------------
    # Introspection / shutdown
    # ------------------------------------------------------------------

    def _pressure_locked(self) -> bool:
        """Is the fleet under enough pressure to degrade?  Lock held.

        True on repeated lane loss (``degrade_crash_threshold``
        consecutive fleet-wide crashes, or any open circuit breaker)
        or sustained queue pressure (``degrade_queue_threshold``
        queued jobs)."""
        if (
            self.degrade_crash_threshold > 0
            and self._consecutive_crashes >= self.degrade_crash_threshold
        ):
            return True
        if any(s.breaker_open for s in self._supervisors):
            return True
        if (
            self.degrade_queue_threshold is not None
            and self._queued >= self.degrade_queue_threshold
        ):
            return True
        return False

    def _health_locked(self) -> str:
        if self._shutdown:
            return HEALTH_DRAINING
        if self.degrade_enabled and self._pressure_locked():
            return HEALTH_DEGRADED
        return HEALTH_OK

    def health(self) -> str:
        """``ok`` | ``degraded`` | ``draining`` (for ``GET /healthz``)."""
        with self._lock:
            return self._health_locked()

    def queue_depth(self) -> int:
        """Live queued-job count — the cheap accessor ``/healthz``
        reads instead of assembling the full :meth:`stats` payload
        (which walks the pass-timing aggregation on every call)."""
        with self._lock:
            return self._queued

    def lane_pids(self) -> List[int]:
        """Live worker-process PIDs across all lanes (empty on the
        thread tier); after ``shutdown`` this must drain to empty —
        the no-orphaned-workers assertion chaos tests lean on."""
        pids: List[int] = []
        for lane in self._lanes:
            if lane is not None:
                pids.extend(lane.pids())
        return pids

    def stats(self) -> Dict[str, object]:
        """Counter snapshot for ``GET /stats``."""
        with self._lock:
            return {
                "workers": self.workers,
                "execution": self.execution,
                "health": self._health_locked(),
                "submitted": self._submitted,
                "store_answered": self._store_answered,
                "coalesced": self._coalesced,
                "executions": self._executions,
                "completed": self._completed,
                "failed": self._failed,
                "cancelled": self._cancelled,
                "timeouts": self._timeouts,
                "worker_crashes": self._worker_crashes,
                "retries": self._retries,
                "poisoned": len(self._poisoned),
                "poisoned_failures": self._poisoned_failures,
                "degraded_executions": self._degraded_executions,
                "consecutive_crashes": self._consecutive_crashes,
                "breaker_trips": sum(
                    s.breaker_trips for s in self._supervisors
                ),
                "lanes": [s.snapshot() for s in self._supervisors],
                "rejected": self._rejected,
                "store_put_failures": self._store_put_failures,
                "queue_depth": self._queued,
                "max_queue_depth": self.max_queue_depth,
                "inflight": len(self._inflight),
                "lane_restarts": sum(
                    lane.restarts for lane in self._lanes if lane is not None
                ),
                "avg_exec_seconds": (
                    round(self._avg_exec_seconds, 6)
                    if self._avg_exec_seconds is not None
                    else None
                ),
                "shutdown_unjoined": list(self._unjoined),
                "pass_timings": {
                    preset: {
                        name: {"calls": calls, "seconds": round(sec, 6)}
                        for name, (calls, sec) in sorted(per_pass.items())
                    }
                    for preset, per_pass in sorted(self._pass_timings.items())
                },
            }

    def shutdown(self, wait: bool = True) -> List[str]:
        """Stop accepting work; drain the queue, then stop the workers.

        With ``wait=True`` the dispatchers get ``join_timeout`` seconds
        *total* to drain and exit.  Any dispatcher still alive after
        that is hung (a wedged worker process, a stuck compile) — its
        lane's process is terminated to unblock it, and every job that
        still hasn't resolved is failed with a shutdown error so no
        waiter blocks forever on a scheduler that no longer exists.
        Returns the names of dispatchers that could not be joined
        (also reported in ``stats()["shutdown_unjoined"]``).
        """
        with self._not_empty:
            self._shutdown = True
            self._not_empty.notify_all()
        # Wake any lane sitting out a supervision backoff or breaker
        # cooldown — shutdown must never wait on a cooling lane.
        self._stop_event.set()
        unjoined: List[str] = []
        if wait:
            deadline = time.monotonic() + self.join_timeout
            for thread in self._threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
                if thread.is_alive():
                    unjoined.append(thread.name)
            if unjoined and self.execution == "process":
                # A dispatcher blocked on a hung worker process: kill
                # the process so the future breaks, then re-join.
                for thread, lane in zip(self._threads, self._lanes):
                    if thread.is_alive() and lane is not None:
                        lane.kill()
                unjoined = []
                for thread in self._threads:
                    if thread.is_alive():
                        thread.join(timeout=2.0)
                    if thread.is_alive():
                        unjoined.append(thread.name)
            with self._lock:
                pending = [
                    job for job in self._jobs.values() if not job.finished
                ]
                for job in pending:
                    if job.entry is not None:
                        job.entry[_ENTRY_ALIVE] = False
                        job.entry = None
                    job.error = (
                        "scheduler shut down before the job could run"
                        if job.state == QUEUED
                        else "scheduler shut down while the job was "
                        "running (worker unresponsive)"
                    )
                    job.error_kind = "shutdown"
                    self._finish(job, FAILED)
                self._heap.clear()
                self._queued = 0
                self._inflight.clear()
                self._unjoined = list(unjoined)
            if unjoined:
                print(
                    f"warning: {len(unjoined)} scheduler dispatcher(s) "
                    f"failed to join within {self.join_timeout}s: "
                    f"{', '.join(unjoined)}",
                    file=sys.stderr,
                )
        for lane in self._lanes:
            if lane is not None:
                lane.shutdown()
        return unjoined
