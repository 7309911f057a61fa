"""The GEMM service facade: admission, scheduling, execution, completion.

:class:`GemmService` wires the serving pipeline together —

    submit() -> AdmissionQueue -> BatchScheduler -> WorkerPool -> futures

— and owns the one invariant every other module contributes to: **each
admitted request is answered exactly once**, whatever mix of faults,
retries, shedding, expiry and shutdown it meets on the way. Completion is
funnelled through a single :meth:`_complete` hook that stamps latency,
records metrics and the ``serve.request`` span, and resolves the future;
the future's one-shot guard turns any accounting bug into a counted
``serve.duplicate_responses`` instead of a corrupted answer.

Trace layout (kept compatible with the structural validator, which wants
spans on one tid to nest or stay disjoint):

- each request's lifetime span goes on its **own** tid lane
  (``10000 + seq``) — request lifetimes overlap arbitrarily, so they
  cannot share a lane;
- each worker's batch spans go on lane ``1000 + worker_index`` — one
  worker runs one batch at a time, so its spans are naturally disjoint.

Shutdown comes in two flavours: :meth:`drain` closes admission, lets the
scheduler and workers finish everything queued, then retires them;
:meth:`shutdown` with ``drain=False`` answers the backlog with status
``cancelled`` instead of executing it.
"""

from __future__ import annotations

import collections
import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.core.config import FTGemmConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serve.pool import WorkerPool
from repro.serve.queue import AdmissionQueue
from repro.serve.request import (
    GemmRequest,
    GemmResponse,
    ResponseFuture,
    Ticket,
)
from repro.serve.scheduler import BatchScheduler
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class ServiceConfig:
    """Everything tunable about the serving layer.

    The fault-tolerance side (``ft``) is a plain :class:`FTGemmConfig`
    handed to every worker driver; serving knobs sit alongside it.
    ``degraded_depth`` arms the pressure valve: once the backlog (admission
    queue plus formed-but-unclaimed batches) is at least that deep, batches
    run with a checksum-only config (no escalation supervisor) until the
    backlog recedes; None disables it.
    """

    workers: int = 2
    #: admission queue capacity (requests)
    capacity: int = 256
    #: backpressure policy: "block" | "reject" | "shed-lowest"
    policy: str = "block"
    #: coalescing limit (requests per batch)
    max_batch: int = 16
    #: batching window the scheduler holds a non-full lane open (seconds)
    window_s: float = 0.002
    #: re-executions after a failed/unverified attempt
    retry_budget: int = 2
    #: first retry backoff; doubles per attempt (seconds)
    backoff_base_s: float = 0.001
    #: consecutive failed batches before a worker is quarantined
    quarantine_after: int = 3
    #: backlog depth (queue + ready batches) that flips execution to
    #: degraded mode (None = never)
    degraded_depth: int | None = None
    #: intra-request GEMM threads (1 = serial FTGemm per worker;
    #: > 1 = ParallelFTGemm per worker)
    gemm_threads: int = 1
    #: byte budget of the cross-request packed-panel cache (None = off;
    #: the default — enabling it changes no correctness but alters the
    #: cost profile of hot-B traffic). Ignored when ``gemm_threads > 1``:
    #: the parallel driver rebuilds every buffer per epoch by design.
    panel_cache_bytes: int | None = None
    #: how much deeper the backlog may grow before degraded mode engages
    #: when the panel cache is running hot (multiplier on
    #: ``degraded_depth`` at a 100% recent hit ratio; 1.0 = no relief).
    #: Rationale: a hot cache removes the whole pack_b+encode phase from
    #: each batch, so the same backlog clears faster — degrading
    #: verification effort at the cold-cache threshold would shed quality
    #: the service no longer needs to shed.
    degraded_cache_relief: float = 2.0
    #: team backend for ParallelFTGemm ("simulated" | "threads")
    team_backend: str = "simulated"
    #: driver configuration shared by every worker
    ft: FTGemmConfig = field(default_factory=FTGemmConfig)
    #: collect serve-layer spans/metrics (drivers stay untraced — their
    #: spans would collide with the serve lanes)
    trace: bool = False
    #: worker **processes** (the process tier). 0 — the default — keeps
    #: execution in the thread tier above; > 0 replaces the thread pool
    #: with a :class:`~repro.serve.proc.pool.ProcWorkerPool` of this many
    #: spawned processes (``workers`` is then ignored: the process is the
    #: worker)
    processes: int = 0
    #: child heartbeat interval (seconds); also the monitor's tick
    proc_heartbeat_s: float = 0.05
    #: heartbeat intervals without progress before a live-but-frozen
    #: worker is declared dead (window = heartbeat_s * miss_limit)
    proc_miss_limit: int = 40
    #: times one batch may lose its worker process before its requests
    #: are answered ``failed`` (bounds the replay loop)
    proc_max_replays: int = 3
    #: worker deaths on one shape bucket before that bucket is pinned to
    #: degraded (checksum-only) execution
    proc_bucket_degraded_after: int = 2
    #: total replacement processes the pool may spawn over its lifetime
    proc_respawn_budget: int = 16
    #: batches in flight per worker process (pipelines dispatch against
    #: execution; the ready lane stays bounded by the scheduler)
    proc_inflight_per_worker: int = 2
    #: operand transport: "shm" (named SharedMemory segments) or
    #: "pickle" (operand bytes inline in the control pipe — the
    #: benchmark baseline)
    proc_transport: str = "shm"
    #: largest operand staged through a segment; bigger falls back to
    #: inline bytes (None = no limit)
    proc_shm_max_bytes: int | None = None
    #: hot-B operands mirrored into each worker process (0 = off)
    proc_b_cache_entries: int = 8
    #: respawned workers must pass a probation probe before readmission
    proc_probation: bool = True
    #: seed for per-worker RNG derivation (determinism across platforms)
    proc_seed: int = 0

    def validate(self) -> "ServiceConfig":
        problems: list[str] = []
        if self.workers < 1:
            problems.append(f"workers must be >= 1, got {self.workers}")
        if self.retry_budget < 0:
            problems.append(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.backoff_base_s < 0:
            problems.append(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.quarantine_after < 1:
            problems.append(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )
        if self.degraded_depth is not None and self.degraded_depth < 1:
            problems.append(
                f"degraded_depth must be >= 1 or None, got "
                f"{self.degraded_depth}"
            )
        if self.panel_cache_bytes is not None and self.panel_cache_bytes < 1:
            problems.append(
                f"panel_cache_bytes must be >= 1 or None, got "
                f"{self.panel_cache_bytes}"
            )
        if self.degraded_cache_relief < 1.0:
            problems.append(
                f"degraded_cache_relief must be >= 1.0, got "
                f"{self.degraded_cache_relief}"
            )
        if self.processes < 0:
            problems.append(
                f"processes must be >= 0, got {self.processes}"
            )
        if self.proc_heartbeat_s <= 0:
            problems.append(
                f"proc_heartbeat_s must be positive, got "
                f"{self.proc_heartbeat_s}"
            )
        if self.proc_miss_limit < 1:
            problems.append(
                f"proc_miss_limit must be >= 1, got {self.proc_miss_limit}"
            )
        if self.proc_max_replays < 0:
            problems.append(
                f"proc_max_replays must be >= 0, got "
                f"{self.proc_max_replays}"
            )
        if self.proc_bucket_degraded_after < 1:
            problems.append(
                f"proc_bucket_degraded_after must be >= 1, got "
                f"{self.proc_bucket_degraded_after}"
            )
        if self.proc_respawn_budget < 0:
            problems.append(
                f"proc_respawn_budget must be >= 0, got "
                f"{self.proc_respawn_budget}"
            )
        if self.proc_inflight_per_worker < 1:
            problems.append(
                f"proc_inflight_per_worker must be >= 1, got "
                f"{self.proc_inflight_per_worker}"
            )
        if self.proc_transport not in ("shm", "pickle"):
            problems.append(
                f"proc_transport must be 'shm' or 'pickle', got "
                f"{self.proc_transport!r}"
            )
        if (
            self.proc_shm_max_bytes is not None
            and self.proc_shm_max_bytes < 1
        ):
            problems.append(
                f"proc_shm_max_bytes must be >= 1 or None, got "
                f"{self.proc_shm_max_bytes}"
            )
        if self.proc_b_cache_entries < 0:
            problems.append(
                f"proc_b_cache_entries must be >= 0, got "
                f"{self.proc_b_cache_entries}"
            )
        if problems:
            raise ConfigError(
                "inconsistent ServiceConfig: " + "; ".join(problems)
            )
        # driver-side consistency (raises its own ConfigError)
        self.ft.validate(
            n_threads=self.gemm_threads if self.gemm_threads > 1 else None
        )
        return self

    @property
    def effective_workers(self) -> int:
        """Execution-unit count of the selected tier: processes when the
        process tier is on, threads otherwise (sizes the ready lane)."""
        return self.processes if self.processes > 0 else self.workers


class GemmService:
    """The serving facade: submit requests, receive exactly-once responses.

    Typical use::

        service = GemmService(ServiceConfig(workers=4))
        service.start()
        ticket = service.submit(GemmRequest(a, b, priority=1))
        response = ticket.result(timeout=5.0)
        service.drain()

    ``injector_factory(shape, attempt, request_id, config, kernel)`` —
    when given — is consulted before every execution attempt and may
    return a :class:`~repro.faults.injector.FaultInjector` (or None) to
    exercise the fault-tolerance machinery with live traffic. It is a
    thread-tier construct (a live injector cannot cross a process
    boundary); with ``processes > 0`` pass
    ``fault_spec_factory(request_id, config, kernel)`` instead — a
    picklable spec dict each worker process rebuilds its injector from —
    and optionally ``chaos(batch_id, deaths)`` returning a process-kill
    phase for the chaos storm.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        injector_factory=None,
        fault_spec_factory=None,
        chaos=None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        clock=time.monotonic,
        tune_db=None,
    ) -> None:
        self.config = (config or ServiceConfig()).validate()
        #: optional :class:`~repro.tune.db.TuningDB` consulted once per
        #: request at admission; ``None`` (the default) leaves every
        #: request on the static config — byte-for-byte the untuned
        #: service's behavior (pinned by the A/B test)
        self.tune_db = tune_db
        if self.config.processes > 0 and injector_factory is not None:
            raise ConfigError(
                "injector_factory cannot cross the process boundary; "
                "use fault_spec_factory with processes > 0"
            )
        if self.config.processes == 0 and (
            fault_spec_factory is not None or chaos is not None
        ):
            raise ConfigError(
                "fault_spec_factory/chaos require the process tier "
                "(processes > 0); the thread tier takes injector_factory"
            )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if tracer is None and self.config.trace:
            tracer = Tracer(metrics=self.metrics)
        self.tracer = tracer
        self.clock = clock
        #: cross-request packed-panel cache, shared by the scheduler
        #: (recency touch at batch formation) and every worker (verified
        #: acquire at execution); None when disabled
        self.panel_cache = None
        if self.config.panel_cache_bytes is not None:
            from repro.gemm.panelcache import PanelCache

            self.panel_cache = PanelCache(
                self.config.panel_cache_bytes,
                metrics=self.metrics,
                tracer=self.tracer,
            )
        self.queue = AdmissionQueue(
            self.config.capacity,
            policy=self.config.policy,
            metrics=self.metrics,
            clock=clock,
        )
        self.scheduler = BatchScheduler(
            self.queue,
            max_batch=self.config.max_batch,
            window_s=self.config.window_s,
            # one batch in flight per worker plus one forming keeps every
            # worker busy while leaving the backlog under queue policy
            max_ready=self.config.effective_workers + 1,
            on_expired=lambda req: self._complete(
                req,
                GemmResponse(request_id=req.request_id, status="expired",
                             error="deadline passed while queued"),
            ),
            metrics=self.metrics,
            clock=clock,
            panel_cache=self.panel_cache,
        )
        if self.config.processes > 0:
            # the process tier: same scheduler, same _complete contract,
            # but the execution fault domain is a spawned process (import
            # here keeps serve.service out of the proc package's graph)
            from repro.serve.proc.pool import ProcWorkerPool

            self.pool = ProcWorkerPool(
                self.scheduler,
                self.config,
                complete=self._complete,
                use_degraded=self._use_degraded,
                metrics=self.metrics,
                tracer=self.tracer,
                fault_spec_factory=fault_spec_factory,
                chaos=chaos,
            )
        else:
            self.pool = WorkerPool(
                self.scheduler,
                self.config,
                complete=self._complete,
                injector_factory=injector_factory,
                use_degraded=self._use_degraded,
                metrics=self.metrics,
                tracer=self.tracer,
                panel_cache=self.panel_cache,
            )
        self._ids = itertools.count()
        self._lane_seq = itertools.count()
        self._lock = threading.Lock()
        #: per-request bookkeeping held only while the request is in
        #: flight — _complete prunes all four maps, so a long-running
        #: service does not grow with total traffic served
        self._futures: dict[str, ResponseFuture] = {}
        #: tid lane per request id for the serve.request span
        self._lanes: dict[str, int] = {}
        self._started_at: dict[str, float] = {}
        self._span_t0: dict[str, float] = {}
        #: bounded LRU of resolved futures: late result() callers still
        #: find their response, and a late second completion still hits
        #: the one-shot guard and is counted as a duplicate
        self._recent: collections.OrderedDict[str, ResponseFuture] = (
            collections.OrderedDict()
        )
        self._recent_cap = max(1024, 4 * self.config.capacity)
        self._started = False
        self._stopped = False
        #: responses delivered, by status (exact integers for reports)
        self.completed: dict[str, int] = {}
        self.duplicates = 0

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "GemmService":
        if self._started:
            return self
        self._started = True
        self.scheduler.start()
        self.pool.start()
        return self

    def __enter__(self) -> "GemmService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()

    def drain(self) -> None:
        """Close admission, execute everything queued, then retire."""
        self.shutdown(drain=True)

    def shutdown(self, *, drain: bool = True) -> None:
        if self._stopped:
            return
        self._stopped = True
        if drain:
            # seal: refuse new admissions but keep the backlog — the
            # scheduler keeps popping a sealed queue until it is empty
            # (that's its exit signal), workers keep executing until the
            # scheduler's ready lane drains, and only then does stop()
            # return. Every in-flight request gets its real answer.
            self.queue.seal()
            self.scheduler.stop(join=True)
            self.pool.stop(join=True)
        else:
            leftovers = self.queue.close()
            self.scheduler.stop(join=True)
            self.pool.stop(join=True)
            for request in leftovers:
                self._complete(
                    request,
                    GemmResponse(
                        request_id=request.request_id,
                        status="cancelled",
                        error="service shut down before execution",
                    ),
                )

    # -------------------------------------------------------------- admission
    def submit(
        self,
        request: GemmRequest,
        *,
        timeout: float | None = None,
    ) -> Ticket:
        """Admit a request; returns a :class:`Ticket` whose future resolves
        to the terminal response (including non-ok outcomes — a rejected
        or shed request gets its answer through the same future)."""
        if not self._started or self._stopped:
            raise ConfigError(
                "service is not running (call start(); submit after "
                "drain/shutdown is refused)"
            )
        if request.request_id is None:
            request.request_id = f"r{next(self._ids):06d}"
        if self.tune_db is not None and request.kernel == "gemm":
            # one dict lookup per admission: resolve the shape class to a
            # tuned config (or fall back to static on a miss / stale DB);
            # the DB is keyed on GEMM (m, n, k) classes, so other kernels
            # stay on their static configs
            tuned = self.tune_db.resolve(request.m, request.n, request.k)
            if tuned is not None:
                request.tuned = tuned
                self.metrics.inc("tune.resolve_hits")
            else:
                self.metrics.inc("tune.resolve_misses")
        future = ResponseFuture()
        with self._lock:
            self._futures[request.request_id] = future
            # monotonic lane numbers: len(_lanes) would shrink as
            # _complete prunes, handing one tid to overlapping requests
            self._lanes[request.request_id] = 10000 + next(self._lane_seq)
            self._started_at[request.request_id] = self.clock()
            if self.tracer is not None:
                self._span_t0[request.request_id] = self.tracer.now_us()
        admission = self.queue.put(request, timeout=timeout)
        if not admission.admitted:
            self._complete(
                request,
                GemmResponse(
                    request_id=request.request_id,
                    status="rejected",
                    error=admission.reason,
                ),
            )
        elif admission.victim is not None:
            self._complete(
                admission.victim,
                GemmResponse(
                    request_id=admission.victim.request_id,
                    status="shed",
                    error="evicted for higher-priority work",
                ),
            )
        return Ticket(request_id=request.request_id, future=future)

    # ------------------------------------------------------------- completion
    def _complete(self, request: GemmRequest, response: GemmResponse) -> None:
        """The single funnel every terminal response passes through."""
        with self._lock:
            future = self._futures.pop(response.request_id, None)
            lane = self._lanes.pop(response.request_id, 0)
            started = self._started_at.pop(response.request_id, None)
            span_t0 = self._span_t0.pop(response.request_id, None)
            if future is None:
                # already completed (or never submitted): the resolved
                # future, if still retained, turns this into a counted
                # duplicate via its one-shot guard
                future = self._recent.get(response.request_id)
            else:
                self._recent[response.request_id] = future
                while len(self._recent) > self._recent_cap:
                    self._recent.popitem(last=False)
        if started is not None:
            response.latency_s = self.clock() - started
        if future is None or not future.set(response):
            with self._lock:
                self.duplicates += 1
            self.metrics.inc("serve.duplicate_responses")
            return
        with self._lock:
            self.completed[response.status] = (
                self.completed.get(response.status, 0) + 1
            )
        self.metrics.inc(f"serve.responses.{response.status}")
        self.metrics.observe(
            "serve.latency_ms", response.latency_s * 1e3
        )
        if response.ok:
            self.metrics.observe(
                "serve.attempts", float(response.attempts)
            )
        if self.tracer is not None and span_t0 is not None:
            self.tracer.complete(
                "serve.request",
                cat="serve",
                tid=lane,
                t0_us=span_t0,
                args={
                    "request_id": response.request_id,
                    "status": response.status,
                    "attempts": response.attempts,
                    "batch_size": response.batch_size,
                    "degraded": response.degraded,
                },
            )

    def _use_degraded(self) -> bool:
        depth = self.config.degraded_depth
        if depth is None:
            return False
        if self.panel_cache is not None:
            # cache-state-aware pressure valve: a hot cache removes the
            # pack_b+encode phase from each batch, so the same backlog
            # clears faster — stretch the threshold proportionally to the
            # recent hit ratio before shedding verification effort
            relief = self.config.degraded_cache_relief
            depth = depth * (
                1.0 + (relief - 1.0) * self.panel_cache.recent_hit_ratio()
            )
        # pressure = everything admitted but not yet executing: requests
        # still in the admission queue plus batches already formed and
        # waiting for a worker (the scheduler transfers aggressively, so
        # the queue alone understates the backlog)
        return self.queue.depth + self.scheduler.ready_depth >= depth

    # ------------------------------------------------------------- inspection
    def result(
        self, request_id: str, timeout: float | None = None
    ) -> GemmResponse:
        """Block for the response to a previously submitted request."""
        with self._lock:
            future = self._futures.get(request_id)
            if future is None:
                future = self._recent.get(request_id)
        if future is None:
            raise KeyError(f"unknown request id {request_id!r}")
        return future.result(timeout)

    def stats(self) -> dict:
        """A JSON-serialisable snapshot for reports and the CLI."""
        with self._lock:
            completed = dict(self.completed)
            duplicates = self.duplicates
        snapshot = {
            "completed": completed,
            "duplicates": duplicates,
            "scheduler": {
                "batches": self.scheduler.stats.batches,
                "coalesced_batches": self.scheduler.stats.coalesced_batches,
                "coalesced_requests": self.scheduler.stats.coalesced_requests,
                "singleton_batches": self.scheduler.stats.singleton_batches,
                "expired": self.scheduler.stats.expired,
            },
            "quarantined_workers": list(self.pool.quarantined),
            "metrics": self.metrics.snapshot(),
        }
        if self.panel_cache is not None:
            snapshot["panel_cache"] = self.panel_cache.stats()
        if self.tune_db is not None:
            snapshot["tune_db"] = {
                "entries": len(self.tune_db),
                "stale": self.tune_db.stale,
                "fingerprint": self.tune_db.fingerprint,
            }
        if self.config.processes > 0:
            snapshot["proc"] = self.pool.stats()
        return snapshot
