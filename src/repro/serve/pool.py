"""Supervised worker pool: execution, retries, quarantine, degraded mode.

Each worker is an OS thread owning its own engine cache
(:class:`~repro.serve.execute.Worker`: driver instances — ``FTGemm``, or
``ParallelFTGemm`` when the service config asks for intra-request
threading — plus the shared panel-cache consult); drivers are reusable
but not reentrant, so nothing is shared between workers. Batches run
through the execution core both tiers share (:mod:`repro.serve.execute`).
Every driver runs with the escalation supervisor enabled: in-call
recovery (correction, targeted recompute, repack, DMR) is the first line
of defence and comes for free from the core layer.

The pool adds the *service-level* resilience on top:

- **retries with exponential backoff** (the shared core's
  :func:`~repro.serve.execute.run`) — a unit whose execution raises
  (:class:`UncorrectableError`, or any unexpected exception from a faulty
  substrate) or returns unverified is re-executed up to ``retry_budget``
  times, with ``backoff_base_s * 2**(attempt - 1)`` sleeps before each
  retry; fresh attempts rebuild all driver state, so transient poisonings
  do not survive;
- **worker quarantine** — a worker whose batches keep failing
  (``quarantine_after`` consecutive failures) is presumed to sit on bad
  substrate (sticky faults the injector model makes persistent); it
  retires itself and the pool spawns a replacement, mirroring how a fleet
  rotates a bad host out of rotation;
- **degraded mode** — when the admission queue is deeper than
  ``degraded_depth``, batches execute with a cheaper checksum-only
  config (no escalation supervisor, no recompute fallback): under
  pressure the service trades per-call repair effort for throughput,
  leaning on retries for the rare unverified result.

Responses are delivered through the service's completion hook; the pool
never answers a request twice (the future's one-shot guard is the final
backstop, and the soak tests count duplicates).
"""

from __future__ import annotations

import threading
import time

from repro.obs.metrics import NULL_METRICS
from repro.serve.execute import Worker, answers, run, units_of
from repro.serve.request import GemmRequest, GemmResponse
from repro.serve.scheduler import Batch, BatchScheduler


class WorkerPool:
    """Spawns, replaces and retires the workers draining the scheduler."""

    def __init__(
        self,
        scheduler: BatchScheduler,
        service_config,
        *,
        complete,
        injector_factory=None,
        use_degraded=None,
        metrics=NULL_METRICS,
        tracer=None,
        sleep=time.sleep,
        panel_cache=None,
    ) -> None:
        self.scheduler = scheduler
        self.config = service_config
        self.complete = complete
        self.injector_factory = injector_factory
        self.use_degraded = use_degraded or (lambda: False)
        #: optional :class:`~repro.gemm.panelcache.PanelCache` shared by
        #: every worker (the cache is internally locked; entries are
        #: immutable once built, so concurrent consumers are safe)
        self.panel_cache = panel_cache
        self.metrics = metrics
        self.tracer = tracer
        self.sleep = sleep
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._next_index = 0
        self._stopping = False
        self.quarantined: list[int] = []

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        for _ in range(self.config.workers):
            self._spawn()

    def _spawn(self) -> bool:
        with self._lock:
            if self._stopping:
                return False
            index = self._next_index
            self._next_index += 1
            thread = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"serve-worker-{index}",
                daemon=True,
            )
            self._threads.append(thread)
        thread.start()
        return True

    def stop(self, join: bool = True) -> None:
        with self._lock:
            self._stopping = True
        if join:
            # quarantine replacements may race the snapshot: keep joining
            # until no thread remains unjoined
            joined: set[threading.Thread] = set()
            while True:
                with self._lock:
                    pending = [t for t in self._threads if t not in joined]
                if not pending:
                    break
                for thread in pending:
                    thread.join()
                    joined.add(thread)

    # ------------------------------------------------------------ worker loop
    def _worker_loop(self, index: int) -> None:
        worker = Worker(index, self.config, panel_cache=self.panel_cache,
                        metrics=self.metrics)
        while True:
            batch = self.scheduler.next_batch(timeout=0.05)
            if batch is None:
                # stale read tolerated: the flag is re-polled within 50ms
                # and stop() joins, so retirement is never missed
                if self.scheduler.finished or self._stopping:  # analysis: ignore[lock-discipline]
                    return
                continue
            self._execute_batch(worker, batch)
            if worker.consecutive_failures >= self.config.quarantine_after:
                if self._quarantine(worker):
                    return
                # shutdown refused the replacement: the suspect worker
                # soldiers on so nothing in the ready lane is orphaned —
                # answering every request beats retiring a bad host
                worker.consecutive_failures = 0

    def _quarantine(self, worker: Worker) -> bool:
        """Retire a repeatedly failing worker; returns True when a
        replacement took over (False during shutdown — the caller keeps
        the worker alive to finish the drain)."""
        self.metrics.inc("serve.worker_quarantined")
        if self.tracer is not None:
            self.tracer.event(
                "serve.quarantine",
                cat="serve",
                tid=1000 + worker.index,
                args={"worker": worker.index,
                      "failures": worker.consecutive_failures},
            )
        with self._lock:
            self.quarantined.append(worker.index)
        # replace the lost capacity unless the pool is shutting down
        return self._spawn()

    # -------------------------------------------------------------- execution
    def _execute_batch(self, worker: Worker, batch: Batch) -> None:
        # deadline check at the last moment before work starts: a request
        # can outlive its deadline inside a formed batch while the worker
        # chews through earlier ones — running it then wastes the very
        # capacity the deadline was protecting
        now = self.scheduler.clock()
        live: list[GemmRequest] = []
        for request in batch.items:
            if request.expired(now):
                self.metrics.inc("serve.expired")
                self.complete(
                    request,
                    GemmResponse(
                        request_id=request.request_id,
                        status="expired",
                        error="deadline passed before execution",
                        worker=worker.index,
                    ),
                )
            else:
                live.append(request)
        if not live:
            return
        if len(live) != len(batch.items):
            batch = Batch(
                items=live,
                bucket=batch.bucket,
                batch_id=batch.batch_id,
                formed_at=batch.formed_at,
            )
        degraded = bool(self.use_degraded())
        if degraded:
            self.metrics.inc("serve.degraded_batches")
        tr = self.tracer
        t0 = tr.now_us() if tr is not None else 0.0
        # materialize before reducing: all() over a generator would
        # short-circuit on the first failure and strand every later
        # request in the batch without a response
        results = [
            self._run_unit(worker, batch, unit, members, degraded)
            for unit, members in units_of(batch)
        ]
        ok = all(results)
        if tr is not None:
            tr.complete(
                "serve.batch",
                cat="serve",
                tid=1000 + worker.index,
                t0_us=t0,
                args={
                    "batch_id": batch.batch_id,
                    "size": len(batch),
                    "coalesced": batch.coalesced,
                    "degraded": degraded,
                    "ok": ok,
                },
            )
        if ok:
            worker.consecutive_failures = 0
        else:
            worker.consecutive_failures += 1

    def _run_unit(self, worker: Worker, batch: Batch, unit, members,
                  degraded: bool) -> bool:
        factory = self.injector_factory

        def injector_for(attempt):
            if factory is None:
                return None
            return factory(unit.shape, attempt, unit.request_id,
                           self.config, unit.kernel)

        outcome = run(
            unit, worker, degraded=degraded, injector_for=injector_for,
            sleep=self.sleep, tracer=self.tracer, tid=1000 + worker.index,
        )
        if outcome.result is None:
            for request in members:
                self.complete(
                    request,
                    GemmResponse(
                        request_id=request.request_id,
                        status="failed",
                        error=outcome.error,
                        worker=worker.index,
                        attempts=outcome.attempts,
                        batch_size=len(batch),
                        degraded=degraded,
                    ),
                )
            return False
        for request, result in answers(unit, members, outcome.result):
            self.complete(
                request,
                GemmResponse(
                    request_id=request.request_id,
                    status="ok",
                    result=result,
                    worker=worker.index,
                    attempts=outcome.attempts,
                    batch_size=len(batch),
                    degraded=degraded,
                ),
            )
        return True
