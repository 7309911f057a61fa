"""Shape-coalescing batch scheduler.

The scheduler is the single thread between the admission queue and the
worker pool. Its job is to turn a stream of individual requests into
:class:`Batch` objects that execute well:

- it pops the highest-priority request, then *coalesces* — pulls every
  queued request sharing the head's shape bucket (same B operand, same
  (k, n), scalars and scheme; see :meth:`GemmRequest.bucket`) into the
  same batch, up to ``max_batch``;
- if the batch is not full it holds the lane open for a **batching
  window** (``window_s``), absorbing compatible arrivals; an incompatible
  arrival ships the batch immediately rather than holding the newcomer
  hostage behind a lane it cannot join;
- requests with nothing to coalesce with — odd shapes, ``beta != 0``,
  private B operands — fall through as singleton batches, so nothing
  waits on a window that cannot help it;
- queued requests whose deadline passes are reaped and answered
  (status ``expired``) before they waste worker time;
- the ready lane is **bounded** (``max_ready`` formed batches): once
  every worker has work waiting, the backlog stays in the admission
  queue, where the backpressure policy and deadlines actually apply —
  an unbounded ready lane would quietly bypass the queue's capacity.

A coalesced batch is executed by the pool as **one stacked product**
(the A operands concatenated along M) through a single driver call — per-call
fixed costs (prologue, packing ramp, verification, supervision) amortize
across the batch, which is where the serving throughput multiple comes from.
"""

from __future__ import annotations

import collections
import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.obs.metrics import NULL_METRICS
from repro.serve.queue import AdmissionQueue
from repro.serve.request import GemmRequest
from repro.util.errors import ConfigError


@dataclass
class Batch:
    """One unit of worker execution: requests that travel together.

    ``coalesced`` batches share a bucket with ``beta == 0`` and execute as
    one stacked GEMM; everything else executes request-by-request through
    the same driver instance.
    """

    items: list[GemmRequest]
    bucket: tuple | None = None
    batch_id: str = ""
    formed_at: float = 0.0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def coalesced(self) -> bool:
        return (
            len(self.items) > 1
            and self.bucket is not None
            and bool(self.bucket[-1])  # the beta == 0 flag of the key
        )


@dataclass
class SchedulerStats:
    """Counters the scheduler keeps outside the metrics registry (exact
    integers for reports and tests)."""

    batches: int = 0
    coalesced_batches: int = 0
    coalesced_requests: int = 0
    singleton_batches: int = 0
    expired: int = 0


class BatchScheduler:
    """Single consumer of the admission queue, producer of ready batches.

    ``on_expired`` is called (from the scheduler thread) with each request
    reaped past its deadline — the service answers it there. Workers pull
    with :meth:`next_batch`; after :meth:`stop` drains, it returns None to
    every caller.
    """

    def __init__(
        self,
        queue: AdmissionQueue,
        *,
        max_batch: int = 16,
        window_s: float = 0.002,
        max_ready: int = 4,
        on_expired=None,
        metrics=NULL_METRICS,
        clock=time.monotonic,
        poll_s: float = 0.05,
        panel_cache=None,
    ) -> None:
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if window_s < 0:
            raise ConfigError(f"window_s must be >= 0, got {window_s}")
        if max_ready < 1:
            raise ConfigError(f"max_ready must be >= 1, got {max_ready}")
        self.queue = queue
        self.max_batch = max_batch
        self.window_s = window_s
        self.max_ready = max_ready
        self.on_expired = on_expired
        self.metrics = metrics
        self.clock = clock
        self.poll_s = poll_s
        #: optional :class:`~repro.gemm.panelcache.PanelCache` consulted at
        #: batch formation: touching the head's B keeps a hot operand's
        #: panels LRU-resident while its batches are still forming
        self.panel_cache = panel_cache
        self.stats = SchedulerStats()
        self._ready: collections.deque[Batch] = collections.deque()
        self._ready_lock = threading.Lock()
        self._ready_cv = threading.Condition(self._ready_lock)
        self._stopping = False
        self._finished = False
        # monotonic batch ids without shared read-modify-write state
        self._seq = itertools.count(1)
        self._thread: threading.Thread | None = None

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="serve-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self, join: bool = True) -> None:
        """Finish scheduling whatever the queue still holds, then retire.

        The admission queue must be closed first (the service does) so the
        backlog is bounded; ready batches stay consumable by workers.
        """
        with self._ready_cv:
            self._stopping = True
            # wake the producer out of its bounded-lane wait so shutdown
            # is not delayed by a full ready lane
            self._ready_cv.notify_all()
        if join and self._thread is not None:
            self._thread.join()

    @property
    def ready_depth(self) -> int:
        """Batches formed but not yet claimed by a worker (with the
        admission-queue depth, the service's backpressure signal)."""
        with self._ready_lock:
            return len(self._ready)

    @property
    def finished(self) -> bool:
        """True once the scheduler thread has exited and the ready lane is
        empty (workers seeing None may retire)."""
        with self._ready_lock:
            return self._finished and not self._ready

    # ------------------------------------------------------------ worker side
    def next_batch(self, timeout: float = 0.1) -> Batch | None:
        """Pull the next ready batch; None on timeout or full drain."""
        deadline = self.clock() + timeout
        with self._ready_cv:
            while not self._ready:
                if self._finished:
                    return None
                remaining = deadline - self.clock()
                if remaining <= 0:
                    return None
                self._ready_cv.wait(remaining)
            batch = self._ready.popleft()
            self._ready_cv.notify_all()  # wake the producer's bound check
            return batch

    # --------------------------------------------------------- the main loop
    def _run(self) -> None:
        queue = self.queue
        while True:
            self._reap()
            # bounded ready lane: while every worker has a formed batch
            # waiting, leave the backlog in the admission queue — that is
            # where deadlines lapse and the backpressure policy binds (an
            # unbounded ready lane would launder the queue's capacity
            # limit away). Shutdown lifts the bound so the drain cannot
            # stall behind it.
            with self._ready_cv:
                if len(self._ready) >= self.max_ready and not self._stopping:
                    self._ready_cv.wait(self.poll_s)
                    backoff = True
                else:
                    backoff = False
            if backoff:
                continue
            head = queue.pop(timeout=self.poll_s)
            if head is None:
                # stale reads are safe: a missed flag flip is re-checked
                # within poll_s on the next pass of the loop
                if queue.closed or self._stopping:  # analysis: ignore[lock-discipline]
                    break
                continue
            now = self.clock()
            if head.expired(now):
                # popped before the reaper saw it: count it here (reaped
                # requests are counted by the queue itself)
                self.metrics.inc("serve.expired")
                self._expire(head)
                continue
            batch = self._coalesce(head, now)
            self._emit(batch)
        with self._ready_cv:
            self._finished = True
            self._ready_cv.notify_all()

    def _coalesce(self, head: GemmRequest, now: float) -> Batch:
        # the memoized bucket doubles as the cache consult key: bucket[0]
        # is id(B), computed once here and shared with every compatibility
        # scan below (no per-request re-derivation)
        bucket = head.bucket()
        if self.panel_cache is not None:
            self.panel_cache.touch(bucket[0])
        # a tuning-DB entry may cap coalescing below the global max_batch:
        # stacking more A operands than the tuned config's footprint
        # analysis allows would push the batched call out of cache
        limit = self.max_batch
        tuned = head.tuned
        if tuned is not None:
            cap = int(getattr(tuned, "coalesce_limit", 0) or 0)
            if cap > 0:
                limit = min(limit, cap)
        items = [head]
        want = limit - 1
        if want > 0:
            items += self.queue.take_compatible(bucket, want)
            window_end = now + self.window_s
            while (
                len(items) < limit
                # stale read tolerated: worst case one extra window wait
                and not self._stopping  # analysis: ignore[lock-discipline]
                and not self.queue.closed
            ):
                remaining = window_end - self.clock()
                if remaining <= 0:
                    break
                if not self.queue.wait_nonempty(remaining):
                    break
                more = self.queue.take_compatible(
                    bucket, limit - len(items)
                )
                if not more:
                    # an incompatible request is waiting: ship this batch
                    # now instead of idling the queue behind the window
                    break
                items += more
        return Batch(
            items=items,
            bucket=bucket,
            batch_id=f"b{next(self._seq):06d}",
            formed_at=now,
        )

    def _emit(self, batch: Batch) -> None:
        self.metrics.inc("serve.batches")
        if batch.coalesced:
            self.metrics.inc("serve.coalesced_requests", len(batch))
        self.metrics.observe("serve.batch_size", float(len(batch)))
        with self._ready_cv:
            self.stats.batches += 1
            if batch.coalesced:
                self.stats.coalesced_batches += 1
                self.stats.coalesced_requests += len(batch)
            else:
                self.stats.singleton_batches += 1
            self._ready.append(batch)
            self._ready_cv.notify()

    def _reap(self) -> None:
        for request in self.queue.reap_expired():
            self._expire(request)

    def _expire(self, request: GemmRequest) -> None:
        # stats are mutated under the cv everywhere (_emit) — keep the
        # expiry counter consistent with that
        with self._ready_cv:
            self.stats.expired += 1
        if self.on_expired is not None:
            self.on_expired(request)
