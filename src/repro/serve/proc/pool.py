"""ProcWorkerPool: sharded multiprocessing execution with death recovery.

The process tier's parent half. It drains the same
:class:`~repro.serve.scheduler.BatchScheduler` the thread pool does and
honours the same contract — every request of every claimed batch reaches
the service's ``_complete`` funnel exactly once — but its workers are
**spawned processes** reached over pipes, so the failure it must survive
is total: a worker can vanish mid-batch taking its address space, its
locks and its half-written results with it.

Thread layout (and the locking story the analyzer pins):

- **dispatcher** — the single thread that ever *sends* on a command
  pipe. One sender per pipe means no send locks and no interleaved
  frames; everything the child observes (batches, probes, the hot-B
  cache mirror, stop) is a total order. It pulls replayed flights first,
  then fresh batches, stages operands into shared memory, registers the
  flight in the handle's in-flight table **before** sending, and
  performs pool retirement when the drain completes.
- **one receiver per worker** — blocks on that worker's result pipe.
  A result message *claims* its flight by popping it from the in-flight
  table under the pool lock; EOF on the pipe is the fastest death
  signal and routes into the death protocol.
- **heartbeat monitor** — catches what EOF cannot: a process that still
  holds its pipes but stopped making progress (hard hang, chaos
  ``stall``). Missed beats escalate exactly like a dead PID.

Exactly-once under process death reduces to one atomic claim: a flight
is either popped by the receiver (results arrived — complete them) or
popped by the death protocol (replay or fail them), never both, because
both pops happen under the pool lock on the same table. Replays are
bounded (``proc_max_replays``) and *replayed flights always restage full
operands* — a replacement worker shares no cache with its predecessor.

Shard routing pins each shape bucket to a worker so that worker's hot-B
and panel caches stay warm; a bucket whose pinned worker keeps dying
(``proc_bucket_degraded_after``) is switched to degraded checksum-only
execution — the same pressure valve the thread tier uses for load,
repurposed as a blast-radius limiter.
"""

from __future__ import annotations

import collections
import itertools
import pickle
import threading
import time

import numpy as np

from repro.kernels import get_kernel
from repro.obs.metrics import NULL_METRICS
from repro.serve.execute import answers, first_drawn, units_of
from repro.serve.proc.heartbeat import HeartbeatBoard, HeartbeatMonitor
from repro.serve.proc.shm import ShmRegistry, ShmTransport
from repro.serve.proc.spawnctx import spawn_context
from repro.serve.proc.worker import WorkerBootstrap, worker_main
from repro.serve.request import GemmResponse
from repro.serve.scheduler import Batch, BatchScheduler
from repro.util.rng import derive_seed

#: trace lane base for per-worker process events (thread workers use
#: 1000+, requests 10000+; disjoint bases keep the validator happy)
PROC_LANE = 2000


class _Flight:
    """One dispatched batch: the unit of exactly-once accounting."""

    __slots__ = ("batch", "deaths", "refs", "degraded", "units",
                 "result_refs", "slot")

    def __init__(self, batch: Batch) -> None:
        self.batch = batch
        #: times this flight lost its worker (process death or child
        #: error); bounds the replay loop
        self.deaths = 0
        #: every shm ref staged for the current dispatch — released when
        #: the flight resolves, swept when its worker dies
        self.refs: list[dict] = []
        self.degraded = False
        #: the dispatched batch's ``(unit, members)`` execution units
        self.units: list[tuple] = []
        #: one result slot per unit, in unit order
        self.result_refs: list[dict] = []
        self.slot = -1


class _Handle:
    """Parent-side state of one worker process (one incarnation)."""

    __slots__ = ("slot", "incarnation", "proc", "cmd_conn", "res_conn",
                 "state", "inflight", "b_mirror", "receiver",
                 "probe_sent")

    def __init__(self, slot: int, incarnation: int, proc, cmd_conn,
                 res_conn, state: str) -> None:
        self.slot = slot
        self.incarnation = incarnation
        self.proc = proc
        self.cmd_conn = cmd_conn
        self.res_conn = res_conn
        #: "probing" -> "ready" -> ("dead" | "stopped")
        self.state = state
        #: batch_id -> _Flight; the exactly-once claim table
        self.inflight: dict[str, _Flight] = {}
        #: parent half of the child's hot-B cache: identical bound,
        #: identical insert/hit/evict discipline, updated only by the
        #: dispatcher in pipe order — so both sides stay in lockstep
        #: without any invalidation traffic. Values hold strong B refs,
        #: which also keeps ``id(b)`` (the key source) stable.
        self.b_mirror: collections.OrderedDict[str, np.ndarray] = (
            collections.OrderedDict()
        )
        self.receiver: threading.Thread | None = None
        self.probe_sent = False


class ProcWorkerPool:
    """Drop-in pool with process workers (same contract as WorkerPool).

    ``fault_spec_factory(request_id, service_config, kernel)`` returns
    the plain fault-spec dict a child rebuilds its injector from
    (picklable, unlike the thread tier's injector factory); it is asked
    once per execution unit, keyed on the batch id for a coalesced batch
    and on the request id otherwise. ``chaos(batch_id, deaths)``
    returns a kill phase (or None) stamped on the outgoing batch — the
    process-kill storm of the soak tests.
    """

    def __init__(
        self,
        scheduler: BatchScheduler,
        service_config,
        *,
        complete,
        use_degraded=None,
        metrics=NULL_METRICS,
        tracer=None,
        fault_spec_factory=None,
        chaos=None,
    ) -> None:
        self.scheduler = scheduler
        self.config = service_config
        self.complete = complete
        self.use_degraded = use_degraded or (lambda: False)
        self.metrics = metrics
        self.tracer = tracer
        self.fault_spec_factory = fault_spec_factory
        self.chaos = chaos
        self.registry = ShmRegistry(metrics)
        self.transport = ShmTransport(
            self.registry,
            mode=service_config.proc_transport,
            max_segment_bytes=service_config.proc_shm_max_bytes,
            metrics=metrics,
        )
        self.board = HeartbeatBoard()
        self.monitor = HeartbeatMonitor(
            self.board,
            interval_s=service_config.proc_heartbeat_s,
            miss_limit=service_config.proc_miss_limit,
            liveness=self._proc_alive,
            on_dead=lambda slot: self._declare_death(slot, "killed"),
            on_stall=lambda slot: self._declare_death(slot, "stalled"),
            metrics=metrics,
        )
        self._lock = threading.Lock()
        self._handles: dict[int, _Handle] = {}
        self._replay: collections.deque[_Flight] = collections.deque()
        #: shape bucket -> pinned worker slot (warm-cache shard routing)
        self._bucket_slot: dict[tuple, int] = {}
        self._bucket_deaths: dict[tuple, int] = {}
        self._degraded_buckets: set[tuple] = set()
        self._respawns = 0
        #: death protocols currently between "inflight drained" and
        #: "flights requeued / replacement spawned" — the drain gate
        #: counts them as live work so retirement cannot slip through
        #: the window where a dead worker's flights are in neither table
        self._death_pending = 0
        self._stopping = False
        self._retired = False
        self._dispatcher: threading.Thread | None = None
        self._seq = itertools.count()
        #: slots permanently retired (respawn budget exhausted); same
        #: field name as the thread pool for service.stats() parity
        self.quarantined: list[int] = []

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        for _ in range(self.config.processes):
            self._spawn(slot=next(self._seq), incarnation=0,
                        probation=False)
        self.monitor.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-proc-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    def stop(self, join: bool = True) -> None:
        with self._lock:
            self._stopping = True
        if join and self._dispatcher is not None:
            self._dispatcher.join()

    def _spawn(self, slot: int, incarnation: int, probation: bool) -> None:
        ctx = spawn_context()
        cmd_recv, cmd_send = ctx.Pipe(duplex=False)
        res_recv, res_send = ctx.Pipe(duplex=False)
        beat = self.board.register(slot)
        bootstrap = WorkerBootstrap(
            slot=slot,
            incarnation=incarnation,
            service_config=self.config,
            beat_interval_s=self.config.proc_heartbeat_s,
        )
        tr = self.tracer
        t0 = tr.now_us() if tr is not None else 0.0
        proc = ctx.Process(
            target=worker_main,
            args=(bootstrap, cmd_recv, res_send, beat),
            name=f"serve-proc-{slot}-{incarnation}",
            daemon=True,
        )
        proc.start()
        # close the child's pipe ends in the parent so a dead child turns
        # into EOF on the result pipe instead of a silent hang
        cmd_recv.close()
        res_send.close()
        handle = _Handle(
            slot, incarnation, proc, cmd_send, res_recv,
            state="probing" if probation else "ready",
        )
        with self._lock:
            self._handles[slot] = handle
        receiver = threading.Thread(
            target=self._receive_loop, args=(handle,),
            name=f"serve-proc-recv-{slot}-{incarnation}", daemon=True,
        )
        handle.receiver = receiver
        receiver.start()
        if incarnation:
            self.metrics.inc("serve.proc.respawns")
        if tr is not None:
            tr.complete(
                "serve.proc.spawn", cat="serve.proc",
                tid=PROC_LANE + slot, t0_us=t0,
                args={"slot": slot, "incarnation": incarnation,
                      "probation": probation},
            )

    # --------------------------------------------------------- the dispatcher
    def _dispatch_loop(self) -> None:
        while True:
            self._service_probes()
            flight = self._next_flight()
            if flight is None:
                if self._drained():
                    break
                continue
            self._dispatch(flight)
        self._retire()

    def _next_flight(self) -> _Flight | None:
        with self._lock:
            if self._replay:
                return self._replay.popleft()
        batch = self.scheduler.next_batch(timeout=0.05)
        if batch is None:
            return None
        return _Flight(batch)

    def _drained(self) -> bool:
        finished = self.scheduler.finished
        with self._lock:
            idle = (
                not self._replay
                and self._death_pending == 0
                and all(not h.inflight for h in self._handles.values())
            )
            stopping = self._stopping
        return (finished or stopping) and idle

    def _dispatch(self, flight: _Flight) -> None:
        # last-moment expiry, mirroring the thread pool: a request can
        # outlive its deadline inside a formed batch or a replay queue
        now = self.scheduler.clock()
        live = []
        for request in flight.batch.items:
            if request.expired(now):
                self.metrics.inc("serve.expired")
                self.complete(
                    request,
                    GemmResponse(
                        request_id=request.request_id,
                        status="expired",
                        error="deadline passed before execution",
                    ),
                )
            else:
                live.append(request)
        if not live:
            return
        if len(live) != len(flight.batch.items):
            flight.batch = Batch(
                items=live,
                bucket=flight.batch.bucket,
                batch_id=flight.batch.batch_id,
                formed_at=flight.batch.formed_at,
            )
        handle = self._route(flight)
        if handle is None:
            if not self._capacity_possible():
                self._fail_flight(
                    flight, "no worker process available "
                    "(respawn budget exhausted)"
                )
                return
            with self._lock:
                self._replay.appendleft(flight)
            time.sleep(self.config.proc_heartbeat_s)
            return
        bucket = flight.batch.bucket
        with self._lock:
            bucket_degraded = bucket in self._degraded_buckets
        degraded = bool(self.use_degraded()) or bucket_degraded
        if degraded:
            self.metrics.inc("serve.degraded_batches")
        flight.degraded = degraded
        flight.slot = handle.slot
        kill_phase = None
        if self.chaos is not None:
            kill_phase = self.chaos(flight.batch.batch_id, flight.deaths)
        msg = self._build_message(flight, handle, degraded, kill_phase)
        with self._lock:
            if handle.state != "ready":
                # the worker died between routing and registration: put
                # the flight back and release what was staged for it
                self._replay.appendleft(flight)
                refs, flight.refs = flight.refs, []
            else:
                handle.inflight[flight.batch.batch_id] = flight
                refs = None
        if refs is not None:
            for ref in refs:
                self.transport.release(ref)
            return
        self.metrics.inc("serve.proc.batches")
        if kill_phase is not None:
            self.metrics.inc("serve.proc.chaos_kills_armed")
        self._send(handle, msg)

    def _capacity_possible(self) -> bool:
        """Can any worker ever take a batch again? False only when every
        slot is retired and the respawn budget is spent.

        A death during a drain respawns nothing when it sees no work, yet
        the dispatcher may be holding the next flight right then. So when
        no worker is live and no death protocol is running, no
        replacement is on its way, and the dispatcher respawns a dead
        slot itself rather than wait for one forever."""
        with self._lock:
            if self._death_pending or any(
                h.state in ("ready", "probing")
                for h in self._handles.values()
            ):
                return True
            if self._respawns >= self.config.proc_respawn_budget:
                return False
            dead = min(
                (h for h in self._handles.values() if h.state == "dead"),
                key=lambda h: h.slot, default=None,
            )
            if dead is None:
                return False
            self._respawns += 1
        self._spawn(dead.slot, dead.incarnation + 1,
                    probation=self.config.proc_probation)
        return True

    def _fail_flight(self, flight: _Flight, error: str) -> None:
        for ref in flight.refs:
            self.transport.release(ref)
        flight.refs = []
        for request in flight.batch.items:
            self.complete(
                request,
                GemmResponse(
                    request_id=request.request_id,
                    status="failed",
                    error=error,
                    worker=flight.slot,
                    batch_size=len(flight.batch),
                    degraded=flight.degraded,
                ),
            )

    def _route(self, flight: _Flight) -> _Handle | None:
        """The shard router: keep a bucket on its pinned worker while
        that worker is alive and has in-flight capacity; otherwise pick
        the least-loaded ready worker and re-pin."""
        bucket = flight.batch.bucket
        cap = self.config.proc_inflight_per_worker
        with self._lock:
            ready = [
                h for h in self._handles.values()
                if h.state == "ready" and len(h.inflight) < cap
            ]
            if not ready:
                return None
            pinned = self._bucket_slot.get(bucket)
            for handle in ready:
                if handle.slot == pinned:
                    return handle
            handle = min(ready, key=lambda h: (len(h.inflight), h.slot))
            if bucket is not None:
                self._bucket_slot[bucket] = handle.slot
            return handle

    # ---------------------------------------------------------- message build
    def _build_message(self, flight: _Flight, handle: _Handle,
                       degraded: bool, kill_phase: str | None) -> dict:
        """Stage every execution unit through the kernel's descriptors:
        the unit operand, the optional aux operand and a result slot per
        unit, the shared operand once per batch (batches form per bucket
        and every bucket carries the kernel discriminator, so the head's
        kernel is the whole batch's kernel)."""
        batch = flight.batch
        head = batch.items[0]
        kernel = get_kernel(head.kernel)
        spec_of = self.fault_spec_factory or (lambda *args: None)
        flight.units = units_of(batch)
        b_field, b_cache_key = self._stage_b(
            flight, handle, head.shared_operand
        )
        items = []
        for unit, members in flight.units:
            aux = kernel.aux_operand(unit)
            refs = {
                "a": self.transport.stage(kernel.unit_operand(unit)),
                "c0": None if aux is None else self.transport.stage(aux),
                "result": self.transport.alloc_result(unit.result_shape),
            }
            flight.refs += [ref for ref in refs.values() if ref is not None]
            items.append({
                "request_id": unit.request_id,
                "params": kernel.wire_params(unit),
                "fault": first_drawn(
                    lambda request_id: spec_of(request_id, self.config,
                                               unit.kernel),
                    members,
                ),
                **refs,
            })
        flight.result_refs = [item["result"] for item in items]
        return {
            "op": "batch",
            "batch_id": batch.batch_id,
            "kernel": head.kernel,
            "degraded": degraded,
            "scheme": head.scheme,
            "kill_phase": kill_phase,
            "b": b_field,
            "b_cache_key": b_cache_key,
            # the resolved tuning entry crosses the pipe as a plain dict
            # (no tune types in the child's unpickle path); None = static
            "tuned": head.tuned.to_dict() if head.tuned is not None else None,
            "items": items,
        }

    def _stage_b(self, flight: _Flight, handle: _Handle, b):
        """The shared operand through the per-worker cache mirror: a key
        the child already holds ships as a tiny ``cached`` ref; otherwise
        the full operand is staged (and offered for caching on first
        flights only — replays always restage, since they may land
        anywhere). ``b`` is B for GEMM, A for GEMV/TRSM; kernels without
        a shared operand (FFT) ship a ``none`` marker."""
        if b is None:
            return {"kind": "none"}, None
        entries = self.config.proc_b_cache_entries
        use_cache = entries > 0 and flight.deaths == 0
        key = f"K{id(b):x}"
        if use_cache and key in handle.b_mirror:
            handle.b_mirror.move_to_end(key)
            self.metrics.inc("serve.proc.b_cache_hits")
            return {"kind": "cached", "key": key}, None
        ref = self.transport.stage(b)
        flight.refs.append(ref)
        if not use_cache:
            return ref, None
        handle.b_mirror[key] = b
        handle.b_mirror.move_to_end(key)
        while len(handle.b_mirror) > entries:
            handle.b_mirror.popitem(last=False)
        return ref, key

    def _send(self, handle: _Handle, msg: dict) -> None:
        """Dispatcher-only (the single-sender invariant lives here)."""
        payload = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        self.metrics.inc("serve.proc.pipe_tx_bytes", float(len(payload)))
        try:
            handle.cmd_conn.send_bytes(payload)
        except (BrokenPipeError, OSError):
            self._declare_death(handle.slot, "send-failed", handle=handle)

    def _service_probes(self) -> None:
        """Send the probation batch to freshly respawned workers."""
        with self._lock:
            targets = [
                h for h in self._handles.values()
                if h.state == "probing" and not h.probe_sent
            ]
            for handle in targets:
                handle.probe_sent = True
        for handle in targets:
            self._send(handle, {
                "op": "probe",
                "size": 16,
                "seed": derive_seed(
                    self.config.proc_seed, "probe",
                    handle.slot, handle.incarnation,
                ),
            })

    # ------------------------------------------------------------- receivers
    def _receive_loop(self, handle: _Handle) -> None:
        while True:
            try:
                raw = handle.res_conn.recv_bytes()
            except (EOFError, OSError):
                # the fast death signal: the child's end of the result
                # pipe closed (SIGKILL, crash, or post-stop exit)
                self._declare_death(handle.slot, "pipe-closed",
                                    handle=handle)
                return
            self.metrics.inc("serve.proc.pipe_rx_bytes", float(len(raw)))
            msg = pickle.loads(raw)
            op = msg.get("op")
            if op == "result":
                self._on_result(handle, msg)
            elif op == "probe_ok":
                self._on_probe(handle, msg)
            elif op == "stopped":
                self.metrics.merge(msg.get("metrics") or {})
                with self._lock:
                    if handle.state != "dead":
                        handle.state = "stopped"
                return

    def _on_probe(self, handle: _Handle, msg: dict) -> None:
        if msg.get("ok"):
            with self._lock:
                if handle.state == "probing":
                    handle.state = "ready"
            self.metrics.inc("serve.proc.probes_ok")
            if self.tracer is not None:
                self.tracer.event(
                    "serve.proc.probe_ok", cat="serve.proc",
                    tid=PROC_LANE + handle.slot,
                    args={"incarnation": handle.incarnation},
                )
        else:
            self.metrics.inc("serve.proc.probes_failed")
            self._declare_death(handle.slot, "probe-failed", handle=handle)

    def _on_result(self, handle: _Handle, msg: dict) -> None:
        with self._lock:
            flight = handle.inflight.pop(msg["batch_id"], None)
        if flight is None:
            # the death protocol claimed this flight first (monitor
            # declared the worker dead while its reply was in the pipe);
            # the replay path owns it now — late evidence is dropped
            self.metrics.inc("serve.proc.late_results")
            return
        if "error" in msg:
            # in-child failure outside the retry loop (e.g. a cache
            # mirror miss): drop the mirror — it is the only state that
            # can disagree with the child — then bounded re-dispatch
            # with full operands
            with self._lock:
                handle.b_mirror.clear()
            self._requeue_or_fail(flight, msg["error"])
            return
        try:
            self._finish(handle, flight, msg["items"])
        finally:
            for ref in flight.refs:
                self.transport.release(ref)
            flight.refs = []

    def _requeue_or_fail(self, flight: _Flight, error: str) -> None:
        for ref in flight.refs:
            self.transport.release(ref)
        flight.refs = []
        flight.deaths += 1
        if flight.deaths > self.config.proc_max_replays:
            self.metrics.inc("serve.proc.replays_exhausted")
            self._fail_flight(flight, error)
            return
        self.metrics.inc("serve.proc.replays")
        if self.tracer is not None:
            self.tracer.event(
                "serve.proc.replay", cat="serve.proc",
                tid=PROC_LANE + max(flight.slot, 0),
                args={"batch_id": flight.batch.batch_id,
                      "deaths": flight.deaths, "error": error},
            )
        with self._lock:
            self._replay.append(flight)

    def _finish(self, handle: _Handle, flight: _Flight, items: list) -> None:
        """Answer every request of a flight from the child's per-unit
        replies (one per unit, in unit order)."""
        batch = flight.batch
        for (unit, members), ref, item in zip(
            flight.units, flight.result_refs, items
        ):
            if item["result"] is None:
                for request in members:
                    self.complete(
                        request,
                        GemmResponse(
                            request_id=request.request_id,
                            status="failed",
                            error=item["error"],
                            worker=handle.slot,
                            attempts=item["attempts"],
                            batch_size=len(batch),
                            degraded=flight.degraded,
                        ),
                    )
                continue
            result = get_kernel(unit.kernel).with_value(
                item["result"], self.transport.fetch(ref, item["payload"]),
                unit.request_id,
            )
            for request, part in answers(unit, members, result):
                self.complete(
                    request,
                    GemmResponse(
                        request_id=request.request_id,
                        status="ok",
                        result=part,
                        worker=handle.slot,
                        attempts=item["attempts"],
                        batch_size=len(batch),
                        degraded=flight.degraded,
                    ),
                )

    # --------------------------------------------------------- death protocol
    def _proc_alive(self, slot: int) -> bool:
        with self._lock:
            handle = self._handles.get(slot)
        if handle is None or handle.state in ("dead", "stopped"):
            return True  # nothing for the monitor to escalate
        return handle.proc.is_alive()

    def _declare_death(self, slot: int, reason: str,
                       handle: _Handle | None = None) -> None:
        """The one entry point of the death protocol (monitor tick,
        receiver EOF, failed send/probe all converge here). The state
        guard under the lock makes it idempotent; the in-flight table
        drain *is* the exactly-once claim of every affected request."""
        with self._lock:
            h = self._handles.get(slot)
            if handle is not None and h is not handle:
                return  # a replacement already took this slot
            if h is None or h.state in ("dead", "stopped"):
                return
            h.state = "dead"
            flights = list(h.inflight.values())
            h.inflight.clear()
            self._death_pending += 1
        self.board.deregister(slot)
        self.metrics.inc("serve.proc.deaths")
        if self.tracer is not None:
            self.tracer.event(
                "serve.proc.death", cat="serve.proc",
                tid=PROC_LANE + slot,
                args={"reason": reason, "incarnation": h.incarnation,
                      "lost_batches": len(flights)},
            )
        if h.proc.is_alive():
            h.proc.kill()  # a stalled worker is retired, not reasoned with
        h.proc.join(timeout=5.0)
        for conn in (h.cmd_conn, h.res_conn):
            try:
                conn.close()
            except OSError:
                pass
        for flight in flights:
            self._lost_flight(flight, reason)
        # Respawn policy: keep the pool at size while running; during a
        # drain (stopping but not yet retired) respawn only if there is
        # still work a replacement could serve — a death with an empty
        # pipeline just retires the slot quietly. After retirement,
        # never: the registry and board are already torn down.
        respawn = quarantine = False
        with self._lock:
            work = bool(self._replay) or any(
                other.inflight for other in self._handles.values()
            )
            if not self._retired and (not self._stopping or work):
                if self._respawns >= self.config.proc_respawn_budget:
                    self.quarantined.append(slot)
                    quarantine = True
                else:
                    self._respawns += 1
                    respawn = True
        if quarantine:
            self.metrics.inc("serve.proc.slots_retired")
        elif respawn:
            self._spawn(slot, h.incarnation + 1,
                        probation=self.config.proc_probation)
        with self._lock:
            self._death_pending -= 1

    def _lost_flight(self, flight: _Flight, reason: str) -> None:
        """Escalation for one in-flight batch of a dead worker: count the
        bucket strike, unpin the shard, then replay-or-fail."""
        bucket = flight.batch.bucket
        newly_degraded = False
        with self._lock:
            if bucket is not None:
                strikes = self._bucket_deaths.get(bucket, 0) + 1
                self._bucket_deaths[bucket] = strikes
                if (
                    strikes >= self.config.proc_bucket_degraded_after
                    and bucket not in self._degraded_buckets
                ):
                    self._degraded_buckets.add(bucket)
                    newly_degraded = True
                self._bucket_slot.pop(bucket, None)
        if newly_degraded:
            self.metrics.inc("serve.proc.degraded_buckets")
        self._requeue_or_fail(
            flight, f"worker process lost ({reason}) "
            f"{flight.deaths + 1} time(s)"
        )

    # ------------------------------------------------------------- retirement
    def _retire(self) -> None:
        """Runs on the dispatcher after the drain: stop children, merge
        their metrics, reap processes, and unlink any leaked segments."""
        with self._lock:
            self._stopping = True
            self._retired = True
            handles = list(self._handles.values())
        self.monitor.stop()
        for handle in handles:
            with self._lock:
                live = handle.state in ("ready", "probing")
            if live:
                self._send(handle, {"op": "stop"})
        for handle in handles:
            if handle.receiver is not None:
                handle.receiver.join(timeout=10.0)
        for handle in handles:
            handle.proc.join(timeout=5.0)
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout=5.0)
            for conn in (handle.cmd_conn, handle.res_conn):
                try:
                    conn.close()
                except OSError:
                    pass
            self.board.deregister(handle.slot)
        leaked = self.registry.unlink_all()
        self.metrics.set_gauge("serve.proc.leaked_segments", float(leaked))

    # -------------------------------------------------------------- reporting
    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": len(self._handles),
                "respawns": self._respawns,
                "degraded_buckets": len(self._degraded_buckets),
                "quarantined": list(self.quarantined),
                "replay_depth": len(self._replay),
                "segments": {
                    "created": self.registry.created,
                    "unlinked": self.registry.unlinked,
                    "live": len(self.registry.live()),
                },
            }
