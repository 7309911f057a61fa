"""Worker-process entry point: engines, caches, faults, chaos kills.

``worker_main`` is what :class:`~repro.serve.proc.pool.ProcWorkerPool`
spawns. The child is a loop over a command pipe: ``probe`` (probation
health check), ``batch`` (execute and write results into shared memory),
``stop`` (ship the child's metrics snapshot home and exit). One reply
message per command keeps the parent's exactly-once accounting atomic —
a batch either produces its single ``result`` message or the process
dies and the parent's death protocol claims every in-flight request.

Every item of a batch message is one execution unit (a request, or the
stacked request of a coalesced batch). The child rebuilds it from wire
operands (:func:`~repro.serve.request.request_from_wire`) and runs it
through the execution core both tiers share
(:func:`repro.serve.execute.run`). The child never constructs a
:class:`~repro.serve.request.GemmResponse` — terminal responses exist
only in the parent, where the analyzer's complete-funnel rule can see
them route through ``_complete``. The child writes each result array
into its parent-allocated result slot and ships the result object with
the array detached; the parent re-attaches the fetched array.

Determinism: the bootstrap carries an explicit seed derived from
(service seed, slot, incarnation) — see
:func:`~repro.serve.proc.spawnctx.worker_seed` — and every fault an
execution sees is rebuilt in-child from a plain *fault spec* dict the
parent derived from the workload seed. Nothing in a process-tier run
depends on spawn timing or platform RNG state.

Chaos self-kills: a batch message may carry a ``kill`` phase. The child
then SIGKILLs **itself** at that phase boundary — ``pack`` (operands
materialized), ``compute`` (about to call the kernel), ``reduce``
(product done, result not yet written), all three as hooks into the
execution core; ``reply`` (result written, message not yet sent) — or
``stall``\\ s (stops its heartbeat and idles) so the
monitor's miss detection, not PID death, has to notice. Each phase
leaves the protocol in a different half-finished state, which is exactly
what the replay path must be indifferent to.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.kernels import get_kernel
from repro.obs.metrics import MetricsRegistry
from repro.serve.execute import Worker, injector_from_spec, run
from repro.serve.proc.heartbeat import Beater
from repro.serve.proc.shm import attach, write_result
from repro.serve.request import request_from_wire
from repro.util.rng import make_rng


@dataclass(frozen=True)
class WorkerBootstrap:
    """Everything a spawned worker needs (must stay picklable)."""

    slot: int
    incarnation: int
    #: explicit RNG seed (probe operands; never platform state)
    seed: int
    #: the service's :class:`~repro.serve.service.ServiceConfig` (typed
    #: loosely: importing the service here would cycle through the proc
    #: package the service itself constructs)
    service_config: object
    beat_interval_s: float = 0.05


def _self_kill() -> None:
    """The chaos kill: immediate, uncatchable, exactly like the OOM
    killer or an operator's ``kill -9``."""
    os.kill(os.getpid(), signal.SIGKILL)


def _send(conn, msg: dict) -> None:
    conn.send_bytes(pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL))


class _ChildState:
    """Per-process serving state: engines, hot-B cache, panel cache."""

    def __init__(self, bootstrap: WorkerBootstrap) -> None:
        self.bootstrap = bootstrap
        self.config = bootstrap.service_config
        self.metrics = MetricsRegistry()
        self.rng = make_rng(bootstrap.seed)
        #: hot-B cache mirrored with the parent dispatcher: the parent
        #: only sends ``{"kind": "cached"}`` refs for keys it inserted
        #: earlier on this same (ordered) pipe, with the same bound and
        #: eviction discipline on both sides
        self.b_cache: OrderedDict[str, np.ndarray] = OrderedDict()
        self.b_cache_entries = int(
            getattr(self.config, "proc_b_cache_entries", 0) or 0
        )
        panel_cache = None
        if (
            getattr(self.config, "panel_cache_bytes", None) is not None
            and self.config.gemm_threads == 1
        ):
            from repro.gemm.panelcache import PanelCache

            panel_cache = PanelCache(
                self.config.panel_cache_bytes, metrics=self.metrics
            )
        # the thread tier's engine cache: same schemes, same degraded
        # (checksum-only) wiring; panels only for cache-owned B operands
        self.engines = Worker(
            bootstrap.slot, self.config, panel_cache=panel_cache,
            owns=lambda b: any(b is held for held in self.b_cache.values()),
            metrics=self.metrics,
        )

    def remember_b(self, key: str, b: np.ndarray) -> None:
        self.b_cache[key] = b
        self.b_cache.move_to_end(key)
        while len(self.b_cache) > self.b_cache_entries:
            self.b_cache.popitem(last=False)


def _materialize_b(state: _ChildState, msg: dict):
    """Resolve the batch's shared operand: child-cache hit, cache insert,
    or a transient segment view. Returns (operand, segment|None)."""
    ref = msg["b"]
    if ref.get("kind") == "none":
        return None, None  # kernel without a shared operand (FFT)
    if ref.get("kind") == "cached":
        b = state.b_cache.get(ref["key"])
        if b is None:
            raise KeyError(f"b-cache miss for {ref['key']!r}")
        state.b_cache.move_to_end(ref["key"])
        state.metrics.inc("serve.proc.b_cache_hits")
        return b, None
    view, segment = attach(ref)
    key = msg.get("b_cache_key")
    if key is not None and state.b_cache_entries > 0:
        b = np.array(view)  # owned: outlives the segment
        if segment is not None:
            segment.close()
        state.remember_b(key, b)
        return b, None
    return view, segment


def _run_item(state: _ChildState, msg: dict, item: dict, shared) -> dict:
    """One execution unit: rebuild the request from its wire operands,
    run it through the execution core, write the result array into the
    parent-allocated slot. Faults strike attempt 0 only."""
    unit_view, unit_segment = attach(item["a"])
    aux_view = aux_segment = None
    # the aux attach and the wire rebuild can raise: both segments must
    # close on those paths too, so the finally starts here
    try:
        if item["c0"] is not None:
            aux_view, aux_segment = attach(item["c0"])
        request = request_from_wire(
            msg["kernel"], unit_view, shared, aux_view, item["params"],
            scheme=msg["scheme"], request_id=item["request_id"],
        )
        request.tuned = msg["tuned"]

        def injector_for(attempt):
            if attempt:
                return None
            return injector_from_spec(item["fault"], request.shape,
                                      state.config)

        def phase(name):
            if name == msg["kill_phase"]:
                _self_kill()

        outcome = run(
            request, state.engines, degraded=msg["degraded"],
            injector_for=injector_for,
            retry_metric="serve.proc.child_retries", phase=phase,
        )
        payload = None
        if outcome.result is not None:
            payload = write_result(item["result"], outcome.result.c)
    finally:
        if unit_segment is not None:
            unit_segment.close()
        if aux_segment is not None:
            aux_segment.close()
    result = outcome.result
    if result is not None:
        result = get_kernel(request.kernel).with_value(
            result, None, request.request_id
        )
    return {"request_id": item["request_id"], "result": result,
            "error": outcome.error, "attempts": outcome.attempts,
            "payload": payload}


def _serve_batch(state: _ChildState, msg: dict) -> dict:
    """Execute one batch message; returns the single result reply."""
    state.metrics.inc("serve.proc.child_batches")
    kill_phase = msg["kill_phase"]
    b_segment = None
    try:
        shared, b_segment = _materialize_b(state, msg)
        if kill_phase == "stall":
            # exist-but-frozen: heartbeat stops, PID stays alive; only
            # the monitor's miss detection can rescue this batch
            state.beater.stop()
            while True:
                time.sleep(3600.0)
        reply = {"op": "result", "batch_id": msg["batch_id"],
                 "items": [_run_item(state, msg, item, shared)
                           for item in msg["items"]]}
    except Exception as exc:
        # a broken message or cache-mirror miss must still produce the
        # batch's one reply: the parent turns it into retry/replay
        reply = {"op": "result", "batch_id": msg["batch_id"],
                 "error": f"{type(exc).__name__}: {exc}"}
    finally:
        if b_segment is not None:
            b_segment.close()
    if kill_phase == "reply":
        _self_kill()
    return reply


def _probe(state: _ChildState, msg: dict) -> dict:
    """Probation health check: one small verified GEMM vs the oracle."""
    rng = make_rng(msg["seed"])
    size = msg.get("size", 16)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    driver = state.engines.driver_for("dual", False)
    try:
        result = driver.gemm(a, b)
        ok = bool(result.verified) and np.allclose(
            result.c, a @ b, atol=1e-8
        )
    except Exception:
        ok = False
    return {"op": "probe_ok", "ok": ok, "slot": state.bootstrap.slot,
            "incarnation": state.bootstrap.incarnation}


def worker_main(bootstrap: WorkerBootstrap, cmd_conn, res_conn,
                beat_value) -> None:
    """The spawned process's main loop (also its module-level pickle
    anchor: spawn imports this module fresh in the child)."""
    state = _ChildState(bootstrap)
    state.beater = Beater(beat_value, bootstrap.beat_interval_s)
    state.beater.start()
    while True:
        try:
            raw = cmd_conn.recv_bytes()
        except (EOFError, OSError):
            break  # parent died or closed: nothing left to serve
        msg = pickle.loads(raw)
        op = msg.get("op")
        try:
            if op == "stop":
                _send(res_conn, {"op": "stopped",
                                 "slot": bootstrap.slot,
                                 "metrics": state.metrics.snapshot()})
                break
            if op == "probe":
                _send(res_conn, _probe(state, msg))
            elif op == "batch":
                _send(res_conn, _serve_batch(state, msg))
        except (BrokenPipeError, OSError):
            break
    state.beater.stop()
