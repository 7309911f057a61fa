"""Per-layer probes for the traced run.

Each probe wraps one public entry point of a layer and records how long
calls into it take; nothing inside the program changes. The wrappers are
installed only while a traced phase runs and removed afterwards, so the
timed (untraced) run never sees them.

- ``gemm`` / ``core``: :meth:`FTGemm.gemm` is timed per outermost call.
  The fused checksum stages have no entry point of their own, so the probe
  hands the driver a :class:`repro.obs.Tracer` for the call (drivers built
  without one get a fresh tracer in their public ``tracer`` attribute for
  the duration of the call) and computes span self time here, not with
  the program's own phase report. :meth:`EscalationSupervisor.finalize`
  is timed as the verify stage.
- ``kernels``: :meth:`ProtectedKernel.run` of every registered non-GEMM
  kernel is timed, and fault outcomes are read off calls that were handed
  an injector.
- ``serve``: :meth:`BatchScheduler.next_batch` stamps when each request's
  batch leaves the scheduler.
- ``serve.proc``: :class:`ShmTransport` ``stage``/``alloc_result``/
  ``fetch``/``release`` are timed and attributed to the batch whose
  operands they move; the first ``stage`` after ``next_batch`` returned a
  batch ends that batch's dispatch interval.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from stats import Span, self_time_by_name

#: span names whose self time is reported per FT call
STAGES = {
    "macro": ("macro_kernel_batched", "macro_kernel"),
    "pack_a": ("pack_a",),
    "pack_b": ("pack_b",),
    "prologue": ("prologue",),
    "checksum": ("checksum_update",),
}


class Probes:
    """Recorded per-layer observations of one traced run."""

    def __init__(self) -> None:
        from repro.core.ftgemm import FTGemm
        from repro.core.supervisor import EscalationSupervisor
        from repro.kernels import get_kernel, kernel_names
        from repro.obs import Tracer
        from repro.serve.proc.shm import ShmTransport
        from repro.serve.scheduler import BatchScheduler

        self._Tracer = Tracer
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[type, str, object]] = []
        self._targets = [
            (FTGemm, "gemm", self._wrap_gemm),
            (EscalationSupervisor, "finalize", self._wrap_finalize),
            (BatchScheduler, "next_batch", self._wrap_next_batch),
            (ShmTransport, "stage", self._wrap_stage),
            (ShmTransport, "alloc_result", self._wrap_stage),
            (ShmTransport, "fetch", self._wrap_unstage),
            (ShmTransport, "release", self._wrap_unstage),
        ]
        for name in kernel_names():
            if name != "gemm":
                self._targets.append(
                    (type(get_kernel(name)), "run", self._wrap_kernel_run)
                )
        #: one dict per outermost FTGemm.gemm call
        self.ft_calls: list[dict] = []
        #: kernel name -> call durations (s)
        self.kernel_s: dict[str, list[float]] = defaultdict(list)
        #: EscalationSupervisor.finalize durations (s): the verify stage
        self.finalize_s: list[float] = []
        #: seconds spent inside kernel calls off the main thread
        self.worker_busy_s = 0.0
        self.worker_calls = 0
        self.faulted = 0
        self.recovered = 0
        self.escalated = 0
        #: request id -> perf_counter when next_batch returned its batch
        self.picked: dict[str, float] = {}
        self.dispatch_s: list[float] = []
        self.transport_s: dict[str, float] = defaultdict(float)
        self._ref_batch: dict[str, str] = {}

    # ------------------------------------------------------------ lifecycle
    def install(self) -> None:
        for owner, attr, wrap in self._targets:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrap(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # ------------------------------------------------------------- outcomes
    def _fault_outcome(self, injector, verified: bool, escalated: bool) -> None:
        if injector is None:
            return
        with self._lock:
            self.faulted += 1
            if verified and not escalated:
                self.recovered += 1
            else:
                self.escalated += 1

    def _busy(self, seconds: float) -> None:
        if threading.current_thread() is not threading.main_thread():
            with self._lock:
                self.worker_busy_s += seconds
                self.worker_calls += 1

    # ------------------------------------------------------------- wrappers
    def _wrap_gemm(self, original):
        probes = self

        def gemm(driver, *args, **kwargs):
            local = probes._local
            if getattr(local, "in_gemm", False):
                return original(driver, *args, **kwargs)  # nested helper call
            injector = kwargs.get("injector")
            previous = tracer = driver.tracer
            borrowed = not previous.enabled
            if borrowed:
                tracer = probes._Tracer()
                driver.tracer = tracer
            mark = len(tracer.events)
            local.in_gemm = True
            t0 = time.perf_counter()
            try:
                result = original(driver, *args, **kwargs)
            except Exception:
                probes._busy(time.perf_counter() - t0)
                probes._fault_outcome(injector, False, True)
                raise
            finally:
                local.in_gemm = False
                if borrowed:
                    driver.tracer = previous
            wall = time.perf_counter() - t0
            events = tracer.events[mark:]
            if not borrowed:
                del tracer.events[mark:]
            probes._record_ft_call(driver, result, wall, events)
            probes._busy(wall)
            recovery = getattr(result, "recovery", None)
            probes._fault_outcome(
                injector, bool(result.verified),
                bool(recovery is not None and recovery.escalated),
            )
            return result

        return gemm

    def _record_ft_call(self, driver, result, wall: float, events) -> None:
        spans = [Span(e.name, e.ts_us, e.dur_us or 0.0, e.tid)
                 for e in events if e.ph == "X"]
        own = self_time_by_name(spans)
        call = {name: sum(own.get(s, 0.0) for s in names) / 1e3
                for name, names in STAGES.items()}
        call["stages_ms"] = (sum(own.values()) - own.get("gemm", 0.0)) / 1e3
        call["wall_ms"] = wall * 1e3
        call["batched"] = driver.last_mode == "batched"
        counters = result.counters
        call["pack_mb"] = (counters.pack_a_bytes + counters.pack_b_bytes) / 2**20
        call["checksum_mflop"] = counters.checksum_flops / 1e6
        with self._lock:
            self.ft_calls.append(call)
            self.kernel_s["gemm"].append(wall)

    def _wrap_kernel_run(self, original):
        probes = self

        def run(kernel, request, *args, **kwargs):
            injector = kwargs.get("injector")
            t0 = time.perf_counter()
            try:
                result = original(kernel, request, *args, **kwargs)
            except Exception:
                probes._busy(time.perf_counter() - t0)
                probes._fault_outcome(injector, False, True)
                raise
            wall = time.perf_counter() - t0
            with probes._lock:
                probes.kernel_s[kernel.name].append(wall)
            probes._busy(wall)
            probes._fault_outcome(injector, bool(result.verified),
                                  result.escalations > 0)
            return result

        return run

    def _wrap_finalize(self, original):
        probes = self

        def finalize(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                with probes._lock:
                    probes.finalize_s.append(dt)

        return finalize

    def _wrap_next_batch(self, original):
        probes = self

        def next_batch(scheduler, *args, **kwargs):
            batch = original(scheduler, *args, **kwargs)
            if batch is not None:
                now = time.perf_counter()
                with probes._lock:
                    for request in batch.items:
                        probes.picked[request.request_id] = now
                probes._local.pending = (batch.batch_id, now)
            return batch

        return next_batch

    def _wrap_stage(self, original):
        probes = self

        def stage(transport, *args, **kwargs):
            local = probes._local
            t0 = time.perf_counter()
            pending = getattr(local, "pending", None)
            if pending is not None and original.__name__ == "stage":
                local.pending = None
                local.batch = pending[0]
                with probes._lock:
                    probes.dispatch_s.append(t0 - pending[1])
            ref = original(transport, *args, **kwargs)
            dt = time.perf_counter() - t0
            batch = getattr(local, "batch", None)
            if batch is not None:
                with probes._lock:
                    probes.transport_s[batch] += dt
                    if "name" in ref:
                        probes._ref_batch[ref["name"]] = batch
            return ref

        return stage

    def _wrap_unstage(self, original):
        probes = self

        def unstage(transport, ref, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(transport, ref, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                name = ref.get("name") if ref else None
                with probes._lock:
                    batch = probes._ref_batch.get(name)
                    if original.__name__ == "release":
                        probes._ref_batch.pop(name, None)
                    if batch is not None:
                        probes.transport_s[batch] += dt

        return unstage

