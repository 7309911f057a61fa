"""The execution core both serving tiers call.

A formed batch reaches a worker — a thread of
:class:`~repro.serve.pool.WorkerPool` or a spawned process of
:class:`~repro.serve.proc.pool.ProcWorkerPool` — and runs here:

- :func:`units_of` splits it into execution units: a coalesced batch
  becomes one stacked request keyed on the batch id (the kernel's
  :meth:`~repro.kernels.base.ProtectedKernel.stack`); any other batch
  runs request by request;
- :func:`run` executes one unit through its registry kernel,
  ``get_kernel(request.kernel).run(...)``, with retries and exponential
  backoff, asking ``injector_for(attempt)`` for every attempt's fault
  injector;
- :func:`first_drawn` draws a unit's fault over its members' own request
  ids, so a request meets the same fault odds stacked or alone;
- :func:`answers` hands each request its share of the unit's result
  (consecutive row slices of a stacked product).

The core never branches on the kernel name: what is GEMM-specific
(static-vs-tuned driver choice, the panel-cache consult, stacking) lives
in :class:`~repro.kernels.gemm.GemmKernel`, which draws on the per-worker
engine cache :class:`Worker` passed to every ``run``.

:func:`injector_from_spec` is the one place a plain fault spec becomes a
live injector: the thread tier's factory
(:func:`~repro.serve.workload.make_injector_factory`) calls it in
process, the worker process after unpickling the spec.

Chaos hooks: ``phase(name)`` is called with ``"pack"`` before the first
attempt, with ``"compute"`` right before the kernel call of attempt 0 and
with ``"reduce"`` when that call returns. The worker process SIGKILLs
itself there; the thread tier passes no hook.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro import kernels
from repro.core.ftgemm import FTGemm
from repro.core.parallel import ParallelFTGemm
from repro.faults.campaign import plan_for_gemm, site_invocation_counts_parallel
from repro.faults.injector import FaultInjector
from repro.faults.models import BitFlip, FailStop, StuckBit
from repro.gemm.blocking import BlockingConfig
from repro.obs.metrics import NULL_METRICS


def tuned_parts(tuned) -> tuple[BlockingConfig, int]:
    """``(blocking, threads)`` of a resolved tuning-DB entry.

    Accepts either the :class:`~repro.tune.db.TunedConfig` object the
    thread tier carries on requests or the plain dict the proc tier ships
    over its pipe — the serve layer stays structurally decoupled from the
    tune package's types.
    """
    if hasattr(tuned, "blocking"):
        return tuned.blocking(), max(1, int(getattr(tuned, "threads", 1) or 1))
    blocking = BlockingConfig(
        mc=int(tuned["mc"]),
        kc=int(tuned["kc"]),
        nc=int(tuned["nc"]),
        mr=int(tuned.get("mr", 16)),
        nr=int(tuned.get("nr", 14)),
    )
    return blocking, max(1, int(tuned.get("threads", 1) or 1))


class Worker:
    """Per-worker execution state: cached drivers, the panel-cache
    consult and a failure streak.

    ``owns(b)`` limits the consult to operands the worker holds for good:
    the process tier encodes panels only for its resident-B cache, never
    for a transient shared-memory view (the cache would pin the dying
    segment, and the next request re-encodes anyway).
    """

    def __init__(self, index: int, service_config, *, panel_cache=None,
                 owns=None, metrics=NULL_METRICS) -> None:
        self.index = index
        self.config = service_config
        self.panel_cache = panel_cache
        self.owns = owns or (lambda b: True)
        self.metrics = metrics
        self.consecutive_failures = 0
        self._drivers: dict[tuple, object] = {}

    def driver_for(self, scheme: str, degraded: bool, tuned=None):
        blocking = None
        threads = self.config.gemm_threads
        if tuned is not None:
            blocking, threads = tuned_parts(tuned)
        key = (
            (scheme, degraded)
            if blocking is None
            else (scheme, degraded, blocking, threads)
        )
        driver = self._drivers.get(key)
        if driver is None:
            ft = self.config.ft.with_(checksum_scheme=scheme, strict=True)
            if blocking is not None:
                ft = ft.with_(blocking=blocking)
            if degraded:
                # checksum-only verification: no escalation ladder, no
                # recompute fallback; unverified results surface (non-
                # strict) and the retry path owns recovery
                ft = ft.with_(
                    enable_supervisor=False,
                    recompute_fallback=False,
                    strict=False,
                )
            if threads > 1:
                driver = ParallelFTGemm(
                    ft,
                    n_threads=threads,
                    backend=self.config.team_backend,
                )
            else:
                driver = FTGemm(ft)
            self._drivers[key] = driver
        return driver

    def panels_for(self, b, tuned=None):
        """A verified resident encoding of ``b``, or None (cache off, an
        operand the worker does not own, oversize, or a threaded driver —
        its fail-stop recovery epochs rebuild every buffer from source, so
        consulting would only burn encode work). A tuned entry keys the
        cache under *its* blocking, so tuned and static encodings of the
        same B coexist without ever cross-matching."""
        blocking, threads = self.config.ft.blocking, self.config.gemm_threads
        if tuned is not None:
            blocking, threads = tuned_parts(tuned)
        if self.panel_cache is None or threads > 1 or not self.owns(b):
            return None
        return self.panel_cache.acquire(b, blocking)


@dataclass
class Outcome:
    """One unit's execution: its verified result (None when every attempt
    failed), the attempts consumed and the last attempt's error."""

    result: object | None
    attempts: int
    error: str = ""


def _no_phase(name: str) -> None:
    return None


def run(request, worker: Worker, *, degraded: bool, injector_for,
        sleep=time.sleep, retry_metric: str = "serve.retries",
        phase=_no_phase, tracer=None, tid: int = 0) -> Outcome:
    """Execute one unit with retries: a failed attempt (any exception — a
    faulty substrate may raise anything) or an unverified result is
    re-run up to ``retry_budget`` times, sleeping
    ``backoff_base_s * 2**(attempt - 1)`` before each retry."""
    kernel = kernels.get_kernel(request.kernel)
    budget = worker.config.retry_budget
    error = ""
    if request.tuned is not None:
        # once per unit, whatever its attempts run on
        worker.metrics.inc("tune.applied")
    phase("pack")
    for attempt in range(budget + 1):
        if attempt:
            worker.metrics.inc(retry_metric)
            sleep(worker.config.backoff_base_s * 2 ** (attempt - 1))
        try:
            injector = injector_for(attempt)
            if attempt == 0:
                phase("compute")
            result = kernel.run(
                request, injector=injector, degraded=degraded,
                tracer=tracer, tid=tid, engines=worker,
            )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            continue
        if attempt == 0:
            phase("reduce")
        if result.verified:
            return Outcome(result, attempt + 1)
        error = "verification failed"
    return Outcome(None, budget + 1, error)


def units_of(batch) -> list[tuple]:
    """``(unit, members)`` pairs: one stacked request answering every
    member of a coalesced batch, else one unit per request."""
    if batch.coalesced:
        kernel = kernels.get_kernel(batch.items[0].kernel)
        return [(kernel.stack(batch.items, batch.batch_id), batch.items)]
    return [(request, [request]) for request in batch.items]


def first_drawn(draw, members):
    """The first non-None ``draw(request_id)`` over a unit's members, in
    member order. A stacked unit is struck when any request it carries
    would be struck on its own, so whether a request meets a fault does
    not depend on how the scheduler happened to batch it."""
    for member in members:
        drawn = draw(member.request_id)
        if drawn is not None:
            return drawn
    return None


def answers(unit, members, result) -> list[tuple]:
    """``(member, result)`` pairs: a singleton keeps the unit's result;
    the members of a stacked unit get consecutive row slices of it (the
    evidence — counters, reports, recovery — describes the one call that
    produced every slice)."""
    if members[0] is unit:
        return [(unit, result)]
    kernel = kernels.get_kernel(unit.kernel)
    pairs, row = [], 0
    for member in members:
        rows = member.result_shape[0]
        pairs.append((member, kernel.with_value(
            result, result.c[row:row + rows], member.request_id
        )))
        row += rows
    return pairs


def injector_from_spec(spec: dict | None, shape, service_config):
    """The live injector of a plain fault spec (None for no spec).

    :func:`~repro.serve.workload.make_fault_spec_factory` draws the spec
    (model, plan seed, optional fail-stop) from the workload seed; the
    full site plan is rebuilt here, so a spec replays identically on
    either tier. Non-GEMM plans come from the kernel's own site map and
    take no fail-stop (those kernels run single-threaded). GEMM plans
    depend on the service's blocking and thread count.
    """
    if spec is None:
        return None
    model = (
        StuckBit(bit=spec["bit"]) if spec["model"] == "stuck"
        else BitFlip(bit=spec["bit"])
    )
    kernel = spec.get("kernel", "gemm")
    if kernel != "gemm":
        return FaultInjector(kernels.get_kernel(kernel).plan(
            tuple(shape), spec["errors_per_call"],
            model=model, seed=spec["plan_seed"],
        ))
    m, n, k = shape
    blocking = service_config.ft.blocking
    counts = None
    if service_config.gemm_threads > 1:
        counts = site_invocation_counts_parallel(
            m, n, k, blocking, service_config.gemm_threads
        )
    plan = plan_for_gemm(
        m, n, k, blocking,
        spec["errors_per_call"],
        model=model,
        seed=spec["plan_seed"],
        counts=counts,
    )
    fail_stop = spec.get("fail_stop")
    if fail_stop is not None and service_config.gemm_threads >= 2:
        plan = replace(
            plan,
            fail_stops=(
                FailStop(
                    thread=fail_stop["thread"], barrier=fail_stop["barrier"]
                ),
            ),
        )
    return FaultInjector(plan)
