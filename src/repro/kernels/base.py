"""The ProtectedKernel interface and its shared result type.

A kernel is a *stateless singleton* describing one protected computation
end to end:

- **descriptors** — operand roles (:meth:`ProtectedKernel.unit_operand`,
  :meth:`ProtectedKernel.aux_operand`; the shared operand lives on the
  request as ``request.shared_operand``), the canonical 2-D result shape
  (``request.result_shape``), and picklable per-request parameters
  (:meth:`ProtectedKernel.wire_params`) — everything the process tier
  needs to ship a request over a pipe and rebuild it in a child;
- **fault surface** — :meth:`ProtectedKernel.site_invocations` names how
  many times each instrumented site fires for a given shape, and
  :meth:`ProtectedKernel.plan` samples a deterministic
  :class:`~repro.faults.injector.InjectionPlan` over those slots (the
  exact idiom of :func:`repro.faults.campaign.plan_for_gemm`);
- **execution ladder** — :meth:`ProtectedKernel.run` executes under an
  optional injector (and, when a serving tier calls it, the worker's
  ``engines`` cache — :class:`repro.serve.execute.Worker`; only GEMM
  draws on it) with the kernel's own in-call protection (ABFT
  correction, DMR compare), then applies an *independent* verification
  probe (:meth:`ProtectedKernel.verify`), and — unless the batch runs
  degraded — escalates an unverified result to an injector-free DMR
  recompute (:meth:`ProtectedKernel.escalate`), the same top rung the
  GEMM escalation supervisor ends on. A result that survives all rungs
  unverified surfaces with ``verified=False`` and the pool's retry loop
  owns recovery, exactly as for GEMM;
- **oracle** — :meth:`ProtectedKernel.oracle` computes the trusted NumPy
  answer for the workload auditor;
- **batching** — :meth:`ProtectedKernel.stack` merges a coalescible
  bucket into one request (GEMM only) and
  :meth:`ProtectedKernel.with_value` rebinds a result to a new array
  (the row slices of a stacked product, or the array the process tier
  fetched back from shared memory).

Tracing: ``run`` emits ``kernel.<name>.execute`` / ``.verify`` /
``.escalate`` spans on the caller's lane when handed a tracer — they nest
inside the worker's ``serve.batch`` span.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.faults.injector import InjectionPlan
from repro.faults.models import FaultModel, default_model
from repro.util.errors import ConfigError
from repro.util.rng import derive_seed, make_rng

EPS = float(np.finfo(np.float64).eps)


@dataclass
class KernelResult:
    """Outcome of one protected kernel execution (non-GEMM kernels; GEMM
    keeps returning :class:`~repro.core.results.FTGemmResult`, which
    exposes the same ``.c`` / ``.verified`` face).

    ``value`` is the canonical 2-D float64 result — ``(m, 1)`` for GEMV,
    ``(n, nrhs)`` for TRSM, ``(N, 2)`` [Re, Im] for FFT — so transport,
    result slots and the oracle audit treat every kernel uniformly.
    """

    value: np.ndarray
    kernel: str
    verified: bool = True
    detected: int = 0
    corrected: int = 0
    recomputed: int = 0
    #: times the run climbed to the DMR-recompute rung
    escalations: int = 0
    protection_flops: int = 0
    request_id: str | None = None

    @property
    def c(self) -> np.ndarray:
        """Uniform result accessor (mirrors ``FTGemmResult.c``)."""
        return self.value

    def summary(self) -> str:
        status = "verified" if self.verified else "UNVERIFIED"
        tag = f"{self.request_id}: " if self.request_id else ""
        return (
            f"KernelResult({tag}{self.kernel}, {self.value.shape}, {status}, "
            f"detected={self.detected}, corrected={self.corrected}, "
            f"recomputed={self.recomputed}, escalations={self.escalations})"
        )


class ProtectedKernel:
    """Interface every registered kernel implements (see module docstring
    and ``docs/KERNELS.md`` for the add-a-kernel guide)."""

    #: registry key; also the request's ``kernel`` discriminator
    name = "?"

    # ------------------------------------------------------------ descriptors
    def unit_operand(self, request) -> np.ndarray:
        """The per-request operand (A for GEMM, x for GEMV/FFT, B for
        TRSM) — what the process tier stages per item."""
        raise NotImplementedError

    def aux_operand(self, request) -> np.ndarray | None:
        """The optional accumulate operand (C0 for GEMM, y0 for GEMV);
        None when the kernel has none or the request omits it."""
        return None

    def wire_params(self, request) -> dict:
        """Picklable scalars needed to rebuild the request in a worker
        process (everything that is neither an operand nor envelope)."""
        return {}

    # ---------------------------------------------------------- fault surface
    def site_invocations(self, shape: tuple) -> dict[str, int]:
        """Per-site hook-invocation counts of one call at ``shape``
        (``request.shape``); mirrors the routine's loop structure exactly
        so plans can name valid invocation indices."""
        raise NotImplementedError

    def plan(
        self,
        shape: tuple,
        n_errors: int,
        *,
        model: FaultModel | None = None,
        seed: int = 0,
    ) -> InjectionPlan:
        """Sample ``n_errors`` distinct (site, invocation) slots uniformly
        — deterministic in (kernel, shape, n_errors, seed), so the thread
        tier's live injector and the process tier's spec-rebuilt injector
        strike identically.

        Kernels with few invocation slots (a GEMV has one) clamp the
        request down to the available slots instead of refusing: a mixed
        fault storm asks every kernel for the same errors-per-call.
        """
        if n_errors < 0:
            raise ConfigError(f"n_errors must be non-negative, got {n_errors}")
        counts = self.site_invocations(tuple(shape))
        slots = [
            (site, idx)
            for site in sorted(counts)
            for idx in range(counts[site])
        ]
        n_errors = min(n_errors, len(slots))
        rng = make_rng(
            derive_seed(seed, "kplan", self.name, *shape, n_errors)
        )
        chosen = rng.choice(len(slots), size=n_errors, replace=False)
        schedule: dict[str, list[int]] = {}
        for pos in np.atleast_1d(chosen):
            site, invocation = slots[int(pos)]
            schedule.setdefault(site, []).append(invocation)
        return InjectionPlan(
            schedule={s: tuple(sorted(v)) for s, v in schedule.items()},
            model=model or default_model(),
            seed=derive_seed(seed, "victims"),
        )

    # -------------------------------------------------------------- execution
    def run(
        self,
        request,
        *,
        injector=None,
        degraded: bool = False,
        tracer=None,
        tid: int = 0,
        engines=None,
    ) -> KernelResult:
        """Execute the protected routine, probe, escalate if needed."""
        raise NotImplementedError

    def verify(self, request, value: np.ndarray) -> bool:
        """Independent checksum probe over the finished result (cheap
        relative to the routine; never consults the injector)."""
        raise NotImplementedError

    def escalate(self, request) -> np.ndarray:
        """The top recovery rung: recompute twice on the (modeled) clean
        path and compare — dual modular redundancy, never visiting the
        injector, mirroring the GEMM supervisor's final DMR rung."""
        raise NotImplementedError

    # ----------------------------------------------------------------- oracle
    def oracle(self, request) -> np.ndarray:
        """The trusted NumPy answer in canonical 2-D form (the workload
        auditor's reference)."""
        raise NotImplementedError

    def sample_request(self, shape: tuple, rng: np.random.Generator):
        """Deterministic well-conditioned operands for ``shape`` — the
        CLI's standalone campaigns and the determinism grids build their
        requests here so every caller agrees on the operand RNG order."""
        raise NotImplementedError

    # --------------------------------------------------------------- batching
    def stack(self, requests, request_id: str):
        """One request computing every request of a coalescible bucket
        (only GEMM buckets are stackable — see ``KernelRequest.bucket``)."""
        raise NotImplementedError(f"{self.name} requests do not stack")

    def with_value(self, result, value, request_id: str | None):
        """``result`` rebound to ``value`` under ``request_id``."""
        return replace(result, value=value, request_id=request_id)

    # -------------------------------------------------------------- internals
    def _ladder(
        self,
        request,
        result: KernelResult,
        *,
        injector,
        degraded: bool,
        tracer,
        tid: int,
    ) -> KernelResult:
        """The shared verify→escalate tail of :meth:`run`: probe the
        value, climb to DMR recompute unless degraded, stamp injector
        records, emit spans."""
        t0 = tracer.now_us() if tracer is not None else 0.0
        verified = self.verify(request, result.value)
        if tracer is not None:
            tracer.complete(
                f"kernel.{self.name}.verify",
                cat="kernel",
                tid=tid,
                t0_us=t0,
                args={"verified": verified},
            )
        if not verified and not degraded:
            t0 = tracer.now_us() if tracer is not None else 0.0
            result.value[...] = self.escalate(request)
            result.escalations += 1
            result.recomputed += 1
            verified = self.verify(request, result.value)
            if tracer is not None:
                tracer.complete(
                    f"kernel.{self.name}.escalate",
                    cat="kernel",
                    tid=tid,
                    t0_us=t0,
                    args={"verified": verified},
                )
        result.verified = verified
        if injector is not None and result.detected:
            # fold the routine's evidence back onto the strike records so
            # per-site outcome tables (campaigns, determinism grids) see
            # detection/correction per strike, as the GEMM drivers do
            injector.mark_detected(result.detected)
            if verified:
                injector.mark_corrected(result.detected)
        return result
