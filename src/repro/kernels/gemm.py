"""GemmKernel: the registry face of the existing FT-GEMM drivers.

Both serving tiers run GEMM through this class like every other kernel
(:mod:`repro.serve.execute`). What is GEMM-specific about serving lives
here, in :meth:`GemmKernel.run` and :meth:`GemmKernel.stack`: the
static-vs-tuned driver choice and the panel-cache consult (drawing on the
worker's ``engines`` cache), and the stacking of a coalesced bucket into
one product. Called without engines — the CLI's ``--kernel gemm``
campaigns, the workload oracle audit, the registry contract tests — it
runs a fresh :class:`~repro.core.ftgemm.FTGemm` driver.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.config import FTGemmConfig
from repro.core.ftgemm import FTGemm
from repro.faults.campaign import plan_for_gemm, site_invocation_counts
from repro.faults.models import FaultModel
from repro.gemm.reference import gemm_reference
from repro.kernels.base import ProtectedKernel


class GemmKernel(ProtectedKernel):
    """``C = alpha * A @ B + beta * C0`` under fused ABFT."""

    name = "gemm"

    def __init__(self, config: FTGemmConfig | None = None) -> None:
        self.config = config or FTGemmConfig()

    # ------------------------------------------------------------ descriptors
    def unit_operand(self, request) -> np.ndarray:
        return request.a

    def aux_operand(self, request) -> np.ndarray | None:
        return request.c0

    def wire_params(self, request) -> dict:
        return {"alpha": request.alpha, "beta": request.beta}

    # ---------------------------------------------------------- fault surface
    def site_invocations(self, shape: tuple) -> dict[str, int]:
        m, n, k = shape
        return site_invocation_counts(m, n, k, self.config.blocking)

    def plan(self, shape, n_errors, *, model: FaultModel | None = None,
             seed: int = 0):
        # delegate to the canonical GEMM plan builder so standalone
        # campaigns and the serving fault storm sample identical slots
        m, n, k = shape
        return plan_for_gemm(
            m, n, k, self.config.blocking, n_errors, model=model, seed=seed
        )

    # -------------------------------------------------------------- execution
    def run(self, request, *, injector=None, degraded: bool = False,
            tracer=None, tid: int = 0, engines=None):
        """One protected GEMM; returns the driver's own FTGemmResult —
        duck-compatible with :class:`KernelResult` where the serving layer
        looks (``.c`` / ``.verified``).

        With a serving worker's ``engines`` (cached drivers and panel
        cache), a clean attempt runs the request's tuned driver on the
        resident encoding of B. A faulted attempt runs the static driver
        and never uses cached panels: fault plans derive their site
        schedules from the static blocking, and the cache is never
        consulted around a live injector.
        """
        t0 = tracer.now_us() if tracer is not None else 0.0
        packed = None
        if engines is None:
            ft = self.config.with_(checksum_scheme=request.scheme)
            if degraded:
                ft = ft.with_(
                    enable_supervisor=False,
                    recompute_fallback=False,
                    strict=False,
                )
            driver = FTGemm(ft)
        elif injector is not None:
            driver = engines.driver_for(request.scheme, degraded)
        else:
            driver = engines.driver_for(request.scheme, degraded, request.tuned)
            packed = engines.panels_for(request.b, request.tuned)
        c = request.c0.copy() if request.c0 is not None else None
        result = driver.gemm(
            request.a,
            request.b,
            c,
            alpha=request.alpha,
            beta=request.beta,
            injector=injector,
            request_id=request.request_id,
            packed_b=packed,
        )
        if tracer is not None:
            tracer.complete(
                "kernel.gemm.execute",
                cat="kernel",
                tid=tid,
                t0_us=t0,
                args={"verified": result.verified},
            )
        return result

    def verify(self, request, value: np.ndarray) -> bool:
        """Independent dual-checksum probe: row/column sums of the result
        against sums predicted from the operands (O(mn + mk + kn))."""
        expected_rows = request.alpha * (request.a @ request.b.sum(axis=1))
        if request.beta != 0.0:
            expected_rows += request.beta * request.c0.sum(axis=1)
        env = (
            abs(request.alpha)
            * (np.abs(request.a) @ np.abs(request.b).sum(axis=1))
            + (
                abs(request.beta) * np.abs(request.c0).sum(axis=1)
                if request.beta != 0.0
                else 0.0
            )
        )
        tol = 64.0 * np.finfo(np.float64).eps * (request.k + request.n)
        return bool(
            np.all(
                np.abs(value.sum(axis=1) - expected_rows)
                <= tol * (env + np.finfo(np.float64).tiny)
            )
        )

    def escalate(self, request) -> np.ndarray:
        first = gemm_reference(
            request.a, request.b, request.c0,
            alpha=request.alpha, beta=request.beta,
        )
        duplicate = gemm_reference(
            request.a, request.b, request.c0,
            alpha=request.alpha, beta=request.beta,
        )
        return duplicate if not np.array_equal(first, duplicate) else first

    # ----------------------------------------------------------------- oracle
    def oracle(self, request) -> np.ndarray:
        return gemm_reference(
            request.a, request.b, request.c0,
            alpha=request.alpha, beta=request.beta,
        )

    def sample_request(self, shape: tuple, rng: np.random.Generator):
        from repro.serve.request import GemmRequest  # serving type, late bind

        m, n, k = shape
        return GemmRequest(
            rng.standard_normal((m, k)), rng.standard_normal((k, n))
        )

    # --------------------------------------------------------------- batching
    def stack(self, requests, request_id: str):
        """The A operands concatenated along M against the bucket's one B.
        Stackable buckets have ``beta == 0``, so any C0 a member carries
        never reaches the result and is dropped (the head's C0 would not
        match the stacked row count)."""
        return replace(
            requests[0],
            a=np.vstack([r.a for r in requests]),
            c0=None,
            request_id=request_id,
        )

    def with_value(self, result, value, request_id: str | None):
        # a slice or a shipped result carries no tracer: its spans belong
        # to the whole call
        return replace(result, c=value, request_id=request_id, trace=None)
