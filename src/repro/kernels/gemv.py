"""GemvKernel: protected ``y = alpha * A @ x + beta * y0`` as a citizen.

Promotes :func:`repro.blas.level2.ft_gemv` from an orphaned routine to a
full serving citizen: checksum-ledger evidence in the result, tracer
spans, an injector site map (one ``blas_compute`` invocation per call),
an independent verification probe and a DMR escalation rung.

Protection split: the O(mk) product carries ABFT (plain + weighted
column checksums fused with the sweep over A; single errors are
localized by residual ratio and repaired in place), and the escalation
rung is DMR — for a memory-bound Level-2 routine the verify probe
necessarily re-reads A, which is exactly the FT-BLAS observation that
checksums stop amortizing below Level 3.
"""

from __future__ import annotations

import numpy as np

from repro.blas.level2 import ft_gemv
from repro.kernels.base import EPS, KernelResult, ProtectedKernel


class GemvKernel(ProtectedKernel):
    name = "gemv"

    # ------------------------------------------------------------ descriptors
    def unit_operand(self, request) -> np.ndarray:
        return request.x

    def aux_operand(self, request) -> np.ndarray | None:
        return request.y0

    def wire_params(self, request) -> dict:
        return {"alpha": request.alpha, "beta": request.beta}

    # ---------------------------------------------------------- fault surface
    def site_invocations(self, shape: tuple) -> dict[str, int]:
        # one fused compute hook per call: the product vector, visited
        # right after it is formed (mirrors ft_gemv's _visit)
        return {"blas_compute": 1}

    # -------------------------------------------------------------- execution
    def run(self, request, *, injector=None, degraded: bool = False,
            tracer=None, tid: int = 0, engines=None) -> KernelResult:
        t0 = tracer.now_us() if tracer is not None else 0.0
        y = request.y0.copy() if request.y0 is not None else None
        blas = ft_gemv(
            request.a,
            request.x,
            y,
            alpha=request.alpha,
            beta=request.beta,
            injector=injector,
        )
        result = KernelResult(
            value=np.asarray(blas.value, dtype=np.float64).reshape(-1, 1),
            kernel=self.name,
            detected=blas.detected,
            corrected=blas.corrected,
            recomputed=blas.recomputed,
            protection_flops=blas.protection_flops,
            request_id=request.request_id,
        )
        if tracer is not None:
            tracer.complete(
                "kernel.gemv.execute",
                cat="kernel",
                tid=tid,
                t0_us=t0,
                args={"detected": blas.detected},
            )
        return self._ladder(
            request, result,
            injector=injector, degraded=degraded, tracer=tracer, tid=tid,
        )

    def verify(self, request, value: np.ndarray) -> bool:
        """Independent plain-checksum probe: ``e^T y`` against
        ``(e^T alpha A) x + beta e^T y0``, recomputed from the operands
        (one fresh pass over A — the probe does not trust any state the
        routine produced)."""
        a, x = request.a, request.x
        m, k = a.shape
        pred = request.alpha * float(a.sum(axis=0) @ x)
        env = abs(request.alpha) * float(np.abs(a).sum(axis=0) @ np.abs(x))
        if request.beta != 0.0:
            pred += request.beta * float(request.y0.sum())
            env += abs(request.beta) * float(np.abs(request.y0).sum())
        tol = 64.0 * EPS * (k + m + 2) * (env + np.finfo(np.float64).tiny)
        return abs(float(value.sum()) - pred) <= tol

    def escalate(self, request) -> np.ndarray:
        first = request.alpha * (request.a @ request.x)
        if request.beta != 0.0:
            first = first + request.beta * request.y0
        duplicate = request.alpha * (request.a @ request.x)
        if request.beta != 0.0:
            duplicate = duplicate + request.beta * request.y0
        chosen = first if np.array_equal(first, duplicate) else duplicate
        return chosen.reshape(-1, 1)

    # ----------------------------------------------------------------- oracle
    def oracle(self, request) -> np.ndarray:
        y = request.alpha * (request.a @ request.x)
        if request.beta != 0.0:
            y = y + request.beta * request.y0
        return y.reshape(-1, 1)

    def sample_request(self, shape: tuple, rng: np.random.Generator):
        from repro.serve.request import GemvRequest  # serving type, late bind

        m, k = shape
        return GemvRequest(
            rng.standard_normal((m, k)), rng.standard_normal(k)
        )
