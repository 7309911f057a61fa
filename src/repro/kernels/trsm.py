"""TrsmKernel: protected blocked triangular solve as a citizen.

Promotes :func:`repro.blas.level3_solve.ft_trsm`: DMR on the sequential
diagonal-block solves (an early error poisons everything after it, so
after-the-fact checksums cannot localize — the recurrence is computed
twice and compared), fused ABFT through the FT-GEMM driver on the cubic
trailing updates. The kernel adds the serving citizenship: an injector
site map (one ``blas_compute`` invocation per diagonal block), a
residual verification probe, a DMR escalation rung, tracer spans.
"""

from __future__ import annotations

import numpy as np

from repro.blas.level3_solve import ft_trsm
from repro.core.config import FTGemmConfig
from repro.kernels.base import EPS, KernelResult, ProtectedKernel


class TrsmKernel(ProtectedKernel):
    name = "trsm"

    #: diagonal-block size of the blocked solve; fixed so the injector
    #: site map derived from a shape alone matches execution exactly
    BLOCK = 32

    # ------------------------------------------------------------ descriptors
    def unit_operand(self, request) -> np.ndarray:
        return request.b

    def aux_operand(self, request) -> np.ndarray | None:
        return None

    def wire_params(self, request) -> dict:
        return {"lower": request.lower}

    # ---------------------------------------------------------- fault surface
    def site_invocations(self, shape: tuple) -> dict[str, int]:
        n, _nrhs = shape
        # one DMR solve hook per diagonal block; the trailing FT-GEMM
        # updates own their sites internally and are not planned here
        return {"blas_compute": -(-n // self.BLOCK)}

    # -------------------------------------------------------------- execution
    def run(self, request, *, injector=None, degraded: bool = False,
            tracer=None, tid: int = 0, engines=None) -> KernelResult:
        t0 = tracer.now_us() if tracer is not None else 0.0
        blas = ft_trsm(
            request.a,
            request.b,
            lower=request.lower,
            block=self.BLOCK,
            config=FTGemmConfig.small(),
            injector=injector,
        )
        result = KernelResult(
            value=np.asarray(blas.value, dtype=np.float64),
            kernel=self.name,
            detected=blas.detected,
            corrected=blas.corrected,
            recomputed=blas.recomputed,
            protection_flops=blas.protection_flops,
            request_id=request.request_id,
        )
        if tracer is not None:
            tracer.complete(
                "kernel.trsm.execute",
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
        """Residual probe on the checksum of the right-hand sides:
        ``A (X e) == B e`` within a component-wise envelope — O(n^2 + n
        nrhs) against the O(n^2 nrhs) solve, and independent of every
        intermediate the routine produced."""
        a, b = request.a, request.b
        xs = value.sum(axis=1)
        residual = a @ xs - b.sum(axis=1)
        env = np.abs(a) @ np.abs(value).sum(axis=1) + np.abs(b).sum(axis=1)
        tol = 1e3 * EPS * a.shape[0] * (env + 1.0)
        return bool(np.all(np.abs(residual) <= tol))

    def escalate(self, request) -> np.ndarray:
        first = np.linalg.solve(request.a, request.b)
        duplicate = np.linalg.solve(request.a, request.b)
        return first if np.array_equal(first, duplicate) else duplicate

    # ----------------------------------------------------------------- oracle
    def oracle(self, request) -> np.ndarray:
        return np.linalg.solve(request.a, request.b)

    def sample_request(self, shape: tuple, rng: np.random.Generator):
        from repro.serve.request import TrsmRequest  # serving type, late bind

        n, nrhs = shape
        a = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
        return TrsmRequest(a, rng.standard_normal((n, nrhs)))
