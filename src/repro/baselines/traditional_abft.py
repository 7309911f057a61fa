"""Traditional (non-fused) offline ABFT GEMM — the scheme fusion replaces.

A real, runnable implementation around the same blocked kernel as
FT-GEMM, where every checksum operation is a dedicated pass, exactly the
structure the paper's Section 2.2 criticizes:

1. encode ``A^r = eᵀA`` — separate sweep of A;
2. encode ``B^c = B·e`` — separate sweep of B;
3. predicted checksums via standalone GEMVs (``A^r·B`` re-reads B,
   ``A·B^c`` re-reads A);
4. plain blocked GEMM (batched macro kernel unless an injector needs the
   per-tile sites);
5. one verification sweep over C at the end.

Counters therefore show a large ``ft_extra_bytes`` where the fused driver
shows zero; the measured Fig. 2(a) sweep times the pair side by side.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FTGemmConfig
from repro.core.results import FTGemmResult
from repro.core.verification import ChecksumLedger, Verifier
from repro.gemm.driver import BlockedGemm
from repro.simcpu.counters import Counters
from repro.util.errors import ConfigError
from repro.util.validation import as_2d_float64, check_gemm_operands


class TraditionalABFT:
    """Non-fused offline ABFT around the blocked GEMM."""

    def __init__(self, config: FTGemmConfig | None = None):
        self.config = config or FTGemmConfig()
        if not self.config.enable_ft:
            raise ConfigError("TraditionalABFT is inherently fault tolerant; "
                              "use BlockedGemm for an unprotected baseline")
        self.ft_config = self.config  # campaign-compat alias
        self.counters = Counters()

    def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        *,
        alpha: float = 1.0,
        beta: float = 0.0,
        injector=None,
    ) -> FTGemmResult:
        a = as_2d_float64(a, "A")
        b = as_2d_float64(b, "B")
        if c is None:
            m, n, _ = check_gemm_operands(a, b)
            c = np.zeros((m, n), dtype=np.float64)
            beta = 0.0
        else:
            c = as_2d_float64(c, "C")
        m, n, k = check_gemm_operands(a, b, c)
        self.counters = counters = Counters()
        ledger = ChecksumLedger.zeros(m, n)
        c0 = None
        if beta != 0.0 and self.config.keep_original_c:
            c0 = c.copy()

        # --- dedicated encode passes (each is a full extra memory sweep)
        a_row = alpha * a.sum(axis=0)
        abs_a_row = abs(alpha) * np.abs(a).sum(axis=0)
        b_col = b.sum(axis=1)
        abs_b_col = np.abs(b).sum(axis=1)
        counters.checksum_flops += 2 * (m * k + k * n)
        counters.ft_extra_bytes += a.nbytes + b.nbytes
        if injector is not None:
            injector.visit("checksum", a_row)

        # --- standalone GEMVs re-reading A and B for the predictions
        ledger.row_pred = a_row @ b
        ledger.col_pred = alpha * (a @ b_col)
        ledger.env_row = abs_a_row @ np.abs(b)
        ledger.env_col = abs(alpha) * (np.abs(a) @ abs_b_col)
        counters.checksum_flops += 4 * (k * n + m * k)
        counters.ft_extra_bytes += 2 * (a.nbytes + b.nbytes)

        if beta != 0.0:
            abs_c = np.abs(c)
            ledger.c0_abs_row = abs_c.sum(axis=0)
            ledger.c0_abs_col = abs_c.sum(axis=1)
            scaled = beta * c
            if injector is not None:
                injector.visit("scale", scaled)
            c[:] = scaled
            ledger.row_pred += c.sum(axis=0)
            ledger.col_pred += c.sum(axis=1)
            counters.checksum_flops += 6 * m * n
            counters.ft_extra_bytes += 2 * c.nbytes
        else:
            c[:] = 0.0

        # --- the plain blocked product; an injector needs the per-tile and
        # packing sites, a clean call runs the batched macro kernel
        driver = BlockedGemm(self.config.blocking, counters=counters)
        on_tile = None
        if injector is not None:
            def on_tile(tile: np.ndarray, i0: int, j0: int) -> None:
                injector.visit("microkernel", tile)

            orig_pack_a = driver._pack_a_block
            orig_pack_b = driver._pack_b_block

            def pack_a(aa, i0, ilen, p0, plen, al, *, first_j):
                packed = orig_pack_a(aa, i0, ilen, p0, plen, al, first_j=first_j)
                injector.visit("pack_a", packed.data)
                return packed

            def pack_b(bb, p0, plen, j0, jlen):
                packed = orig_pack_b(bb, p0, plen, j0, jlen)
                injector.visit("pack_b", packed.data)
                return packed

            driver._pack_a_block = pack_a
            driver._pack_b_block = pack_b
        driver.gemm(a, b, c, alpha=alpha, beta=1.0 if beta != 0.0 else 0.0,
                    on_tile=on_tile)

        # --- final dedicated verification sweep over C
        ledger.row_ref = c.sum(axis=0)
        ledger.col_ref = c.sum(axis=1)
        counters.checksum_flops += 2 * c.size
        counters.ft_extra_bytes += c.nbytes

        verifier = Verifier(
            a, b, alpha=alpha, beta=beta, c0=c0,
            config=self.config, counters=counters,
        )
        reports, verified = verifier.finalize(c, ledger)
        if injector is not None:
            injector.mark_detected(counters.errors_detected)
        return FTGemmResult(
            c=c,
            counters=counters,
            reports=reports,
            verified=verified,
            ft_enabled=True,
        )
