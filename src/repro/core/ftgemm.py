"""FT-GEMM: the fused fault-tolerant GEMM (paper Section 2.2).

:class:`FTGemm` extends the blocked driver with the paper's fused ABFT
operations, each attached to the pass that already touches the data:

====================  =====================================================
pass                  fused ABFT work
====================  =====================================================
prologue              ``A^r = eᵀ(αA)`` (the one upfront sweep of A), plus
                      the fused round-off envelope ``eᵀ|αA|``
``C = βC`` scaling    DMR-protected scaling; encode the initial predicted
                      checksums ``eᵀ(βC)`` and ``(βC)e`` from the scaled
                      values while they are live
pack ``B → B̃``       partial ``B^c = B_blk·e`` for this (p, j) block and
                      the predicted row checksum update
                      ``C^r += A^r·B_blk`` — each loaded B element is used
                      three times (pack, B^c, C^r)
pack ``A → Ã``        predicted column checksum update
                      ``C^c += αA_blk·B^c_partial`` reusing the loaded A
macro kernel          on the last K-block, reference checksums
                      ``C^r_ref += eᵀC_block`` / ``C^c_ref += C_block·e``
                      from the freshly computed C tiles
epilogue              verify reference vs predicted; locate / correct /
                      recompute via :class:`repro.core.verification.Verifier`
====================  =====================================================

The driver therefore makes **no separate pass** over A, B, or C for fault
tolerance — the property the paper's overhead numbers hinge on. Counters
record the fused checksum flops (``checksum_flops``) and keep
``ft_extra_bytes`` at zero on the clean path, which the performance model
converts into the ~3 % (vs classic ~15 %) overhead curves.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FTGemmConfig
from repro.core.dmr import dmr_scale
from repro.core.results import FTGemmResult, VerificationReport
from repro.core.supervisor import EscalationSupervisor
from repro.core.verification import ChecksumLedger, Verifier
from repro.faults.injector import NULL_INJECTOR
from repro.gemm.driver import BlockedGemm, MemorySink
from repro.gemm.macrokernel import macro_kernel
from repro.gemm.packing import PackedPanels
from repro.obs.tracer import NULL_SPAN, Tracer
from repro.simcpu.counters import Counters
from repro.util.errors import ConfigError


class FTGemm(BlockedGemm):
    """Serial fused ABFT GEMM.

    Instances are reusable across calls but not reentrant: per-call checksum
    state lives on the instance (mirroring the paper's per-call buffers).
    The parallel scheme is :class:`repro.core.parallel.ParallelFTGemm`.
    """

    def __init__(
        self,
        config: FTGemmConfig | None = None,
        *,
        sink: MemorySink | None = None,
        tracer=None,
    ):
        self.ft_config = (config or FTGemmConfig()).validate()
        if tracer is None and self.ft_config.trace:
            tracer = Tracer()
        super().__init__(self.ft_config.blocking, sink=sink, tracer=tracer)
        # per-call state
        self._ledger: ChecksumLedger | None = None
        self._a: np.ndarray | None = None
        self._b: np.ndarray | None = None
        self._alpha = 1.0
        self._beta = 0.0
        self._a_row: np.ndarray | None = None
        self._abs_a_row: np.ndarray | None = None
        self._bc_partial: np.ndarray | None = None
        self._abs_bc_partial: np.ndarray | None = None
        self._c0: np.ndarray | None = None
        self._eager_reports: list[VerificationReport] = []
        # weighted-scheme state
        self._w_m: np.ndarray | None = None
        self._w_n: np.ndarray | None = None
        self._a_row_w: np.ndarray | None = None
        self._bc_partial_w: np.ndarray | None = None

    @property
    def ft(self) -> bool:
        return self.ft_config.enable_ft

    # ------------------------------------------------------------ public API
    def gemm(  # type: ignore[override]
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        *,
        alpha: float = 1.0,
        beta: float = 0.0,
        trans_a: bool = False,
        trans_b: bool = False,
        injector=None,
        request_id: str | None = None,
        packed_b=None,
    ) -> FTGemmResult:
        """Protected ``C = alpha*op(A)@op(B) + beta*C``; returns
        :class:`FTGemmResult`.

        ``request_id`` is an optional correlation id stamped onto the result
        (and its recovery report) so callers that manage many concurrent
        calls — the serving layer — can join results back to requests.

        ``packed_b`` optionally supplies a pre-packed-and-encoded B (a
        :class:`~repro.gemm.panelcache.PackedB` from the panel cache): the
        whole pack_b+checksum-encode phase is served from the resident
        buffers while the checksum ledger stays exactly consistent (the
        cached partials are the bit-identical quantities the fused pass
        would compute). Injected runs decline it — fault campaigns must
        keep the exact per-pass schedule the planner counted — so a cached
        B never perturbs an injection experiment.

        ``trans_a``/``trans_b`` select ``op(X) = Xᵀ`` (the BLAS interface).
        The transposed operand is materialized contiguously before the
        blocked sweep — a production kernel folds the transpose into the
        packing pass instead; the checksum algebra is identical either way.

        ``injector`` is consulted at every instrumented site (see
        :mod:`repro.faults.sites`); pass ``None`` for a fault-free run.
        """
        if trans_b and packed_b is not None:
            raise ConfigError(
                "packed_b describes the untransposed B; it cannot be "
                "combined with trans_b=True"
            )
        if trans_a:
            a = np.ascontiguousarray(np.asarray(a, dtype=np.float64).T)
        if trans_b:
            b = np.ascontiguousarray(np.asarray(b, dtype=np.float64).T)
        self.counters = Counters()
        if injector is None:
            injector = NULL_INJECTOR
        self._eager_reports = []
        tr = self._tr = self.tracer if self.tracer.enabled else None
        if tr is not None:
            try:
                # injectors publish fault.injected events through the tracer
                injector.tracer = tr
            except AttributeError:
                pass
        if tr is not None and not self._root_active:
            # the FT root span covers verification and recovery too, so
            # open it here rather than letting BlockedGemm.gemm own it
            self._root_active = True
            args = {"ft": self.ft}
            ashape, bshape = np.shape(a), np.shape(b)
            if len(ashape) == 2 and len(bshape) == 2:
                args.update(m=int(ashape[0]), k=int(ashape[1]),
                            n=int(bshape[1]))
            try:
                with tr.span("gemm", cat="driver", args=args):
                    result = self._protected_call(
                        a, b, c, alpha, beta, injector, packed_b
                    )
            finally:
                self._root_active = False
            result.trace = self.tracer
        else:
            result = self._protected_call(
                a, b, c, alpha, beta, injector, packed_b
            )
        self._release_call_state()
        if request_id is not None:
            result.request_id = request_id
            if result.recovery is not None:
                result.recovery.request_id = request_id
        return result

    def _protected_call(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None,
        alpha: float,
        beta: float,
        injector,
        packed_b=None,
    ) -> FTGemmResult:
        """The protected loop nest plus the verification epilogue."""
        out = super().gemm(
            a, b, c, alpha=alpha, beta=beta, injector=injector,
            packed_b=packed_b,
        )
        reports: list[VerificationReport] = list(self._eager_reports)
        verified = True
        recovery = None
        if self.ft:
            checker_kwargs = dict(
                alpha=self._alpha,
                beta=self._beta,
                c0=self._c0,
                config=self.ft_config,
                counters=self.counters,
                injector=injector if injector is not NULL_INJECTOR else None,
                tracer=self._tr,
            )
            try:
                if self.ft_config.enable_supervisor:
                    final_reports, verified, recovery = EscalationSupervisor(
                        self._a, self._b, **checker_kwargs
                    ).finalize(out, self._ledger)
                    if not (recovery.rounds or recovery.quarantined):
                        recovery = None  # clean path: no recovery story to tell
                else:
                    final_reports, verified = Verifier(
                        self._a, self._b, **checker_kwargs
                    ).finalize(out, self._ledger)
            finally:
                injector.mark_detected(self.counters.errors_detected)
                injector.mark_corrected(self.counters.errors_corrected)
            reports.extend(final_reports)
        return FTGemmResult(
            c=out,
            counters=self.counters,
            reports=reports,
            verified=verified,
            ft_enabled=self.ft,
            recovery=recovery,
        )

    def _release_call_state(self) -> None:
        self._ledger = None
        self._a = self._b = None
        self._a_row = self._abs_a_row = None
        self._bc_partial = self._abs_bc_partial = None
        self._c0 = None
        self._w_m = self._w_n = None
        self._a_row_w = self._bc_partial_w = None

    # --------------------------------------------------- fused driver stages
    def _begin(self, m, n, k, a, b, c, alpha, beta) -> None:
        self._a = a
        self._b = b
        self._alpha = alpha
        self._beta = beta
        self._c0 = None
        if not self.ft:
            return
        tr = self._tr
        with (tr.span("prologue", cat="checksum", args={"m": m, "k": k})
              if tr is not None else NULL_SPAN):
            weighted = self.ft_config.weighted
            self._ledger = ChecksumLedger.zeros(m, n, weighted=weighted)
            # the one upfront sweep of A: A^r = e^T(alpha*A), + its envelope
            self._a_row = alpha * a.sum(axis=0)
            self._abs_a_row = abs(alpha) * np.abs(a).sum(axis=0)
            self.counters.checksum_flops += 2 * m * k
            if weighted:
                self._w_m = np.arange(1.0, m + 1.0)
                self._w_n = np.arange(1.0, n + 1.0)
                self._a_row_w = alpha * (self._w_m @ a)
                self.counters.checksum_flops += 2 * m * k
            self._injector.visit("checksum", self._a_row)
            if beta != 0.0 and self.ft_config.keep_original_c:
                self._c0 = c.copy()

    def _scale_c(self, c: np.ndarray, beta: float) -> None:
        if not self.ft:
            super()._scale_c(c, beta)
            self._injector.visit("scale", c)
            return
        if beta == 0.0 and self._c_fresh and self._injector is NULL_INJECTOR:
            # C was freshly allocated as zeros and there is no injector
            # needing the DMR window: no scaling arithmetic happens, so
            # there is nothing to protect, encode, count, or store
            return
        ledger = self._ledger
        if beta != 0.0:
            abs_c = np.abs(c)
            ledger.c0_abs_row = abs_c.sum(axis=0)
            ledger.c0_abs_col = abs_c.sum(axis=1)
            self.counters.checksum_flops += 2 * c.size
        if self.ft_config.dmr_protect_scale:
            dmr_scale(c, beta, counters=self.counters, visit=self._injector.visit)
        else:
            super()._scale_c(c, beta)
            self._injector.visit("scale", c)
        if beta != 0.0:
            ledger.row_pred += c.sum(axis=0)
            ledger.col_pred += c.sum(axis=1)
            self.counters.checksum_flops += 2 * c.size
            if ledger.weighted:
                ledger.row_pred_w += self._w_m @ c
                ledger.col_pred_w += c @ self._w_n
                self.counters.checksum_flops += 4 * c.size
        self._injector.visit("checksum", ledger.col_pred)

    def _pack_b_cached(
        self, grid, p_idx, j_idx, p0, plen, j0, jlen
    ) -> PackedPanels:
        """Serve B̃ and replay the B-side fused checksum updates from the
        cached encoding.

        The cached ``bc``/``abs_bc``/``bc_w`` partials are bit-identical to
        what the fused pass computes (same reductions over the same
        values), so the ledger stays exactly consistent; the A-dependent
        updates (``C^r += A^r·B_blk`` and its envelope) still run — they
        depend on this call's A — but read the resident packed columns
        instead of re-sweeping B. Only reachable on clean runs (admission
        declines the grid when an injector is attached), so no fault sites
        are visited here.
        """
        blk = grid.block(p_idx, j_idx)
        packed = blk.packed
        if self.ft:
            tr = self._tr
            cm = (tr.span("checksum_update", cat="checksum",
                          args={"site": "pack_b_cached", "p0": p0, "j0": j0})
                  if tr is not None else NULL_SPAN)
            with cm:
                ledger = self._ledger
                cols = packed.cols()[:, :jlen]
                abs_cols = blk.abs_cols[:, :jlen]
                self._bc_partial = blk.bc
                self._abs_bc_partial = blk.abs_bc
                ledger.row_pred[j0 : j0 + jlen] += (
                    self._a_row[p0 : p0 + plen] @ cols
                )
                ledger.env_row[j0 : j0 + jlen] += (
                    self._abs_a_row[p0 : p0 + plen] @ abs_cols
                )
                self.counters.checksum_flops += 4 * plen * jlen
                if ledger.weighted:
                    ledger.row_pred_w[j0 : j0 + jlen] += (
                        self._a_row_w[p0 : p0 + plen] @ cols
                    )
                    self._bc_partial_w = blk.bc_w
                    self.counters.checksum_flops += 2 * plen * jlen
        return packed

    def _pack_b_block(self, b, p0, plen, j0, jlen) -> PackedPanels:
        packed = super()._pack_b_block(b, p0, plen, j0, jlen)
        if self.ft:
            tr = self._tr
            cm = (tr.span("checksum_update", cat="checksum",
                          args={"site": "pack_b", "p0": p0, "j0": j0})
                  if tr is not None else NULL_SPAN)
            with cm:
                ledger = self._ledger
                b_blk = b[p0 : p0 + plen, j0 : j0 + jlen]
                abs_b_blk = np.abs(b_blk)
                # each loaded B element is reused 3 times: pack, B^c, C^r
                self._bc_partial = b_blk.sum(axis=1)
                self._abs_bc_partial = abs_b_blk.sum(axis=1)
                ledger.row_pred[j0 : j0 + jlen] += (
                    self._a_row[p0 : p0 + plen] @ b_blk
                )
                ledger.env_row[j0 : j0 + jlen] += (
                    self._abs_a_row[p0 : p0 + plen] @ abs_b_blk
                )
                self.counters.checksum_flops += 5 * plen * jlen
                if ledger.weighted:
                    ledger.row_pred_w[j0 : j0 + jlen] += (
                        self._a_row_w[p0 : p0 + plen] @ b_blk
                    )
                    self._bc_partial_w = b_blk @ self._w_n[j0 : j0 + jlen]
                    self.counters.checksum_flops += 4 * plen * jlen
                self._injector.visit(
                    "checksum", ledger.row_pred[j0 : j0 + jlen]
                )
        return packed

    def _pack_a_block(self, a, i0, ilen, p0, plen, alpha, *, first_j) -> PackedPanels:
        packed = super()._pack_a_block(a, i0, ilen, p0, plen, alpha, first_j=first_j)
        if self.ft:
            tr = self._tr
            cm = (tr.span("checksum_update", cat="checksum",
                          args={"site": "pack_a", "i0": i0, "p0": p0})
                  if tr is not None else NULL_SPAN)
            with cm:
                ledger = self._ledger
                a_blk = a[i0 : i0 + ilen, p0 : p0 + plen]
                # reuse the loaded A elements for the predicted col checksum
                ledger.col_pred[i0 : i0 + ilen] += alpha * (
                    a_blk @ self._bc_partial
                )
                ledger.env_col[i0 : i0 + ilen] += abs(alpha) * (
                    np.abs(a_blk) @ self._abs_bc_partial
                )
                self.counters.checksum_flops += 4 * ilen * plen
                if ledger.weighted:
                    ledger.col_pred_w[i0 : i0 + ilen] += alpha * (
                        a_blk @ self._bc_partial_w
                    )
                    self.counters.checksum_flops += 2 * ilen * plen
                self._injector.visit(
                    "checksum", ledger.col_pred[i0 : i0 + ilen]
                )
        return packed

    def _reuse_a_block(self, a, packed, i0, ilen, p0, plen, alpha) -> None:
        """Fused per-(p, j, i) checksum update when Ã is reused across
        j-blocks: ``B^c`` differs per j, so the predicted column checksum
        still accumulates — but from the resident packed Ã (alpha already
        folded) instead of a fresh sweep of A. Only reached on the clean
        fast path (no injector), so no sites are visited."""
        if not self.ft:
            return
        tr = self._tr
        cm = (tr.span("checksum_update", cat="checksum",
                      args={"site": "reuse_a", "i0": i0, "p0": p0})
              if tr is not None else NULL_SPAN)
        with cm:
            ledger = self._ledger
            rows = packed.rows()[:ilen]
            ledger.col_pred[i0 : i0 + ilen] += rows @ self._bc_partial
            ledger.env_col[i0 : i0 + ilen] += np.abs(rows) @ self._abs_bc_partial
            self.counters.checksum_flops += 4 * ilen * plen
            if ledger.weighted:
                ledger.col_pred_w[i0 : i0 + ilen] += rows @ self._bc_partial_w
                self.counters.checksum_flops += 2 * ilen * plen

    def _run_macro(self, packed_a, packed_b, c_block, *, i0, j0, last_p) -> None:
        if self.ft and last_p:
            ledger = self._ledger
            ilen, jlen = c_block.shape
            weighted_kwargs = {}
            if ledger.weighted:
                weighted_kwargs = dict(
                    row_ref_w=ledger.row_ref_w[j0 : j0 + jlen],
                    col_ref_w=ledger.col_ref_w[i0 : i0 + ilen],
                    row_weights=self._w_m[i0 : i0 + ilen],
                    col_weights=self._w_n[j0 : j0 + jlen],
                )
            tr = self._tr
            macro_kernel(
                packed_a,
                packed_b,
                c_block,
                row_ref=ledger.row_ref[j0 : j0 + jlen],
                col_ref=ledger.col_ref[i0 : i0 + ilen],
                injector=self._injector,
                counters=self.counters,
                tracer=tr,
                trace_args=({"i0": i0, "j0": j0, "refs": True}
                            if tr is not None else None),
                **weighted_kwargs,
            )
            self._emit_macro_traffic(packed_a, packed_b, c_block, i0, j0)
        else:
            # non-final K-blocks run the plain macro by design: their
            # contributions were mirrored at pack time (row_pred/col_pred
            # already include this panel), and the fused row_ref/col_ref
            # verification fires once, on the last_p pass above
            super()._run_macro(  # analysis: ignore[ledger-coverage] -- mirrored at pack time; fused verify runs on last_p
                packed_a, packed_b, c_block, i0=i0, j0=j0, last_p=last_p
            )

    def _after_p(self, p_idx: int, last_p: bool, c: np.ndarray) -> None:
        """Eager-mode probe: compare running checksums after each K-block.

        Detection-only (correction still happens at the final verification);
        costs an O(MN) pass per K-block, which is exactly the non-fused
        overhead the paper eliminates — hence debug-only.
        """
        if not self.ft or self.ft_config.verify_mode != "eager" or last_p:
            return
        ledger = self._ledger
        row_now = c.sum(axis=0)
        col_now = c.sum(axis=1)
        self.counters.checksum_flops += 2 * c.size
        self.counters.ft_extra_bytes += c.nbytes
        self.counters.verifications += 1
        from repro.abft.locate import locate
        from repro.abft.tolerance import EPS

        m, k = self._a.shape
        n = self._b.shape[1]
        tol = self.ft_config.tolerance
        tol_rows = tol.safety * (k + m + 2) * EPS * ledger.env_row + tol.floor
        tol_cols = tol.safety * (k + n + 2) * EPS * ledger.env_col + tol.floor
        if self._beta != 0.0 and ledger.c0_abs_row is not None:
            tol_rows = tol_rows + tol.safety * (m + 2) * EPS * abs(self._beta) * ledger.c0_abs_row
            tol_cols = tol_cols + tol.safety * (n + 2) * EPS * abs(self._beta) * ledger.c0_abs_col
        pattern = locate(
            row_now - ledger.row_pred, col_now - ledger.col_pred, tol_rows, tol_cols
        )
        if pattern.kind != "clean":
            self._eager_reports.append(
                VerificationReport(
                    round_index=-(p_idx + 1),  # negative: eager probes
                    pattern_kind=pattern.kind,
                    flagged_rows=tuple(int(i) for i in pattern.rows),
                    flagged_cols=tuple(int(j) for j in pattern.cols),
                )
            )

    def _finish(self, c: np.ndarray) -> None:
        # verification runs in gemm() after super().gemm returns, so that
        # the result object can carry the reports; nothing to do here
        pass
