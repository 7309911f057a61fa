"""Parallel FT-GEMM: the threaded scheme of the paper's Figure 1.

Thread/work mapping (Section 2.3), reproduced exactly:

- C and A are partitioned along **M**: thread ``t`` owns a contiguous row
  slice ``[ms, ms+mlen)`` — it scales that slice of C, packs its own
  thread-private Ã blocks, runs the macro kernels for its rows, and owns the
  matching slice of the column checksums;
- the packed ``B̃`` buffer is **shared**; each (p, j) block is packed
  cooperatively, partitioned along **N** at micro-panel granularity;
- the global row checksum of A (``A^r``) is computed in parallel (each
  thread sums its row slice; every thread then reduces the partials —
  duplicated O(T·K) work instead of a second barrier);
- each thread's ``B^c_share`` covers only the columns it packed, so an
  extra reduction stage produces the block's ``B^c`` before the macro phase
  — the paper's "extra stage of reduction operation among threads";
- per-thread checksum ledgers (the figure's ``C^r[thread_num][N]`` etc.)
  are reduced after the loops and verified once, serially.

Barriers (``yield`` in the worker) match the figure: one after the
prologue (A^r partials + fused scaling), one after each cooperative B̃
packing, one after each macro phase, so the shared buffer is never reused
while a reader is still in flight.

The worker is a generator executed by a :class:`repro.parallel.team.Team` —
deterministically interleaved by default, or on real OS threads with
``backend="threads"``.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.config import FTGemmConfig
from repro.core.dmr import dmr_scale
from repro.core.results import FTGemmResult
from repro.core.supervisor import (
    EscalationSupervisor,
    RecoveryReport,
    RecoveryRound,
    _merge_counters,
)
from repro.core.verification import ChecksumLedger, Verifier, ledger_from_state
from repro.faults.injector import NULL_INJECTOR
from repro.gemm.blocking import iter_blocks
from repro.gemm.driver import BlockedGemm
from repro.gemm.macrokernel import macro_kernel
from repro.gemm.packing import PackedPanels, pack_a, pack_b
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, Tracer
from repro.parallel.partition import partition_panels, partition_rows
from repro.parallel.team import Team, make_team
from repro.simcpu.counters import Counters
from repro.util.errors import UncorrectableError
from repro.util.validation import as_2d_float64, check_gemm_operands

class _LockedInjector:
    """Serializes injector access from real threads; everything else (plan,
    quarantine, sticky machinery) is delegated untouched — those run in the
    serial prologue/epilogue."""

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()

    def visit(self, site: str, array: np.ndarray, tid: int | None = None) -> bool:
        with self._lock:
            return self._inner.visit(site, array, tid=tid)

    def visit_tiles(
        self, block: np.ndarray, mr: int, nr: int, tid: int | None = None
    ) -> int:
        with self._lock:
            return self._inner.visit_tiles(block, mr, nr, tid=tid)

    def mark_detected(self, n: int) -> None:
        with self._lock:
            self._inner.mark_detected(n)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ParallelFTGemm:
    """Multi-threaded fused ABFT GEMM (and its unprotected twin).

    ``backend="simulated"`` (default) steps the workers deterministically in
    one OS thread — used by campaigns and figure generation; ``"threads"``
    runs them on real threads (NumPy releases the GIL during packing and
    the macro kernels' ``dot`` calls).
    """

    #: macro-kernel mode of every call: each block is one contraction
    last_mode = "batched"

    def __init__(
        self,
        config: FTGemmConfig | None = None,
        *,
        n_threads: int = 4,
        backend: str = "simulated",
        order: list[int] | None = None,
        tracer=None,
    ):
        self.config = (config or FTGemmConfig()).validate(n_threads=n_threads)
        if tracer is None and self.config.trace:
            tracer = Tracer()
        #: structured tracer (:mod:`repro.obs`); NULL_TRACER when disabled
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tr = self.tracer if self.tracer.enabled else None
        #: alias so campaign code can treat serial and parallel drivers alike
        self.ft_config = self.config
        self.n_threads = n_threads
        self.backend = backend
        #: within-round step order for the simulated backend (property tests
        #: permute it to hunt for schedule-dependent behaviour)
        self.order = order
        self.counters = Counters()

    @property
    def ft(self) -> bool:
        return self.config.enable_ft

    # ------------------------------------------------------------ public API
    def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        *,
        alpha: float = 1.0,
        beta: float = 0.0,
        injector=None,
        request_id: str | None = None,
        packed_b=None,
    ) -> FTGemmResult:
        """Protected parallel ``C = alpha*A@B + beta*C``.

        ``request_id`` is an optional correlation id stamped onto the result
        and recovery report (see :meth:`repro.core.ftgemm.FTGemm.gemm`).

        ``packed_b`` is accepted for signature compatibility with
        :meth:`FTGemm.gemm` and **ignored**: the team scheme partitions and
        repacks B per worker epoch, and a fail-stop recovery epoch must be
        free to rebuild every packed buffer from the source operand — so
        the parallel driver always bypasses cached panels (recovery
        correctness over reuse).
        """
        tr = self._tr = self.tracer if self.tracer.enabled else None
        if tr is None:
            return self._stamp(
                self._gemm_impl(a, b, c, alpha=alpha, beta=beta,
                                injector=injector),
                request_id,
            )
        if injector is not None:
            try:
                injector.tracer = tr
            except AttributeError:
                pass
        args = {"threads": self.n_threads, "backend": self.backend,
                "ft": self.ft}
        ashape, bshape = np.shape(a), np.shape(b)
        if len(ashape) == 2 and len(bshape) == 2:
            args.update(m=int(ashape[0]), k=int(ashape[1]),
                        n=int(bshape[1]))
        with tr.span("gemm", cat="driver", args=args):
            result = self._gemm_impl(a, b, c, alpha=alpha, beta=beta,
                                     injector=injector)
        result.trace = self.tracer
        return self._stamp(result, request_id)

    @staticmethod
    def _stamp(result: FTGemmResult, request_id: str | None) -> FTGemmResult:
        if request_id is not None:
            result.request_id = request_id
            if result.recovery is not None:
                result.recovery.request_id = request_id
        return result

    def _gemm_impl(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray | None = None,
        *,
        alpha: float = 1.0,
        beta: float = 0.0,
        injector=None,
    ) -> FTGemmResult:
        tr = self._tr
        a = as_2d_float64(a, "A")
        b = as_2d_float64(b, "B")
        if c is None:
            m, n, _ = check_gemm_operands(a, b)
            c = np.zeros((m, n), dtype=np.float64)
            beta = 0.0
        else:
            c = as_2d_float64(c, "C")
        m, n, k = check_gemm_operands(a, b, c)
        cfg = self.config.blocking

        # fail-stop faults are executed by the team, not by visit()
        fail_stops = tuple(
            getattr(getattr(injector, "plan", None), "fail_stops", ()) or ()
        )

        if injector is not None:
            bind = getattr(injector, "bind_thread_map", None)
            if bind is not None:
                # canonical per-thread invocation numbering: strike placement
                # becomes identical across team backends and step orders
                from repro.faults.campaign import parallel_thread_map

                bind(
                    parallel_thread_map(
                        m,
                        n,
                        k,
                        cfg,
                        self.n_threads,
                        beta=beta,
                        ft=self.ft,
                        dmr_protect_scale=self.config.dmr_protect_scale,
                    )
                )

        raw_injector = injector
        if injector is None:
            injector = NULL_INJECTOR
        elif self.backend == "threads":
            injector = _LockedInjector(injector)

        c0 = None
        if self.ft and beta != 0.0 and self.config.keep_original_c:
            c0 = c.copy()

        row_part = partition_rows(m, self.n_threads)
        p_blocks = list(iter_blocks(k, cfg.kc))
        j_blocks = list(iter_blocks(n, cfg.nc))
        max_jlen = max(jlen for _, jlen in j_blocks)
        max_plen = max(plen for _, plen in p_blocks)
        max_panels = cfg.micro_panels_n(max_jlen)

        # shared state of the parallel region
        btilde = np.zeros((max_panels, max_plen, cfg.nr))
        a_row_parts = np.zeros((self.n_threads, k))
        abs_a_row_parts = np.zeros((self.n_threads, k))
        bc_share = np.zeros((self.n_threads, max_plen))
        abs_bc_share = np.zeros((self.n_threads, max_plen))
        ft = self.ft
        config = self.config
        weighted = ft and config.weighted
        ledgers = [
            ChecksumLedger.zeros(m, n, weighted=weighted)
            for _ in range(self.n_threads)
        ]
        thread_counters = [Counters() for _ in range(self.n_threads)]
        if weighted:
            w_m = np.arange(1.0, m + 1.0)
            w_n = np.arange(1.0, n + 1.0)
            a_row_w_parts = np.zeros((self.n_threads, k))
            bc_share_w = np.zeros((self.n_threads, max_plen))

        def worker(tid: int):
            ms, mlen = row_part[tid]
            counters = thread_counters[tid]
            ledger = ledgers[tid]
            c_slice = c[ms : ms + mlen]
            # thread-private Ã arena: one allocation per call, reused for
            # every (p, j, i) block this thread packs
            atilde = (
                np.zeros((cfg.micro_panels_m(min(cfg.mc, mlen)), max_plen, cfg.mr))
                if mlen
                else None
            )

            # ---- prologue: A^r partial + DMR scaling fused with C encoding
            if mlen:
                if ft:
                    cm = (tr.span("prologue", cat="checksum", tid=tid,
                                  args={"rows": mlen})
                          if tr is not None else NULL_SPAN)
                    with cm:
                        a_slice = a[ms : ms + mlen]
                        a_row_parts[tid] = alpha * a_slice.sum(axis=0)
                        abs_a_row_parts[tid] = (
                            abs(alpha) * np.abs(a_slice).sum(axis=0)
                        )
                        counters.checksum_flops += 2 * mlen * k
                        if weighted:
                            a_row_w_parts[tid] = alpha * (
                                w_m[ms : ms + mlen] @ a_slice
                            )
                            counters.checksum_flops += 2 * mlen * k
                        injector.visit("checksum", a_row_parts[tid], tid=tid)
                    cm = (tr.span("scale_c", cat="scale", tid=tid,
                                  args={"beta": beta})
                          if tr is not None else NULL_SPAN)
                    with cm:
                        if beta != 0.0:
                            abs_c = np.abs(c_slice)
                            ledger.c0_abs_row = abs_c.sum(axis=0)
                            ledger.c0_abs_col = np.zeros(m)
                            ledger.c0_abs_col[ms : ms + mlen] = abs_c.sum(axis=1)
                            counters.checksum_flops += 2 * c_slice.size
                        if config.dmr_protect_scale:
                            dmr_scale(
                                c_slice,
                                beta,
                                counters=counters,
                                visit=lambda site, arr: injector.visit(
                                    site, arr, tid=tid
                                ),
                            )
                        else:
                            if beta == 0.0:
                                c_slice[:] = 0.0
                            elif beta != 1.0:
                                c_slice *= beta
                            injector.visit("scale", c_slice, tid=tid)
                        if beta != 0.0:
                            ledger.row_pred += c_slice.sum(axis=0)
                            ledger.col_pred[ms : ms + mlen] += c_slice.sum(axis=1)
                            counters.checksum_flops += 2 * c_slice.size
                            if weighted:
                                ledger.row_pred_w += w_m[ms : ms + mlen] @ c_slice
                                ledger.col_pred_w[ms : ms + mlen] += c_slice @ w_n
                                counters.checksum_flops += 4 * c_slice.size
                        injector.visit(
                            "checksum", ledger.col_pred[ms : ms + mlen], tid=tid
                        )
                else:
                    cm = (tr.span("scale_c", cat="scale", tid=tid,
                                  args={"beta": beta})
                          if tr is not None else NULL_SPAN)
                    with cm:
                        if beta == 0.0:
                            c_slice[:] = 0.0
                        elif beta != 1.0:
                            c_slice *= beta
                        injector.visit("scale", c_slice, tid=tid)
            yield  # barrier: A^r partials complete, C scaled
            counters.barriers += 1

            # duplicated reduction of the global A^r (no second barrier)
            if ft:
                cm = (tr.span("reduce_a_row", cat="checksum", tid=tid)
                      if tr is not None else NULL_SPAN)
                with cm:
                    a_row = a_row_parts.sum(axis=0)
                    abs_a_row = abs_a_row_parts.sum(axis=0)
                    counters.checksum_flops += 2 * self.n_threads * k
                    if weighted:
                        a_row_w = a_row_w_parts.sum(axis=0)
                        counters.checksum_flops += self.n_threads * k

            n_p = len(p_blocks)
            for p_idx, (p0, plen) in enumerate(p_blocks):
                last_p = p_idx == n_p - 1
                for j0, jlen in j_blocks:
                    n_panels_j = cfg.micro_panels_n(jlen)
                    f0, cnt = partition_panels(n_panels_j, self.n_threads)[tid]
                    col0 = j0 + f0 * cfg.nr
                    width = min(cnt * cfg.nr, jlen - f0 * cfg.nr) if cnt else 0

                    # ---- cooperative packing of the shared B̃ (N-partition)
                    if width > 0:
                        b_chunk = b[p0 : p0 + plen, col0 : col0 + width]
                        cm = (tr.span("pack_b", cat="pack", tid=tid,
                                      args={"p0": p0, "j0": j0,
                                            "bytes": cnt * plen * cfg.nr * 8})
                              if tr is not None else NULL_SPAN)
                        with cm:
                            pack_b(
                                b_chunk,
                                cfg.nr,
                                out=btilde[f0 : f0 + cnt, :plen, :],
                            )
                            counters.loads_bytes += b_chunk.nbytes
                            counters.pack_b_bytes += cnt * plen * cfg.nr * 8
                            counters.stores_bytes += cnt * plen * cfg.nr * 8
                        if ft:
                            cm = (tr.span("checksum_update", cat="checksum",
                                          tid=tid,
                                          args={"site": "pack_b",
                                                "p0": p0, "j0": j0})
                                  if tr is not None else NULL_SPAN)
                            with cm:
                                abs_chunk = np.abs(b_chunk)
                                # three uses per loaded B element: pack, B^c, C^r
                                bc_share[tid, :plen] = b_chunk.sum(axis=1)
                                abs_bc_share[tid, :plen] = abs_chunk.sum(axis=1)
                                ledger.row_pred[col0 : col0 + width] += (
                                    a_row[p0 : p0 + plen] @ b_chunk
                                )
                                ledger.env_row[col0 : col0 + width] += (
                                    abs_a_row[p0 : p0 + plen] @ abs_chunk
                                )
                                counters.checksum_flops += 5 * plen * width
                                if weighted:
                                    ledger.row_pred_w[col0 : col0 + width] += (
                                        a_row_w[p0 : p0 + plen] @ b_chunk
                                    )
                                    bc_share_w[tid, :plen] = (
                                        b_chunk @ w_n[col0 : col0 + width]
                                    )
                                    counters.checksum_flops += 4 * plen * width
                                injector.visit(
                                    "checksum",
                                    ledger.row_pred[col0 : col0 + width],
                                    tid=tid,
                                )
                        injector.visit(
                            "pack_b", btilde[f0 : f0 + cnt, :plen, :], tid=tid
                        )
                    elif ft:
                        bc_share[tid, :plen] = 0.0
                        abs_bc_share[tid, :plen] = 0.0
                        if weighted:
                            bc_share_w[tid, :plen] = 0.0
                    yield  # barrier: B̃ and B^c_share complete
                    counters.barriers += 1

                    # duplicated reduction of B^c for this (p, j) block
                    if ft:
                        cm = (tr.span("reduce_bc", cat="checksum", tid=tid,
                                      args={"p0": p0, "j0": j0})
                              if tr is not None else NULL_SPAN)
                        with cm:
                            bc = bc_share[:, :plen].sum(axis=0)
                            abs_bc = abs_bc_share[:, :plen].sum(axis=0)
                            counters.checksum_flops += 2 * self.n_threads * plen
                            if weighted:
                                bc_w = bc_share_w[:, :plen].sum(axis=0)
                                counters.checksum_flops += self.n_threads * plen

                    packed_b_full = PackedPanels(
                        data=btilde[:n_panels_j, :plen, :], valid=jlen
                    )

                    # ---- macro phase over the thread's own row slice
                    for ioff, ilen in iter_blocks(mlen, cfg.mc) if mlen else []:
                        i0 = ms + ioff
                        a_blk = a[i0 : i0 + ilen, p0 : p0 + plen]
                        a_out = atilde[: cfg.micro_panels_m(ilen), :plen, :]
                        cm = (tr.span("pack_a", cat="pack", tid=tid,
                                      args={"i0": i0, "p0": p0})
                              if tr is not None else NULL_SPAN)
                        with cm:
                            packed_a = pack_a(a_blk, cfg.mr, out=a_out)
                            if alpha != 1.0:
                                a_out *= alpha  # fold alpha in place, no temp
                            counters.loads_bytes += a_blk.nbytes
                            counters.pack_a_bytes += packed_a.nbytes
                            counters.stores_bytes += packed_a.nbytes
                        if ft:
                            cm = (tr.span("checksum_update", cat="checksum",
                                          tid=tid,
                                          args={"site": "pack_a",
                                                "i0": i0, "p0": p0})
                                  if tr is not None else NULL_SPAN)
                            with cm:
                                # reuse the loaded A block for the C^c prediction
                                ledger.col_pred[i0 : i0 + ilen] += alpha * (
                                    a_blk @ bc
                                )
                                ledger.env_col[i0 : i0 + ilen] += abs(alpha) * (
                                    np.abs(a_blk) @ abs_bc
                                )
                                counters.checksum_flops += 4 * ilen * plen
                                if weighted:
                                    ledger.col_pred_w[i0 : i0 + ilen] += alpha * (
                                        a_blk @ bc_w
                                    )
                                    counters.checksum_flops += 2 * ilen * plen
                                injector.visit(
                                    "checksum",
                                    ledger.col_pred[i0 : i0 + ilen],
                                    tid=tid,
                                )
                        injector.visit("pack_a", packed_a.data, tid=tid)
                        c_block = c[i0 : i0 + ilen, j0 : j0 + jlen]
                        ref_kwargs = {}
                        if ft and last_p:
                            ref_kwargs = dict(
                                row_ref=ledger.row_ref[j0 : j0 + jlen],
                                col_ref=ledger.col_ref[i0 : i0 + ilen],
                            )
                            if weighted:
                                ref_kwargs.update(
                                    row_ref_w=ledger.row_ref_w[j0 : j0 + jlen],
                                    col_ref_w=ledger.col_ref_w[i0 : i0 + ilen],
                                    row_weights=w_m[i0 : i0 + ilen],
                                    col_weights=w_n[j0 : j0 + jlen],
                                )
                        macro_kernel(
                            packed_a,
                            packed_b_full,
                            c_block,
                            injector=injector,
                            tid=tid,
                            counters=counters,
                            tracer=tr,
                            trace_args=({"i0": i0, "j0": j0}
                                        if tr is not None else None),
                            **ref_kwargs,
                        )
                        counters.loads_bytes += (
                            packed_b_full.n_panels * packed_a.nbytes
                            + packed_a.n_panels * packed_b_full.nbytes
                            + c_block.nbytes
                        )
                        counters.stores_bytes += c_block.nbytes
                    yield  # barrier: macro phase done, B̃ reusable
                    counters.barriers += 1

        if fail_stops or self.order is not None:
            team = make_team(
                self.n_threads,
                self.backend,
                fail_stops=fail_stops,
                order=self.order,
                tracer=tr,
            )
        else:
            team = make_team(self.n_threads, self.backend, tracer=tr)
        team.run(worker)

        # ---- serial epilogue: reduce counters, recover from deaths, verify
        total = Counters()
        for tc in thread_counters:
            total = total + tc

        recovery: RecoveryReport | None = None
        if team.deaths:
            t0 = tr.now_us() if tr is not None else 0.0
            recovery = self._recover_from_deaths(
                team,
                a,
                b,
                c,
                alpha=alpha,
                beta=beta,
                c0=c0,
                row_part=row_part,
                p_blocks=p_blocks,
                j_blocks=j_blocks,
                counters=total,
            )
            if tr is not None:
                tr.complete(
                    "recover.thread_recovery",
                    cat="recover",
                    t0_us=t0,
                    args={
                        "deaths": sorted(d.tid for d in team.deaths),
                        "rounds": len(recovery.rounds),
                    },
                )

        self.counters = total
        reports = []
        verified = True
        if ft:
            if team.deaths:
                # survivor ledgers are polluted by stale shared-B̃ reads and
                # the dead thread's ledger is partial: rebuild the whole
                # checksum state from first principles over the recovered C
                t0 = tr.now_us() if tr is not None else 0.0
                ledger = ledger_from_state(
                    a,
                    b,
                    c,
                    alpha=alpha,
                    beta=beta,
                    c0=c0,
                    weighted=weighted,
                    counters=total,
                )
                if tr is not None:
                    tr.complete(
                        "recover.ledger_rebuild",
                        cat="recover",
                        t0_us=t0,
                    )
            else:
                ledger = ledgers[0]
                for other in ledgers[1:]:
                    ledger.add(other)
            checker_kwargs = dict(
                alpha=alpha,
                beta=beta,
                c0=c0,
                config=self.config,
                counters=total,
                injector=raw_injector,
                tracer=tr,
            )
            try:
                if self.config.enable_supervisor:
                    reports, verified, recovery = EscalationSupervisor(
                        a, b, **checker_kwargs
                    ).finalize(c, ledger, report=recovery)
                    if not (recovery.rounds or recovery.quarantined):
                        recovery = None
                else:
                    reports, verified = Verifier(
                        a, b, **checker_kwargs
                    ).finalize(c, ledger)
                    if recovery is not None and recovery.rounds and verified:
                        recovery.rounds[-1].succeeded = True
            finally:
                injector.mark_detected(total.errors_detected)
                injector.mark_corrected(total.errors_corrected)
        elif recovery is not None and recovery.rounds:
            # unprotected run: no verification pass follows, the direct
            # re-execution is the whole recovery story
            recovery.rounds[-1].succeeded = True
        return FTGemmResult(
            c=c,
            counters=total,
            reports=reports,
            verified=verified,
            ft_enabled=ft,
            recovery=recovery,
        )

    # ----------------------------------------------------- fail-stop recovery
    def _recover_from_deaths(
        self,
        team: Team,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        *,
        alpha: float,
        beta: float,
        c0: np.ndarray | None,
        row_part,
        p_blocks,
        j_blocks,
        counters: Counters,
    ) -> RecoveryReport:
        """The recovery epoch extending the Figure-1 protocol.

        A fail-stopped thread leaves two kinds of damage: its own row slice
        of C is incomplete, and — because B̃ is packed cooperatively — every
        (p, j) block whose pack barrier the thread never reached ran its
        macro phase against the thread's *stale* B̃ chunk, polluting those
        columns for every survivor. The survivors re-partition the dead
        rows and re-execute them through fresh blocked drivers (a second
        parallel region on the same backend); the polluted columns are
        recomputed directly from the original operands. Verification then
        runs on the recovered C as usual.
        """
        cfg = self.config.blocking
        deaths = sorted(team.deaths, key=lambda d: d.tid)
        dead = {d.tid for d in deaths}
        survivors = [t for t in range(self.n_threads) if t not in dead]
        if not survivors:
            raise UncorrectableError(
                f"all {self.n_threads} threads fail-stopped; "
                "no survivor left to run recovery"
            )
        if beta != 0.0 and c0 is None:
            raise UncorrectableError(
                "fail-stop recovery with beta != 0 needs the preserved input "
                "C (enable_ft + keep_original_c); the dead thread's rows "
                "were already scaled in place"
            )

        # -- the dead threads' row slices, split across the survivors
        segments = [row_part[t] for t in sorted(dead) if row_part[t][1]]
        assign: list[list[tuple[int, int]]] = [[] for _ in survivors]
        for ms, mlen in segments:
            for s_idx, (off, ln) in enumerate(
                partition_rows(mlen, len(survivors))
            ):
                if ln:
                    assign[s_idx].append((ms + off, ln))
        rec_counters = [Counters() for _ in survivors]

        def recovery_worker(slot: int):
            driver = BlockedGemm(cfg, counters=rec_counters[slot])
            for r0, rlen in assign[slot]:
                c_slice = c[r0 : r0 + rlen]
                if beta != 0.0:
                    c_slice[:] = c0[r0 : r0 + rlen]
                driver.gemm(a[r0 : r0 + rlen], b, c_slice, alpha=alpha, beta=beta)
            yield  # barrier: recovery epoch complete, all row slices rebuilt

        if any(assign):
            rec_team = make_team(len(survivors), self.backend)
            rec_team.run(recovery_worker)
            for rc in rec_counters:
                _merge_counters(counters, rc)

        # -- columns computed against a stale shared-B̃ chunk of a dead thread
        n_j = len(j_blocks)
        cols: set[int] = set()
        for death in deaths:
            for p_idx in range(len(p_blocks)):
                for j_idx, (j0, jlen) in enumerate(j_blocks):
                    t = p_idx * n_j + j_idx
                    if 1 + 2 * t <= death.barrier:
                        continue  # chunk was packed before the death
                    n_panels_j = cfg.micro_panels_n(jlen)
                    f0, cnt = partition_panels(n_panels_j, self.n_threads)[
                        death.tid
                    ]
                    width = (
                        min(cnt * cfg.nr, jlen - f0 * cfg.nr) if cnt else 0
                    )
                    if width > 0:
                        col0 = j0 + f0 * cfg.nr
                        cols.update(range(col0, col0 + width))
        if cols:
            jdx = np.asarray(sorted(cols), dtype=np.intp)
            fresh = alpha * (a @ b[:, jdx])
            if beta != 0.0:
                fresh += beta * c0[:, jdx]
            c[:, jdx] = fresh
            counters.fma_flops += 2 * a.shape[0] * a.shape[1] * len(cols)
            counters.blocks_recomputed += len(cols)

        report = RecoveryReport(
            thread_deaths=tuple((d.tid, d.barrier) for d in deaths),
            recovered_rows=tuple(segments),
            recovered_cols=tuple(sorted(cols)),
            diagnosis=(
                f"fail-stop: thread(s) {sorted(dead)} died mid-region; "
                f"{len(survivors)} survivor(s) re-executed the dead row "
                "partition and stale-B̃ columns were recomputed"
            ),
        )
        report.rounds.append(
            RecoveryRound(
                0,
                "thread_recovery",
                "fail_stop",
                False,
                detail=(
                    f"re-executed {sum(ln for _, ln in segments)} row(s) "
                    f"across {len(survivors)} survivor(s); "
                    f"recomputed {len(cols)} stale column(s)"
                ),
            )
        )
        return report
