"""The blocked GEMM driver (paper Section 2.1, Figure 1 loop structure).

:class:`BlockedGemm` runs the full packed loop nest in the paper's order —
``p`` over K (step ``K_C``), ``j`` over N (step ``N_C``), ``i`` over M (step
``M_C``) — packing ``B̃`` per ``(p, j)`` and ``Ã`` per ``(p, j, i)``, then
sweeping the macro kernel. It is the non-fault-tolerant baseline ("FT-GEMM:
Ori"); :class:`repro.core.ftgemm.FTGemm` extends it with the fused ABFT
operations through the protected extension points. The driver owns the loop
nest, so it also visits the kernel-layer fault sites (``pack_b``, ``pack_a``
and ``microkernel``) of an attached injector.

Instrumentation: when constructed with a memory ``sink`` (a
:class:`~repro.simcpu.cache.CacheHierarchy`, :class:`~repro.simcpu.tlb.TLBSim`
or :class:`~repro.simcpu.trace.AccessTrace`) and an :class:`AddressLayout`,
the driver emits the real bulk address stream of every pass, which is what
the blocking ablation replays to show the paper's ``M_C/K_C/N_C`` choice
keeping Ã in L2 and B̃ in L3.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.faults.injector import NULL_INJECTOR
from repro.gemm.blocking import BlockingConfig, iter_blocks
from repro.gemm.macrokernel import macro_kernel
from repro.gemm.packing import PackedPanels, pack_a, pack_b
from repro.gemm.workspace import Workspace
from repro.obs.tracer import NULL_SPAN, NULL_TRACER
from repro.simcpu.counters import Counters
from repro.simcpu.trace import MemoryAccess
from repro.util.errors import ShapeError
from repro.util.validation import as_2d_float64, check_gemm_operands

DOUBLE = 8


class MemorySink(Protocol):
    """Anything that can consume a bulk memory access."""

    def access(self, access: MemoryAccess) -> object: ...


class AddressLayout:
    """Assigns page-aligned simulated virtual addresses to named arrays.

    The instrumented driver describes its traffic in terms of these named
    regions; real pointer values are irrelevant, only relative placement and
    alignment matter for cache/TLB behaviour.
    """

    def __init__(self, page_bytes: int = 4096):
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise ShapeError(f"page_bytes must be a power of two, got {page_bytes}")
        self.page_bytes = page_bytes
        self._next = page_bytes  # keep address 0 unused
        self._regions: dict[str, tuple[int, int]] = {}

    def add(self, name: str, nbytes: int) -> int:
        """Reserve ``nbytes`` for ``name``; returns the base address."""
        if name in self._regions:
            raise ShapeError(f"region {name!r} already laid out")
        if nbytes <= 0:
            raise ShapeError(f"region {name!r} has invalid size {nbytes}")
        base = self._next
        pages = -(-nbytes // self.page_bytes)
        self._next += pages * self.page_bytes
        self._regions[name] = (base, nbytes)
        return base

    def base(self, name: str) -> int:
        return self._regions[name][0]

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    def region(self, name: str) -> tuple[int, int]:
        return self._regions[name]

    @property
    def total_bytes(self) -> int:
        return self._next - self.page_bytes


class BlockedGemm:
    """Packed, cache-blocked ``C = alpha*A@B + beta*C`` (in place on C)."""

    #: macro-kernel mode of every call: each block is one contraction
    last_mode = "batched"

    def __init__(
        self,
        config: BlockingConfig | None = None,
        *,
        counters: Counters | None = None,
        sink: MemorySink | None = None,
        tracer=None,
    ):
        self.config = config or BlockingConfig()
        self.counters = counters if counters is not None else Counters()
        self.sink = sink
        #: structured tracer (:mod:`repro.obs`); the NULL_TRACER default
        #: keeps every instrumented site a no-op
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # hot-path alias: the live Tracer when enabled, else None — call
        # sites test `self._tr is not None` before building span arguments
        self._tr = self.tracer if self.tracer.enabled else None
        # guards against nested root spans (FTGemm opens the root itself
        # so verification/recovery fall inside it)
        self._root_active = False
        self.layout: AddressLayout | None = None
        # strides (bytes per row) of the live operands, set per call
        self._row_bytes: dict[str, int] = {}
        #: packing arena, reused across calls with the same geometry
        self.workspace: Workspace | None = None
        # per-call state of the injection/reuse machinery
        self._injector = NULL_INJECTOR
        self._reuse_a = False
        self._c_fresh = False
        self._a_cache: dict[int, PackedPanels] = {}
        #: admitted pre-packed B grid for the current call (PanelCache hit)
        self._b_grid = None

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
        packed_b: "object | None" = None,
    ) -> np.ndarray:
        """Run the blocked GEMM; returns C (allocated when ``c is None``).

        ``injector`` (a :class:`~repro.faults.injector.FaultInjector`) is
        visited at the kernel-layer sites: once per B̃ packing
        (``pack_b``), once per Ã packing (``pack_a``) and once per
        ``M_R x N_R`` tile of every freshly contracted C block
        (``microkernel``). An injected call repacks Ã for every j-block and
        declines ``packed_b``, so every planned visit happens.

        ``packed_b`` optionally supplies a pre-packed-and-encoded B
        (:class:`~repro.gemm.panelcache.PackedB` for this ``b`` under this
        driver's blocking config): the per-(p, j) pack pass is skipped and
        the resident panels are consumed directly. Instrumented runs (a
        memory ``sink``) ignore it — they exist to replay the exact
        per-pass address stream, which a cache hit would elide.
        """
        a = as_2d_float64(a, "A")
        b = as_2d_float64(b, "B")
        self._c_fresh = c is None
        if c is None:
            m, n, _ = check_gemm_operands(a, b)
            c = np.zeros((m, n), dtype=np.float64)
            beta = 0.0
        else:
            c = as_2d_float64(c, "C")
        m, n, k = check_gemm_operands(a, b, c)
        cfg = self.config
        if self.sink is not None:
            self._lay_out(m, n, k)
        self.workspace = Workspace.obtain(self.workspace, cfg, m, n, k)
        self._injector = injector if injector is not None else NULL_INJECTOR
        self._reuse_a = self._fast_path()
        self._b_grid = self._admit_packed_b(packed_b, b, k, n)
        tr = self._tr = self.tracer if self.tracer.enabled else None

        try:
            if tr is not None and not self._root_active:
                self._root_active = True
                try:
                    with tr.span("gemm", cat="driver",
                                 args={"m": m, "n": n, "k": k,
                                       "reuse_a": self._reuse_a,
                                       "cached_b": self._b_grid is not None}):
                        self._run_loops(a, b, c, alpha, beta, m, n, k)
                finally:
                    self._root_active = False
            else:
                self._run_loops(a, b, c, alpha, beta, m, n, k)
        finally:
            self._b_grid = None
            self._injector = NULL_INJECTOR
        return c

    def _run_loops(
        self,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        alpha: float,
        beta: float,
        m: int,
        n: int,
        k: int,
    ) -> None:
        """The Figure-1 loop nest (factored out so the root span wraps it)."""
        cfg = self.config
        tr = self._tr
        self._begin(m, n, k, a, b, c, alpha, beta)
        with (tr.span("scale_c", cat="scale", args={"beta": beta})
              if tr is not None else NULL_SPAN):
            self._scale_c(c, beta)

        n_pblocks = len(list(iter_blocks(k, cfg.kc)))
        for p_idx, (p0, plen) in enumerate(iter_blocks(k, cfg.kc)):
            last_p = p_idx == n_pblocks - 1
            self._a_cache.clear()
            for j_idx, (j0, jlen) in enumerate(iter_blocks(n, cfg.nc)):
                first_j = j_idx == 0
                if self._b_grid is not None:
                    packed_b = self._pack_b_cached(
                        self._b_grid, p_idx, j_idx, p0, plen, j0, jlen
                    )
                else:
                    packed_b = self._pack_b_block(b, p0, plen, j0, jlen)
                for i0, ilen in iter_blocks(m, cfg.mc):
                    packed_a = self._obtain_packed_a(
                        a, i0, ilen, p0, plen, alpha, first_j=first_j
                    )
                    c_block = c[i0 : i0 + ilen, j0 : j0 + jlen]
                    self._run_macro(
                        packed_a,
                        packed_b,
                        c_block,
                        i0=i0,
                        j0=j0,
                        last_p=last_p,
                    )
            self._after_p(p_idx, last_p, c)
        self._a_cache.clear()
        self._finish(c)

    # ------------------------------------------------------ clean-path layer
    def _fast_path(self) -> bool:
        """Whether the clean-path optimizations (packed-Ã reuse across
        j-blocks, skipping the redundant zeroing of a fresh C) are legal.

        A memory ``sink`` replays the exact per-pass address stream of the
        paper's Figure-1 loop order, and an injector must see every pass at
        per-(p, j, i) granularity so campaigns hit the exact schedule the
        planner counted; both keep the original schedule.
        """
        return self.sink is None and self._injector is NULL_INJECTOR

    def _admit_packed_b(self, packed_b, b: np.ndarray, k: int, n: int):
        """Validate and admit a pre-packed B for this call, or None.

        A geometry mismatch is a caller error (the cache keys on blocking
        parameters, so a mismatched entry should never reach a driver).
        Instrumented and injected runs decline the grid: the first keep
        their address stream faithful, the second visit every ``pack_b``
        site — a cached panel must never absorb or reorder an injection.
        """
        if packed_b is None or not self._fast_path():
            return None
        if not packed_b.matches(self.config, k, n):
            raise ShapeError(
                f"packed_b geometry (k={packed_b.k}, n={packed_b.n}, "
                f"kc={packed_b.kc}, nc={packed_b.nc}, nr={packed_b.nr}) "
                f"does not match call (k={k}, n={n}) under "
                f"kc={self.config.kc}, nc={self.config.nc}, "
                f"nr={self.config.nr}"
            )
        return packed_b

    def _pack_b_cached(
        self, grid, p_idx: int, j_idx: int,
        p0: int, plen: int, j0: int, jlen: int,
    ) -> PackedPanels:
        """Serve B̃ for this ``(p, j)`` from the admitted grid: no packing
        work, no pack bytes booked. FTGemm overrides this to replay the
        B-side fused checksum updates from the cached partials."""
        return grid.block(p_idx, j_idx).packed

    def _obtain_packed_a(
        self,
        a: np.ndarray,
        i0: int,
        ilen: int,
        p0: int,
        plen: int,
        alpha: float,
        *,
        first_j: bool,
    ) -> PackedPanels:
        """Pack ``Ã`` for this ``(p, i)`` — or reuse the copy packed on an
        earlier j-block of the same K-block."""
        cached = self._a_cache.get(i0) if self._reuse_a else None
        if cached is None:
            packed = self._pack_a_block(a, i0, ilen, p0, plen, alpha, first_j=first_j)
            if self._reuse_a:
                self._a_cache[i0] = packed
            return packed
        self._reuse_a_block(a, cached, i0, ilen, p0, plen, alpha)
        return cached

    # ------------------------------------------------- overridable internals
    def _begin(
        self,
        m: int,
        n: int,
        k: int,
        a: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        alpha: float,
        beta: float,
    ) -> None:
        """Per-call setup; FTGemm allocates and encodes checksums here."""

    def _scale_c(self, c: np.ndarray, beta: float) -> None:
        """The ``C = beta*C`` pass. FTGemm fuses checksum encoding in here."""
        m, n = c.shape
        if beta == 0.0:
            if self._c_fresh:
                # C was allocated (zeroed) by gemm(c=None) this call:
                # re-zeroing it would be a pure extra pass — no work is
                # done, so no bytes are counted and no traffic emitted
                return
            c[:] = 0.0
            self.counters.stores_bytes += c.nbytes
            self._emit("C", 0, 0, m, n, write=True)
        elif beta != 1.0:
            c *= beta
            self.counters.loads_bytes += c.nbytes
            self.counters.stores_bytes += c.nbytes
            self._emit("C", 0, 0, m, n, write=False)
            self._emit("C", 0, 0, m, n, write=True)

    def _pack_b_block(
        self, b: np.ndarray, p0: int, plen: int, j0: int, jlen: int
    ) -> PackedPanels:
        """Pack ``B(p0:p0+plen, j0:j0+jlen)`` into B̃ panels."""
        tr = self._tr
        cm = (tr.span(
            "pack_b", cat="pack",
            args={"p0": p0, "j0": j0,
                  "bytes": self.config.micro_panels_n(jlen)
                  * self.config.nr * plen * DOUBLE},
        ) if tr is not None else NULL_SPAN)
        with cm:
            block = b[p0 : p0 + plen, j0 : j0 + jlen]
            out = self.workspace.b_view(self.config.micro_panels_n(jlen), plen)
            packed = pack_b(block, self.config.nr, out=out)
            self.counters.loads_bytes += block.nbytes
            self.counters.pack_b_bytes += packed.nbytes
            self.counters.stores_bytes += packed.nbytes
            self._emit("B", p0, j0, plen, jlen, write=False)
            self._emit_packed("Btilde", packed, write=True)
            self._injector.visit("pack_b", packed.data)
        return packed

    def _pack_a_block(
        self,
        a: np.ndarray,
        i0: int,
        ilen: int,
        p0: int,
        plen: int,
        alpha: float,
        *,
        first_j: bool,
    ) -> PackedPanels:
        """Pack ``alpha * A(i0:i0+ilen, p0:p0+plen)`` into Ã panels.

        Alpha is folded into Ã (one multiply per element during the packing
        pass, the standard trick), so the micro kernel needs no scaling.
        ``first_j`` reports whether this is the first N-block of the current
        K-block (on the fast path Ã is packed once per ``(p, i)`` and reused
        across j-blocks; on instrumented/injected runs it is repacked for
        every j block, per Figure 1's loop order — subclasses fusing
        per-(p, i) work can key off this flag).
        """
        tr = self._tr
        cm = (tr.span(
            "pack_a", cat="pack",
            args={"i0": i0, "p0": p0,
                  "bytes": self.config.micro_panels_m(ilen)
                  * self.config.mr * plen * DOUBLE},
        ) if tr is not None else NULL_SPAN)
        with cm:
            block = a[i0 : i0 + ilen, p0 : p0 + plen]
            out = self.workspace.a_view(i0, self.config.micro_panels_m(ilen), plen)
            packed = pack_a(block, self.config.mr, out=out)
            if alpha != 1.0:
                # fold alpha into Ã in place (padding rows are zero, so
                # scaling the whole buffer is safe) — no per-block temporary
                out *= alpha
            self.counters.loads_bytes += block.nbytes
            self.counters.pack_a_bytes += packed.nbytes
            self.counters.stores_bytes += packed.nbytes
            self._emit("A", i0, p0, ilen, plen, write=False)
            self._emit_packed("Atilde", packed, write=True)
            self._injector.visit("pack_a", packed.data)
        return packed

    def _reuse_a_block(
        self,
        a: np.ndarray,
        packed: PackedPanels,
        i0: int,
        ilen: int,
        p0: int,
        plen: int,
        alpha: float,
    ) -> None:
        """Called instead of :meth:`_pack_a_block` when the packed Ã of this
        ``(p, i)`` is reused from an earlier j-block: no packing work, no
        bytes moved. FTGemm re-derives its per-(p, j, i) fused checksum
        update here from the resident packed buffer."""

    def _run_macro(
        self,
        packed_a: PackedPanels,
        packed_b: PackedPanels,
        c_block: np.ndarray,
        *,
        i0: int,
        j0: int,
        last_p: bool,
    ) -> None:
        """One macro-kernel invocation; FTGemm adds checksum-ref collection."""
        tr = self._tr
        macro_kernel(
            packed_a,
            packed_b,
            c_block,
            injector=self._injector,
            counters=self.counters,
            tracer=tr,
            trace_args={"i0": i0, "j0": j0} if tr is not None else None,
        )
        self._emit_macro_traffic(packed_a, packed_b, c_block, i0, j0)

    def _after_p(self, p_idx: int, last_p: bool, c: np.ndarray) -> None:
        """Called after each K-block completes; FTGemm's eager mode probes
        the running checksums here."""

    def _finish(self, c: np.ndarray) -> None:
        """Post-loop work; FTGemm verifies and corrects here."""

    # --------------------------------------------------------- address layer
    def _lay_out(self, m: int, n: int, k: int) -> None:
        cfg = self.config
        layout = AddressLayout()
        layout.add("A", m * k * DOUBLE)
        layout.add("B", k * n * DOUBLE)
        layout.add("C", m * n * DOUBLE)
        layout.add("Atilde", cfg.micro_panels_m(cfg.mc) * cfg.mr * cfg.kc * DOUBLE)
        layout.add("Btilde", cfg.micro_panels_n(cfg.nc) * cfg.nr * cfg.kc * DOUBLE)
        self.layout = layout
        self._row_bytes = {"A": k * DOUBLE, "B": n * DOUBLE, "C": n * DOUBLE}

    def _emit(
        self, name: str, r0: int, c0: int, rlen: int, clen: int, *, write: bool
    ) -> None:
        """Emit one access per contiguous row segment of a matrix region."""
        if self.sink is None or self.layout is None:
            return
        base = self.layout.base(name)
        row_bytes = self._row_bytes[name]
        seg = clen * DOUBLE
        for r in range(r0, r0 + rlen):
            addr = base + r * row_bytes + c0 * DOUBLE
            self.sink.access(MemoryAccess(addr, seg, write=write, label=name))

    def _emit_packed(self, name: str, packed: PackedPanels, *, write: bool) -> None:
        """Packed buffers are contiguous: one access for the whole buffer."""
        if self.sink is None or self.layout is None:
            return
        self.sink.access(
            MemoryAccess(self.layout.base(name), packed.nbytes, write=write, label=name)
        )

    def _emit_macro_traffic(
        self,
        packed_a: PackedPanels,
        packed_b: PackedPanels,
        c_block: np.ndarray,
        i0: int,
        j0: int,
    ) -> None:
        """The macro kernel re-reads Ã per B-panel sweep, streams B̃ once per
        A-panel, and read-modify-writes the C block row-wise."""
        self.counters.loads_bytes += (
            packed_b.n_panels * packed_a.nbytes
            + packed_a.n_panels * packed_b.nbytes
            + c_block.nbytes
        )
        self.counters.stores_bytes += c_block.nbytes
        if self.sink is None or self.layout is None:
            return
        # each of the n_panels B sweeps streams the whole Ã block once
        for _ in range(packed_b.n_panels):
            self.sink.access(
                MemoryAccess(
                    self.layout.base("Atilde"),
                    packed_a.nbytes,
                    write=False,
                    label="Atilde",
                )
            )
        for _ in range(packed_a.n_panels):
            self.sink.access(
                MemoryAccess(
                    self.layout.base("Btilde"),
                    packed_b.nbytes,
                    write=False,
                    label="Btilde",
                )
            )
        mlen, nlen = c_block.shape
        self._emit("C", i0, j0, mlen, nlen, write=False)
        self._emit("C", i0, j0, mlen, nlen, write=True)
