"""End-to-end performance model of FT-GEMM on the paper's testbed.

:class:`GemmPerfModel` prices one GEMM call in a given *mode*:

- ``"ori"`` — the plain blocked kernel ("FT-GEMM: Ori");
- ``"ft"`` — the fused fault-tolerant scheme: the counted checksum flops
  run at reduced SIMD efficiency, the packing/macro loops carry a small
  instruction-mix penalty, and **no extra DRAM traffic** exists.

The checksum flop counts mirror the implementation exactly (compare
``Counters.checksum_flops`` from a real run — the property tests do).
The model prices a machine this package does not run on; its numbers are
printed next to measurements (the trace phase table, the tuner's score),
never in place of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gemm.blocking import BlockingConfig, iter_blocks
from repro.parallel.partition import partition_rows
from repro.perfmodel.constants import ModelConstants
from repro.perfmodel.timing import TimingModel
from repro.perfmodel.traffic import gemm_dram_traffic
from repro.simcpu.machine import MachineSpec
from repro.simcpu.vector import VectorUnit
from repro.util.errors import ConfigError
from repro.util.validation import check_in

MODES = ("ori", "ft")


@dataclass(frozen=True)
class PerfBreakdown:
    """Where the modeled time of one GEMM call goes."""

    m: int
    n: int
    k: int
    mode: str
    threads: int
    seconds: float
    compute_seconds: float
    pack_seconds: float
    checksum_seconds: float
    memory_seconds: float
    sync_seconds: float
    flops: float
    checksum_flops: float
    dram_bytes: float

    @property
    def gflops(self) -> float:
        """Reported rate counts only the mathematical 2mnk flops (the
        convention of the paper's figures)."""
        return self.flops / self.seconds / 1e9

    def overhead_vs(self, other: "PerfBreakdown") -> float:
        """Relative slowdown of self against a reference breakdown."""
        return self.seconds / other.seconds - 1.0


class GemmPerfModel:
    """Analytic model for one (machine, blocking, mode, threads) setting."""

    def __init__(
        self,
        machine: MachineSpec | None = None,
        blocking: BlockingConfig | None = None,
        *,
        mode: str = "ori",
        threads: int = 1,
        constants: ModelConstants | None = None,
    ):
        check_in(mode, "mode", MODES)
        self.machine = machine or MachineSpec.cascade_lake_w2255()
        self.blocking = blocking or BlockingConfig()
        self.mode = mode
        self.threads = threads
        self.constants = constants or ModelConstants()
        self.vector = VectorUnit(self.machine)
        self.timing = TimingModel(self.machine, self.constants, threads=threads)
        # validate the tile against the register file once, up front
        self.vector.check_tile(self.blocking.mr, self.blocking.nr)

    # ------------------------------------------------------------ components
    def _checksum_flops(self, m: int, n: int, k: int, *, beta_nonzero: bool) -> float:
        """Total checksum arithmetic (matches the drivers' counters)."""
        if self.mode == "ori":
            return 0.0
        n_j = len(list(iter_blocks(n, self.blocking.nc)))
        # the paper's scheme uses a scalar round-off threshold; the
        # optional per-entry envelope mode of our implementation costs
        # roughly 2x these counts and is priced by its own counters
        flops = 2.0 * m * k  # upfront A^r + running max tracking
        flops += 3.0 * k * n  # fused into B packing: B^c + C^r GEMV
        flops += 2.0 * m * k * n_j  # fused into A packing: C^c GEMV
        flops += 2.0 * m * n  # register-level reference checksums
        if beta_nonzero:
            flops += 3.0 * m * n  # initial C encodings + DMR duplicate
        flops += 2.0 * (m + n)  # residuals + threshold compares
        return flops

    def _per_thread_compute_cycles(
        self, m: int, n: int, k: int, *, beta_nonzero: bool
    ) -> tuple[float, float, float]:
        """Worst-thread (main, pack, checksum) cycles."""
        cfg = self.blocking
        cn = self.constants
        mlen_worst = max(mlen for _, mlen in partition_rows(m, self.threads))
        if mlen_worst == 0:
            raise ConfigError(f"more threads ({self.threads}) than rows ({m})")
        main = self.vector.gemm_compute_cycles(mlen_worst, n, k, cfg.mr, cfg.nr)
        main /= cn.kernel_sustained_eff
        if self.mode == "ft":
            main *= 1.0 + cn.ft_kernel_penalty
        n_j = len(list(iter_blocks(n, cfg.nc)))
        pack_elems = mlen_worst * k * n_j + (k * n) / self.threads
        pack = pack_elems * cn.pack_cycles_per_element
        checksum_flops = self._checksum_flops(m, n, k, beta_nonzero=beta_nonzero)
        checksum = (checksum_flops / self.threads) / (
            self.machine.flops_per_cycle_per_core * cn.checksum_simd_eff
        )
        return main, pack, checksum

    def _barriers(self, n: int, k: int) -> int:
        n_p = len(list(iter_blocks(k, self.blocking.kc)))
        n_j = len(list(iter_blocks(n, self.blocking.nc)))
        return 1 + 2 * n_p * n_j

    # ------------------------------------------------------------ public API
    def breakdown(
        self,
        m: int,
        n: int | None = None,
        k: int | None = None,
        *,
        beta_nonzero: bool = False,
    ) -> PerfBreakdown:
        """Price one ``m x n x k`` call (square when n/k omitted)."""
        n = m if n is None else n
        k = m if k is None else k
        main_cy, pack_cy, checksum_cy = self._per_thread_compute_cycles(
            m, n, k, beta_nonzero=beta_nonzero
        )
        compute_s = self.timing.cycles_to_seconds(main_cy)
        pack_s = self.timing.cycles_to_seconds(pack_cy)
        checksum_s = self.timing.cycles_to_seconds(checksum_cy)

        traffic = gemm_dram_traffic(
            m, n, k, self.blocking, self.machine, self.constants,
            beta_nonzero=beta_nonzero,
        )
        memory_s = self.timing.dram_seconds(traffic.total)

        sync_s = self.timing.sync_seconds(self._barriers(n, k))
        # fused checksum work is pure extra compute riding existing passes —
        # it lands on the compute leg and overlaps memory
        total = (
            self.timing.combine(compute_s + pack_s + checksum_s, memory_s)
            + sync_s
        )
        return PerfBreakdown(
            m=m,
            n=n,
            k=k,
            mode=self.mode,
            threads=self.threads,
            seconds=total,
            compute_seconds=compute_s,
            pack_seconds=pack_s,
            checksum_seconds=checksum_s,
            memory_seconds=memory_s,
            sync_seconds=sync_s,
            flops=2.0 * m * n * k,
            checksum_flops=self._checksum_flops(m, n, k, beta_nonzero=beta_nonzero),
            dram_bytes=traffic.total,
        )

    def seconds(self, m: int, n: int | None = None, k: int | None = None, **kw) -> float:
        return self.breakdown(m, n, k, **kw).seconds

    def gflops(self, m: int, n: int | None = None, k: int | None = None, **kw) -> float:
        return self.breakdown(m, n, k, **kw).gflops
