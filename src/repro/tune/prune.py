"""Analytic pruning: kill infeasible candidates before anything is priced.

Three cuts, in order, each attributed to a named reason so the funnel is
auditable (``repro tune search`` prints the counts, the tests pin them):

1. **Shape clamping + dedup.** Block sizes larger than the problem are
   clamped to the smallest covering value (``mc`` to the micro-panel grid,
   ``kc``/``nc`` to the dimension); grid points that collapse onto an
   already-seen configuration die as ``duplicate_after_clamp``. This is
   what specializes one generic grid to a shape class.
2. **Hard resource bounds.** Tiles that spill the register file
   (:meth:`VectorUnit.check_tile`), Ã blocks beyond any useful L2
   residency, B̃ panels beyond any useful L3 residency, micro panels that
   cannot stream through L1, and thread counts the shape or machine cannot
   feed. The cache bounds are deliberately *feasibility* bounds (2–4x the
   nominal capacity): partial residency still computes correctly and the
   traffic model prices the spill — only hopeless points die here.
3. **Relative DRAM traffic.** :func:`gemm_dram_traffic` on the actual block
   partition; candidates moving more than ``traffic_factor`` times the
   bytes of the best survivor cannot win on any roofline and are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perfmodel.constants import ModelConstants
from repro.perfmodel.traffic import gemm_dram_traffic
from repro.simcpu.machine import DOUBLE, MachineSpec
from repro.simcpu.vector import VectorUnit
from repro.tune.db import TunedConfig
from repro.util.errors import ConfigError

__all__ = ["PruneReport", "prune"]

#: Ã block feasibility bound, in multiples of L2 capacity.
L2_FEASIBLE_FACTOR = 2.0
#: B̃ panel feasibility bound, in multiples of last-level capacity.
L3_FEASIBLE_FACTOR = 2.0
#: Micro-panel streaming bound, in multiples of L1 capacity.
L1_FEASIBLE_FACTOR = 4.0


def _ceil_to(x: int, step: int) -> int:
    return -(-x // step) * step


@dataclass
class PruneReport:
    """Survivors plus a reason→count ledger of everything rejected."""

    survivors: list[TunedConfig] = field(default_factory=list)
    rejected: dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    @property
    def n_rejected(self) -> int:
        return sum(self.rejected.values())

    @property
    def total(self) -> int:
        return len(self.survivors) + self.n_rejected


def _clamp_to_shape(cand: TunedConfig, m: int, n: int, k: int) -> TunedConfig:
    """Shrink oversize block sizes to the smallest value covering the shape."""
    mc = min(cand.mc, _ceil_to(m, cand.mr))
    kc = min(cand.kc, k)
    nc = min(cand.nc, max(cand.nr, _ceil_to(n, cand.nr)))
    if (mc, kc, nc) == (cand.mc, cand.kc, cand.nc):
        return cand
    return TunedConfig(
        mc=mc, kc=kc, nc=nc, mr=cand.mr, nr=cand.nr,
        threads=cand.threads, source=cand.source,
    )


def prune(
    candidates: list[TunedConfig],
    machine: MachineSpec,
    m: int,
    n: int,
    k: int,
    *,
    constants: ModelConstants | None = None,
    traffic_factor: float = 2.0,
) -> PruneReport:
    """Apply the three analytic cuts; survivors keep enumeration order."""
    if min(m, n, k) <= 0:
        raise ConfigError(f"invalid shape {m}x{n}x{k}")
    if traffic_factor < 1.0:
        raise ConfigError(f"traffic_factor must be >= 1, got {traffic_factor}")
    constants = constants or ModelConstants()
    vector = VectorUnit(machine)
    l1 = machine.cache(1).size_bytes
    l2 = machine.cache(2).size_bytes
    l3 = machine.last_level.size_bytes
    report = PruneReport()

    seen: set[tuple] = set()
    feasible: list[TunedConfig] = []
    for cand in candidates:
        cand = _clamp_to_shape(cand, m, n, k)
        if cand.key() in seen:
            report.reject("duplicate_after_clamp")
            continue
        seen.add(cand.key())
        try:
            vector.check_tile(cand.mr, cand.nr)
        except ConfigError:
            report.reject("register_spill")
            continue
        if cand.mc * cand.kc * DOUBLE > L2_FEASIBLE_FACTOR * l2:
            report.reject("a_block_exceeds_l2")
            continue
        if cand.kc * cand.nc * DOUBLE > L3_FEASIBLE_FACTOR * l3:
            report.reject("b_panel_exceeds_l3")
            continue
        if cand.kc * cand.nr * DOUBLE > L1_FEASIBLE_FACTOR * l1:
            report.reject("micro_panel_exceeds_l1")
            continue
        if cand.threads > machine.cores:
            report.reject("threads_exceed_cores")
            continue
        if cand.threads > m:
            report.reject("threads_exceed_rows")
            continue
        feasible.append(cand)

    if not feasible:
        return report

    traffic = [
        gemm_dram_traffic(m, n, k, cand.blocking(), machine, constants).total
        for cand in feasible
    ]
    floor = min(traffic)
    for cand, bytes_moved in zip(feasible, traffic):
        if floor > 0 and bytes_moved > traffic_factor * floor:
            report.reject("dram_traffic")
        else:
            report.survivors.append(cand)
    return report
