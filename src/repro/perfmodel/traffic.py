"""DRAM traffic model of the blocked (FT-)GEMM.

Byte legs are derived from the actual block partition of the Figure-1 loop
nest (not closed forms), so ragged edges and the big-``N_C`` single-j-block
regime are handled exactly:

- **A** is read from memory once per (p, j) packing pass — re-reads only
  cost DRAM when A exceeds the effective L3;
- **B** is read once overall for packing; the packed **B̃** panel costs
  extra DRAM only for the fraction that does not fit the effective L3
  (write-back once plus a spill re-read per macro sweep);
- **C** is read+written once per K-block (the classic GotoBLAS C-update
  stream), plus the initial β-scaling pass.

The fused FT scheme adds **zero** bytes here — that is the paper's point:
every checksum operation rides a pass that already moves the data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gemm.blocking import BlockingConfig, iter_blocks
from repro.perfmodel.constants import ModelConstants
from repro.simcpu.machine import DOUBLE, MachineSpec
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class TrafficReport:
    """DRAM bytes by structure for one GEMM call."""

    a_bytes: float
    b_bytes: float
    btilde_spill_bytes: float
    c_bytes: float

    @property
    def total(self) -> float:
        return self.a_bytes + self.b_bytes + self.btilde_spill_bytes + self.c_bytes


def _spill_fraction(bytes_needed: float, budget: float) -> float:
    """Fraction of a structure of size ``bytes_needed`` that misses a cache
    budget: 0 while it fits, then the non-resident fraction ``1 - budget/x``."""
    if bytes_needed <= budget:
        return 0.0
    return 1.0 - budget / bytes_needed


def gemm_dram_traffic(
    m: int,
    n: int,
    k: int,
    blocking: BlockingConfig,
    machine: MachineSpec,
    constants: ModelConstants | None = None,
    *,
    beta_nonzero: bool = False,
) -> TrafficReport:
    """DRAM byte legs of one plain blocked GEMM call."""
    if min(m, n, k) <= 0:
        raise ConfigError(f"invalid GEMM dims {m}x{n}x{k}")
    constants = constants or ModelConstants()
    l3_budget = machine.last_level.size_bytes * constants.l3_effective_fraction

    p_blocks = list(iter_blocks(k, blocking.kc))
    j_blocks = list(iter_blocks(n, blocking.nc))
    n_i = len(list(iter_blocks(m, blocking.mc)))

    a_matrix_bytes = m * k * DOUBLE
    # each j block re-packs A, but a (p, j) pass touches only the p-slice of
    # columns, so one full sweep of the p loop reads A once: n_j sweeps total.
    # The first sweep comes from DRAM; later sweeps hit L3 if A fits.
    n_sweeps_a = len(j_blocks)
    a_respill = _spill_fraction(a_matrix_bytes, l3_budget)
    a_bytes = a_matrix_bytes * (1.0 + (n_sweeps_a - 1) * a_respill)

    b_bytes = float(k * n * DOUBLE)  # each element packed exactly once

    btilde_spill = 0.0
    for _p0, plen in p_blocks:
        for _j0, jlen in j_blocks:
            panel_bytes = plen * blocking.micro_panels_n(jlen) * blocking.nr * DOUBLE
            spill = _spill_fraction(panel_bytes, l3_budget)
            # write-back once + one spill re-read per macro sweep (i block)
            btilde_spill += panel_bytes * spill * (1.0 + n_i)

    # C is read+written per K-block by the macro kernels,
    # plus the initial scaling pass (read only if beta != 0)
    c_matrix_bytes = m * n * DOUBLE
    c_bytes = 2.0 * c_matrix_bytes * len(p_blocks)
    c_bytes += c_matrix_bytes * (2.0 if beta_nonzero else 1.0)

    return TrafficReport(
        a_bytes=a_bytes,
        b_bytes=b_bytes,
        btilde_spill_bytes=btilde_spill,
        c_bytes=c_bytes,
    )

