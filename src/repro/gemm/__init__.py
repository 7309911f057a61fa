"""Blocked, packed GEMM substrate (the paper's Section 2.1).

This package is the paper's baseline DGEMM rebuilt in NumPy with the exact
GotoBLAS structure the poster describes:

- the three outer loops partition ``K`` (step ``K_C``), ``N`` (step ``N_C``)
  and ``M`` (step ``M_C``) in the order of the paper's Figure 1;
- ``A`` blocks are packed into micro-panel buffers ``Ã`` (thread-private in
  the parallel scheme), ``B`` panels into the shared buffer ``B̃``;
- the macro kernel updates an ``M_C x N_C`` block of ``C`` from the packed
  panels; its ``M_R x N_R`` register tiles are the unit of fault placement
  and of the cycle model.

The macro kernel is one NumPy contraction on the packed panels — the
algorithmic structure (what is packed when, what is resident where, how
many times each byte moves) is identical to the paper's assembly version,
which is what the cache simulator and performance model consume.
"""

from repro.gemm.blocking import (
    BlockingConfig,
    iter_blocks,
    block_starts,
)
from repro.gemm.reference import gemm_reference, gemm_naive
from repro.gemm.packing import (
    pack_a,
    pack_b,
    panels_from_cols,
    unpack_a,
    unpack_b,
    PackedPanels,
)
from repro.gemm.panelcache import PackedB, PanelCache, encode_b
from repro.gemm.macrokernel import macro_kernel
from repro.gemm.driver import BlockedGemm, AddressLayout
from repro.gemm.workspace import Workspace
from repro.gemm.tuning import tune_blocking, blocking_footprints

__all__ = [
    "BlockingConfig",
    "iter_blocks",
    "block_starts",
    "gemm_reference",
    "gemm_naive",
    "pack_a",
    "pack_b",
    "panels_from_cols",
    "unpack_a",
    "unpack_b",
    "PackedPanels",
    "PackedB",
    "PanelCache",
    "encode_b",
    "macro_kernel",
    "BlockedGemm",
    "AddressLayout",
    "Workspace",
    "tune_blocking",
    "blocking_footprints",
]
