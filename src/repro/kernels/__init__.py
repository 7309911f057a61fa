"""Protected kernels: the FT-BLAS-shaped kernel family behind one interface.

Every servable computation is a :class:`~repro.kernels.base.ProtectedKernel`:
a name, a fault-site map, a deterministic plan builder, an
execute-with-injector entry, a cheap independent verification probe, a
DMR-recompute escalation rung, and a NumPy oracle. The registry maps
kernel names to singleton instances; the serving stack (both tiers), the
workload auditor, the CLI and the campaigns all route through it.

The family and its protection split (the FT-BLAS rule — ABFT where
checksums amortize, DMR where they cannot):

==========  ====================  =====================================
kernel      protection            substrate
==========  ====================  =====================================
``gemm``    fused ABFT            :class:`~repro.core.ftgemm.FTGemm`
                                  (the serving tiers' cached drivers
                                  and panel cache, or a fresh driver)
``gemv``    ABFT + weighted       :func:`repro.blas.level2.ft_gemv`
            localization
``trsm``    DMR diagonal solves   :func:`repro.blas.level3_solve.ft_trsm`
            + ABFT trailing GEMM
``fft``     per-stage weighted    :mod:`repro.kernels.fft` (new)
            checksums over the
            butterfly stages
==========  ====================  =====================================

This package sits *below* :mod:`repro.serve`: kernels duck-type their
request objects (``request.a``, ``request.x`` …) and never import the
serving layer, so the dependency arrow points one way.
"""

from repro.kernels.base import KernelResult, ProtectedKernel
from repro.kernels.fft import FftKernel, ft_fft
from repro.kernels.gemm import GemmKernel
from repro.kernels.gemv import GemvKernel
from repro.kernels.registry import get_kernel, kernel_names, register
from repro.kernels.trsm import TrsmKernel

register(GemmKernel())
register(GemvKernel())
register(TrsmKernel())
register(FftKernel())

__all__ = [
    "FftKernel",
    "GemmKernel",
    "GemvKernel",
    "KernelResult",
    "ProtectedKernel",
    "TrsmKernel",
    "ft_fft",
    "get_kernel",
    "kernel_names",
    "register",
]
