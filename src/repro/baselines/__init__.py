"""The classic (non-fused) ABFT scheme, the baseline fusion replaces.

:class:`TraditionalABFT` is a real, runnable non-fused ABFT GEMM: dedicated
encode sweeps and standalone prediction GEMVs around the same blocked
kernel FT-GEMM uses, then one verification sweep over C. The other
comparison points of the paper's Fig. 2(a) need no wrapper here: the
measured sweep (:func:`repro.bench.figures.fig2a_serial`) times NumPy's
own BLAS product (``a @ b``) and the unprotected
:class:`~repro.gemm.driver.BlockedGemm` directly. MKL and BLIS are not
part of the NumPy stack this package runs on, so their columns stay
paper-reported.
"""

from repro.baselines.traditional_abft import TraditionalABFT

__all__ = ["TraditionalABFT"]
