"""Fig. 2(a) — serial GEMM comparison.

Real-execution leg: the serial drivers at small scale under
pytest-benchmark. The published panel is the measured sweep of
:func:`repro.bench.figures.fig2a_serial` (OpenBLAS / Ori / FT / classic
ABFT, interleaved, n = 256…2048), which the session-end hook in
``conftest.py`` writes to ``results/fig2a.txt``.
"""

import numpy as np

from repro.core.ftgemm import FTGemm
from repro.gemm.driver import BlockedGemm


def bench_numpy_oracle(benchmark, bench_operands):
    """NumPy's BLAS product (OpenBLAS), the sweep's oracle and baseline."""
    a, b = bench_operands
    benchmark(lambda: a @ b)


def bench_blocked_gemm_ori(benchmark, bench_config, bench_operands):
    """FT-GEMM: Ori — the plain blocked loop nest."""
    a, b = bench_operands
    driver = BlockedGemm(bench_config.blocking)
    result = benchmark(lambda: driver.gemm(a, b))
    np.testing.assert_allclose(result, a @ b, rtol=1e-10)


def bench_ftgemm_fused(benchmark, bench_config, bench_operands):
    """FT-GEMM w/ FT — fused checksums, verification included."""
    a, b = bench_operands
    driver = FTGemm(bench_config)
    result = benchmark(lambda: driver.gemm(a, b))
    assert result.verified


def bench_ftgemm_fused_with_beta(benchmark, bench_config, bench_operands):
    """The beta path adds the DMR-protected scaling prologue."""
    a, b = bench_operands
    rng = np.random.default_rng(7)
    c0 = rng.standard_normal((a.shape[0], b.shape[1]))
    driver = FTGemm(bench_config)

    def run():
        return driver.gemm(a, b, c0.copy(), alpha=1.5, beta=0.5)

    result = benchmark(run)
    assert result.verified
