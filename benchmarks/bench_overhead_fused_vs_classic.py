"""In-text claim: fusing drops FT overhead from ~15 % to ~3 %.

Real-execution leg: the same protected GEMM three ways — unprotected,
fused (FT-GEMM), classic (TraditionalABFT with its dedicated encode/verify
passes) — so the *pass-count* difference is visible in real wall clock and
in the counted ``ft_extra_bytes``. The published overhead numbers are the
``fused ov %`` and ``classic ov %`` series of the measured Fig. 2(a) sweep
(``results/fig2a.txt``).
"""

import numpy as np

from repro.baselines.traditional_abft import TraditionalABFT
from repro.core.ftgemm import FTGemm
from repro.gemm.driver import BlockedGemm


def bench_unprotected(benchmark, bench_config, bench_operands):
    a, b = bench_operands
    driver = BlockedGemm(bench_config.blocking)
    benchmark(lambda: driver.gemm(a, b))


def bench_fused_ft(benchmark, bench_config, bench_operands):
    a, b = bench_operands
    driver = FTGemm(bench_config)
    result = benchmark(lambda: driver.gemm(a, b))
    assert result.counters.ft_extra_bytes == 0  # the fused property


def bench_classic_abft(benchmark, bench_config, bench_operands):
    a, b = bench_operands
    driver = TraditionalABFT(bench_config)
    result = benchmark(lambda: driver.gemm(a, b))
    assert result.verified
    assert result.counters.ft_extra_bytes > 0  # the passes fusion removes


def bench_fused_checksum_encode_vs_separate_pass(benchmark, bench_operands):
    """The micro-mechanism: computing B's column checksum fused with the
    packing read (one pass) vs as a separate sweep (two passes)."""
    from repro.gemm.packing import pack_b

    _, b = bench_operands

    def fused():
        # one traversal: pack + checksum from the same loaded block
        packed = pack_b(b, 6)
        return packed, b.sum(axis=1)

    benchmark(fused)


def bench_separate_checksum_pass(benchmark, bench_operands):
    from repro.gemm.packing import pack_b

    _, b = bench_operands

    def separate():
        packed = pack_b(b, 6)
        # classic: a second, standalone sweep over the original matrix
        checksum = np.ascontiguousarray(b).sum(axis=1)
        return packed, checksum

    benchmark(separate)
