"""Fig. 2(b) — parallel GEMM comparison.

Real-execution leg: the Figure-1 scheme on both team backends. The real
``threads`` backend shows genuine overlap (NumPy releases the GIL inside
packing and the macro kernels); the ``simulated`` backend runs the same
schedule deterministically. The paper's 10-thread panel is not
reproduced here (EXPERIMENTS.md says why).
"""

import numpy as np

from repro.core.parallel import ParallelFTGemm


def _run(driver, a, b):
    result = driver.gemm(a, b)
    assert result.verified or not result.ft_enabled
    return result


def bench_parallel_simulated_1t(benchmark, bench_config, bench_operands):
    a, b = bench_operands
    driver = ParallelFTGemm(bench_config, n_threads=1)
    benchmark(_run, driver, a, b)


def bench_parallel_simulated_4t(benchmark, bench_config, bench_operands):
    """Deterministic 4-thread schedule (single OS thread: no speedup, this
    measures the choreography overhead)."""
    a, b = bench_operands
    driver = ParallelFTGemm(bench_config, n_threads=4)
    benchmark(_run, driver, a, b)


def bench_parallel_real_threads_2t(benchmark, bench_config, bench_operands):
    a, b = bench_operands
    driver = ParallelFTGemm(bench_config, n_threads=2, backend="threads")
    benchmark(_run, driver, a, b)


def bench_parallel_real_threads_4t(benchmark, bench_config, bench_operands):
    a, b = bench_operands
    driver = ParallelFTGemm(bench_config, n_threads=4, backend="threads")
    benchmark(_run, driver, a, b)


def bench_parallel_ori_4t(benchmark, bench_config, bench_operands):
    """The unprotected parallel baseline for the overhead ratio."""
    a, b = bench_operands
    driver = ParallelFTGemm(
        bench_config.with_(enable_ft=False), n_threads=4
    )
    benchmark(_run, driver, a, b)


def bench_parallel_checksum_reduction(benchmark):
    """The 'extra stage of reduction' of Section 2.3, isolated."""
    from repro.parallel.reduction import reduce_partials

    rng = np.random.default_rng(0)
    partials = [rng.standard_normal(384) for _ in range(10)]
    out = np.empty(384)
    benchmark(reduce_partials, partials, out)
