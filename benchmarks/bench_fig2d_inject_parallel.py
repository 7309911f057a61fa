"""Fig. 2(d) — parallel performance under error injection.

Real-execution leg: the Figure-1 parallel driver absorbing faults injected
into the shared-B̃ packing and the per-thread macro kernels. The paper's
10-thread panel is not reproduced here (EXPERIMENTS.md says why).
"""

import numpy as np
import pytest

from repro.core.parallel import ParallelFTGemm
from repro.faults.campaign import plan_for_gemm, site_invocation_counts_parallel
from repro.faults.injector import FaultInjector

THREADS = 4


@pytest.mark.parametrize("n_errors", [0, 5, 20])
def bench_parallel_under_injection(benchmark, bench_config, bench_operands, n_errors):
    a, b = bench_operands
    driver = ParallelFTGemm(bench_config, n_threads=THREADS)
    m, k = a.shape
    n = b.shape[1]
    counts = site_invocation_counts_parallel(
        m, n, k, bench_config.blocking, THREADS
    )
    seeds = iter(range(10_000))

    def run():
        injector = None
        if n_errors:
            plan = plan_for_gemm(
                m, n, k, bench_config.blocking, n_errors,
                seed=next(seeds), counts=counts,
            )
            injector = FaultInjector(plan)
        result = driver.gemm(a, b, injector=injector)
        assert result.verified
        return result

    result = benchmark(run)
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-9, atol=1e-9)


def bench_parallel_injection_real_threads(benchmark, bench_config, bench_operands):
    """Injection through the locked injector on real OS threads."""
    a, b = bench_operands
    driver = ParallelFTGemm(bench_config, n_threads=2, backend="threads")
    m, k = a.shape
    n = b.shape[1]
    counts = site_invocation_counts_parallel(m, n, k, bench_config.blocking, 2)
    seeds = iter(range(10_000))

    def run():
        plan = plan_for_gemm(
            m, n, k, bench_config.blocking, 3, seed=next(seeds), counts=counts
        )
        result = driver.gemm(a, b, injector=FaultInjector(plan))
        assert result.verified
        return result

    benchmark(run)
