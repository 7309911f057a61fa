"""Fig. 2(c) — serial performance under error injection.

Real-execution leg: the protected serial driver while absorbing 0/5/20
injected kernel faults per call — the wall-clock ratios show detection and
correction cost on real runs (the paper's point: nearly flat). The paper's
panel itself (FT vs MKL/OpenBLAS/BLIS at 20 errors) stays paper-reported
(EXPERIMENTS.md).
"""

import numpy as np
import pytest

from repro.core.ftgemm import FTGemm
from repro.faults.campaign import plan_for_gemm
from repro.faults.injector import FaultInjector


def _protected_run(driver, a, b, blocking, n_errors, seed):
    if n_errors:
        plan = plan_for_gemm(
            a.shape[0], b.shape[1], a.shape[1], blocking, n_errors, seed=seed
        )
        injector = FaultInjector(plan)
    else:
        injector = None
    result = driver.gemm(a, b, injector=injector)
    assert result.verified
    return result


@pytest.mark.parametrize("n_errors", [0, 5, 20])
def bench_ftgemm_under_injection(benchmark, bench_config, bench_operands, n_errors):
    a, b = bench_operands
    driver = FTGemm(bench_config)
    seeds = iter(range(10_000))

    def run():
        return _protected_run(
            driver, a, b, bench_config.blocking, n_errors, next(seeds)
        )

    result = benchmark(run)
    expected = a @ b
    np.testing.assert_allclose(result.c, expected, rtol=1e-9, atol=1e-9)


def bench_single_error_correction_path(benchmark, bench_config, bench_operands):
    """Isolates the detect+locate+correct epilogue: one guaranteed strike."""
    from repro.faults.injector import InjectionPlan
    from repro.faults.models import Additive

    a, b = bench_operands
    driver = FTGemm(bench_config)

    def run():
        inj = FaultInjector(
            InjectionPlan.single("microkernel", 40, model=Additive(magnitude=50.0))
        )
        result = driver.gemm(a, b, injector=inj)
        assert result.corrected == 1
        return result

    benchmark(run)
