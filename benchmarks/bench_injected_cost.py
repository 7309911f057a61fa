"""Fig. 2(c)'s shape at n = 1024: what an injected FT-DGEMM call costs.

The paper reports FT time staying flat as injected errors rise. Here each
injected 1024³ ``FTGemm`` call (1, 5 or 20 transient ``BitFlip(bit=52)``
strikes over the kernel sites, three plan seeds) is paired with an adjacent
clean call on the same operands, the order alternating between pairs, so
host drift cancels within a pair. Every output must verify and match
``a @ b``; the per-error-count medians land in
``results/injected_cost.txt``. Run with ``OPENBLAS_NUM_THREADS=1``.
"""

import statistics
import time
from pathlib import Path

import numpy as np

from repro.bench.reporting import host_summary
from repro.core.ftgemm import FTGemm
from repro.faults.campaign import plan_for_gemm
from repro.faults.injector import FaultInjector
from repro.faults.models import BitFlip

N = 1024
ERRORS = (1, 5, 20)
SEEDS = range(3)
ROUNDS = 3


def test_injected_call_cost_1024():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((N, N))
    b = rng.standard_normal((N, N))
    ref = a @ b
    tol = 1e-8 * (float(np.abs(ref).max()) + 1.0)
    driver = FTGemm()
    driver.gemm(a, b)  # warm the workspace

    def timed(injector):
        t0 = time.perf_counter()
        result = driver.gemm(a, b, injector=injector)
        seconds = time.perf_counter() - t0
        assert result.verified
        assert float(np.abs(result.c - ref).max()) <= tol
        return seconds

    lines = [f"FTGemm {N}x{N}x{N}, paper blocking, BitFlip(bit=52) over the "
             f"kernel sites; {ROUNDS} rounds x {len(SEEDS)} plan seeds, "
             "each injected call paired with an adjacent clean call"]
    for errors in ERRORS:
        injected, clean, ratios = [], [], []
        for rnd in range(ROUNDS):
            for seed in SEEDS:
                plan = plan_for_gemm(N, N, N, driver.config, errors,
                                     model=BitFlip(bit=52), seed=seed)
                injector = FaultInjector(plan)
                if (rnd + seed) % 2:
                    t_inj, t_clean = timed(injector), timed(None)
                else:
                    t_clean, t_inj = timed(None), timed(injector)
                assert injector.n_injected == errors
                injected.append(t_inj)
                clean.append(t_clean)
                ratios.append(t_inj / t_clean)
        lines.append(
            f"  {errors:2d} errors: injected {statistics.median(injected) * 1e3:6.1f} ms"
            f"  clean {statistics.median(clean) * 1e3:6.1f} ms"
            f"  paired ratio median {statistics.median(ratios):.2f}"
            f" (min {min(ratios):.2f}, max {max(ratios):.2f})"
        )
    lines += [f"host: {host_summary()}",
              "run: OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest "
              "benchmarks/bench_injected_cost.py -q -s"]
    results = Path(__file__).parent / "results"
    results.mkdir(exist_ok=True)
    (results / "injected_cost.txt").write_text("\n".join(lines) + "\n")
    print("\n" + "\n".join(lines))
