"""Benchmark-suite fixtures and the paper-table emitter.

Two things happen in a benchmark run (``pytest benchmarks/ --benchmark-only``):

1. pytest-benchmark times the *real* small-scale kernels (the per-file
   ``bench_*`` functions) — these demonstrate the overhead shapes on actual
   executions;
2. at session end this conftest regenerates every figure of
   :mod:`repro.bench.figures` (the measured Fig. 2(a) sweep, real
   reliability campaigns, the serving tables, and the model's scaling
   projection, labelled as such), prints the tables, and writes the
   evidence files to ``benchmarks/results/`` — the series that
   EXPERIMENTS.md quotes. Run with ``OPENBLAS_NUM_THREADS=1`` so the
   serial sweep's BLAS column is serial too.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.config import FTGemmConfig
from repro.gemm.blocking import BlockingConfig

RESULTS_DIR = Path(__file__).parent / "results"

#: laptop-scale stand-in sizes for real-execution benchmarks
REAL_N = 192


@pytest.fixture(scope="session")
def bench_blocking() -> BlockingConfig:
    """Blocking scaled to laptop-size matrices: several blocks per loop."""
    return BlockingConfig(mc=48, kc=48, nc=96, mr=8, nr=6)


@pytest.fixture(scope="session")
def bench_config(bench_blocking) -> FTGemmConfig:
    return FTGemmConfig(blocking=bench_blocking)


@pytest.fixture(scope="session")
def bench_operands():
    rng = np.random.default_rng(2024)
    a = rng.standard_normal((REAL_N, REAL_N))
    b = rng.standard_normal((REAL_N, REAL_N))
    return a, b


def pytest_sessionfinish(session, exitstatus):
    """Regenerate the paper's tables once per benchmark session."""
    if not session.config.getoption("benchmark_enable", default=False) and not getattr(
        session.config.option, "benchmark_only", False
    ):
        return
    if getattr(session.config, "workerinput", None):  # xdist worker
        return
    try:
        from repro.bench.harness import ExperimentRunner

        runner = ExperimentRunner(RESULTS_DIR)
        runner.run_all()
        report = runner.report()
        print("\n" + "=" * 72)
        print("PAPER FIGURE REGENERATION (measured sweep + real campaigns)")
        print("=" * 72)
        print(report)
        print(f"evidence files: {RESULTS_DIR}/")
    except Exception as exc:  # never fail the benchmark run over reporting
        print(f"[conftest] figure regeneration failed: {exc!r}")
