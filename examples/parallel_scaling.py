"""Parallel FT-GEMM: the Figure-1 scheme on simulated and real threads.

Shows (1) the deterministic simulated team executing the exact barrier
schedule of the paper's Figure 1, (2) the same worker code on real OS
threads (NumPy releases the GIL, so packing and macro kernels overlap),
and (3) the performance model's 10-core projection on the paper's Xeon
W-2255 (model output, not a measurement).

Run:  python examples/parallel_scaling.py
"""

import time

import numpy as np

from repro import FTGemmConfig, ParallelFTGemm
from repro.gemm.blocking import BlockingConfig
from repro.perfmodel import GemmPerfModel
from repro.util.formatting import format_table


def main() -> None:
    rng = np.random.default_rng(0)
    n = 768
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    expected = a @ b
    config = FTGemmConfig(blocking=BlockingConfig(mc=96, kc=96, nc=768, mr=8, nr=8))

    # --- real execution, both backends ----------------------------------
    rows = []
    for backend in ("simulated", "threads"):
        for threads in (1, 2, 4):
            driver = ParallelFTGemm(config, n_threads=threads, backend=backend)
            start = time.perf_counter()
            result = driver.gemm(a, b)
            elapsed = time.perf_counter() - start
            ok = np.allclose(result.c, expected)
            rows.append(
                [backend, threads, f"{elapsed * 1e3:.1f}ms",
                 result.counters.barriers, "ok" if ok else "WRONG"]
            )
    print(
        format_table(
            ["backend", "threads", "wall", "barriers", "result"],
            rows,
            title=f"Parallel FT-GEMM, n={n} (real execution)",
        )
    )
    print(
        "\nthe simulated backend is deterministic (used by campaigns); the\n"
        "threads backend runs the identical worker generators on OS threads.\n"
    )

    # --- modeled projection on the paper's testbed ----------------------
    rows = []
    ft10 = GemmPerfModel(mode="ft", threads=10)
    ori10 = GemmPerfModel(mode="ori", threads=10)
    ft1 = GemmPerfModel(mode="ft")
    for size in (512, 2048, 8192, 20480):
        rows.append(
            [
                size,
                f"{ft1.gflops(size):.0f}",
                f"{ori10.gflops(size):.0f}",
                f"{ft10.gflops(size):.0f}",
                f"{(1 - ft10.gflops(size) / ori10.gflops(size)) * 100:.2f}%",
            ]
        )
    print(
        format_table(
            ["n", "FT 1t", "Ori 10t", "FT 10t", "FT ovh"],
            rows,
            title="Model output: GFLOPS on a Xeon W-2255 (paper Fig. 2(b) regime)",
        )
    )


if __name__ == "__main__":
    main()
