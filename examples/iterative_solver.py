"""Protected scientific kernel: power iteration on a corrupted machine.

The paper's motivation is silent data corruption in long-running scientific
computations. This example makes that concrete: a block power iteration
(the core of eigensolvers and PageRank) runs its matrix products with and
without fault tolerance while faults keep striking every multiply.

- the *unprotected* run silently converges to garbage (or diverges);
- the *protected* run absorbs every fault and matches the fault-free
  result to machine precision.

Run:  python examples/iterative_solver.py
"""

import numpy as np

from repro import FTGemm, FTGemmConfig
from repro.faults.campaign import plan_for_gemm
from repro.faults.injector import FaultInjector
from repro.faults.models import BitFlip
from repro.gemm.blocking import BlockingConfig
from repro.gemm.driver import BlockedGemm
from repro.util.rng import derive_seed


def power_iteration(matvec, v0: np.ndarray, iterations: int) -> np.ndarray:
    v = v0.copy()
    for _ in range(iterations):
        v = matvec(v)
        v /= np.linalg.norm(v, axis=0, keepdims=True)
    return v


def main() -> None:
    rng = np.random.default_rng(11)
    n, block = 200, 8
    # symmetric positive matrix with a clear dominant subspace
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
    eigs[:block] = np.linspace(3.0, 2.0, block)
    matrix = (q * eigs) @ q.T
    v0 = rng.standard_normal((n, block))
    config = FTGemmConfig(blocking=BlockingConfig.small(mr=8, nr=6))
    iterations = 25
    faults_per_multiply = 2

    # ground truth: fault-free
    truth = power_iteration(lambda v: matrix @ v, v0, iterations)

    def make_injector(step: int) -> FaultInjector:
        plan = plan_for_gemm(
            n, block, n, config.blocking, faults_per_multiply,
            model=BitFlip(bit=52), seed=derive_seed(99, "solver", step),
        )
        return FaultInjector(plan)

    # unprotected blocked GEMM under the same fault schedule
    step = [0]

    def unprotected(v: np.ndarray) -> np.ndarray:
        injector = make_injector(step[0])
        step[0] += 1
        driver = BlockedGemm(config.blocking)
        return driver.gemm(matrix, v, injector=injector)

    # protected FT-GEMM under the same fault schedule
    pstep = [0]
    gemm = FTGemm(config)
    total = {"injected": 0, "corrected": 0, "recomputed": 0}

    def protected(v: np.ndarray) -> np.ndarray:
        injector = make_injector(pstep[0])
        pstep[0] += 1
        result = gemm.gemm(matrix, v, injector=injector)
        total["injected"] += injector.n_injected
        total["corrected"] += result.corrected
        total["recomputed"] += result.recomputed_blocks
        return result.c

    with np.errstate(invalid="ignore", over="ignore"):
        bad = power_iteration(unprotected, v0, iterations)
    good = power_iteration(protected, v0, iterations)

    def subspace_error(v: np.ndarray) -> float:
        # principal-angle distance to the fault-free subspace
        if not np.all(np.isfinite(v)):
            return float("inf")
        qa, _ = np.linalg.qr(truth)
        qb, _ = np.linalg.qr(v)
        s = np.linalg.svd(qa.T @ qb, compute_uv=False)
        return float(np.sqrt(max(0.0, 1.0 - s.min() ** 2)))

    print(f"power iteration: n={n}, block={block}, {iterations} steps, "
          f"{faults_per_multiply} faults injected into every multiply\n")
    print(f"unprotected GEMM : subspace error {subspace_error(bad):.3e}")
    print(f"FT-GEMM          : subspace error {subspace_error(good):.3e}")
    print(f"\nFT-GEMM absorbed {total['injected']} faults "
          f"({total['corrected']} corrected in place, "
          f"{total['recomputed']} lines recomputed)")
    # the protected run matches the fault-free subspace to the accuracy the
    # (chaotic) iteration permits — blocked vs oracle rounding diverges a
    # little over 25 normalized steps, soft errors not at all
    assert subspace_error(good) < 1e-6


if __name__ == "__main__":
    main()
