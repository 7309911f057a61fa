"""Protected neural-network inference on a corrupted accelerator.

The paper's abstract motivates FT-GEMM with machine learning: inference is
a chain of GEMMs, and one silent fault in an early layer fans out through
every later one. This example builds a small MLP (NumPy only), runs a
batch through it with faults striking *every* layer's multiply, and
compares:

- unprotected: logits drift or explode, predictions flip silently;
- FT-GEMM-protected: bit-identical logits to the fault-free run whenever
  no fault struck, and oracle-correct ones when they did.

Run:  python examples/mlp_inference.py
"""

import numpy as np

from repro import FTGemm, FTGemmConfig
from repro.faults.campaign import plan_for_gemm
from repro.faults.injector import FaultInjector
from repro.faults.models import BitFlip
from repro.gemm.blocking import BlockingConfig
from repro.gemm.driver import BlockedGemm
from repro.util.rng import derive_seed


def make_mlp(rng, sizes):
    return [
        (
            rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in),
            rng.standard_normal(fan_out) * 0.01,
        )
        for fan_in, fan_out in zip(sizes, sizes[1:])
    ]


def forward(layers, x, matmul):
    h = x
    for idx, (w, bias) in enumerate(layers):
        h = matmul(h, w, idx) + bias
        if idx < len(layers) - 1:
            h = np.maximum(h, 0.0)  # ReLU
    return h


def main() -> None:
    rng = np.random.default_rng(2023)
    sizes = [64, 128, 128, 10]
    layers = make_mlp(rng, sizes)
    batch = rng.standard_normal((96, sizes[0]))
    config = FTGemmConfig(
        blocking=BlockingConfig.small(mr=8, nr=6), checksum_scheme="weighted"
    )
    faults_per_layer = 2
    model = BitFlip(bit_range=(50, 62))

    def injector_for(layer, m, n, k, call):
        plan = plan_for_gemm(
            m, n, k, config.blocking, faults_per_layer, model=model,
            seed=derive_seed(3, "mlp", layer, call),
        )
        return FaultInjector(plan)

    # fault-free reference
    clean = forward(layers, batch, lambda h, w, i: h @ w)
    clean_pred = clean.argmax(axis=1)

    # unprotected blocked GEMM under the fault schedule
    calls = [0]

    def unprotected(h, w, i):
        inj = injector_for(i, h.shape[0], w.shape[1], h.shape[1], calls[0])
        calls[0] += 1
        driver = BlockedGemm(config.blocking)
        return driver.gemm(h, w, injector=inj)

    # protected
    stats = {"injected": 0, "corrected": 0, "recomputed": 0}
    pcalls = [0]
    gemm = FTGemm(config)

    def protected(h, w, i):
        inj = injector_for(i, h.shape[0], w.shape[1], h.shape[1], pcalls[0])
        pcalls[0] += 1
        result = gemm.gemm(h, w, injector=inj)
        stats["injected"] += inj.n_injected
        stats["corrected"] += result.corrected
        stats["recomputed"] += result.recomputed_blocks
        return result.c

    with np.errstate(invalid="ignore", over="ignore"):
        bad = forward(layers, batch, unprotected)
    good = forward(layers, batch, protected)

    bad_pred = (
        bad.argmax(axis=1)
        if np.all(np.isfinite(bad))
        else np.full(batch.shape[0], -1)
    )
    good_pred = good.argmax(axis=1)
    flips_bad = int((bad_pred != clean_pred).sum())
    flips_good = int((good_pred != clean_pred).sum())
    max_err = float(np.abs(good - clean).max())

    print(f"MLP {sizes}, batch {batch.shape[0]}, "
          f"{faults_per_layer} bit flips per layer multiply\n")
    print(f"unprotected: {flips_bad}/{batch.shape[0]} predictions flipped "
          f"(logit max |err| = "
          f"{float(np.abs(bad - clean).max()) if np.all(np.isfinite(bad)) else float('inf'):.3g})")
    print(f"protected  : {flips_good}/{batch.shape[0]} predictions flipped "
          f"(logit max |err| = {max_err:.3g})")
    print(f"\nFT-GEMM absorbed {stats['injected']} faults: "
          f"{stats['corrected']} corrected in place "
          f"(weighted checksums), {stats['recomputed']} lines recomputed")
    assert flips_good == 0
    assert max_err < 1e-8


if __name__ == "__main__":
    main()
