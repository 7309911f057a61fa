"""Real-kernel microbenchmarks: the building blocks in isolation.

Packing, micro kernel, macro kernel (tile and batched), checksum encodings,
verification — each timed on its own so regressions in one stage are
attributable. ``test_dispatch_tile_vs_batched_512`` is the headline
comparison: one 512x512x512 DGEMM per dispatch mode, asserting the batched
path's speedup and observational equivalence, with the numbers written to
``benchmarks/results/dispatch.{json,txt}``.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.abft.checksum import encode_full
from repro.abft.tolerance import residual_tolerances
from repro.bench.reporting import host_summary
from repro.gemm.blocking import BlockingConfig
from repro.gemm.driver import BlockedGemm
from repro.gemm.macrokernel import macro_kernel, macro_kernel_batched
from repro.gemm.microkernel import microkernel, microkernel_ft
from repro.gemm.packing import pack_a, pack_b

KC, MC, NC = 96, 96, 96
MR, NR = 8, 6


def _panels():
    rng = np.random.default_rng(5)
    a_blk = rng.standard_normal((MC, KC))
    b_blk = rng.standard_normal((KC, NC))
    return a_blk, b_blk


def bench_pack_a(benchmark):
    a_blk, _ = _panels()
    out = np.zeros((MC // MR, KC, MR))
    benchmark(pack_a, a_blk, MR, out=out)


def bench_pack_b(benchmark):
    _, b_blk = _panels()
    out = np.zeros((NC // NR, KC, NR))
    benchmark(pack_b, b_blk, NR, out=out)


def bench_microkernel_plain(benchmark):
    rng = np.random.default_rng(6)
    a_panel = rng.standard_normal((KC, MR))
    b_panel = rng.standard_normal((KC, NR))
    benchmark(microkernel, a_panel, b_panel)


def bench_microkernel_fused_checksums(benchmark):
    rng = np.random.default_rng(6)
    a_panel = rng.standard_normal((KC, MR))
    b_panel = rng.standard_normal((KC, NR))
    c_tile = np.zeros((MR, NR))
    benchmark(microkernel_ft, a_panel, b_panel, c_tile)


def bench_macro_kernel_plain(benchmark):
    a_blk, b_blk = _panels()
    pa = pack_a(a_blk, MR)
    pb = pack_b(b_blk, NR)
    c = np.zeros((MC, NC))
    benchmark(macro_kernel, pa, pb, c)


def bench_macro_kernel_with_refs(benchmark):
    """The last-K-block variant that also collects reference checksums."""
    a_blk, b_blk = _panels()
    pa = pack_a(a_blk, MR)
    pb = pack_b(b_blk, NR)
    c = np.zeros((MC, NC))
    row_ref = np.zeros(NC)
    col_ref = np.zeros(MC)

    def run():
        row_ref[:] = 0
        col_ref[:] = 0
        macro_kernel(pa, pb, c, row_ref=row_ref, col_ref=col_ref)

    benchmark(run)


def bench_macro_kernel_batched(benchmark):
    """The block-level contraction the dispatch layer uses on clean runs."""
    a_blk, b_blk = _panels()
    pa = pack_a(a_blk, MR)
    pb = pack_b(b_blk, NR)
    c = np.zeros((MC, NC))
    benchmark(macro_kernel_batched, pa, pb, c)


def bench_macro_kernel_batched_with_refs(benchmark):
    """Batched last-K-block variant: reference checksums as block reductions."""
    a_blk, b_blk = _panels()
    pa = pack_a(a_blk, MR)
    pb = pack_b(b_blk, NR)
    c = np.zeros((MC, NC))
    row_ref = np.zeros(NC)
    col_ref = np.zeros(MC)

    def run():
        row_ref[:] = 0
        col_ref[:] = 0
        macro_kernel_batched(pa, pb, c, row_ref=row_ref, col_ref=col_ref)

    benchmark(run)


def test_dispatch_tile_vs_batched_512():
    """The dispatch engine's headline number: tile vs batched on one
    512x512x512 DGEMM, equal counters and allclose results required, batched
    at least 3x faster. Results land in ``results/dispatch.{json,txt}``."""
    n = 512
    rng = np.random.default_rng(11)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    record: dict[str, dict] = {}
    outputs = {}
    for mode in ("tile", "batched"):
        cfg = BlockingConfig(mc=MC, kc=KC, nc=NC, mr=MR, nr=NR, dispatch=mode)
        driver = BlockedGemm(cfg)
        t0 = time.perf_counter()
        outputs[mode] = driver.gemm(a, b)
        elapsed = time.perf_counter() - t0
        assert driver.last_mode == mode
        record[mode] = {
            "seconds": elapsed,
            "gflops": 2 * n**3 / elapsed / 1e9,
            "counters": {
                "fma_flops": driver.counters.fma_flops,
                "microkernel_calls": driver.counters.microkernel_calls,
                "loads_bytes": driver.counters.loads_bytes,
                "stores_bytes": driver.counters.stores_bytes,
            },
        }
    np.testing.assert_allclose(
        outputs["batched"], outputs["tile"], rtol=1e-10, atol=1e-10
    )
    assert record["batched"]["counters"] == record["tile"]["counters"]
    speedup = record["tile"]["seconds"] / record["batched"]["seconds"]
    record["speedup"] = speedup
    record["shape"] = [n, n, n]
    record["host"] = host_summary()
    results = Path(__file__).parent / "results"
    results.mkdir(exist_ok=True)
    (results / "dispatch.json").write_text(json.dumps(record, indent=2) + "\n")
    lines = [
        f"dispatch mode comparison, {n}x{n}x{n} DGEMM "
        f"(MC={MC} KC={KC} NC={NC}, {MR}x{NR} tiles)",
        *(
            f"  {mode:8s} {record[mode]['seconds'] * 1e3:9.1f} ms  "
            f"{record[mode]['gflops']:7.2f} GFLOP/s"
            for mode in ("tile", "batched")
        ),
        f"  speedup  {speedup:9.2f} x  (identical counters, allclose results)",
        f"host: {record['host']}",
        "run: PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py "
        "-k dispatch -q -s (one timed call per mode)",
    ]
    (results / "dispatch.txt").write_text("\n".join(lines) + "\n")
    print("\n" + "\n".join(lines))
    assert speedup >= 3.0, f"batched only {speedup:.2f}x faster than tile"


def bench_huang_abraham_encode(benchmark):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((192, 192))
    benchmark(encode_full, x)


def bench_tolerance_envelopes(benchmark):
    rng = np.random.default_rng(8)
    a = rng.standard_normal((192, 96))
    b = rng.standard_normal((96, 192))
    benchmark(residual_tolerances, a, b)


def bench_verification_epilogue(benchmark):
    """Residual compare + locate on a clean run: the paper's common case."""
    from repro.abft.locate import locate

    rng = np.random.default_rng(9)
    n = 4096
    row_res = rng.standard_normal(n) * 1e-14
    col_res = rng.standard_normal(n) * 1e-14
    tol = np.full(n, 1e-9)
    def run():
        pattern = locate(row_res, col_res, tol, tol)
        assert pattern.kind == "clean"
    benchmark(run)
