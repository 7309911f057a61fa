"""Real-kernel microbenchmarks: the building blocks in isolation.

Packing, the macro kernel, checksum encodings, verification — each timed on
its own so regressions in one stage are attributable.
"""

import numpy as np

from repro.abft.checksum import encode_full
from repro.abft.tolerance import residual_tolerances
from repro.gemm.macrokernel import macro_kernel
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
