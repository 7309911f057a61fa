"""Micro-kernel tile accounting."""

from repro.gemm.macrokernel import tile_flops


def test_tile_flops():
    assert tile_flops(16, 14, 384) == 2 * 16 * 14 * 384
