"""DRAM traffic model."""

import pytest

from repro.gemm.blocking import BlockingConfig
from repro.perfmodel.traffic import (
    TrafficReport,
    _spill_fraction,
    gemm_dram_traffic,
)
from repro.simcpu.machine import MachineSpec
from repro.util.errors import ConfigError


@pytest.fixture
def machine():
    return MachineSpec.cascade_lake_w2255()


@pytest.fixture
def blocking():
    return BlockingConfig()


def test_spill_fraction():
    assert _spill_fraction(100, 200) == 0.0
    assert _spill_fraction(200, 200) == 0.0
    assert _spill_fraction(400, 200) == 0.5
    assert _spill_fraction(2000, 200) == 0.9


def test_b_read_exactly_once(machine, blocking):
    t = gemm_dram_traffic(4096, 4096, 4096, blocking, machine)
    assert t.b_bytes == 4096 * 4096 * 8


def test_c_update_stream_exact(machine, blocking):
    """C is read+written once per K-block plus the scaling store."""
    from repro.gemm.blocking import n_blocks

    for k in (2048, 4096):
        t = gemm_dram_traffic(2048, 2048, k, blocking, machine)
        n_p = n_blocks(k, blocking.kc)
        assert t.c_bytes == pytest.approx(2048 * 2048 * 8 * (2 * n_p + 1))


def test_beta_adds_one_c_read(machine, blocking):
    t0 = gemm_dram_traffic(1024, 1024, 1024, blocking, machine)
    t1 = gemm_dram_traffic(1024, 1024, 1024, blocking, machine, beta_nonzero=True)
    assert t1.c_bytes - t0.c_bytes == 1024 * 1024 * 8


def test_btilde_spills_only_past_l3(machine, blocking):
    # at n=4096 the actual B̃ panel is 384*4096*8 = 12.6 MB < L3: no spill
    small = gemm_dram_traffic(4096, 4096, 4096, blocking, machine)
    assert small.btilde_spill_bytes == 0.0
    # at n=10240 the first j block is the full 9216 -> 28 MB > L3: spills
    big = gemm_dram_traffic(10240, 10240, 10240, blocking, machine)
    assert big.btilde_spill_bytes > 0.0


def test_a_reread_only_when_multiple_j_blocks(machine, blocking):
    # n <= NC: one j block, A read exactly once
    t = gemm_dram_traffic(4096, 4096, 4096, blocking, machine)
    assert t.a_bytes == 4096 * 4096 * 8
    # n > NC: the second j block re-reads A (it exceeds L3) — two sweeps,
    # but never more (a (p, j) pass touches only its column slice of A)
    t2 = gemm_dram_traffic(10240, 10240, 4096, blocking, machine)
    raw = 10240 * 4096 * 8
    assert raw < t2.a_bytes <= 2 * raw


def test_total_is_sum(machine, blocking):
    t = gemm_dram_traffic(1000, 1000, 1000, blocking, machine)
    assert t.total == pytest.approx(
        t.a_bytes + t.b_bytes + t.btilde_spill_bytes + t.c_bytes
    )


def test_invalid_dims_rejected(machine, blocking):
    with pytest.raises(ConfigError):
        gemm_dram_traffic(0, 10, 10, blocking, machine)
