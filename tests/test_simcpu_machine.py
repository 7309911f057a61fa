"""Machine parameter sheets."""

import pytest

from repro.simcpu.machine import CacheSpec, MachineSpec
from repro.util.errors import ConfigError


def test_cascade_lake_matches_paper_testbed():
    m = MachineSpec.cascade_lake_w2255()
    assert m.cores == 10
    assert m.freq_ghz == 3.7  # "3.70 GHz base frequency"
    assert m.vector_lanes_f64 == 8  # AVX-512
    assert m.fma_ports == 2
    # 2 FMA x 8 lanes x 2 flops = 32 flops/cycle
    assert m.flops_per_cycle_per_core == 32.0
    assert m.mem_bandwidth_gbs == pytest.approx(93.9)  # 4 x DDR4-2933


def test_peak_gflops_relations():
    m = MachineSpec.cascade_lake_w2255()
    assert m.peak_gflops_serial == pytest.approx(32 * 3.5)
    assert m.peak_gflops_parallel == pytest.approx(10 * 32 * 3.5)
    assert m.peak_gflops(4) == pytest.approx(4 * 32 * 3.5)
    # clamped at core count
    assert m.peak_gflops(50) == m.peak_gflops_parallel


def test_peak_gflops_rejects_nonpositive_threads():
    with pytest.raises(ConfigError):
        MachineSpec.cascade_lake_w2255().peak_gflops(0)


def test_cache_lookup_and_sharing():
    m = MachineSpec.cascade_lake_w2255()
    assert m.cache(1).size_bytes == 32 * 1024
    assert m.cache(2).size_bytes == 1024 * 1024
    assert not m.cache(2).shared
    assert m.last_level.shared
    with pytest.raises(ConfigError):
        m.cache(4)


def test_cache_spec_geometry():
    spec = CacheSpec(1, 1024, 64, 2, 2, 32.0)
    assert spec.n_sets == 8
    assert spec.capacity_doubles == 128


def test_cache_spec_rejects_bad_geometry():
    with pytest.raises(ConfigError):
        CacheSpec(1, 1000, 64, 2, 2, 32.0)  # size not divisible
    with pytest.raises(ConfigError):
        CacheSpec(1, 0, 64, 2, 2, 32.0)


def test_machine_rejects_unordered_levels():
    good = MachineSpec.small_test_machine()
    with pytest.raises(ConfigError):
        MachineSpec(
            name="bad",
            cores=1,
            freq_ghz=1.0,
            simd_freq_ghz=1.0,
            fma_ports=1,
            vector_lanes_f64=4,
            caches=tuple(reversed(good.caches)),
            mem_bandwidth_gbs=10.0,
            mem_latency_ns=100.0,
        )


def test_machine_rejects_bad_overlap():
    with pytest.raises(ConfigError):
        MachineSpec.small_test_machine().with_(overlap=1.5)


def test_with_returns_modified_copy():
    m = MachineSpec.small_test_machine()
    m2 = m.with_(cores=8)
    assert m2.cores == 8
    assert m.cores == 4
    assert m2.caches == m.caches


def test_small_test_machine_is_tiny():
    m = MachineSpec.small_test_machine()
    # small enough that a 100x100 matrix (80 KB) overflows every level
    assert m.last_level.size_bytes < 100 * 100 * 8
