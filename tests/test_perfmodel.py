"""End-to-end performance model: constants, timing, per-mode breakdowns."""

import pytest

from repro.gemm.blocking import BlockingConfig
from repro.perfmodel.constants import ModelConstants
from repro.perfmodel.gemm_model import MODES, GemmPerfModel
from repro.perfmodel.roofline import arithmetic_intensity, attainable_gflops, ridge_point
from repro.perfmodel.timing import TimingModel
from repro.simcpu.machine import MachineSpec
from repro.util.errors import ConfigError


@pytest.fixture
def machine():
    return MachineSpec.cascade_lake_w2255()


# ------------------------------------------------------------- constants
def test_constants_validated():
    with pytest.raises(ConfigError):
        ModelConstants(kernel_sustained_eff=0.0)
    with pytest.raises(ConfigError):
        ModelConstants(parallel_dram_eff=1.5)
    with pytest.raises(ConfigError):
        ModelConstants(barrier_seconds=-1.0)


def test_constants_with(machine):
    c = ModelConstants().with_(single_core_dram_gbs=20.0)
    assert c.single_core_dram_gbs == 20.0


# ---------------------------------------------------------------- timing
def test_timing_cycles(machine):
    t = TimingModel(machine)
    assert t.cycles_to_seconds(3.5e9) == pytest.approx(1.0)


def test_timing_bandwidth_serial_vs_parallel(machine):
    serial = TimingModel(machine, threads=1)
    parallel = TimingModel(machine, threads=10)
    assert serial.dram_bandwidth_gbs == ModelConstants().single_core_dram_gbs
    assert parallel.dram_bandwidth_gbs > serial.dram_bandwidth_gbs
    # socket-capped, not 10x a single core
    assert parallel.dram_bandwidth_gbs < 10 * serial.dram_bandwidth_gbs


def test_timing_combine_overlap(machine):
    t = TimingModel(machine)
    # overlap=0.95: the shorter leg contributes 5% residue
    assert t.combine(1.0, 0.4) == pytest.approx(1.0 + 0.05 * 0.4)
    assert t.combine(0.4, 1.0) == pytest.approx(1.0 + 0.05 * 0.4)


def test_timing_sync(machine):
    serial = TimingModel(machine, threads=1)
    assert serial.sync_seconds(100) == 0.0
    parallel = TimingModel(machine, threads=10)
    assert parallel.sync_seconds(10) > parallel.sync_seconds(1)


def test_timing_thread_validation(machine):
    with pytest.raises(ConfigError):
        TimingModel(machine, threads=11)
    with pytest.raises(ConfigError):
        TimingModel(machine, threads=0)


# ------------------------------------------------------------- the model
def test_all_modes_produce_breakdowns(machine):
    for mode in MODES:
        bd = GemmPerfModel(machine, mode=mode).breakdown(2048)
        assert bd.seconds > 0
        assert 0 < bd.gflops <= machine.peak_gflops_serial


def test_ori_near_but_below_peak(machine):
    bd = GemmPerfModel(machine, mode="ori").breakdown(8192)
    assert 0.85 * machine.peak_gflops_serial < bd.gflops < machine.peak_gflops_serial


def test_ft_overhead_in_paper_band(machine):
    """Serial fused overhead inside the poster's 1.17%-3.58% band."""
    ori = GemmPerfModel(machine, mode="ori")
    ft = GemmPerfModel(machine, mode="ft")
    for n in (2048, 4096, 6144, 8192, 10240):
        overhead = ft.breakdown(n).overhead_vs(ori.breakdown(n))
        assert 0.0117 <= overhead <= 0.0358, (n, overhead)


def test_parallel_faster_than_serial(machine):
    serial = GemmPerfModel(machine, mode="ft", threads=1).gflops(4096)
    parallel = GemmPerfModel(machine, mode="ft", threads=10).gflops(4096)
    assert parallel > 7 * serial  # decent scaling at this size


def test_parallel_small_sizes_lose_efficiency(machine):
    model = GemmPerfModel(machine, mode="ori", threads=10)
    eff_small = model.gflops(512) / machine.peak_gflops_parallel
    eff_big = model.gflops(8192) / machine.peak_gflops_parallel
    assert eff_small < eff_big


def test_rectangular_shapes(machine):
    bd = GemmPerfModel(machine).breakdown(1024, 2048, 512)
    assert bd.m == 1024 and bd.n == 2048 and bd.k == 512
    assert bd.flops == 2.0 * 1024 * 2048 * 512


def test_checksum_flops_zero_for_ori(machine):
    assert GemmPerfModel(machine, mode="ori").breakdown(1024).checksum_flops == 0


def test_more_threads_than_rows_still_prices(machine):
    """5 rows over 10 threads: idle threads, worst thread owns one row."""
    bd = GemmPerfModel(machine, threads=10).breakdown(5)
    assert bd.seconds > 0


def test_invalid_mode_rejected(machine):
    with pytest.raises(ConfigError):
        GemmPerfModel(machine, mode="turbo")


# --------------------------------------------------------------- roofline
def test_roofline_basics(machine):
    assert arithmetic_intensity(100.0, 50.0) == 2.0
    with pytest.raises(ConfigError):
        arithmetic_intensity(100.0, 0.0)


def test_roofline_regimes(machine):
    ridge = ridge_point(machine)
    # a checksum sweep (1/8 flop/byte) is deep in the bandwidth regime
    assert 0.125 < ridge / 10
    low = attainable_gflops(0.125, machine)
    assert low == pytest.approx(0.125 * ModelConstants().single_core_dram_gbs)
    # GEMM intensity is far right: compute-bound at peak
    high = attainable_gflops(1000.0, machine)
    assert high == machine.peak_gflops_serial


def test_roofline_parallel_bandwidth(machine):
    serial_ridge = ridge_point(machine, threads=1)
    parallel_ridge = ridge_point(machine, threads=10)
    # 10x the compute but <10x the bandwidth: the ridge moves right
    assert parallel_ridge > serial_ridge
