"""End-to-end integration scenarios across subsystems."""

import numpy as np
import pytest

from repro import (
    FTGemm,
    FTGemmConfig,
    ParallelFTGemm,
)
from repro.baselines import TraditionalABFT
from repro.bench.workloads import WORKLOADS, adjacency
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.injector import FaultInjector, InjectionPlan
from repro.faults.models import BitFlip
from repro.gemm.blocking import BlockingConfig
from repro.gemm.driver import BlockedGemm
from repro.simcpu.cache import CacheHierarchy
from repro.simcpu.machine import MachineSpec
from repro.simcpu.tlb import TLBSim


@pytest.fixture
def cfg():
    return FTGemmConfig(blocking=BlockingConfig.small())


def test_public_api_roundtrip(rng):
    """The README quickstart, verbatim."""
    a, b = rng.standard_normal((50, 30)), rng.standard_normal((30, 40))
    result = FTGemm().gemm(a, b)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-10)


def test_every_driver_agrees_on_every_workload(cfg):
    """Serial FT, parallel FT, classic ABFT, plain blocked, oracle — five
    independent code paths, one answer."""
    for workload in WORKLOADS.values():
        a, b = workload.operands(26, 22, 19, seed=21)
        oracle = a @ b
        serial = FTGemm(cfg).gemm(a, b).c
        parallel = ParallelFTGemm(cfg, n_threads=3).gemm(a, b).c
        classic = TraditionalABFT(cfg).gemm(a, b).c
        plain = BlockedGemm(cfg.blocking).gemm(a, b)
        scale = max(1.0, np.abs(oracle).max())
        for name, out in [
            ("serial", serial), ("parallel", parallel),
            ("classic", classic), ("plain", plain),
        ]:
            assert np.abs(out - oracle).max() < 1e-9 * scale, (
                workload.name, name,
            )


def test_serial_and_parallel_same_campaign_outcomes(cfg):
    """Identical campaigns through both drivers: all results correct."""
    campaign = CampaignConfig(m=30, n=26, k=22, runs=2, errors_per_call=3, seed=9)
    serial = run_campaign(campaign, FTGemm(cfg))
    parallel = run_campaign(
        campaign, ParallelFTGemm(cfg, n_threads=3)
    )
    assert serial.all_correct and parallel.all_correct
    assert serial.injected == parallel.injected == 6


def test_storm_survival_bitflips(cfg, rng):
    """A heavy storm of exponent bit flips across all kernel sites."""
    a = rng.standard_normal((40, 32))
    b = rng.standard_normal((32, 36))
    from repro.faults.campaign import plan_for_gemm

    plan = plan_for_gemm(
        40, 36, 32, cfg.blocking, 12, model=BitFlip(bit_range=(45, 62)), seed=3
    )
    result = FTGemm(cfg).gemm(a, b, injector=FaultInjector(plan))
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-9, atol=1e-9)


def test_instrumented_ft_gemm_through_cache_and_tlb(cfg, rng):
    """FT driver + cache hierarchy + TLB, all active at once."""
    machine = MachineSpec.small_test_machine()
    hierarchy = CacheHierarchy.from_machine(machine)
    ft = FTGemm(cfg, sink=hierarchy)
    a = rng.standard_normal((24, 20))
    b = rng.standard_normal((20, 28))
    result = ft.gemm(a, b)
    assert result.verified
    assert hierarchy.mem_lines > 0

    tlb = TLBSim.from_machine(machine)
    ft_tlb = FTGemm(cfg, sink=tlb)
    result = ft_tlb.gemm(a, b)
    assert result.verified
    assert tlb.counters.accesses > 0


def test_baselines_wrong_ft_right_under_same_fault(cfg, rng):
    """The paper's Fig 2(c) narrative as a test: same fault model, the
    unprotected baselines (FT-GEMM Ori and the BLAS product) silently
    corrupt, FT-GEMM stays correct."""
    a = rng.standard_normal((20, 20))
    b = rng.standard_normal((20, 20))
    expected = a @ b
    inj = FaultInjector(InjectionPlan.single("microkernel", 0, seed=2))
    ori = FTGemm(FTGemmConfig.unprotected(blocking=cfg.blocking))
    result = ori.gemm(a, b, injector=inj)
    assert inj.n_injected == 1 and not result.ft_enabled
    assert np.abs(result.c - expected).max() > 1e-6  # silently wrong
    inj = FaultInjector(InjectionPlan.single("microkernel", 0, seed=2))
    blas = a @ b
    inj.visit("microkernel", blas)  # the site a BLAS call cannot guard
    assert np.abs(blas - expected).max() > 1e-6  # silently wrong
    inj = FaultInjector(InjectionPlan.single("microkernel", 0, seed=2))
    result = FTGemm(cfg).gemm(a, b, injector=inj)
    assert result.verified
    np.testing.assert_allclose(result.c, expected, rtol=1e-9, atol=1e-9)


def test_graph_walk_counts_integral_under_faults(cfg):
    """Integer workload: protected A@A keeps exact integer walk counts.

    The fault is an off-by-one — the worst kind for a counting workload,
    and guaranteed above the detection threshold (a random bit flip can hit
    a zero entry and produce a harmless sub-threshold subnormal instead)."""
    from repro.faults.models import Additive

    adj = adjacency(40, p=0.15, seed=1)
    inj = FaultInjector(
        InjectionPlan.single("microkernel", 4, model=Additive(magnitude=1.0), seed=8)
    )
    result = FTGemm(cfg).gemm(adj, adj, injector=inj)
    assert result.verified
    assert result.detected >= 1
    np.testing.assert_array_equal(result.c, adj @ adj)


def test_figure_pipeline_end_to_end(tmp_path):
    """Harness -> builders -> real campaigns -> files."""
    from repro.bench.harness import ExperimentRunner

    runner = ExperimentRunner(tmp_path)
    fig = runner.run("reliability", rates_per_minute=(0, 240), n=64, runs=2)
    assert "all results correct" in fig.observations["reliability"]
    assert (tmp_path / "reliability.json").exists()
