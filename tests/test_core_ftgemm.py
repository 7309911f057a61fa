"""Serial FT-GEMM: clean-path correctness and fused accounting."""

import numpy as np
import pytest

from repro.core.config import FTGemmConfig
from repro.core.ftgemm import FTGemm
from repro.faults.injector import FaultInjector, InjectionPlan
from repro.faults.models import Additive
from repro.gemm.blocking import BlockingConfig
from repro.gemm.driver import BlockedGemm
from repro.gemm.reference import gemm_reference


@pytest.fixture
def ft(small_config):
    return FTGemm(small_config)


@pytest.mark.parametrize(
    "m,n,k",
    [(8, 12, 8), (37, 29, 23), (1, 1, 1), (5, 40, 17), (40, 5, 17), (16, 24, 3)],
)
def test_matches_oracle(ft, rng, m, n, k):
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    result = ft.gemm(a, b)
    assert result.verified
    assert result.clean_first_pass
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (2.0, 1.0), (-0.5, 0.75), (3.0, 0.0)])
def test_alpha_beta(ft, rng, alpha, beta):
    a = rng.standard_normal((19, 13))
    b = rng.standard_normal((13, 17))
    c0 = rng.standard_normal((19, 17))
    c = c0.copy()
    result = ft.gemm(a, b, c, alpha=alpha, beta=beta)
    assert result.c is c  # in-place contract
    assert result.verified
    np.testing.assert_allclose(
        result.c, gemm_reference(a, b, c0, alpha=alpha, beta=beta),
        rtol=1e-11, atol=1e-11,
    )


def test_no_false_positives_on_hard_workloads(small_config):
    """Ill-scaled and cancellation-heavy inputs must never trip verification
    — the central property of the tolerance theory."""
    from repro.bench.workloads import WORKLOADS

    ft = FTGemm(small_config)
    for workload in WORKLOADS.values():
        a, b = workload.operands(31, 27, 22, seed=13)
        result = ft.gemm(a, b)
        assert result.verified, workload.name
        assert result.clean_first_pass, workload.name
        assert result.detected == 0, workload.name


def test_ft_disabled_same_numbers_no_reports(small_config, rng):
    a = rng.standard_normal((23, 21))
    b = rng.standard_normal((21, 19))
    ori = FTGemm(small_config.with_(enable_ft=False))
    result = ori.gemm(a, b)
    assert not result.ft_enabled
    assert result.reports == []
    assert result.counters.checksum_flops == 0
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-11)


def test_matches_plain_blocked_bitwise(small_config, rng):
    """Fusing checksum ops must not change the GEMM arithmetic at all."""
    a = rng.standard_normal((25, 18))
    b = rng.standard_normal((18, 31))
    ft_out = FTGemm(small_config).gemm(a, b).c
    plain_out = BlockedGemm(small_config.blocking).gemm(a, b)
    np.testing.assert_array_equal(ft_out, plain_out)


def test_counters_fused_accounting(ft, rng):
    a = rng.standard_normal((24, 16))
    b = rng.standard_normal((16, 24))
    result = ft.gemm(a, b)
    counters = result.counters
    assert counters.fma_flops > 0
    assert counters.checksum_flops > 0
    # the fused scheme's defining property: zero extra FT memory traffic
    assert counters.ft_extra_bytes == 0
    # checksum work is O(n^2)-ish, far below the O(n^3) product
    assert counters.checksum_flops < 0.75 * counters.fma_flops
    assert counters.verifications == 1


def test_counters_reset_per_call(ft, rng):
    a = rng.standard_normal((10, 10))
    ft.gemm(a, a)
    first = ft.counters.fma_flops
    ft.gemm(a, a)
    assert ft.counters.fma_flops == first  # not accumulated across calls


def test_instance_reusable(ft, rng):
    for seed in range(3):
        r = np.random.default_rng(seed)
        a = r.standard_normal((15, 12))
        b = r.standard_normal((12, 18))
        result = ft.gemm(a, b)
        assert result.verified
        np.testing.assert_allclose(result.c, a @ b, rtol=1e-11)


def test_eager_mode_clean_run(rng):
    cfg = FTGemmConfig(blocking=BlockingConfig.small(), verify_mode="eager")
    ft = FTGemm(cfg)
    a = rng.standard_normal((20, 33))  # several K-blocks at kc=8
    b = rng.standard_normal((33, 20))
    result = ft.gemm(a, b)
    assert result.verified
    # eager probes ran (extra verifications beyond the final one)
    assert result.counters.verifications > 1
    assert result.counters.ft_extra_bytes > 0  # the probe passes cost memory


def test_eager_mode_flags_early_corruption(rng):
    cfg = FTGemmConfig(blocking=BlockingConfig.small(), verify_mode="eager")
    ft = FTGemm(cfg)
    a = rng.standard_normal((20, 33))
    b = rng.standard_normal((33, 20))

    from repro.faults.injector import FaultInjector, InjectionPlan
    from repro.faults.models import Additive

    inj = FaultInjector(
        InjectionPlan.single("microkernel", 0, model=Additive(magnitude=40.0))
    )
    result = ft.gemm(a, b, injector=inj)
    assert result.verified
    eager = [r for r in result.reports if r.round_index < 0]
    assert eager, "eager probe should have flagged the first-K-block fault"
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-10, atol=1e-10)


def test_default_blocking_large_call(rng):
    """Paper-sized blocking on a matrix smaller than one block."""
    ft = FTGemm()  # MC=192, KC=384, NC=9216
    a = rng.standard_normal((100, 80))
    b = rng.standard_normal((80, 120))
    result = ft.gemm(a, b)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-11)


def test_transpose_flags(small_config, rng):
    """The BLAS op() interface on the serial driver."""
    a = rng.standard_normal((11, 19))
    b = rng.standard_normal((23, 11))
    ft = FTGemm(small_config)
    result = ft.gemm(a, b, trans_a=True, trans_b=True)
    assert result.verified
    np.testing.assert_allclose(result.c, a.T @ b.T, rtol=1e-11)
    result = ft.gemm(a, a, trans_b=True)
    np.testing.assert_allclose(result.c, a @ a.T, rtol=1e-11)


def test_transpose_under_injection(small_config, rng):
    a = rng.standard_normal((15, 21))
    inj = FaultInjector(
        InjectionPlan.single("microkernel", 4, model=Additive(magnitude=30.0))
    )
    result = FTGemm(small_config).gemm(a, a, trans_a=True, injector=inj)
    assert result.verified
    np.testing.assert_allclose(result.c, a.T @ a, rtol=1e-10, atol=1e-10)
