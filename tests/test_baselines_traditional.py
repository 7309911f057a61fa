"""The non-fused (classic) ABFT baseline."""

import numpy as np
import pytest

from repro.baselines.traditional_abft import TraditionalABFT
from repro.core.config import FTGemmConfig
from repro.core.ftgemm import FTGemm
from repro.faults.injector import FaultInjector, InjectionPlan
from repro.faults.models import Additive
from repro.gemm.blocking import BlockingConfig
from repro.util.errors import ConfigError


@pytest.fixture
def trad(small_config):
    return TraditionalABFT(small_config)


def test_correct_clean(trad, rng):
    a = rng.standard_normal((27, 22))
    b = rng.standard_normal((22, 31))
    result = trad.gemm(a, b)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-11)


def test_alpha_beta(trad, rng):
    a = rng.standard_normal((15, 11))
    b = rng.standard_normal((11, 18))
    c0 = rng.standard_normal((15, 18))
    result = trad.gemm(a, b, c0.copy(), alpha=2.0, beta=0.5)
    assert result.verified
    np.testing.assert_allclose(result.c, 2 * (a @ b) + 0.5 * c0, rtol=1e-11)


def test_detects_and_corrects_kernel_fault(trad, rng):
    a = rng.standard_normal((25, 20))
    b = rng.standard_normal((20, 25))
    inj = FaultInjector(
        InjectionPlan.single("microkernel", 6, model=Additive(magnitude=55.0))
    )
    result = trad.gemm(a, b, injector=inj)
    assert result.verified
    assert result.detected >= 1
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-10, atol=1e-10)


def test_pack_fault_recovered(trad, rng):
    a = rng.standard_normal((25, 20))
    b = rng.standard_normal((20, 25))
    inj = FaultInjector(
        InjectionPlan.single("pack_b", 0, model=Additive(magnitude=21.0))
    )
    result = trad.gemm(a, b, injector=inj)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-10, atol=1e-10)


def test_pays_extra_memory_where_fused_pays_none(small_config, rng):
    """The structural difference the whole paper is about, measured."""
    a = rng.standard_normal((30, 25))
    b = rng.standard_normal((25, 35))
    fused = FTGemm(small_config).gemm(a, b)
    classic = TraditionalABFT(small_config).gemm(a, b)
    assert fused.counters.ft_extra_bytes == 0
    # classic pays at least the dedicated A/B encode re-reads plus the
    # online verification sweeps over C
    assert classic.counters.ft_extra_bytes >= (
        a.nbytes + b.nbytes + fused.c.nbytes
    )
    # both produce the same numbers
    np.testing.assert_allclose(classic.c, fused.c, rtol=1e-12)


def test_rejects_unprotected_config():
    with pytest.raises(ConfigError):
        TraditionalABFT(FTGemmConfig.unprotected())


def test_counters_reset_per_call(trad, rng):
    a = rng.standard_normal((12, 12))
    trad.gemm(a, a)
    first = trad.counters.checksum_flops
    trad.gemm(a, a)
    assert trad.counters.checksum_flops == first
