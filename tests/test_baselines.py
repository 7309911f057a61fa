"""The unprotected baselines of the measured Fig. 2(a) sweep: FT-GEMM Ori
(the same loop nest with fault tolerance off, timed as ``BlockedGemm``)."""

import numpy as np
import pytest

from repro.core.config import FTGemmConfig
from repro.core.ftgemm import FTGemm
from repro.faults.injector import FaultInjector, InjectionPlan
from repro.faults.models import Additive
from repro.gemm.blocking import BlockingConfig
from repro.gemm.driver import BlockedGemm


def _ori():
    return FTGemm(FTGemmConfig.unprotected(blocking=BlockingConfig.small()))


def test_baseline_gemm_is_trusted_product(rng):
    a = rng.standard_normal((10, 8))
    b = rng.standard_normal((8, 12))
    c0 = rng.standard_normal((10, 12))
    expected = 2.0 * (a @ b) - c0
    out = BlockedGemm(BlockingConfig.small()).gemm(
        a, b, c0.copy(), alpha=2.0, beta=-1.0
    )
    np.testing.assert_allclose(out, expected, rtol=1e-12)
    result = _ori().gemm(a, b, c0.copy(), alpha=2.0, beta=-1.0)
    np.testing.assert_allclose(result.c, expected, rtol=1e-12)


def test_baseline_has_no_fault_tolerance(rng):
    a = rng.standard_normal((10, 10))
    inj = FaultInjector(
        InjectionPlan.single("microkernel", 0, model=Additive(magnitude=99.0))
    )
    result = _ori().gemm(a, a, injector=inj)
    assert not result.ft_enabled and result.detected == 0
    assert np.abs(result.c - a @ a).max() == pytest.approx(99.0)
