"""Macro kernel: block contraction, tile strikes, fused reference
checksums, counters."""

import numpy as np
import pytest

from repro.faults.injector import FaultInjector, InjectionPlan
from repro.faults.models import Additive
from repro.gemm.macrokernel import macro_kernel
from repro.gemm.packing import pack_a, pack_b
from repro.simcpu.counters import Counters
from repro.util.errors import ShapeError


@pytest.fixture
def rng():
    return np.random.default_rng(2)


def run_macro(rng, mlen=11, nlen=13, k=9, mr=4, nr=4, **kwargs):
    a = rng.standard_normal((mlen, k))
    b = rng.standard_normal((k, nlen))
    c = rng.standard_normal((mlen, nlen))
    c0 = c.copy()
    macro_kernel(pack_a(a, mr), pack_b(b, nr), c, **kwargs)
    return a, b, c0, c


def test_macro_kernel_correct_ragged(rng):
    a, b, c0, c = run_macro(rng)
    np.testing.assert_allclose(c, c0 + a @ b, rtol=1e-12)


def test_macro_kernel_exact_tiles(rng):
    a, b, c0, c = run_macro(rng, mlen=8, nlen=8, k=4)
    np.testing.assert_allclose(c, c0 + a @ b, rtol=1e-12)


def test_macro_kernel_collects_reference_checksums(rng):
    mlen, nlen = 11, 13
    row_ref = np.zeros(nlen)
    col_ref = np.zeros(mlen)
    a, b, c0, c = run_macro(rng, row_ref=row_ref, col_ref=col_ref)
    np.testing.assert_allclose(row_ref, c.sum(axis=0), rtol=1e-12)
    np.testing.assert_allclose(col_ref, c.sum(axis=1), rtol=1e-12)


def test_refs_must_come_together(rng):
    with pytest.raises(ShapeError, match="together"):
        run_macro(rng, row_ref=np.zeros(13))


def test_refs_shape_checked(rng):
    with pytest.raises(ShapeError):
        run_macro(rng, row_ref=np.zeros(5), col_ref=np.zeros(11))


def test_block_extent_mismatch(rng):
    a = rng.standard_normal((8, 4))
    b = rng.standard_normal((4, 8))
    with pytest.raises(ShapeError, match="does not match"):
        macro_kernel(pack_a(a, 4), pack_b(b, 4), np.zeros((7, 8)))


def test_depth_mismatch(rng):
    a = rng.standard_normal((8, 4))
    b = rng.standard_normal((5, 8))
    with pytest.raises(ShapeError, match="depths"):
        macro_kernel(pack_a(a, 4), pack_b(b, 4), np.zeros((8, 8)))


def _every_tile_injector(n_tiles, magnitude=100.0):
    plan = InjectionPlan(
        schedule={"microkernel": tuple(range(n_tiles))},
        model=Additive(magnitude=magnitude),
    )
    return FaultInjector(plan)


def test_injector_visits_every_tile(rng):
    """Each M_R x N_R tile of the block is one micro-kernel visit, numbered
    A-panel major; ragged edge tiles are their valid extent."""
    injector = _every_tile_injector(12)
    a, b, c0, c = run_macro(rng, mlen=11, nlen=13, mr=4, nr=4,
                            injector=injector)
    assert [r.invocation for r in injector.records] == list(range(12))
    assert injector.invocations("microkernel") == 12
    struck = {(4 * (r.invocation // 4) + r.index[0],
               4 * (r.invocation % 4) + r.index[1]) for r in injector.records}
    diff = np.argwhere(np.abs(c - (c0 + a @ b)) > 1.0)
    assert {tuple(int(i) for i in d) for d in diff} == struck
    last = injector.records[-1]  # tile (2, 3) is the 3 x 1 corner
    assert last.index[0] < 3 and last.index[1] == 0


def test_tile_strike_lands_in_refs(rng):
    """A micro-kernel strike must be visible to the fused reference
    checksums (the injector visits before collection) — the property
    detection relies on."""
    row_ref = np.zeros(8)
    col_ref = np.zeros(8)
    injector = _every_tile_injector(1)
    a, b, c0, c = run_macro(
        rng, mlen=8, nlen=8, row_ref=row_ref, col_ref=col_ref,
        injector=injector,
    )
    i, j = injector.records[0].index
    # refs match the *corrupted* C exactly
    np.testing.assert_allclose(row_ref, c.sum(axis=0), rtol=1e-12)
    assert abs(c[i, j] - (c0 + a @ b)[i, j] - 100.0) < 1e-9


def test_counters(rng):
    counters = Counters()
    run_macro(rng, mlen=8, nlen=8, k=5, counters=counters)
    assert counters.microkernel_calls == 4
    assert counters.fma_flops == 4 * 2 * 4 * 4 * 5


def test_counters_checksum_flops_only_when_collecting(rng):
    counters = Counters()
    run_macro(rng, mlen=8, nlen=8, counters=counters)
    assert counters.checksum_flops == 0
    counters2 = Counters()
    run_macro(rng, mlen=8, nlen=8, counters=counters2,
              row_ref=np.zeros(8), col_ref=np.zeros(8))
    assert counters2.checksum_flops == 2 * 8 * 8


def test_nan_propagates_silently(rng):
    """Fail-continue: non-finite values flow through without warnings."""
    import warnings

    a = rng.standard_normal((8, 4))
    a[0, 0] = np.nan
    b = rng.standard_normal((4, 8))
    c = np.zeros((8, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        macro_kernel(pack_a(a, 4), pack_b(b, 4), c)
    assert np.isnan(c[0]).all()
    assert np.isfinite(c[4:]).all()
