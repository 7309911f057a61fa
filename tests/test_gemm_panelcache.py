"""Panel cache: encode equivalence, driver integration, keying, LRU,
invalidation, and the distrust-the-cache re-verification."""

import numpy as np
import pytest

from repro.core.config import FTGemmConfig
from repro.core.ftgemm import FTGemm
from repro.core.parallel import ParallelFTGemm
from repro.faults.injector import FaultInjector, InjectionPlan
from repro.faults.models import BitFlip
from repro.gemm.blocking import BlockingConfig
from repro.gemm.packing import pack_b, panels_from_cols
from repro.gemm.panelcache import (
    PackedB,
    PanelCache,
    encode_b,
    fingerprint_of,
)
from repro.gemm.reference import gemm_reference
from repro.util.errors import ConfigError, ShapeError


@pytest.fixture
def blocking():
    return BlockingConfig.small(mr=4, nr=4)


@pytest.fixture
def config(blocking):
    return FTGemmConfig(blocking=blocking)


# ------------------------------------------------------------- encode_b
def test_encode_matches_pack_b(rng, blocking):
    """The cached panels are bit-identical to what pack_b would build for
    every (p, j) block, including ragged edges."""
    k, n = 23, 29
    b = rng.standard_normal((k, n))
    entry = encode_b(b, blocking)
    for p_idx, p0 in enumerate(range(0, k, blocking.kc)):
        plen = min(blocking.kc, k - p0)
        for j_idx, j0 in enumerate(range(0, n, blocking.nc)):
            jlen = min(blocking.nc, n - j0)
            expected = pack_b(
                b[p0 : p0 + plen, j0 : j0 + jlen], blocking.nr
            )
            blk = entry.block(p_idx, j_idx)
            np.testing.assert_array_equal(
                blk.packed.cols(), expected.cols()
            )
            np.testing.assert_array_equal(
                np.abs(expected.cols()), blk.abs_cols
            )
            b_blk = b[p0 : p0 + plen, j0 : j0 + jlen]
            np.testing.assert_array_equal(blk.bc, b_blk.sum(axis=1))
            np.testing.assert_array_equal(
                blk.abs_bc, np.abs(b_blk).sum(axis=1)
            )
    assert entry.verify()


def test_encode_estimate_is_exact(rng, blocking):
    b = rng.standard_normal((23, 29))
    entry = encode_b(b, blocking)
    assert entry.nbytes == PackedB.estimate_nbytes(23, 29, blocking)


def test_panels_from_cols_is_zero_copy(rng):
    cols = rng.standard_normal((6, 8))
    packed = panels_from_cols(cols, 4, valid=7)
    cols[2, 5] = 123.0
    assert packed.cols()[2, 5] == 123.0
    assert packed.panel(1)[2, 1] == 123.0


# ------------------------------------------------- driver integration
def test_gemm_with_packed_b_bit_identical(rng, config, blocking):
    """A cached call must produce the same bits as the uncached call and
    stay fully verified."""
    a = rng.standard_normal((17, 23))
    b = rng.standard_normal((23, 29))
    entry = encode_b(b, blocking)
    plain = FTGemm(config).gemm(a, b)
    cached = FTGemm(config).gemm(a, b, packed_b=entry)
    assert cached.verified
    assert cached.clean_first_pass
    np.testing.assert_array_equal(cached.c, plain.c)


def test_gemm_with_packed_b_skips_pack_phase(rng, config, blocking):
    a = rng.standard_normal((9, 23))
    b = rng.standard_normal((23, 29))
    driver = FTGemm(config)
    driver.gemm(a, b)
    packed_bytes_plain = driver.counters.pack_b_bytes
    assert packed_bytes_plain > 0
    driver2 = FTGemm(config)
    driver2.gemm(a, b, packed_b=encode_b(b, blocking))
    assert driver2.counters.pack_b_bytes == 0
    # the fused replay is cheaper than the full fused encode
    assert (
        driver2.counters.checksum_flops < driver.counters.checksum_flops
    )


def test_gemm_with_packed_b_weighted_scheme(rng, blocking):
    config = FTGemmConfig(blocking=blocking, checksum_scheme="weighted")
    a = rng.standard_normal((11, 23))
    b = rng.standard_normal((23, 29))
    plain = FTGemm(config).gemm(a, b)
    cached = FTGemm(config).gemm(a, b, packed_b=encode_b(b, blocking))
    assert cached.verified
    np.testing.assert_array_equal(cached.c, plain.c)


def test_gemm_with_packed_b_alpha_beta(rng, config, blocking):
    a = rng.standard_normal((13, 23))
    b = rng.standard_normal((23, 29))
    c0 = rng.standard_normal((13, 29))
    c = c0.copy()
    result = FTGemm(config).gemm(
        a, b, c, alpha=-0.5, beta=0.75, packed_b=encode_b(b, blocking)
    )
    assert result.c is c
    assert result.verified
    np.testing.assert_allclose(
        result.c,
        gemm_reference(a, b, c0, alpha=-0.5, beta=0.75),
        rtol=1e-11,
        atol=1e-11,
    )


def test_packed_b_with_trans_b_rejected(rng, config, blocking):
    a = rng.standard_normal((9, 23))
    b = rng.standard_normal((29, 23))
    entry = encode_b(np.ascontiguousarray(b.T), blocking)
    with pytest.raises(ConfigError):
        FTGemm(config).gemm(a, b, trans_b=True, packed_b=entry)


def test_packed_b_geometry_mismatch_rejected(rng, config, blocking):
    a = rng.standard_normal((9, 23))
    b = rng.standard_normal((23, 29))
    wrong = encode_b(b, BlockingConfig.small(mr=4, nr=2))
    with pytest.raises(ShapeError):
        FTGemm(config).gemm(a, b, packed_b=wrong)


def test_injector_bypasses_cached_b(rng, config, blocking):
    """A faulted attempt must exercise the full pack + encode pipeline —
    the injection sites assume it — so the driver declines the cache."""
    a = rng.standard_normal((9, 23))
    b = rng.standard_normal((23, 29))
    plan = InjectionPlan.single(
        "pack_b", 0, model=BitFlip(bit=51), seed=5
    )
    driver = FTGemm(config)
    result = driver.gemm(
        a, b, packed_b=encode_b(b, blocking), injector=FaultInjector(plan)
    )
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-9, atol=1e-9)
    # the cached grid was declined: the pack phase ran (and got injected)
    assert driver.counters.pack_b_bytes > 0


def test_parallel_driver_ignores_packed_b(rng, blocking):
    driver = ParallelFTGemm(FTGemmConfig(blocking=blocking), n_threads=2)
    a = rng.standard_normal((16, 23))
    b = rng.standard_normal((23, 29))
    result = driver.gemm(a, b, packed_b=encode_b(b, blocking))
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-11, atol=1e-11)


# ------------------------------------------------------------ PanelCache
def test_cache_hit_and_miss_accounting(rng, blocking):
    cache = PanelCache(1 << 24)
    b = rng.standard_normal((23, 29))
    first = cache.acquire(b, blocking)
    again = cache.acquire(b, blocking)
    assert first is again
    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 1
    assert stats["entries"] == 1
    assert cache.bytes_used == first.nbytes
    assert cache.recent_hit_ratio() == 0.5


def test_cache_eviction_exactly_at_budget_boundary(rng, blocking):
    """Two entries fitting the budget exactly stay resident; one more
    byte of demand evicts exactly the LRU entry."""
    k, n = 16, 20
    per_entry = PackedB.estimate_nbytes(k, n, blocking)
    cache = PanelCache(2 * per_entry)
    b1 = rng.standard_normal((k, n))
    b2 = rng.standard_normal((k, n))
    b3 = rng.standard_normal((k, n))
    cache.acquire(b1, blocking)
    cache.acquire(b2, blocking)
    # bytes == budget: no eviction at the exact boundary
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 0
    assert cache.bytes_used == 2 * per_entry
    # refresh b1's recency so b2 is the LRU victim
    cache.acquire(b1, blocking)
    cache.acquire(b3, blocking)
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 1
    assert cache.peek(b1, blocking) is not None
    assert cache.peek(b2, blocking) is None
    assert cache.peek(b3, blocking) is not None


def test_cache_oversize_entry_refused(rng, blocking):
    k, n = 16, 20
    cache = PanelCache(PackedB.estimate_nbytes(k, n, blocking) - 1)
    assert cache.acquire(rng.standard_normal((k, n)), blocking) is None
    assert len(cache) == 0
    assert cache.stats()["oversize"] == 1


def test_cache_fingerprint_catches_sampled_mutation(rng, blocking):
    """Mutating an element on the fingerprint grid invalidates the entry
    on the next lookup — no stale reuse."""
    b = rng.standard_normal((23, 29))
    cache = PanelCache(1 << 24)
    first = cache.acquire(b, blocking)
    b[0, 0] += 1.0  # corner: always sampled
    second = cache.acquire(b, blocking)
    assert second is not first
    assert cache.stats()["invalidations"] == 1
    np.testing.assert_array_equal(second.block(0, 0).packed.cols()[0, 0], b[0, 0])


def test_cache_explicit_invalidate_for_unsampled_mutation(rng, blocking):
    """A mutation that dodges the sample grid needs invalidate() — the
    documented authoritative path — after which the rebuild sees the new
    values."""
    b = rng.standard_normal((40, 40))
    fp_before = fingerprint_of(b)
    cache = PanelCache(1 << 24)
    stale = cache.acquire(b, blocking)
    b[1, 1] += 1.0  # 40x40 grid samples every ~5.6th index; (1,1) is off it
    assert fingerprint_of(b) == fp_before, "mutation must dodge the grid"
    assert cache.invalidate(b) == 1
    assert cache.stats()["invalidations"] == 1
    rebuilt = cache.acquire(b, blocking)
    assert rebuilt is not stale
    np.testing.assert_array_equal(
        rebuilt.block(0, 0).packed.cols()[1, 1], b[1, 1]
    )


def test_cache_reverify_catches_resident_corruption(rng, blocking):
    """Distrust-the-cache: corrupting a resident panel between requests is
    caught at the next admission and the entry is rebuilt from source."""
    b = rng.standard_normal((23, 29))
    cache = PanelCache(1 << 24)
    entry = cache.acquire(b, blocking)
    entry.psets[0].stack[0, 0] += 2.0 ** -20  # silent resident bit rot
    assert not entry.verify()
    fresh = cache.acquire(b, blocking)
    assert fresh is not entry
    assert fresh.verify()
    assert cache.stats()["reverify_failed"] == 1
    # and the rebuilt entry serves a correct, verified call
    config = FTGemmConfig(blocking=blocking)
    a = rng.standard_normal((9, 23))
    result = FTGemm(config).gemm(a, b, packed_b=fresh)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-11, atol=1e-11)


def test_cache_touch_refreshes_recency(rng, blocking):
    k, n = 16, 20
    per_entry = PackedB.estimate_nbytes(k, n, blocking)
    cache = PanelCache(2 * per_entry)
    b1 = rng.standard_normal((k, n))
    b2 = rng.standard_normal((k, n))
    cache.acquire(b1, blocking)
    cache.acquire(b2, blocking)
    assert cache.touch(id(b1))  # b1 becomes most-recent
    cache.acquire(rng.standard_normal((k, n)), blocking)
    assert cache.peek(b1, blocking) is not None
    assert cache.peek(b2, blocking) is None
    assert not cache.touch(id(b2))


def test_cache_budget_validation():
    with pytest.raises(ConfigError):
        PanelCache(0)
