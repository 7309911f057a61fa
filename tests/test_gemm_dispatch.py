"""The block macro kernel against the per-tile reference, the injected
schedule, and the workspace arena.

The contract under test: the one-contraction macro kernel is
observationally identical to the per-tile loop it replaced — same C
(allclose), same checksum references, same counter totals, and the same
strikes for the same plan. The per-tile loop lives on here as the
reference (``tile_macro_kernel``); ``mode="tile"`` patches it into every
driver. The arena tests pin the zero-allocation property: once the
workspace exists, the loop nest packs into it without a single fresh
``np.zeros``.
"""

import numpy as np
import pytest

import repro.core.ftgemm as ftgemm_mod
import repro.core.parallel as parallel_mod
import repro.gemm.driver as driver_mod
import repro.gemm.packing as packing
from repro.core.config import FTGemmConfig
from repro.core.ftgemm import FTGemm
from repro.core.parallel import ParallelFTGemm
from repro.faults.campaign import plan_for_gemm, site_invocation_counts_parallel
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.faults.models import BitFlip, StuckBit
from repro.gemm.blocking import BlockingConfig
from repro.gemm.driver import BlockedGemm
from repro.gemm.macrokernel import macro_kernel, tile_flops
from repro.gemm.packing import pack_a, pack_b
from repro.gemm.reference import gemm_reference
from repro.simcpu.counters import Counters
from repro.tune.db import TunedConfig

COUNTER_FIELDS = (
    "fma_flops",
    "checksum_flops",
    "loads_bytes",
    "stores_bytes",
    "pack_a_bytes",
    "pack_b_bytes",
    "microkernel_calls",
)

SHAPES = [
    (8, 12, 8),     # exact multiples of every block size
    (37, 29, 23),   # ragged everywhere
    (5, 40, 17),    # n spans multiple NC blocks (exercises Ã reuse)
    (40, 5, 17),    # m spans multiple MC blocks
    (1, 1, 1),      # degenerate
]


def _counters_dict(counters: Counters) -> dict[str, int]:
    return {name: getattr(counters, name) for name in COUNTER_FIELDS}


def tile_macro_kernel(
    packed_a, packed_b, c_block, *,
    row_ref=None, col_ref=None, row_ref_w=None, col_ref_w=None,
    row_weights=None, col_weights=None,
    injector=NULL_INJECTOR, tid=None, counters=None, tracer=None,
    trace_args=None,
):
    """The per-tile macro kernel, kept as the reference: one micro-kernel
    update, injector visit and checksum accumulation per M_R x N_R tile, in
    (A-panel, B-panel) order."""
    mr, nr, depth = packed_a.r, packed_b.r, packed_a.depth
    with np.errstate(invalid="ignore", over="ignore"):
        for ia in range(packed_a.n_panels):
            i0, tm = ia * mr, packed_a.panel_extent(ia)
            for jb in range(packed_b.n_panels):
                j0, tn = jb * nr, packed_b.panel_extent(jb)
                tile = c_block[i0 : i0 + tm, j0 : j0 + tn]
                tile += (packed_a.panel(ia).T @ packed_b.panel(jb))[:tm, :tn]
                injector.visit("microkernel", tile, tid=tid)
                if row_ref is not None:
                    row_ref[j0 : j0 + tn] += tile.sum(axis=0)
                    col_ref[i0 : i0 + tm] += tile.sum(axis=1)
                if row_ref_w is not None:
                    row_ref_w[j0 : j0 + tn] += row_weights[i0 : i0 + tm] @ tile
                    col_ref_w[i0 : i0 + tm] += tile @ col_weights[j0 : j0 + tn]
                if counters is not None:
                    counters.microkernel_calls += 1
                    counters.fma_flops += tile_flops(mr, nr, depth)
                    if row_ref is not None:
                        counters.checksum_flops += 2 * tm * tn
                    if row_ref_w is not None:
                        counters.checksum_flops += 4 * tm * tn


def use_mode(monkeypatch, mode):
    """``"tile"`` runs every driver through the per-tile reference;
    ``"batched"`` leaves the program's block kernel in place."""
    if mode == "tile":
        for mod in (driver_mod, ftgemm_mod, parallel_mod):
            monkeypatch.setattr(mod, "macro_kernel", tile_macro_kernel)


# --------------------------------------------------- kernel-level equivalence


def test_macro_kernels_agree_on_one_block(rng):
    packed_a = pack_a(rng.standard_normal((13, 9)), 4)
    packed_b = pack_b(rng.standard_normal((9, 11)), 4)
    weights_m = np.arange(1.0, 14.0)
    weights_n = np.arange(1.0, 12.0)
    refs = {}
    for kernel in (tile_macro_kernel, macro_kernel):
        c = np.zeros((13, 11))
        row = np.zeros(11)
        col = np.zeros(13)
        row_w = np.zeros(11)
        col_w = np.zeros(13)
        counters = Counters()
        kernel(
            packed_a, packed_b, c,
            row_ref=row, col_ref=col,
            row_ref_w=row_w, col_ref_w=col_w,
            row_weights=weights_m, col_weights=weights_n,
            counters=counters,
        )
        refs[kernel.__name__] = (c, row, col, row_w, col_w, counters)
    tile, batched = refs["tile_macro_kernel"], refs["macro_kernel"]
    for got, want in zip(batched[:5], tile[:5]):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert _counters_dict(batched[5]) == _counters_dict(tile[5])


def test_batched_macro_kernel_has_no_tile_hook():
    # tile faults arrive through the injector, not through a per-tile hook
    import inspect

    assert "on_tile" not in inspect.signature(macro_kernel).parameters


# --------------------------------------------------- driver-level equivalence


def _run_modes(monkeypatch, run):
    """``run()`` once per mode (tile reference first), results by mode."""
    runs = {}
    for mode in ("tile", "batched"):
        with monkeypatch.context() as patch:
            use_mode(patch, mode)
            runs[mode] = run()
    return runs


@pytest.mark.parametrize("m,n,k", SHAPES)
def test_blocked_gemm_modes_equivalent(rng, monkeypatch, m, n, k):
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    c0 = rng.standard_normal((m, n))

    def run():
        driver = BlockedGemm(BlockingConfig.small())
        out = driver.gemm(a, b, c0.copy(), alpha=1.25, beta=0.5)
        assert driver.last_mode == "batched"
        return out, _counters_dict(driver.counters)

    runs = _run_modes(monkeypatch, run)
    np.testing.assert_allclose(
        runs["batched"][0], runs["tile"][0], rtol=1e-11, atol=1e-11
    )
    np.testing.assert_allclose(
        runs["tile"][0], gemm_reference(a, b, c0, alpha=1.25, beta=0.5),
        rtol=1e-11, atol=1e-11,
    )
    assert runs["batched"][1] == runs["tile"][1]


@pytest.mark.parametrize("m,n,k", SHAPES)
@pytest.mark.parametrize("scheme", ["dual", "weighted"])
def test_ftgemm_modes_equivalent(rng, monkeypatch, m, n, k, scheme):
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    c0 = rng.standard_normal((m, n))
    config = FTGemmConfig(
        blocking=BlockingConfig.small(), checksum_scheme=scheme
    )

    def run():
        result = FTGemm(config).gemm(a, b, c0.copy(), alpha=2.0, beta=0.25)
        assert result.verified
        assert result.detected == 0
        return result.c, _counters_dict(result.counters)

    runs = _run_modes(monkeypatch, run)
    np.testing.assert_allclose(
        runs["batched"][0], runs["tile"][0], rtol=1e-11, atol=1e-11
    )
    assert runs["batched"][1] == runs["tile"][1]


@pytest.mark.parametrize("scheme", ["dual", "weighted"])
def test_parallel_modes_equivalent(rng, monkeypatch, scheme):
    m, n, k = 50, 41, 37
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    config = FTGemmConfig(
        blocking=BlockingConfig.small(), checksum_scheme=scheme
    )

    def run():
        result = ParallelFTGemm(config, n_threads=3).gemm(a, b)
        assert result.verified
        return result.c, result.counters

    runs = _run_modes(monkeypatch, run)
    np.testing.assert_allclose(
        runs["batched"][0], runs["tile"][0], rtol=1e-11, atol=1e-11
    )
    np.testing.assert_allclose(runs["tile"][0], a @ b, rtol=1e-11, atol=1e-11)
    for field in ("fma_flops", "checksum_flops", "microkernel_calls"):
        assert getattr(runs["batched"][1], field) == getattr(runs["tile"][1], field)


# ------------------------------------------------ strikes: block vs per-tile


def _strike_outcome(driver, a, b, plan):
    injector = FaultInjector(plan)
    result = driver.gemm(a, b, injector=injector)
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-9, atol=1e-9)
    records = [(r.site, r.invocation, r.index, r.tid)
               for r in injector.canonical_records]
    return records, (result.counters.errors_detected,
                     result.counters.errors_corrected,
                     result.counters.microkernel_calls)


@pytest.mark.parametrize("model", [BitFlip(bit=52), StuckBit(bit=51)],
                         ids=["bitflip", "stuckbit"])
@pytest.mark.parametrize("team", [None, "simulated", "threads"])
def test_block_strikes_match_tile_loop(rng, monkeypatch, model, team):
    """The same plan strikes the same tile at the same index, with the same
    outcome, whether the block is contracted at once or tile by tile."""
    m, n, k = 37, 29, 23
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    config = FTGemmConfig(blocking=BlockingConfig.small(mr=4, nr=6),
                          strict=False)
    counts = None
    if team is not None:
        counts = site_invocation_counts_parallel(m, n, k, config.blocking, 3)
    for seed in range(3):
        plan = plan_for_gemm(m, n, k, config.blocking, 6, model=model,
                             seed=seed, counts=counts)

        def run():
            if team is None:
                return _strike_outcome(FTGemm(config), a, b, plan)
            driver = ParallelFTGemm(config, n_threads=3, backend=team)
            return _strike_outcome(driver, a, b, plan)

        runs = _run_modes(monkeypatch, run)
        assert runs["batched"][0] == runs["tile"][0]
        if not (model.persistent and team == "threads"):
            # a live stuck latch re-applies on whichever visits follow it,
            # and real threads order those visits differently run to run
            assert runs["batched"][1] == runs["tile"][1]


# ------------------------------------------------------- the injected schedule


def test_auto_picks_batched_on_clean_path(rng):
    driver = BlockedGemm(BlockingConfig.small())
    driver.gemm(rng.standard_normal((10, 10)), rng.standard_normal((10, 10)))
    assert driver.last_mode == "batched"


def test_memory_sink_replays_block_traffic(rng):
    from repro.simcpu.trace import AccessTrace

    sink = AccessTrace()
    a = rng.standard_normal((10, 10))
    b = rng.standard_normal((10, 10))
    out = BlockedGemm(BlockingConfig.small(), sink=sink).gemm(a, b)
    np.testing.assert_allclose(out, a @ b, rtol=1e-11, atol=1e-11)
    assert {"Atilde", "Btilde", "C"} <= {acc.label for acc in sink}


@pytest.mark.parametrize("dispatch", ["auto", "batched"])
def test_checksum_site_injection_keeps_batching(rng, dispatch):
    """A strike on the checksum buffer never touches kernel state: the
    checksum is re-derived and C is bit-for-bit the clean result. The
    blocking comes from a tuning record written while configs still carried
    a ``dispatch`` value; loading drops the retired key, and the call runs
    the one block kernel whichever value the record held."""
    m = n = k = 24
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    record = TunedConfig.from_blocking(BlockingConfig.small()).to_dict()
    record["dispatch"] = dispatch
    blocking = TunedConfig.from_dict(record).blocking()
    assert blocking == BlockingConfig.small()
    config = FTGemmConfig(blocking=blocking)
    clean = FTGemm(config).gemm(a, b)
    plan = plan_for_gemm(
        m, n, k, config.blocking, 2, seed=5, sites=("checksum",)
    )
    injector = FaultInjector(plan)
    driver = FTGemm(config)
    result = driver.gemm(a, b, injector=injector)
    assert driver.last_mode == "batched"
    assert injector.n_injected == 2
    assert result.verified
    np.testing.assert_array_equal(result.c, clean.c)  # C was never modified


def test_checksum_site_injection_keeps_batching_parallel(rng):
    m, n, k = 22, 24, 16
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    config = FTGemmConfig(blocking=BlockingConfig.small())
    driver = ParallelFTGemm(config, n_threads=2)
    clean = driver.gemm(a, b)
    assert driver.last_mode == "batched"
    plan = plan_for_gemm(
        m, n, k, config.blocking, 2, seed=5, sites=("checksum",)
    )
    result = driver.gemm(a, b, injector=FaultInjector(plan))
    assert driver.last_mode == "batched"
    assert result.verified
    np.testing.assert_array_equal(result.c, clean.c)


def test_kernel_site_injection_corrected_parallel(rng):
    m, n, k = 22, 24, 16
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    config = FTGemmConfig(blocking=BlockingConfig.small())
    driver = ParallelFTGemm(config, n_threads=2)
    plan = plan_for_gemm(m, n, k, config.blocking, 1, seed=5, sites=("pack_b",))
    injector = FaultInjector(plan)
    result = driver.gemm(a, b, injector=injector)
    assert injector.n_injected == 1
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-9, atol=1e-9)


def test_clean_call_after_injected_call_batches_again(rng):
    config = FTGemmConfig(blocking=BlockingConfig.small())
    driver = FTGemm(config)
    a = rng.standard_normal((16, 16))
    b = rng.standard_normal((16, 16))
    plan = plan_for_gemm(16, 16, 16, config.blocking, 1, seed=3)
    driver.gemm(a, b, injector=FaultInjector(plan))
    assert driver._injector is NULL_INJECTOR  # released with the call
    result = driver.gemm(a, b)
    assert driver.last_mode == "batched"
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-11, atol=1e-11)


# --------------------------------------------------------- workspace arena


@pytest.mark.parametrize("mode", ["tile", "batched"])
def test_loop_nest_never_allocates_packing_buffers(rng, monkeypatch, mode):
    """The loop nest always hands pack_a/pack_b an ``out=`` arena view, and
    once the workspace exists not a single fresh panel buffer (3-D
    ``np.zeros``) is allocated during a call."""
    use_mode(monkeypatch, mode)
    driver = BlockedGemm(BlockingConfig.small())
    a = rng.standard_normal((37, 23))
    b = rng.standard_normal((23, 29))
    driver.gemm(a, b)  # builds the workspace

    def checking(real):
        def wrapper(block, r, *, out=None):
            assert out is not None, f"{real.__name__} called without arena view"
            return real(block, r, out=out)

        return wrapper

    monkeypatch.setattr(driver_mod, "pack_a", checking(packing.pack_a))
    monkeypatch.setattr(driver_mod, "pack_b", checking(packing.pack_b))

    panel_allocs = []
    real_zeros = np.zeros

    def counting_zeros(shape, *args, **kwargs):
        if isinstance(shape, tuple) and len(shape) == 3:
            panel_allocs.append(shape)
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(packing.np, "zeros", counting_zeros)
    out = driver.gemm(a, b)
    assert panel_allocs == []
    np.testing.assert_allclose(out, a @ b, rtol=1e-11, atol=1e-11)


def test_workspace_buffers_reused_across_calls(rng):
    driver = BlockedGemm(BlockingConfig.small())
    a = rng.standard_normal((20, 16))
    b = rng.standard_normal((16, 24))
    driver.gemm(a, b)
    ws = driver.workspace
    assert ws is not None
    a_buf, b_buf = ws.a_buf, ws.b_buf
    driver.gemm(a, b)
    assert driver.workspace is ws
    assert driver.workspace.a_buf is a_buf
    assert driver.workspace.b_buf is b_buf


def test_workspace_grows_for_bigger_problem(rng):
    driver = BlockedGemm(BlockingConfig.small())
    driver.gemm(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
    small_ws = driver.workspace
    driver.gemm(rng.standard_normal((40, 24)), rng.standard_normal((24, 40)))
    assert driver.workspace is not small_ws
    # and a subsequent smaller problem fits in the grown arena
    big_ws = driver.workspace
    driver.gemm(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
    assert driver.workspace is big_ws


def test_packed_blocks_live_inside_the_arena(rng):
    captured = []

    class Spy(BlockedGemm):
        def _pack_a_block(self, *args, **kwargs):
            packed = super()._pack_a_block(*args, **kwargs)
            captured.append(packed.data)
            return packed

    driver = Spy(BlockingConfig.small())
    driver.gemm(rng.standard_normal((20, 20)), rng.standard_normal((20, 20)))
    assert captured
    for data in captured:
        assert np.shares_memory(data, driver.workspace.a_buf)


# ------------------------------------------------------- Ã reuse across j


def _pack_a_counting_driver(base_cls, *args, **kwargs):
    class Counting(base_cls):
        pack_a_calls = 0

        def _pack_a_block(self, *a, **kw):
            type(self).pack_a_calls += 1
            return super()._pack_a_block(*a, **kw)

    return Counting(*args, **kwargs)


@pytest.mark.parametrize("cls", [BlockedGemm, None])
def test_packed_a_reused_across_j_blocks(rng, cls):
    """nc=12 with n=40 gives 4 j-blocks; Ã must be packed once per (p, i),
    not once per (p, j, i)."""
    m, n, k = 20, 40, 17  # 3 i-blocks, 4 j-blocks, 3 p-blocks
    blocking = BlockingConfig.small()
    if cls is None:
        driver = _pack_a_counting_driver(
            FTGemm, FTGemmConfig(blocking=blocking, checksum_scheme="weighted")
        )
        result = driver.gemm(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
        assert result.verified
    else:
        driver = _pack_a_counting_driver(cls, blocking)
        driver.gemm(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
    n_p = len(list(range(0, k, blocking.kc)))
    n_i = len(list(range(0, m, blocking.mc)))
    n_j = len(list(range(0, n, blocking.nc)))
    assert n_j > 1  # the test is vacuous otherwise
    assert type(driver).pack_a_calls == n_p * n_i


def test_injected_run_packs_a_per_j_block(rng):
    """With an injector attached the legacy schedule is restored: Ã is
    repacked for every (p, j, i), which is what the campaign's site
    invocation counts assume."""
    m, n, k = 20, 40, 17
    config = FTGemmConfig(blocking=BlockingConfig.small())
    driver = _pack_a_counting_driver(FTGemm, config)
    plan = plan_for_gemm(m, n, k, config.blocking, 1, seed=1)
    result = driver.gemm(
        rng.standard_normal((m, k)),
        rng.standard_normal((k, n)),
        injector=FaultInjector(plan),
    )
    assert result.verified
    n_p, n_j, n_i = 3, 4, 3
    assert type(driver).pack_a_calls == n_p * n_j * n_i


# ----------------------------------------------------------- fresh-C scaling


def test_fresh_c_skips_zeroing_stores(rng):
    a = rng.standard_normal((10, 10))
    b = rng.standard_normal((10, 10))
    fresh = BlockedGemm(BlockingConfig.small())
    fresh.gemm(a, b)  # c=None: freshly allocated, no zeroing pass
    provided = BlockedGemm(BlockingConfig.small())
    provided.gemm(a, b, np.full((10, 10), np.nan), beta=0.0)
    assert (
        provided.counters.stores_bytes - fresh.counters.stores_bytes
        == 10 * 10 * 8
    )
    # everything but the zeroing store is identical
    assert provided.counters.loads_bytes == fresh.counters.loads_bytes
    assert provided.counters.fma_flops == fresh.counters.fma_flops


def test_fresh_c_skip_preserves_ft_verification(rng):
    a = rng.standard_normal((15, 13))
    b = rng.standard_normal((13, 11))
    for scheme in ("dual", "weighted"):
        config = FTGemmConfig(
            blocking=BlockingConfig.small(), checksum_scheme=scheme
        )
        result = FTGemm(config).gemm(a, b)
        assert result.verified
        np.testing.assert_allclose(result.c, a @ b, rtol=1e-11, atol=1e-11)
