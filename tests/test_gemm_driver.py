"""The blocked GEMM driver: correctness, layout, instrumentation."""

import numpy as np
import pytest

from repro.faults.campaign import site_invocation_counts
from repro.faults.injector import FaultInjector, InjectionPlan
from repro.faults.models import StuckValue
from repro.gemm.blocking import BlockingConfig
from repro.gemm.driver import AddressLayout, BlockedGemm
from repro.gemm.reference import gemm_reference
from repro.simcpu.cache import CacheHierarchy
from repro.simcpu.machine import MachineSpec
from repro.simcpu.trace import AccessTrace
from repro.util.errors import ShapeError


@pytest.fixture
def rng():
    return np.random.default_rng(5)


@pytest.fixture
def cfg():
    return BlockingConfig.small()


@pytest.mark.parametrize(
    "m,n,k",
    [
        (8, 12, 8),     # exact multiples of every block size
        (37, 29, 23),   # ragged everywhere
        (1, 1, 1),      # degenerate
        (5, 40, 17),    # n spans multiple NC blocks
        (40, 5, 17),    # m spans multiple MC blocks
        (16, 24, 3),    # k smaller than KC
    ],
)
def test_blocked_gemm_matches_oracle(rng, cfg, m, n, k):
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    out = BlockedGemm(cfg).gemm(a, b)
    np.testing.assert_allclose(out, a @ b, rtol=1e-11, atol=1e-11)


def test_alpha_beta_paths(rng, cfg):
    a = rng.standard_normal((19, 11))
    b = rng.standard_normal((11, 21))
    c0 = rng.standard_normal((19, 21))
    for alpha, beta in [(1.0, 0.0), (2.0, 1.0), (-0.5, 0.75), (1.0, 1.0), (3.0, 0.0)]:
        c = c0.copy()
        out = BlockedGemm(cfg).gemm(a, b, c, alpha=alpha, beta=beta)
        assert out is c  # in-place contract
        np.testing.assert_allclose(
            out, gemm_reference(a, b, c0, alpha=alpha, beta=beta),
            rtol=1e-11, atol=1e-11,
        )


def test_beta_zero_overwrites_garbage(rng, cfg):
    a = rng.standard_normal((9, 9))
    b = rng.standard_normal((9, 9))
    c = np.full((9, 9), np.inf)
    out = BlockedGemm(cfg).gemm(a, b, c, beta=0.0)
    np.testing.assert_allclose(out, a @ b, rtol=1e-11)


def test_allocates_c_when_missing(rng, cfg):
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((4, 7))
    out = BlockedGemm(cfg).gemm(a, b)
    assert out.shape == (6, 7)


def test_inputs_not_mutated(rng, cfg):
    a = rng.standard_normal((10, 10))
    b = rng.standard_normal((10, 10))
    a0, b0 = a.copy(), b.copy()
    BlockedGemm(cfg).gemm(a, b, alpha=3.0)
    np.testing.assert_array_equal(a, a0)
    np.testing.assert_array_equal(b, b0)


def test_counters_flops_exact(rng, cfg):
    """FMA flop count equals the padded-tile count of the loop nest."""
    m, n, k = 10, 9, 8  # one p-block (kc=8), one j-block
    driver = BlockedGemm(cfg)
    driver.gemm(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
    c = driver.counters
    # mc=8: i blocks of 8 and 2 rows -> panels: 2 (8 rows) + 1 (2 rows)
    # per i-block: panels_m * panels_n tiles; nc=12 > 9 -> 3 nr=4 panels
    # tiles: i-block0: 2*3, i-block1: 1*3 => 9 micro calls
    assert c.microkernel_calls == 9
    assert c.fma_flops == 9 * 2 * 4 * 4 * 8  # padded mr*nr*k per tile


def test_injector_visits_kernel_sites(rng, cfg):
    """The unprotected driver owns the loop nest, so it visits every
    kernel-layer site and a micro-kernel strike lands in C."""
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    plan = InjectionPlan(schedule={"microkernel": (0,)},
                         model=StuckValue(value=1234.5))
    injector = FaultInjector(plan)
    out = BlockedGemm(cfg).gemm(a, b, injector=injector)
    assert (out == 1234.5).any()
    counts = site_invocation_counts(8, 8, 8, cfg)
    for site in ("pack_a", "pack_b", "microkernel"):
        assert injector.invocations(site) == counts[site]


def test_address_layout_non_overlapping():
    layout = AddressLayout()
    base_a = layout.add("A", 1000)
    base_b = layout.add("B", 5000)
    assert base_b >= base_a + 1000
    assert base_a % layout.page_bytes == 0
    assert base_b % layout.page_bytes == 0
    assert "A" in layout and "C" not in layout


def test_address_layout_rejects_duplicates_and_bad_sizes():
    layout = AddressLayout()
    layout.add("A", 10)
    with pytest.raises(ShapeError):
        layout.add("A", 10)
    with pytest.raises(ShapeError):
        layout.add("B", 0)
    with pytest.raises(ShapeError):
        AddressLayout(page_bytes=1000)  # not a power of two


def test_instrumented_run_emits_labeled_traffic(rng, cfg):
    trace = AccessTrace()
    driver = BlockedGemm(cfg, sink=trace)
    a = rng.standard_normal((10, 9))
    b = rng.standard_normal((9, 11))
    out = driver.gemm(a, b)
    np.testing.assert_allclose(out, a @ b, rtol=1e-11)
    labels = trace.labels()
    assert {"A", "B", "C", "Atilde", "Btilde"} <= labels
    # every element of B is read exactly once for packing
    assert trace.total_bytes(label="B", writes=False) == b.nbytes


def test_instrumented_against_cache_hierarchy(rng):
    machine = MachineSpec.small_test_machine()
    hierarchy = CacheHierarchy.from_machine(machine)
    cfg = BlockingConfig(mc=8, kc=8, nc=16, mr=4, nr=4)
    driver = BlockedGemm(cfg, sink=hierarchy)
    n = 24
    out = driver.gemm(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
    assert np.isfinite(out).all()
    assert hierarchy.mem_lines > 0
    l1 = hierarchy.levels[0].counters
    assert l1.accesses > 0 and l1.hits > 0


def test_uninstrumented_run_has_no_layout(rng, cfg):
    driver = BlockedGemm(cfg)
    driver.gemm(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
    assert driver.layout is None
