"""Micro-kernel strike placement, pinned by loop-nest arithmetic.

A micro-kernel invocation names one ``M_R x N_R`` tile of one macro block:
blocks come in the driver's loop order (serial: p, j, i; parallel: p, j,
then each thread's own i-blocks in thread order), tiles within a block
A-panel major. A strike's record index is relative to its tile, so the
struck C element is block origin + tile offset + record index. Unprotected
drivers leave every strike in C, which makes the placement observable.
"""

import numpy as np
import pytest

from repro.core.config import FTGemmConfig
from repro.core.parallel import ParallelFTGemm
from repro.faults.campaign import plan_for_gemm, site_invocation_counts_parallel
from repro.faults.injector import FaultInjector
from repro.faults.models import Additive
from repro.gemm.blocking import BlockingConfig, iter_blocks
from repro.gemm.driver import BlockedGemm
from repro.parallel.partition import partition_rows

M, N, K = 37, 29, 23
CFG = BlockingConfig.small(mr=4, nr=6)  # 2 x 2 tiles per full block
MODEL = Additive(magnitude=1e3)


def _block_tiles(i0, ilen, j0, jlen):
    """Tile origins of one macro block, in strike-numbering order."""
    return [(i0 + ia * CFG.mr, j0 + jb * CFG.nr)
            for ia in range(CFG.micro_panels_m(ilen))
            for jb in range(CFG.micro_panels_n(jlen))]


def _serial_tiles():
    tiles = []
    for _p0, _plen in iter_blocks(K, CFG.kc):
        for j0, jlen in iter_blocks(N, CFG.nc):
            for i0, ilen in iter_blocks(M, CFG.mc):
                tiles += [(origin, None) for origin in
                          _block_tiles(i0, ilen, j0, jlen)]
    return tiles


def _parallel_tiles(n_threads):
    tiles = []
    for _p0, _plen in iter_blocks(K, CFG.kc):
        for j0, jlen in iter_blocks(N, CFG.nc):
            for tid, (ms, mlen) in enumerate(partition_rows(M, n_threads)):
                for ioff, ilen in iter_blocks(mlen, CFG.mc) if mlen else []:
                    tiles += [(origin, tid) for origin in
                              _block_tiles(ms + ioff, ilen, j0, jlen)]
    return tiles


def _assert_placement(c, a, b, injector, tiles):
    records = injector.canonical_records
    assert records and all(r.site == "microkernel" for r in records)
    expected = set()
    for r in records:
        (row0, col0), tid = tiles[r.invocation]
        assert r.tid == tid
        expected.add((row0 + int(r.index[0]), col0 + int(r.index[1])))
    struck = np.argwhere(np.abs(c - a @ b) > 1.0)
    assert {(int(i), int(j)) for i, j in struck} == expected


@pytest.mark.parametrize("seed", range(4))
def test_serial_strikes_land_at_loop_nest_position(rng, seed):
    a = rng.standard_normal((M, K))
    b = rng.standard_normal((K, N))
    plan = plan_for_gemm(M, N, K, CFG, 9, sites=("microkernel",),
                         model=MODEL, seed=seed)
    injector = FaultInjector(plan)
    c = BlockedGemm(CFG).gemm(a, b, injector=injector)
    assert injector.n_injected == 9
    _assert_placement(c, a, b, injector, _serial_tiles())


@pytest.mark.parametrize("backend", ["simulated", "threads"])
@pytest.mark.parametrize("seed", range(3))
def test_parallel_strikes_land_at_loop_nest_position(rng, backend, seed):
    n_threads = 3
    a = rng.standard_normal((M, K))
    b = rng.standard_normal((K, N))
    counts = site_invocation_counts_parallel(M, N, K, CFG, n_threads)
    plan = plan_for_gemm(M, N, K, CFG, 9, sites=("microkernel",),
                         model=MODEL, seed=seed, counts=counts)
    injector = FaultInjector(plan)
    driver = ParallelFTGemm(FTGemmConfig.unprotected(blocking=CFG),
                            n_threads=n_threads, backend=backend)
    result = driver.gemm(a, b, injector=injector)
    assert injector.n_injected == 9
    _assert_placement(result.c, a, b, injector, _parallel_tiles(n_threads))
