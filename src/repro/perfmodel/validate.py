"""Model-vs-implementation consistency checking.

The performance model's credibility rests on its counts mirroring what the
drivers actually do. This module computes the *expected* counters of one
FT-GEMM call analytically — flop by flop, byte by byte, mirroring the
driver's accounting — and diffs them against the counters a real run
produced. The test suite pins exact equality; the CLI exposes it as
``python -m repro validate`` so any refactor that silently changes the
fused work is caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import FTGemmConfig
from repro.gemm.blocking import BlockingConfig, iter_blocks
from repro.simcpu.counters import Counters
from repro.simcpu.machine import DOUBLE
from repro.util.errors import ConfigError


def expected_counters(
    m: int,
    n: int,
    k: int,
    config: FTGemmConfig,
    *,
    beta_nonzero: bool = False,
    fresh_c: bool | None = None,
) -> Counters:
    """The counters a clean serial FT-GEMM call must produce.

    Mirrors every accounting site of :class:`~repro.gemm.driver.BlockedGemm`
    and :class:`~repro.core.ftgemm.FTGemm` on the clean fast path (no sink,
    no injector; envelope tolerance mode, ``final`` verification) — which is
    the path a real benchmark run takes:

    - ``fresh_c`` models ``gemm(c=None)``: the driver skips the redundant
      zeroing of the just-allocated C entirely (no store, no DMR duplicate).
      Defaults to ``not beta_nonzero``, matching :func:`validate_run`;
    - Ã is packed once per ``(p, i)`` and reused across j-blocks, so the
      packing loads/stores are paid once per K-block, while the fused
      per-``(p, j, i)`` checksum updates still accrue every iteration.
    """
    if min(m, n, k) <= 0:
        raise ConfigError(f"invalid dims {m}x{n}x{k}")
    if fresh_c is None:
        fresh_c = not beta_nonzero
    cfg = config.blocking
    counters = Counters()
    ft = config.enable_ft
    weighted = ft and config.weighted

    # ---- prologue + scaling pass
    if ft:
        counters.checksum_flops += 2 * m * k  # A^r + |A^r|
        if weighted:
            counters.checksum_flops += 2 * m * k
        if beta_nonzero:
            counters.checksum_flops += 2 * m * n  # |C0| row/col sums
            if config.dmr_protect_scale:
                counters.checksum_flops += m * n  # DMR duplicate multiplies
            counters.checksum_flops += 2 * m * n  # scaled prediction sums
            if weighted:
                counters.checksum_flops += 4 * m * n
            counters.loads_bytes += m * n * DOUBLE
            counters.stores_bytes += m * n * DOUBLE
        elif not fresh_c:
            counters.stores_bytes += m * n * DOUBLE  # DMR writes the zeros
            if config.dmr_protect_scale:
                counters.checksum_flops += m * n  # duplicate of the zeroing
        # fresh C with beta == 0: the zeroing pass is skipped outright
    else:
        if beta_nonzero:
            counters.loads_bytes += m * n * DOUBLE
            counters.stores_bytes += m * n * DOUBLE
        elif not fresh_c:
            counters.stores_bytes += m * n * DOUBLE  # beta==0 zeroing store

    p_blocks = list(iter_blocks(k, cfg.kc))
    j_blocks = list(iter_blocks(n, cfg.nc))
    i_blocks = list(iter_blocks(m, cfg.mc))

    for p_idx, (p0, plen) in enumerate(p_blocks):
        last_p = p_idx == len(p_blocks) - 1
        for j_idx, (j0, jlen) in enumerate(j_blocks):
            first_j = j_idx == 0
            # ---- pack B
            b_panels = cfg.micro_panels_n(jlen)
            packed_b_bytes = b_panels * plen * cfg.nr * DOUBLE
            counters.loads_bytes += plen * jlen * DOUBLE
            counters.pack_b_bytes += packed_b_bytes
            counters.stores_bytes += packed_b_bytes
            if ft:
                counters.checksum_flops += 5 * plen * jlen
                if weighted:
                    counters.checksum_flops += 4 * plen * jlen
            for i0, ilen in i_blocks:
                a_panels = cfg.micro_panels_m(ilen)
                packed_a_bytes = a_panels * plen * cfg.mr * DOUBLE
                if first_j:
                    # ---- pack A: once per (p, i), reused across j-blocks
                    counters.loads_bytes += ilen * plen * DOUBLE
                    counters.pack_a_bytes += packed_a_bytes
                    counters.stores_bytes += packed_a_bytes
                if ft:
                    # fused C^c update accrues every (p, j, i)
                    counters.checksum_flops += 4 * ilen * plen
                    if weighted:
                        counters.checksum_flops += 2 * ilen * plen
                # ---- macro kernel
                tiles = a_panels * b_panels
                counters.microkernel_calls += tiles
                counters.fma_flops += tiles * 2 * cfg.mr * cfg.nr * plen
                if ft and last_p:
                    counters.checksum_flops += 2 * ilen * jlen
                    if weighted:
                        counters.checksum_flops += 4 * ilen * jlen
                counters.loads_bytes += (
                    b_panels * packed_a_bytes
                    + a_panels * packed_b_bytes
                    + ilen * jlen * DOUBLE
                )
                counters.stores_bytes += ilen * jlen * DOUBLE
    if ft:
        counters.verifications = 1
        # residual + compare flops of the clean final verification round
        # are not counted by the driver (pure epilogue), matching here
    return counters


def expected_counters_parallel(
    m: int,
    n: int,
    k: int,
    config: FTGemmConfig,
    *,
    n_threads: int = 4,
    beta_nonzero: bool = False,
) -> Counters:
    """The counters a clean *parallel* FT-GEMM call must produce.

    Mirrors :class:`~repro.core.parallel.ParallelFTGemm`'s worker, summed
    over all threads, on the fault-free path. The parallel accounting
    differs from the serial model in four structural ways:

    - Ã is **not** reused across j-blocks (each thread repacks its own row
      slice per ``(p, j)``), so A-packing traffic is paid ``n_j`` times;
    - each thread blocks its *own* ``mlen`` rows with ``mc`` — the i-block
      panel counts follow the row partition, not the global ``m``;
    - the A^r and B^c reductions are *duplicated* on every thread (no
      second barrier), costing ``2·T·k`` resp. ``2·T·plen`` flops per
      thread, i.e. ``O(T^2)`` in aggregate;
    - there is no fresh-C fast path: the scaling pass always runs (DMR or
      plain), and the plain branch books no bytes.

    ``beta_nonzero`` assumes ``beta not in {0, 1}`` when true, matching
    :func:`validate_parallel_run`'s choice of ``beta=0.5``.
    """
    if min(m, n, k) <= 0:
        raise ConfigError(f"invalid dims {m}x{n}x{k}")
    if n_threads <= 0:
        raise ConfigError(f"n_threads must be positive, got {n_threads}")
    from repro.parallel.partition import partition_rows

    cfg = config.blocking
    counters = Counters()
    ft = config.enable_ft
    weighted = ft and config.weighted
    T = n_threads

    row_part = partition_rows(m, T)
    p_blocks = list(iter_blocks(k, cfg.kc))
    j_blocks = list(iter_blocks(n, cfg.nc))
    n_p, n_j = len(p_blocks), len(j_blocks)

    # ---- per-thread prologue: A^r partials + the protected scaling pass
    for _, mlen in row_part:
        if mlen == 0:
            continue
        if ft:
            counters.checksum_flops += 2 * mlen * k
            if weighted:
                counters.checksum_flops += 2 * mlen * k
            if beta_nonzero:
                counters.checksum_flops += 2 * mlen * n  # |C0| sums
            if config.dmr_protect_scale:
                # dmr_scale: loads only when beta != 0, stores always,
                # one duplicated multiply per element
                if beta_nonzero:
                    counters.loads_bytes += mlen * n * DOUBLE
                counters.stores_bytes += mlen * n * DOUBLE
                counters.checksum_flops += mlen * n
            if beta_nonzero:
                counters.checksum_flops += 2 * mlen * n  # scaled preds
                if weighted:
                    counters.checksum_flops += 4 * mlen * n
        # non-ft scaling books nothing in the parallel worker

    # ---- duplicated A^r reduction, every thread
    if ft:
        counters.checksum_flops += T * 2 * T * k
        if weighted:
            counters.checksum_flops += T * T * k

    for p_idx, (p0, plen) in enumerate(p_blocks):
        last_p = p_idx == n_p - 1
        for j0, jlen in j_blocks:
            n_panels_j = cfg.micro_panels_n(jlen)
            packed_b_bytes = n_panels_j * plen * cfg.nr * DOUBLE
            # cooperative B̃ pack: thread chunk widths tile jlen exactly
            counters.loads_bytes += plen * jlen * DOUBLE
            counters.pack_b_bytes += packed_b_bytes
            counters.stores_bytes += packed_b_bytes
            if ft:
                counters.checksum_flops += 5 * plen * jlen
                if weighted:
                    counters.checksum_flops += 4 * plen * jlen
                # duplicated B^c reduction, every thread
                counters.checksum_flops += T * 2 * T * plen
                if weighted:
                    counters.checksum_flops += T * T * plen
            # macro phase over each thread's own row slice (no Ã reuse)
            for _, mlen in row_part:
                for _, ilen in iter_blocks(mlen, cfg.mc) if mlen else []:
                    a_panels = cfg.micro_panels_m(ilen)
                    packed_a_bytes = a_panels * plen * cfg.mr * DOUBLE
                    counters.loads_bytes += ilen * plen * DOUBLE
                    counters.pack_a_bytes += packed_a_bytes
                    counters.stores_bytes += packed_a_bytes
                    if ft:
                        counters.checksum_flops += 4 * ilen * plen
                        if weighted:
                            counters.checksum_flops += 2 * ilen * plen
                    tiles = a_panels * n_panels_j
                    counters.microkernel_calls += tiles
                    counters.fma_flops += tiles * 2 * cfg.mr * cfg.nr * plen
                    if ft and last_p:
                        counters.checksum_flops += 2 * ilen * jlen
                        if weighted:
                            counters.checksum_flops += 4 * ilen * jlen
                    counters.loads_bytes += (
                        n_panels_j * packed_a_bytes
                        + a_panels * packed_b_bytes
                        + ilen * jlen * DOUBLE
                    )
                    counters.stores_bytes += ilen * jlen * DOUBLE

    counters.barriers = T * (1 + 2 * n_p * n_j)
    if ft:
        counters.verifications = 1
    return counters


@dataclass
class ValidationReport:
    """Field-by-field diff of expected vs observed counters."""

    matches: dict[str, bool] = field(default_factory=dict)
    expected: dict[str, int] = field(default_factory=dict)
    observed: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.matches.values())

    def mismatches(self) -> list[str]:
        return [name for name, good in self.matches.items() if not good]

    def __str__(self) -> str:
        lines = []
        for name in self.matches:
            mark = "ok " if self.matches[name] else "BAD"
            lines.append(
                f"{mark} {name}: expected {self.expected[name]}, "
                f"observed {self.observed[name]}"
            )
        return "\n".join(lines)


FIELDS = (
    "fma_flops",
    "checksum_flops",
    "loads_bytes",
    "stores_bytes",
    "pack_a_bytes",
    "pack_b_bytes",
    "microkernel_calls",
    "verifications",
    "ft_extra_bytes",
)


def validate_run(
    m: int,
    n: int,
    k: int,
    config: FTGemmConfig | None = None,
    *,
    beta: float = 0.0,
    seed: int = 0,
    tracer=None,
) -> ValidationReport:
    """Run a real FT-GEMM and diff its counters against the analysis."""
    from repro.core.ftgemm import FTGemm

    config = config or FTGemmConfig()
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    c = rng.standard_normal((m, n)) if beta != 0.0 else None
    result = FTGemm(config, tracer=tracer).gemm(a, b, c, beta=beta)
    expected = expected_counters(m, n, k, config, beta_nonzero=beta != 0.0)
    return _diff(expected, result.counters, FIELDS)


#: parallel runs additionally pin the barrier count (the Figure-1
#: synchronisation structure: one prologue barrier + two per (p, j) block
#: per thread)
PARALLEL_FIELDS = FIELDS + ("barriers",)


def validate_parallel_run(
    m: int,
    n: int,
    k: int,
    config: FTGemmConfig | None = None,
    *,
    n_threads: int = 4,
    backend: str = "simulated",
    beta: float = 0.0,
    seed: int = 0,
    tracer=None,
) -> ValidationReport:
    """Run a real parallel FT-GEMM and diff its counters against the
    analysis — the parallel analogue of :func:`validate_run`."""
    from repro.core.parallel import ParallelFTGemm

    config = config or FTGemmConfig()
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    c = rng.standard_normal((m, n)) if beta != 0.0 else None
    driver = ParallelFTGemm(
        config, n_threads=n_threads, backend=backend, tracer=tracer
    )
    result = driver.gemm(a, b, c, beta=beta)
    expected = expected_counters_parallel(
        m, n, k, config, n_threads=n_threads, beta_nonzero=beta != 0.0
    )
    return _diff(expected, result.counters, PARALLEL_FIELDS)


def _diff(expected: Counters, observed: Counters, fields) -> ValidationReport:
    report = ValidationReport()
    for name in fields:
        e = getattr(expected, name)
        o = getattr(observed, name)
        report.expected[name] = e
        report.observed[name] = o
        report.matches[name] = e == o
    return report
