"""Injection campaigns: many protected GEMM calls under controlled fault load.

Reproduces the paper's methodology end to end: build a deterministic plan
(k errors per call, or a physical rate in errors/minute converted through
the modeled call duration), run the fault-tolerant GEMM under it, and verify
the final result against the trusted oracle ("verifying our final
computation results against MKL"). The aggregate statistics — injected,
detected, corrected, recomputed, and whether every final result was right —
back the reliability claims ("high reliability ... even under hundreds of
errors injected per minute").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.injector import FaultInjector, InjectionPlan
from repro.faults.models import FaultModel, default_model
from repro.faults.sites import KERNEL_SITES, validate_site
from repro.gemm.blocking import BlockingConfig, iter_blocks
from repro.gemm.reference import gemm_reference
from repro.util.errors import ConfigError
from repro.util.rng import derive_seed, make_rng


def site_invocation_counts(
    m: int,
    n: int,
    k: int,
    config: BlockingConfig,
    *,
    beta: float = 0.0,
) -> dict[str, int]:
    """Exact hook-invocation counts per site for one FT-GEMM call.

    Mirrors the driver's loop nest so plans can name valid invocation
    indices. The checksum site counts the fused encoding hooks: ``A^r`` once,
    the scale-fused C encodings once, one per B̃ packing (``B^c``/``C^r``
    update) and one per Ã packing (``C^c`` update).
    """
    p_blocks = list(iter_blocks(k, config.kc))
    j_blocks = list(iter_blocks(n, config.nc))
    i_blocks = list(iter_blocks(m, config.mc))
    tiles = 0
    for _, _plen in p_blocks:
        for _, jlen in j_blocks:
            jp = config.micro_panels_n(jlen)
            for _, ilen in i_blocks:
                tiles += config.micro_panels_m(ilen) * jp
    n_pj = len(p_blocks) * len(j_blocks)
    n_pji = n_pj * len(i_blocks)
    return {
        "microkernel": tiles,
        "pack_a": n_pji,
        "pack_b": n_pj,
        "scale": 1,
        "checksum": 2 + n_pj + n_pji,
    }


def parallel_thread_map(
    m: int,
    n: int,
    k: int,
    config: BlockingConfig,
    n_threads: int,
    *,
    beta: float = 0.0,
    ft: bool = True,
    dmr_protect_scale: bool = True,
) -> dict[str, list[list[int]]]:
    """The canonical per-thread invocation numbering of a parallel call.

    Walks the worker's program exactly — barrier segment by barrier segment,
    threads in ascending id within a segment, program order within a thread
    — and assigns every ``visit`` a canonical invocation index (the index it
    holds in the identity-order simulated schedule). The result maps
    ``site → [per-thread list of canonical indices, in that thread's visit
    order]``; binding it to a :class:`~repro.faults.injector.FaultInjector`
    makes strike placement identical across team backends and step orders.
    Each lane is ascending, which the injector's block-level tile lookup
    relies on.
    """
    from repro.parallel.partition import partition_panels, partition_rows

    row_part = partition_rows(m, n_threads)
    p_blocks = list(iter_blocks(k, config.kc))
    j_blocks = list(iter_blocks(n, config.nc))
    tmap: dict[str, list[list[int]]] = {
        site: [[] for _ in range(n_threads)]
        for site in ("microkernel", "pack_a", "pack_b", "scale", "checksum")
    }
    counters = {site: 0 for site in tmap}

    def emit(site: str, tid: int, times: int = 1) -> None:
        tmap[site][tid].extend(range(counters[site], counters[site] + times))
        counters[site] += times

    # prologue segment: A^r partial + (DMR-)scaling, fused C encodings
    for tid, (_ms, mlen) in enumerate(row_part):
        if not mlen:
            continue
        if ft:
            emit("checksum", tid)
            if not dmr_protect_scale or beta != 1.0:
                emit("scale", tid)
            emit("checksum", tid)
        else:
            emit("scale", tid)
    for _p0, plen in p_blocks:
        for j0, jlen in j_blocks:
            n_panels_j = config.micro_panels_n(jlen)
            panel_part = partition_panels(n_panels_j, n_threads)
            # pack segment: cooperative B̃ packing, N-partitioned
            for tid, (f0, cnt) in enumerate(panel_part):
                width = min(cnt * config.nr, jlen - f0 * config.nr) if cnt else 0
                if width > 0:
                    if ft:
                        emit("checksum", tid)
                    emit("pack_b", tid)
            # macro segment: each thread sweeps its own row slice
            for tid, (_ms, mlen) in enumerate(row_part):
                for _ioff, ilen in iter_blocks(mlen, config.mc) if mlen else []:
                    if ft:
                        emit("checksum", tid)
                    emit("pack_a", tid)
                    emit(
                        "microkernel",
                        tid,
                        times=config.micro_panels_m(ilen) * n_panels_j,
                    )
    return tmap


def site_invocation_counts_parallel(
    m: int,
    n: int,
    k: int,
    config: BlockingConfig,
    n_threads: int,
    *,
    beta: float = 0.0,
) -> dict[str, int]:
    """Hook-invocation counts for one :class:`ParallelFTGemm` call.

    The parallel worker visits sites per thread (each thread packs its own
    B̃ chunk and its own Ã blocks), so counts depend on the row partition
    and the panel partition — totals of :func:`parallel_thread_map`.
    """
    tmap = parallel_thread_map(m, n, k, config, n_threads, beta=beta)
    return {site: sum(len(lane) for lane in lanes) for site, lanes in tmap.items()}


def plan_for_gemm(
    m: int,
    n: int,
    k: int,
    config: BlockingConfig,
    n_errors: int,
    *,
    sites: tuple[str, ...] = KERNEL_SITES,
    model: FaultModel | None = None,
    seed: int = 0,
    beta: float = 0.0,
    counts: dict[str, int] | None = None,
) -> InjectionPlan:
    """Sample ``n_errors`` distinct (site, invocation) slots uniformly.

    ``counts`` overrides the serial invocation-count model (pass the
    parallel one for :class:`ParallelFTGemm` targets).
    """
    if n_errors < 0:
        raise ConfigError(f"n_errors must be non-negative, got {n_errors}")
    for site in sites:
        validate_site(site)
    if counts is None:
        counts = site_invocation_counts(m, n, k, config, beta=beta)
    slots: list[tuple[str, int]] = []
    for site in sites:
        slots.extend((site, idx) for idx in range(counts[site]))
    if n_errors > len(slots):
        raise ConfigError(
            f"cannot place {n_errors} errors in {len(slots)} invocation slots "
            f"(sites {sites} for a {m}x{n}x{k} GEMM)"
        )
    rng = make_rng(derive_seed(seed, "plan", m, n, k, n_errors))
    chosen_idx = rng.choice(len(slots), size=n_errors, replace=False)
    schedule: dict[str, list[int]] = {}
    for pos in np.atleast_1d(chosen_idx):
        site, invocation = slots[int(pos)]
        schedule.setdefault(site, []).append(invocation)
    return InjectionPlan(
        schedule={s: tuple(sorted(v)) for s, v in schedule.items()},
        model=model or default_model(),
        seed=derive_seed(seed, "victims"),
    )


def errors_per_call_from_rate(
    rate_per_minute: float, call_seconds: float, rng: np.random.Generator
) -> int:
    """Draw the error count of one call from a Poisson at the given rate."""
    if rate_per_minute < 0 or call_seconds <= 0:
        raise ConfigError(
            f"invalid rate conversion: rate={rate_per_minute}/min, "
            f"duration={call_seconds}s"
        )
    mean = rate_per_minute * call_seconds / 60.0
    return int(rng.poisson(mean))


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: repeated protected GEMMs under a fault schedule.

    Exactly one of ``errors_per_call`` / ``rate_per_minute`` drives the
    fault load; the rate path needs ``call_seconds`` (from the performance
    model) to convert a physical rate into per-call counts.
    """

    m: int
    n: int
    k: int
    runs: int = 5
    errors_per_call: int | None = 2
    rate_per_minute: float | None = None
    call_seconds: float | None = None
    sites: tuple[str, ...] = KERNEL_SITES
    model: FaultModel = field(default_factory=default_model)
    seed: int = 0
    alpha: float = 1.0
    beta: float = 0.0
    #: fail-stop faults (thread deaths) attached to every run's plan,
    #: executed by the parallel team backends
    fail_stops: tuple = ()

    def __post_init__(self) -> None:
        if (self.errors_per_call is None) == (self.rate_per_minute is None):
            raise ConfigError(
                "exactly one of errors_per_call / rate_per_minute must be set"
            )
        if self.rate_per_minute is not None and self.call_seconds is None:
            raise ConfigError("rate_per_minute requires call_seconds")
        if self.runs <= 0:
            raise ConfigError(f"runs must be positive, got {self.runs}")


@dataclass
class CampaignResult:
    """Aggregates over all runs of a campaign."""

    runs: int = 0
    injected: int = 0
    detected: int = 0
    corrected: int = 0
    recomputed_blocks: int = 0
    correct_results: int = 0
    max_final_error: float = 0.0
    per_run_injected: list[int] = field(default_factory=list)
    #: runs that finished with ``verified=False`` (non-strict configs only)
    unverified_runs: int = 0
    #: thread deaths executed across all runs (fail-stop campaigns)
    thread_deaths: int = 0
    #: runs whose recovery escalated past plain ABFT correct/recompute
    escalations: int = 0
    #: per-site injected/detected/corrected/uncorrected aggregates
    per_site: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def all_correct(self) -> bool:
        return self.correct_results == self.runs

    @property
    def detection_rate(self) -> float:
        return self.detected / self.injected if self.injected else 1.0

    def merge_site_outcomes(self, outcomes: dict[str, dict[str, int]]) -> None:
        for site, row in outcomes.items():
            mine = self.per_site.setdefault(
                site,
                {"injected": 0, "detected": 0, "corrected": 0, "uncorrected": 0},
            )
            for key, value in row.items():
                mine[key] += value


def run_campaign(config: CampaignConfig, ft_gemm=None) -> CampaignResult:
    """Execute a campaign against :class:`repro.core.ftgemm.FTGemm`.

    ``ft_gemm`` may be any object with the FTGemm calling convention
    (``gemm(a, b, c, alpha, beta, injector) -> FTGemmResult``); the parallel
    driver drops in unchanged.
    """
    from repro.core.ftgemm import FTGemm  # late import to keep layering acyclic

    if ft_gemm is None:
        ft_gemm = FTGemm()
    blocking = ft_gemm.ft_config.blocking
    result = CampaignResult()
    rate_rng = make_rng(derive_seed(config.seed, "rate"))
    for run in range(config.runs):
        rng = make_rng(derive_seed(config.seed, "operands", run))
        a = rng.standard_normal((config.m, config.k))
        b = rng.standard_normal((config.k, config.n))
        c0 = (
            rng.standard_normal((config.m, config.n))
            if config.beta != 0.0
            else None
        )
        if config.errors_per_call is not None:
            n_errors = config.errors_per_call
        else:
            n_errors = errors_per_call_from_rate(
                config.rate_per_minute, config.call_seconds, rate_rng
            )
        counts = None
        n_threads = getattr(ft_gemm, "n_threads", None)
        if n_threads is not None:
            counts = site_invocation_counts_parallel(
                config.m, config.n, config.k, blocking, n_threads, beta=config.beta
            )
        plan = plan_for_gemm(
            config.m,
            config.n,
            config.k,
            blocking,
            n_errors,
            sites=config.sites,
            model=config.model,
            seed=derive_seed(config.seed, "plan", run),
            beta=config.beta,
            counts=counts,
        )
        if config.fail_stops:
            from dataclasses import replace

            plan = replace(plan, fail_stops=tuple(config.fail_stops))
        injector = FaultInjector(plan)
        c = None if c0 is None else c0.copy()
        ft_result = ft_gemm.gemm(
            a, b, c, alpha=config.alpha, beta=config.beta, injector=injector
        )
        expected = gemm_reference(a, b, c0, alpha=config.alpha, beta=config.beta)
        err = float(np.max(np.abs(ft_result.c - expected)))
        scale = float(np.max(np.abs(expected))) + 1.0
        ok = err <= 1e-8 * scale
        result.runs += 1
        result.injected += injector.n_injected
        result.detected += ft_result.counters.errors_detected
        result.corrected += ft_result.counters.errors_corrected
        result.recomputed_blocks += ft_result.counters.blocks_recomputed
        result.correct_results += int(ok)
        result.max_final_error = max(result.max_final_error, err)
        result.per_run_injected.append(injector.n_injected)
        result.unverified_runs += int(not ft_result.verified)
        recovery = getattr(ft_result, "recovery", None)
        if recovery is not None:
            result.thread_deaths += len(recovery.thread_deaths)
            result.escalations += int(recovery.escalated)
        result.merge_site_outcomes(injector.site_outcomes())
    return result
