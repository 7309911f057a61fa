"""Score surviving candidates: analytic model plus host-overhead pricing.

:class:`~repro.perfmodel.gemm_model.GemmPerfModel` prices the *machine*
cost of a candidate (simcpu FMA cycles, packing passes, DRAM legs, barrier
sync), but it is deliberately blind to what dominates a pure-Python
implementation: the fixed interpreter cost of every pack/macro-kernel
*invocation*. Without that term every ``mc`` is equally good on an
L2-resident shape and the ranking is noise; with it, the model correctly
predicts that a tall-skinny problem wants the largest legal ``mc`` (fewest
block invocations).

The host constants are calibrated once against measurement on this
interpreter (see ``benchmarks/bench_tune_search.py``, which reports the
rank correlation between these predictions and wall-clock truth).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gemm.blocking import n_blocks
from repro.perfmodel.constants import ModelConstants
from repro.perfmodel.gemm_model import GemmPerfModel
from repro.perfmodel.roofline import arithmetic_intensity, attainable_gflops
from repro.perfmodel.traffic import gemm_dram_traffic
from repro.simcpu.machine import MachineSpec
from repro.simcpu.vector import VectorUnit
from repro.tune.db import TunedConfig
from repro.util.errors import ConfigError

__all__ = [
    "HOST_BARRIER_SECONDS",
    "HOST_CALL_SECONDS",
    "ScoredCandidate",
    "score",
    "score_all",
]

#: Interpreter cost of one pack_a / pack_b / macro-kernel invocation.
HOST_CALL_SECONDS = 40e-6
#: Interpreter cost of one team barrier crossing when ``threads > 1``.
HOST_BARRIER_SECONDS = 150e-6


@dataclass(frozen=True)
class ScoredCandidate:
    """One candidate's predicted cost, decomposed for the funnel report."""

    config: TunedConfig
    model_seconds: float      # GemmPerfModel (machine-side) prediction
    host_seconds: float       # interpreter overhead term
    compute_cycles: float     # raw simcpu FMA cycles (per-core)
    roofline_gflops: float    # attainable bound at this candidate's traffic

    @property
    def predicted_seconds(self) -> float:
        return self.model_seconds + self.host_seconds

    def predicted_gflops(self, m: int, n: int, k: int) -> float:
        return 2.0 * m * n * k / self.predicted_seconds / 1e9


def _host_seconds(cand: TunedConfig, m: int, n: int, k: int) -> float:
    """Invocation-count pricing of the Python driver's loop nest."""
    n_p = n_blocks(k, cand.kc)
    n_j = n_blocks(n, cand.nc)
    n_i = n_blocks(m, cand.mc)
    calls = n_p * n_j          # pack_b, one per (p, j)
    calls += n_p * n_i         # pack_a, one per (p, i) — reused across j
    calls += n_p * n_j * n_i   # macro kernel
    seconds = calls * HOST_CALL_SECONDS
    if cand.threads > 1:
        barriers = 1 + 2 * n_p * n_j
        seconds += barriers * HOST_BARRIER_SECONDS
    return seconds


def score(
    cand: TunedConfig,
    m: int,
    n: int,
    k: int,
    machine: MachineSpec,
    *,
    mode: str = "ft",
    constants: ModelConstants | None = None,
) -> ScoredCandidate:
    """Price one candidate for one shape."""
    if min(m, n, k) <= 0:
        raise ConfigError(f"invalid shape {m}x{n}x{k}")
    constants = constants or ModelConstants()
    model = GemmPerfModel(
        machine,
        cand.blocking(),
        mode=mode,
        threads=cand.threads,
        constants=constants,
    )
    breakdown = model.breakdown(m, n, k)
    cycles = VectorUnit(machine).gemm_compute_cycles(m, n, k, cand.mr, cand.nr)
    traffic = gemm_dram_traffic(m, n, k, cand.blocking(), machine, constants)
    roofline = attainable_gflops(
        arithmetic_intensity(breakdown.flops, traffic.total),
        machine,
        threads=cand.threads,
        constants=constants,
    )
    return ScoredCandidate(
        config=cand,
        model_seconds=breakdown.seconds,
        host_seconds=_host_seconds(cand, m, n, k),
        compute_cycles=cycles,
        roofline_gflops=roofline,
    )


def score_all(
    candidates: list[TunedConfig],
    m: int,
    n: int,
    k: int,
    machine: MachineSpec,
    *,
    mode: str = "ft",
    constants: ModelConstants | None = None,
) -> list[ScoredCandidate]:
    """Score every candidate, best (lowest predicted time) first.

    Ties break on the config key so the ordering — and therefore the
    measured top-K and the search winner — is deterministic across runs.
    """
    scored = [
        score(cand, m, n, k, machine, mode=mode, constants=constants)
        for cand in candidates
    ]
    scored.sort(key=lambda s: (s.predicted_seconds, s.config.key()))
    return scored
