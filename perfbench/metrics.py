"""Every metric the benchmark reports, with what it should move and where.

``BENCHMARK.json`` at the repository root lists the same names, units and
directions (a test keeps the two in step); this module adds what that
file's fixed schema has no room for: for each per-layer metric, the
end-to-end metric it should move, the workload where the layer does most
of its work and, where one exists, the workload where it does little.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the workloads BENCHMARK.json gates on, each with why it exists
WORKLOADS = {
    "gemm-1k": (
        "the paper's serial square DGEMM: 1024^3 FTGemm calls interleaved "
        "with OpenBLAS on the same operands; gemm and core do all the work, "
        "serve none"
    ),
    "serve-proc": (
        "process tier, 2 processes over shm, 16 closed-loop GEMM callers, "
        "more than processes x in-flight cap: transport, pipes and the "
        "dispatcher backlog path dominate; the thread tier has none of them"
    ),
}

#: runnable with --workload and in --report, but not gated, each for a
#: reason measured on a 2-vCPU shared host
UNGATED = {
    # its throughput rides on GIL hand-offs between four threads, and
    # swung 394-1028 req/s across ten runs while gemm-1k moved 8%: wider
    # than any bound the gate allows
    "serve-mix": (
        "thread tier, 16 closed-loop callers over the stock four-kernel "
        "blend of tiny operands: queue, scheduler, pool, completion and the "
        "kernels' own checks dominate, not GEMM compute"
    ),
    # the FFT kernel returns verified but wrong answers under this storm
    # (4 of 29,198 requests in a 45 s run), a defect of the program reported
    # as correct=false; a gated workload must be one on which no operation
    # fails
    "serve-storm": (
        "serve-mix with make_injector_factory faulting 30% of first "
        "attempts: the verify-correct-escalate ladder on every kernel"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end metrics only: allowed worsening, as a share of the
    #: parent's median, before a change counts as a regression
    bound: float | None = None
    #: per-layer metrics only: the end-to-end metric this should move
    moves: str = ""
    #: per-layer metrics only: "most work / little" workloads
    where: str = ""
    #: one-line definition, printed by ``run.py --report``
    about: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, about=(
        "fresh interpreter to first timed operation (imports, "
        "construction, worker spawn, warm-up); median of 5 set-ups")),
    Metric("mem_mb", "MiB", "lower", 0.1, about=(
        "peak summed RSS of the program's processes, children included, "
        "during the timed phase")),
    Metric("ok_frac", "fraction", "higher", 0.01, about=(
        "operations answered verified-ok and matching the oracle / "
        "operations attempted")),
    Metric("gflops", "GFLOP/s", "higher", 0.24, about=(
        "gemm-1k: 2n^3 / median protected call time; serve-*: useful "
        "GFLOP of verified-correct answers per second")),
    Metric("blas_frac", "fraction", "higher", 0.2, about=(
        "NumPy/OpenBLAS time for the same answers / the program's time: "
        "gemm-1k as the median per-round ratio of interleaved calls, "
        "serve-* as reference seconds for the window's answers / window")),
    Metric("goodput_rps", "1/s", "higher", 0.24, about=(
        "verified-correct answers per second (gemm-1k: per second of "
        "protected-call time)")),
    Metric("lat_ms_p50", "ms", "lower", 0.24, about=(
        "median time from submit to response (gemm-1k: protected call)")),
    Metric("lat_ms_p90", "ms", "lower", 0.24, about=(
        "90th percentile of the same")),
)

PER_LAYER = (
    Metric("gemm.macro_ms", "ms", "lower",
           moves="gflops, blas_frac", where="gemm-1k / serve-mix",
           about="self time of macro_kernel_batched per FT call"),
    Metric("gemm.pack_a_ms", "ms", "lower",
           moves="gflops, blas_frac", where="gemm-1k / serve-mix",
           about="self time of pack_a per FT call"),
    Metric("gemm.pack_b_ms", "ms", "lower",
           moves="gflops, blas_frac", where="gemm-1k / serve-mix",
           about="self time of pack_b per FT call"),
    Metric("gemm.ori_blas_frac", "fraction", "higher",
           moves="blas_frac", where="gemm-1k",
           about="OpenBLAS / unprotected BlockedGemm, interleaved"),
    Metric("gemm.batched_frac", "fraction", "higher",
           moves="gflops, goodput_rps", where="all (injected attempts run tile)",
           about="share of FT driver calls whose last_mode is batched"),
    Metric("gemm.pack_mb", "MiB", "lower",
           moves="none (changes only with the algorithm)", where="gemm-1k",
           about="packed A+B bytes per FT call, from result.counters"),
    Metric("core.checksum_mflop", "Mflop", "lower",
           moves="none (changes only with the algorithm)", where="gemm-1k",
           about="checksum flops per FT call, from result.counters"),
    Metric("core.prologue_ms", "ms", "lower",
           moves="blas_frac", where="gemm-1k / serve-mix",
           about="self time of span prologue per FT call"),
    Metric("core.checksum_ms", "ms", "lower",
           moves="blas_frac", where="gemm-1k / serve-mix",
           about="self time of span checksum_update (all sites) per FT call"),
    Metric("core.verify_ms", "ms", "lower",
           moves="blas_frac, goodput_rps", where="gemm-1k, serve-mix",
           about="EscalationSupervisor.finalize per FT call"),
    Metric("core.ft_overhead_pct", "%", "lower",
           moves="blas_frac", where="gemm-1k",
           about="FTGemm / unprotected BlockedGemm - 1, interleaved"),
    Metric("core.recovered_frac", "fraction", "higher",
           moves="ok_frac, goodput_rps",
           where="serve-storm (ungated) / every gated workload",
           about="faulted calls verified without escalation / faulted calls"),
    Metric("core.escalated_frac", "fraction", "lower",
           moves="ok_frac, goodput_rps",
           where="serve-storm (ungated) / every gated workload",
           about=("faulted calls escalated (supervisor or DMR rung, or "
                  "unverified and retried) / faulted calls")),
    Metric("baselines.classic_overhead_pct", "%", "lower",
           moves="none (the paper's comparison point)", where="gemm-1k",
           about="TraditionalABFT / unprotected BlockedGemm - 1, interleaved"),
    Metric("kernels.gemm_ms_p50", "ms", "lower",
           moves="goodput_rps", where="gemm-1k, serve-mix",
           about="median time inside FTGemm.gemm"),
    Metric("kernels.gemv_ms_p50", "ms", "lower",
           moves="goodput_rps", where="serve-mix, serve-storm (ungated)",
           about="median time inside the GEMV ProtectedKernel.run"),
    Metric("kernels.trsm_ms_p50", "ms", "lower",
           moves="goodput_rps", where="serve-mix, serve-storm (ungated)",
           about="median time inside the TRSM ProtectedKernel.run"),
    Metric("kernels.fft_ms_p50", "ms", "lower",
           moves="goodput_rps", where="serve-mix, serve-storm (ungated)",
           about="median time inside the FFT ProtectedKernel.run"),
    Metric("serve.admit_ms_p50", "ms", "lower",
           moves="lat_ms_p50", where="serve-* / gemm-1k",
           about="median duration of GemmService.submit"),
    Metric("serve.wait_ms_p50", "ms", "lower",
           moves="lat_ms_p50", where="serve-*",
           about="submit -> BatchScheduler.next_batch returns the batch"),
    Metric("serve.wait_ms_p90", "ms", "lower",
           moves="lat_ms_p90", where="serve-*",
           about="90th percentile of the same"),
    Metric("serve.exec_ms_p50", "ms", "lower",
           moves="goodput_rps, lat_ms_p50", where="serve-*",
           about="next_batch returns the batch -> future resolved"),
    Metric("serve.batch_size_mean", "requests", "higher",
           moves="goodput_rps", where="serve-proc, serve-mix",
           about="mean batch_size over responses"),
    Metric("serve.coalesced_frac", "fraction", "higher",
           moves="goodput_rps", where="serve-proc, serve-mix",
           about="coalesced requests (stats()['scheduler']) / requests"),
    Metric("serve.busy_frac", "fraction", "higher",
           moves="shows whether goodput_rps is execution- or overhead-bound",
           where="serve-mix (ungated; 0 on the process tier)",
           about="worker time in kernel calls / (workers x wall), thread tier"),
    Metric("serve.retries_per_req", "count", "lower",
           moves="goodput_rps", where="serve-storm / serve-mix, serve-proc",
           about="serve.retries / requests"),
    Metric("serve.proc.dispatch_ms_p50", "ms", "lower",
           moves="lat_ms_p50, goodput_rps", where="serve-proc",
           about="next_batch returns the batch -> first ShmTransport.stage"),
    Metric("serve.proc.transport_ms_p50", "ms", "lower",
           moves="goodput_rps", where="serve-proc",
           about="parent time in stage, alloc_result, fetch, release per batch"),
    Metric("serve.proc.segments_per_req", "count", "lower",
           moves="goodput_rps", where="serve-proc",
           about="serve.proc.shm_segments / requests"),
    Metric("serve.proc.pipe_kb_per_req", "KiB", "lower",
           moves="goodput_rps", where="serve-proc",
           about="pipe tx+rx bytes / requests"),
    Metric("serve.proc.b_cache_hit_frac", "fraction", "higher",
           moves="goodput_rps", where="serve-proc",
           about="serve.proc.b_cache_hits / GEMM batches"),
    Metric("trace.overhead_pct", "%", "lower",
           moves="none", where="all",
           about="primary metric, untraced vs traced, alternated in one run"),
    Metric("trace.stage_cover_frac", "fraction", "higher",
           moves="none (a check: must lie in [0.9, 1.1] on gemm-1k)",
           where="gemm-1k",
           about="sum of stage self times / traced FT call time"),
    Metric("trace.latency_cover_frac", "fraction", "higher",
           moves="none (a check: must be >= 0.9 on serve-*)",
           where="serve-*",
           about="median(admit + wait + exec) / median latency, traced"),
)

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_spec() -> dict:
    """The ``BENCHMARK.json`` document these definitions imply."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


#: seconds one run measures (BENCHMARK.json's run_seconds)
RUN_SECONDS = 45

#: set-ups per run whose median is setup_s (the timed run's own plus
#: set-up-only runs in fresh interpreters)
SETUP_SAMPLES = 5

#: the seed named for validating later claims; never used while tuning
HELD_OUT_SEED = 20231017

#: traced-run checks that the stage accounting closes: workload ->
#: (metric, lowest, highest) — stage self times must account for a
#: gemm-1k call, and admit + wait + exec for serving latency
CHECKS = {
    "gemm-1k": ("trace.stage_cover_frac", 0.9, 1.1),
    "serve-mix": ("trace.latency_cover_frac", 0.9, None),
    "serve-proc": ("trace.latency_cover_frac", 0.9, None),
    "serve-storm": ("trace.latency_cover_frac", 0.9, None),
}
