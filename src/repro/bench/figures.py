"""Builders for every figure/table of the paper's evaluation.

Each builder returns a :class:`FigureSeries` holding the regenerated series
alongside the paper's published claims and our counterparts, so the
harness output doubles as the EXPERIMENTS.md evidence.

- ``fig2a`` — the paper's Fig. 2(a), **measured**: serial DGEMM wall clock
  of NumPy's BLAS product (OpenBLAS), FT-GEMM Ori, FT-GEMM w/ FT and the
  classic non-fused ABFT, interleaved on the same operands, with the
  fused-vs-classic overhead of the in-text claim ("~15 % → 2.94 %") as two
  of its series. Fig. 2(b)-(d) need ten cores, MKL and BLIS, or the
  paper's testbed; they stay paper-reported (EXPERIMENTS.md says why).
- ``reliability`` — real campaigns under physical error rates;
- ``scaling`` — the performance model's strong-scaling projection
  (labelled as model output);
- ``serve``, ``panel_cache``, ``kernel_mix`` — measured serving tables.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.bench.reporting import FigureSeries, host_summary, observed_percent
from repro.core.config import FTGemmConfig
from repro.gemm.blocking import BlockingConfig
from repro.util.errors import ConfigError, FaultToleranceError

#: modelled call size that converts the reliability table's physical error
#: rates into per-call fault counts (the paper's Fig. 2(c) size)
FIG2C_N = 6144

#: default sizes of the measured serial sweep: the shape of the paper's
#: 2048..10240 sweep at the scale one core finishes in seconds
FIG2A_SIZES = (256, 512, 1024, 2048)
#: rounds per size: each of the four drivers runs first once
FIG2A_ROUNDS = 4


def _check(name: str, out, c_ref: np.ndarray, n: int) -> None:
    """Refuse to time a driver whose product is wrong: protected drivers
    must also report ``verified``."""
    if not getattr(out, "verified", True):
        raise FaultToleranceError(f"fig2a: {name} at n={n} did not verify")
    c = getattr(out, "c", out)
    err = float(np.max(np.abs(c - c_ref)))
    tol = 1e-8 * (float(np.max(np.abs(c_ref))) + 1.0)
    if not err <= tol:
        raise FaultToleranceError(
            f"fig2a: {name} at n={n}: max |C - BLAS| = {err:.3e} > {tol:.3e}"
        )


def _median_ratio(num: list[float], den: list[float]) -> float:
    """Median over rounds of the per-round ratio (the two calls of a round
    ran back to back, so host drift cancels)."""
    return float(np.median([x / y for x, y in zip(num, den)]))


def fig2a_serial(sizes: Sequence[int] = FIG2A_SIZES) -> FigureSeries:
    """Fig. 2(a): serial DGEMM, wall clock on the running host.

    Each size runs :data:`FIG2A_ROUNDS` rounds; a round calls the four
    drivers once each on the same operands, starting one driver later
    than the previous round, so no driver always follows the same
    neighbour. Every output is checked against that round's BLAS product
    before its time counts. Rates are 2n³ over the median time; ratios
    are medians of the per-round ratios. The BLAS thread count is
    whatever NumPy's BLAS was started with: run with
    ``OPENBLAS_NUM_THREADS=1`` for the paper's serial panel.
    """
    from repro.baselines.traditional_abft import TraditionalABFT
    from repro.core.ftgemm import FTGemm
    from repro.gemm.driver import BlockedGemm

    drivers = {
        "OpenBLAS": lambda a, b: a @ b,
        "FT-GEMM Ori": BlockedGemm().gemm,
        "FT-GEMM w/ FT": FTGemm().gemm,
        "classic ABFT": TraditionalABFT().gemm,
    }
    names = list(drivers)
    gflops: dict[str, list[float]] = {name: [] for name in names}
    ratios: dict[str, list[float]] = {
        "Ori/BLAS %": [], "FT/BLAS %": [], "fused ov %": [], "classic ov %": [],
    }
    for n in sizes:
        rng = np.random.default_rng([0, n])
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        times: dict[str, list[float]] = {name: [] for name in names}
        for r in range(FIG2A_ROUNDS):
            order = names[r % len(names):] + names[: r % len(names)]
            outputs = {}
            for name in order:
                t0 = time.perf_counter()
                outputs[name] = drivers[name](a, b)
                times[name].append(time.perf_counter() - t0)
            c_ref = outputs.pop("OpenBLAS")
            for name, out in outputs.items():
                _check(name, out, c_ref, n)
        for name in names:
            gflops[name].append(2.0 * n**3 / float(np.median(times[name])) / 1e9)
        blas, ori, ft, classic = (times[name] for name in names)
        ratios["Ori/BLAS %"].append(100.0 * _median_ratio(blas, ori))
        ratios["FT/BLAS %"].append(100.0 * _median_ratio(blas, ft))
        ratios["fused ov %"].append(100.0 * (_median_ratio(ft, ori) - 1.0))
        ratios["classic ov %"].append(100.0 * (_median_ratio(classic, ori) - 1.0))

    fig = FigureSeries(
        figure_id="fig2a",
        title=(
            f"Serial DGEMM, measured GFLOP/s and ratios "
            f"(median of {FIG2A_ROUNDS} interleaved rounds per size)"
        ),
        x_label="n",
        x=list(sizes),
    )
    for name in names:
        fig.add(name, gflops[name])
    for name, values in ratios.items():
        fig.add(name, values)

    def span(values: list[float]) -> str:
        lo, hi = min(values) / 100.0, max(values) / 100.0
        return f"{observed_percent(lo)}..{observed_percent(hi)}"

    ori_gap = [v - 100.0 for v in ratios["Ori/BLAS %"]]
    fig.paper_claims = {
        "Ori vs OpenBLAS": "Ori faster, +3.33%..+22.19% over MKL/OpenBLAS/BLIS",
        "FT overhead vs Ori": "1.17%..3.58% (avg ~2.94%)",
        "classic overhead vs Ori": "~15% (in-text)",
        "MKL, BLIS columns": "measured on a Xeon W-2255",
        "testbed": "Xeon W-2255 (10 cores, AVX-512), icc -O3, OpenBLAS 0.3.13",
    }
    fig.observations = {
        "Ori vs OpenBLAS": span(ori_gap),
        "FT overhead vs Ori": span(ratios["fused ov %"]),
        "classic overhead vs Ori": span(ratios["classic ov %"]),
        "MKL, BLIS columns": "paper-reported, not reproduced here: neither "
                             "library is part of NumPy's stack",
        "testbed": host_summary(),
    }
    return fig


def reliability_table(
    rates_per_minute: Sequence[float] = (0, 60, 180, 360, 600),
    *,
    n: int = 128,
    runs: int = 3,
    seed: int = 0,
) -> FigureSeries:
    """Abstract claim: correct results under hundreds of errors per minute.

    Runs *real* campaigns at a laptop-scale size: each rate is converted to
    per-call Poisson error counts through the modeled call duration of the
    paper-scale matrix, so the per-call fault load matches what the testbed
    would absorb at that physical rate.
    """
    from repro.core.ftgemm import FTGemm
    from repro.faults.campaign import CampaignConfig, run_campaign
    from repro.perfmodel.gemm_model import GemmPerfModel

    call_seconds = GemmPerfModel(mode="ft").seconds(FIG2C_N)
    config = FTGemmConfig(blocking=BlockingConfig.small(mr=8, nr=6))
    fig = FigureSeries(
        figure_id="reliability",
        title=f"Reliability vs injection rate (real campaigns at n={n})",
        x_label="err/min",
        x=list(rates_per_minute),
    )
    injected: list[float] = []
    detected: list[float] = []
    correct: list[float] = []
    for rate in rates_per_minute:
        result = run_campaign(
            CampaignConfig(
                m=n,
                n=n,
                k=n,
                runs=runs,
                errors_per_call=None,
                rate_per_minute=rate,
                call_seconds=call_seconds,
                seed=seed + int(rate),
            ),
            FTGemm(config),
        )
        injected.append(float(result.injected))
        detected.append(float(result.detected))
        correct.append(100.0 * result.correct_results / result.runs)
    fig.add("injected", injected)
    fig.add("detected", detected)
    fig.add("correct %", correct)
    fig.paper_claims = {
        "reliability": "correct under hundreds of errors injected per minute"
    }
    all_ok = all(v == 100.0 for v in correct)
    fig.observations = {
        "reliability": (
            f"{int(sum(injected))} faults across rates up to "
            f"{max(rates_per_minute):.0f}/min; "
            + ("all results correct" if all_ok else "FAILURES OBSERVED")
        )
    }
    return fig


def scaling_table(
    thread_counts: Sequence[int] = (1, 2, 4, 6, 8, 10),
    n: int = 8192,
) -> FigureSeries:
    """Supporting table: strong scaling of the Figure-1 parallel scheme.

    Not a poster panel, but the claim "scalable parallel design" needs
    evidence: modeled GFLOPS and parallel efficiency across thread counts
    at a paper-scale size, for Ori and FT.
    """
    from repro.perfmodel.gemm_model import GemmPerfModel

    fig = FigureSeries(
        figure_id="scaling",
        title=f"Strong scaling at n={n}, model output (Xeon W-2255)",
        x_label="threads",
        x=list(thread_counts),
    )
    ori = []
    ft = []
    eff = []
    for t in thread_counts:
        o = GemmPerfModel(mode="ori", threads=t).gflops(n)
        f = GemmPerfModel(mode="ft", threads=t).gflops(n)
        ori.append(o)
        ft.append(f)
        eff.append(100.0 * f / (ft[0] * t))
    fig.add("Ori GFLOPS", ori)
    fig.add("FT GFLOPS", ft)
    fig.add("FT efficiency %", eff)
    fig.paper_claims = {"scaling": "scalable parallel design (Sec 2.3)"}
    fig.observations = {
        "scaling": f"model output: {eff[-1]:.1f}% parallel efficiency at "
                   f"{thread_counts[-1]} threads"
    }
    return fig


def serve_table(
    batch_limits: Sequence[int] = (1, 4, 16),
    *,
    requests: int = 48,
    shape: tuple[int, int, int] = (4, 48, 48),
    workers: int = 1,
    seed: int = 0,
) -> FigureSeries:
    """Supporting table: serving throughput vs the coalescing limit.

    Extension beyond the poster — the serving subsystem's core claim:
    stacking compatible requests into one protected product amortizes the
    per-call FT fixed costs (prologue, B̃ packing + encoding, fused
    verification), so coalesced batches serve a multiple of the singleton
    throughput. A burst of uniform-shape shared-B requests is pushed
    through one worker at each ``max_batch`` limit; ``max_batch=1`` is the
    singleton baseline.
    """
    from repro.serve import GemmRequest, GemmService, ServiceConfig

    m, k, n = shape
    rng = np.random.default_rng(seed)
    b_shared = rng.standard_normal((k, n))
    operands = [rng.standard_normal((m, k)) for _ in range(requests)]
    fig = FigureSeries(
        figure_id="serve",
        title=(
            f"Serving throughput vs coalescing limit "
            f"({requests} x {m}x{n}x{k} shared-B requests, "
            f"{workers} worker)"
        ),
        x_label="max_batch",
        x=list(batch_limits),
    )
    throughput: list[float] = []
    batches: list[float] = []
    for max_batch in batch_limits:
        service = GemmService(
            ServiceConfig(
                workers=workers,
                max_batch=max_batch,
                window_s=0.001,
                ft=FTGemmConfig(blocking=BlockingConfig.small(mr=8, nr=6)),
            )
        ).start()
        t0 = time.perf_counter()
        tickets = [
            service.submit(GemmRequest(a, b_shared)) for a in operands
        ]
        service.drain()
        elapsed = time.perf_counter() - t0
        responses = [t.result(30.0) for t in tickets]
        assert all(r.ok for r in responses)
        for a, r in zip(operands, responses):
            np.testing.assert_allclose(
                r.result.c, a @ b_shared, rtol=1e-9, atol=1e-9
            )
        throughput.append(requests / elapsed)
        batches.append(float(service.scheduler.stats.batches))
    fig.add("throughput req/s", throughput)
    fig.add("batches", batches)
    fig.add("speedup vs singleton", [t / throughput[0] for t in throughput])
    best = max(throughput) / throughput[0]
    fig.paper_claims = {
        "serve": "amortized FT fixed costs: coalesced serving beats "
                 "singleton dispatch by a multiple"
    }
    fig.observations = {
        "serve": f"max_batch={batch_limits[int(np.argmax(throughput))]} "
                 f"serves {best:.1f}x the singleton throughput"
    }
    return fig


def panel_cache_table(
    *,
    requests: int = 96,
    warmup: int = 16,
    repeats: int = 3,
    shape: tuple[int, int, int] = (2, 512, 1024),
    pool: int = 4,
    zipf_s: float = 1.2,
    max_batch: int = 4,
    cache_mib: int = 64,
    seed: int = 7,
) -> FigureSeries:
    """Supporting table: hot-B serving throughput, panel cache off vs on.

    Extension beyond the poster — the cross-request complement of
    :func:`serve_table`. Coalescing amortizes B̃ packing *within* a batch;
    the :class:`~repro.gemm.panelcache.PanelCache` amortizes it *across*
    batches when the same weight matrix keeps arriving (the hot-operand
    inference pattern). Requests draw their B from a small Zipf-skewed
    pool; both configurations run the same coalescing scheduler, so any
    gap is the cache's alone. A warm-up phase (excluded from timing)
    absorbs the one-time encode misses — the committed number is the
    steady-state hot-B throughput over the best of ``repeats`` measured
    phases (interference only ever slows a phase down, so best-of is the
    low-noise estimator; both columns get the same treatment). Every
    response is still audited against the NumPy oracle — the cache never
    weakens the ABFT guarantee: reused panels are re-verified against
    their stored checksums at admission.

    Single worker: per-worker drivers already isolate packing state, and
    one worker keeps the off/on comparison free of GIL scheduling noise.
    """
    from repro.serve import GemmRequest, GemmService, ServiceConfig

    m, k, n = shape
    blocking = BlockingConfig(mc=64, kc=512, nc=1024, mr=8, nr=6)
    fig = FigureSeries(
        figure_id="panel_cache",
        title=(
            f"Hot-B serving throughput, panel cache off vs on "
            f"({requests} x {m}x{n}x{k} requests, Zipf(s={zipf_s}) over "
            f"{pool} B operands, max_batch={max_batch}, 1 worker)"
        ),
        x_label="panel cache",
        x=["off", f"{cache_mib} MiB"],
    )
    throughput: list[float] = []
    hits: list[float] = []
    misses: list[float] = []
    for budget in (None, cache_mib * (1 << 20)):
        rng = np.random.default_rng(seed)
        pool_b = [rng.standard_normal((k, n)) for _ in range(pool)]
        ranks = np.arange(1.0, pool + 1.0)
        zipf_p = ranks ** -zipf_s
        zipf_p /= zipf_p.sum()

        def draw(count):
            return [
                (
                    rng.standard_normal((m, k)),
                    pool_b[int(rng.choice(pool, p=zipf_p))],
                )
                for _ in range(count)
            ]

        # operands are pre-generated so the timed loop holds only
        # submit + wait, not rng work
        warm_ops = draw(warmup)
        measured_ops = [draw(requests) for _ in range(repeats)]
        service = GemmService(
            ServiceConfig(
                workers=1,
                max_batch=max_batch,
                window_s=0.002,
                ft=FTGemmConfig(blocking=blocking),
                panel_cache_bytes=budget,
            )
        ).start()

        def phase(ops):
            return [(a, b, service.submit(GemmRequest(a, b))) for a, b in ops]

        # warm-up: absorbs the cold encode misses (and first-call
        # workspace allocation on the off path) so every measured phase
        # sees steady state
        for _, _, ticket in phase(warm_ops):
            ticket.result(120.0)
        best = 0.0
        for ops in measured_ops:
            t0 = time.perf_counter()
            pairs = phase(ops)
            responses = [(a, b, t.result(120.0)) for a, b, t in pairs]
            elapsed = time.perf_counter() - t0
            assert all(r.ok for _, _, r in responses)
            for a, b, r in responses:
                np.testing.assert_allclose(
                    r.result.c, a @ b, rtol=1e-9, atol=1e-9
                )
            best = max(best, requests / elapsed)
        stats = service.stats().get("panel_cache", {})
        service.shutdown()
        throughput.append(best)
        hits.append(float(stats.get("hits", 0)))
        misses.append(float(stats.get("misses", 0)))
    fig.add("throughput req/s", throughput)
    fig.add("cache hits", hits)
    fig.add("cache misses", misses)
    fig.add(
        "speedup vs cache-off", [t / throughput[0] for t in throughput]
    )
    speedup = throughput[1] / throughput[0]
    fig.paper_claims = {
        "panel_cache": "cross-request B̃+checksum reuse: hot-B serving at "
                       ">= 2x the cache-off throughput, on top of "
                       "coalescing"
    }
    fig.observations = {
        "panel_cache": f"cache-on serves {speedup:.2f}x the cache-off "
                       f"throughput ({hits[1]:.0f} hits / "
                       f"{misses[1]:.0f} misses after warm-up)"
    }
    return fig


def kernel_mix_table(
    *,
    requests: int = 160,
    fault_rate: float = 0.3,
    errors_per_call: int = 2,
    seed: int = 0,
) -> FigureSeries:
    """Supporting table: the four-kernel blend (GEMM/GEMV/TRSM/FFT)
    served through the fault-tolerant stack, clean vs fault storm.

    Extension beyond the poster — the ProtectedKernel registry's core
    claim: one serving stack carries the whole FT-BLAS-shaped family
    (ABFT where checksums amortize, DMR where they cannot) and the
    per-kernel oracle audit stays clean even when a storm of transient
    and sticky faults strikes every kernel's own injection sites.
    """
    from repro.serve import (
        ServiceConfig,
        ShapeSpec,
        WorkloadConfig,
        run_serve_workload,
    )

    shapes = (
        ShapeSpec(8, 32, 32, weight=0.35),
        ShapeSpec(24, 16, 1, weight=0.25, kernel="gemv"),
        ShapeSpec(1, 32, 3, weight=0.2, kernel="trsm"),
        ShapeSpec(1, 1, 32, weight=0.2, private_b=True, kernel="fft"),
    )
    config = ServiceConfig(
        workers=2,
        capacity=max(64, 2 * requests),
        max_batch=16,
        ft=FTGemmConfig(blocking=BlockingConfig.small()),
    )
    reports = {}
    for label, rate in (("clean", 0.0), ("storm", fault_rate)):
        workload = WorkloadConfig(
            duration_s=120.0,
            arrival_rate=2000.0,
            max_requests=requests,
            fault_rate=rate,
            fail_stop_fraction=0.0,
            errors_per_call=errors_per_call,
            seed=seed + 17,
            shapes=shapes,
        )
        reports[label] = run_serve_workload(
            config, workload, timeout_s=300.0
        )
    kernels = ["gemm", "gemv", "trsm", "fft"]
    fig = FigureSeries(
        figure_id="kernel_mix",
        title=(
            f"Mixed-kernel serving audit ({requests} requests per run, "
            f"storm fault rate {fault_rate:.0%}, "
            f"{errors_per_call} errors/call)"
        ),
        x_label="kernel",
        x=kernels,
    )
    for label, report in reports.items():
        tallies = report.kernels
        for metric in ("submitted", "ok", "wrong"):
            fig.add(
                f"{label} {metric}",
                [
                    float(tallies.get(k, {}).get(metric, 0))
                    for k in kernels
                ],
            )
    storm = reports["storm"]
    fig.paper_claims = {
        "kernel_mix": "one FT serving stack, whole kernel family: "
                      "zero lost/duplicated/wrong under a fault storm"
    }
    fig.observations = {
        "kernel_mix": (
            f"storm: {storm.submitted} requests, "
            f"ok={storm.responses.get('ok', 0)}, lost={storm.lost}, "
            f"duplicates={storm.duplicates}, wrong={storm.wrong}, "
            f"{storm.throughput_rps:.0f} req/s"
        )
    }
    return fig


ALL_FIGURES = {
    "fig2a": fig2a_serial,
    "reliability": reliability_table,
    "scaling": scaling_table,
    "serve": serve_table,
    "panel_cache": panel_cache_table,
    "kernel_mix": kernel_mix_table,
}


def build(figure_id: str, **kwargs) -> FigureSeries:
    """Build one figure by id (harness / CLI entry point)."""
    if figure_id not in ALL_FIGURES:
        raise ConfigError(
            f"unknown figure {figure_id!r}; known: {sorted(ALL_FIGURES)}"
        )
    return ALL_FIGURES[figure_id](**kwargs)
