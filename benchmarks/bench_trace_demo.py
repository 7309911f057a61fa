"""The observability layer's evidence run: a traced 4-thread FT-DGEMM
absorbing one transient checksum fault and one fail-stopped thread.

``test_trace_demo_fault_run`` produces the committed artefacts
``results/trace_demo.json`` (a Chrome/Perfetto trace — open it at
https://ui.perfetto.dev or chrome://tracing) and ``results/trace_demo.txt``
(the measured-vs-predicted phase table plus barrier-wait statistics), and
asserts the span families the acceptance checklist names: per-thread
pack/compute/verify spans, barrier-wait histograms, the injection event,
and the supervisor's escalation-rung spans.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.bench.reporting import host_summary
from repro.core.config import FTGemmConfig
from repro.core.parallel import ParallelFTGemm
from repro.faults.campaign import plan_for_gemm, site_invocation_counts_parallel
from repro.faults.injector import FaultInjector
from repro.faults.models import FailStop
from repro.gemm.blocking import BlockingConfig
from repro.obs import (
    Tracer,
    phase_report,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.perfmodel import GemmPerfModel

RESULTS = Path(__file__).parent / "results"

THREADS = 4
N = 144


def test_trace_demo_fault_run():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((N, N))
    b = rng.standard_normal((N, N))
    blocking = BlockingConfig(mc=48, kc=48, nc=96, mr=8, nr=6)
    config = FTGemmConfig(blocking=blocking)

    # one transient fault on a checksum buffer plus one fail-stopped thread
    # mid-run
    counts = site_invocation_counts_parallel(N, N, N, blocking, THREADS)
    plan = plan_for_gemm(
        N, N, N, blocking, 1, sites=("checksum",), seed=3, counts=counts
    )
    plan = replace(plan, fail_stops=(FailStop(thread=2, barrier=5),))

    tracer = Tracer()
    driver = ParallelFTGemm(config, n_threads=THREADS, tracer=tracer)
    result = driver.gemm(a, b, injector=FaultInjector(plan))

    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-9, atol=1e-9)
    assert result.recovery is not None

    # ---- the span families the trace must exhibit
    events = tracer.events
    names = {e.name for e in events}
    for required in (
        "gemm", "prologue", "scale_c", "pack_a", "pack_b",
        "macro_kernel", "barrier_wait", "verify_round",
        "fault.injected", "fault.failstop",
        "recover.thread_recovery", "recover.ledger_rebuild",
    ):
        assert required in names, f"missing span/event {required!r}"
    pack_tids = {e.tid for e in events if e.name == "pack_b"}
    assert len(pack_tids) == THREADS  # cooperative B̃ packing
    macro_per_tid = {tid: 0 for tid in range(THREADS)}
    for e in events:
        if e.name == "macro_kernel":
            macro_per_tid[e.tid] += 1
    # the fail-stopped thread's span stream ends early: it records strictly
    # fewer macro-kernel spans than every survivor
    survivors = [t for t in range(THREADS) if t != 2]
    assert all(macro_per_tid[2] < macro_per_tid[t] for t in survivors)
    hists = tracer.metrics.snapshot()["histograms"]
    for tid in range(THREADS):
        assert f"barrier.wait_us.t{tid}" in hists

    # ---- committed evidence: the trace itself + the phase report
    trace_obj = write_chrome_trace(RESULTS / "trace_demo.json", tracer)
    assert validate_chrome_trace(trace_obj) > 0

    breakdown = GemmPerfModel(
        blocking=blocking, mode="ft", threads=THREADS
    ).breakdown(N, beta_nonzero=False)
    report = phase_report(events, breakdown=breakdown)
    waits = {
        key: hists[key]
        for key in sorted(hists)
        if key.startswith("barrier.wait_us.")
    }
    lines = [
        f"traced {N}x{N}x{N} FT-DGEMM, {THREADS} threads (simulated team), "
        "1 checksum fault + fail-stop t2@b5",
        f"host     : {host_summary()}",
        "run      : PYTHONPATH=src python -m pytest "
        "benchmarks/bench_trace_demo.py -q",
        "predicted: GemmPerfModel on a Xeon W-2255 (model output)",
        f"events   : {len(events)}  (trace: results/trace_demo.json)",
        f"verified : {result.verified}",
        f"recovery : {result.recovery.summary()}",
        "",
        report.to_table(),
        "",
        "barrier waits (per thread):",
    ]
    for key, h in waits.items():
        lines.append(
            f"  {key:22s} n={h['count']:3d}  mean={h['mean']:8.1f} us  "
            f"max={h['max']:8.1f} us"
        )
    (RESULTS / "trace_demo.txt").write_text("\n".join(lines) + "\n")


def test_trace_demo_disabled_books_nothing():
    """The default (untraced) path must record no events at all."""
    rng = np.random.default_rng(12)
    a = rng.standard_normal((64, 64))
    b = rng.standard_normal((64, 64))
    config = FTGemmConfig(blocking=BlockingConfig.small(mr=8, nr=6))
    driver = ParallelFTGemm(config, n_threads=2)
    result = driver.gemm(a, b)
    assert result.verified
    assert result.trace is None
    assert not driver.tracer.enabled
