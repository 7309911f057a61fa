"""End-to-end observability: span trees of real traced runs (serial,
parallel, fail-stop recovery), the disabled-path guarantees, and the CLI
``trace`` surface."""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import FTGemmConfig
from repro.core.ftgemm import FTGemm
from repro.core.parallel import ParallelFTGemm
from repro.faults.campaign import plan_for_gemm, site_invocation_counts_parallel
from repro.faults.injector import FaultInjector, InjectionPlan
from repro.faults.models import FailStop
from repro.gemm.blocking import BlockingConfig
from repro.obs import (
    Tracer,
    phase_report,
    phase_totals,
    to_chrome_trace,
    validate_chrome_trace,
)


def _operands(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _config(**kwargs):
    return FTGemmConfig(blocking=BlockingConfig.small(mr=4, nr=4), **kwargs)


# ------------------------------------------------------------------- serial
def test_serial_traced_run_span_tree():
    a, b = _operands(48)
    tracer = Tracer()
    result = FTGemm(_config(), tracer=tracer).gemm(a, b)
    assert result.verified
    assert result.trace is tracer

    roots = tracer.spans("gemm", cat="driver")
    assert len(roots) == 1  # FTGemm owns the root; BlockedGemm defers
    root = roots[0]
    names = {e.name for e in tracer.events}
    assert {"prologue", "pack_a", "pack_b", "checksum_update",
            "verify_round"} <= names
    # every span nests inside the root
    for e in tracer.spans():
        assert e.ts_us >= root.ts_us - 1e-3
        assert e.ts_us + e.dur_us <= root.ts_us + root.dur_us + 1e-3
    (verdict,) = tracer.instants("verdict")
    assert verdict.args["verified"] is True
    assert validate_chrome_trace(to_chrome_trace(tracer.events)) > 0


def test_config_trace_flag_auto_creates_tracer():
    a, b = _operands(32)
    result = FTGemm(_config(trace=True)).gemm(a, b)
    assert result.trace is not None
    assert result.trace.spans("gemm")


def test_untraced_run_records_nothing():
    a, b = _operands(32)
    driver = FTGemm(_config())
    result = driver.gemm(a, b)
    assert result.trace is None
    assert not driver.tracer.enabled


def test_injection_event_lands_in_trace():
    n = 48
    a, b = _operands(n)
    config = _config()
    plan = plan_for_gemm(n, n, n, config.blocking, 2, seed=1)
    tracer = Tracer()
    result = FTGemm(config, tracer=tracer).gemm(
        a, b, injector=FaultInjector(plan)
    )
    assert result.verified
    injected = tracer.instants("fault.injected")
    assert len(injected) == 2
    assert all(e.args["site"] for e in injected)
    assert tracer.metrics.snapshot()["counters"]["faults.injected"] == 2


# ----------------------------------------------------------------- parallel
def test_parallel_failstop_recovery_span_tree():
    """A 2-thread run with one fail-stop: the dead thread's spans are all
    closed, recovery-epoch spans are present, and the trace validates."""
    n = 40
    a, b = _operands(n, seed=2)
    tracer = Tracer()
    driver = ParallelFTGemm(_config(), n_threads=2, tracer=tracer)
    plan = InjectionPlan(
        schedule={}, fail_stops=(FailStop(thread=1, barrier=3),)
    )
    result = driver.gemm(a, b, injector=FaultInjector(plan))
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-9, atol=1e-9)

    names = {e.name for e in tracer.events}
    assert "recover.thread_recovery" in names
    assert "recover.ledger_rebuild" in names
    (death,) = tracer.instants("fault.failstop")
    assert death.tid == 1

    # every span the dead thread opened was closed (they are X events at
    # all) and the per-tid containment check passes for the whole trace
    dead_spans = [e for e in tracer.spans() if e.tid == 1]
    assert dead_spans
    assert all(e.dur_us is not None for e in dead_spans)
    assert validate_chrome_trace(to_chrome_trace(tracer.events)) > 0

    # recovery happens after the dead thread's last span closes
    recovery = tracer.spans("recover.thread_recovery")[0]
    last_dead = max(e.ts_us + e.dur_us for e in dead_spans)
    assert recovery.ts_us >= last_dead - 1e-3

    # barrier-wait histograms exist for both threads; the dead thread
    # recorded fewer waits
    hists = tracer.metrics.snapshot()["histograms"]
    assert hists["barrier.wait_us.t1"]["count"] < \
        hists["barrier.wait_us.t0"]["count"]


def test_parallel_trace_phase_partition():
    n = 48
    a, b = _operands(n, seed=3)
    tracer = Tracer()
    driver = ParallelFTGemm(_config(), n_threads=2, tracer=tracer)
    result = driver.gemm(a, b)
    assert result.verified
    totals = phase_totals(tracer.events)
    for cat in ("pack", "compute", "checksum", "sync", "verify"):
        assert totals[cat] > 0.0, f"no {cat} time measured"
    assert totals["recover"] == 0.0  # clean run
    assert totals["total"] > 0.0


def test_threads_backend_traced_run_validates():
    a, b = _operands(36, seed=4)
    tracer = Tracer()
    driver = ParallelFTGemm(
        _config(), n_threads=2, backend="threads", tracer=tracer
    )
    result = driver.gemm(a, b)
    assert result.verified
    assert validate_chrome_trace(to_chrome_trace(tracer.events)) > 0


def test_parallel_failstop_4threads_full_story():
    """The acceptance-criteria trace: 4 threads, one fail-stop + one
    transient, per-thread pack/compute spans, injection event, recovery."""
    n = 64
    a, b = _operands(n, seed=5)
    config = _config()
    counts = site_invocation_counts_parallel(n, n, n, config.blocking, 4)
    plan = plan_for_gemm(n, n, n, config.blocking, 1, sites=("checksum",),
                         seed=2, counts=counts)
    plan = replace(plan, fail_stops=(FailStop(thread=2, barrier=4),))
    tracer = Tracer()
    driver = ParallelFTGemm(config, n_threads=4, tracer=tracer)
    result = driver.gemm(a, b, injector=FaultInjector(plan))
    assert result.verified
    pack_tids = {e.tid for e in tracer.spans("pack_b")}
    assert len(pack_tids) >= 2 and pack_tids <= {0, 1, 2, 3}
    assert {e.tid for e in tracer.spans("macro_kernel_batched")
            } | {e.tid for e in tracer.spans("macro_kernel")} >= {0, 1, 3}
    assert tracer.instants("fault.injected")
    assert tracer.instants("fault.failstop")
    assert tracer.spans("recover.thread_recovery")
    assert tracer.spans("verify_round")
    assert validate_chrome_trace(to_chrome_trace(tracer.events)) > 0


def test_parallel_failstop_4threads_shares_add_up():
    """The same 4-thread fail-stop story: shares are of per-thread time,
    so the measured rows sum to 100 % even though barrier waits on one
    lane overlap work on the others."""
    n = 64
    a, b = _operands(n, seed=5)
    config = _config()
    counts = site_invocation_counts_parallel(n, n, n, config.blocking, 4)
    plan = plan_for_gemm(n, n, n, config.blocking, 1, sites=("checksum",),
                         seed=2, counts=counts)
    plan = replace(plan, fail_stops=(FailStop(thread=2, barrier=4),))
    tracer = Tracer()
    driver = ParallelFTGemm(config, n_threads=4, tracer=tracer)
    assert driver.gemm(a, b, injector=FaultInjector(plan)).verified
    totals = phase_totals(tracer.events)
    assert totals["lanes"] == 4
    assert totals["total"] >= 4 * totals["wall"] > 0.0
    report = phase_report(tracer.events)
    shares = sum(row.measured_share for row in report.rows)
    assert shares == pytest.approx(1.0, abs=0.01)
    assert "4 lanes" in report.to_table()


# ------------------------------------------------------------ disabled path
def test_noop_tracer_overhead_guard():
    """The untraced hot path must not pay for the instrumentation: compare
    the driver against itself with tracing on — the traced run records
    hundreds of spans, the untraced one must be at least as fast within a
    generous noise margin."""
    n = 96
    a, b = _operands(n, seed=6)
    config = FTGemmConfig(
        blocking=BlockingConfig(mr=8, nr=6, mc=48, kc=48, nc=48)
    )

    def best_of(driver, reps=5):
        driver.gemm(a, b)  # warm-up
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            driver.gemm(a, b)
            best = min(best, time.perf_counter() - t0)
        return best

    untraced = best_of(FTGemm(config))
    traced = best_of(FTGemm(config, tracer=Tracer()))
    # wide margin: this guards against accidental always-on tracing, not
    # scheduler noise
    assert untraced < traced * 1.5


# --------------------------------------------------------------------- CLI
def test_cli_trace_subcommand(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "trace.json"
    code = main(["trace", "--size", "48", "--out", str(out)])
    assert code == 0
    assert validate_chrome_trace(str(out)) > 0
    text = capsys.readouterr().out
    assert "checksum overhead" in text
    assert "verified : True" in text


def test_cli_trace_subcommand_parallel_failstop(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "trace.json"
    code = main([
        "trace", "--size", "48", "--threads", "2",
        "--fail-stop", "1:3", "--out", str(out),
    ])
    assert code == 0
    assert validate_chrome_trace(str(out)) > 0
    assert "recovery" in capsys.readouterr().out


def test_cli_inject_trace_flag(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "inject.json"
    code = main([
        "inject", "--size", "48", "--errors", "1", "--trace", str(out),
    ])
    assert code == 0
    assert validate_chrome_trace(str(out)) > 0


def test_cli_validate_trace_and_threads(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "validate.json"
    code = main([
        "validate", "--size", "32", "--threads", "2", "--trace", str(out),
    ])
    assert code == 0
    assert validate_chrome_trace(str(out)) > 0
    assert "counters MATCH" in capsys.readouterr().out
