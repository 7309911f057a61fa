"""Mixed-kernel serving: the four-kernel blend through both tiers under
a fault storm.

The acceptance bar for the kernel family as serving citizens:

- **exactly-once** — zero lost, zero duplicated responses across a
  heterogeneous storm on the thread tier and on the process tier with
  SIGKILL chaos;
- **correctness** — every ``ok`` response of every kernel matches *its
  own kernel's* NumPy oracle (the driver's per-kernel audit);
- **routing** — non-GEMM traffic resolves its kernel through the
  registry (that both tiers answer alike through it is the cross-tier
  differential test's job).
"""

import numpy as np

from repro.core.config import FTGemmConfig
from repro.gemm.blocking import BlockingConfig
from repro.serve import (
    GemmService,
    ServiceConfig,
    ShapeSpec,
    WorkloadConfig,
    run_serve_workload,
)

#: the mixed blend at soak-friendly sizes: a coalescible GEMM class,
#: GEMV and TRSM classes sharing their factors, private FFT signals
MIX_SHAPES = (
    ShapeSpec(8, 32, 32, weight=0.35),
    ShapeSpec(24, 16, 1, weight=0.25, kernel="gemv"),
    ShapeSpec(1, 32, 3, weight=0.2, kernel="trsm"),
    ShapeSpec(1, 1, 32, weight=0.2, private_b=True, kernel="fft"),
)


def _assert_exactly_once_and_correct(report):
    assert report.lost == 0
    assert report.duplicates == 0
    assert report.wrong == 0
    assert report.ok, report.summary()
    assert sum(report.responses.values()) == report.submitted
    # every kernel class actually showed up and audited clean
    assert set(report.kernels) == {"gemm", "gemv", "trsm", "fft"}
    for name, tally in report.kernels.items():
        assert tally["submitted"] >= 1, name
        assert tally["wrong"] == 0, name
        assert tally["ok"] == tally["submitted"], (name, tally)


def test_mixed_kernel_fault_storm_thread_tier():
    workload = WorkloadConfig(
        duration_s=120.0,
        arrival_rate=2000.0,
        max_requests=240,
        fault_rate=0.3,
        fail_stop_fraction=0.3,  # GEMM-only rung; other kernels skip it
        errors_per_call=2,
        seed=2028,
        shapes=MIX_SHAPES,
    )
    config = ServiceConfig(
        workers=2,
        capacity=400,
        max_batch=16,
        retry_budget=2,
        backoff_base_s=0.0005,
        gemm_threads=2,
        team_backend="simulated",
        ft=FTGemmConfig(blocking=BlockingConfig.small()),
    )
    report = run_serve_workload(config, workload, timeout_s=300.0)
    assert report.submitted >= 220
    _assert_exactly_once_and_correct(report)
    # GEMM kept coalescing in the mix; the others ride as singletons
    assert report.scheduler["coalesced_batches"] >= 1


def test_mixed_kernel_fault_storm_process_tier():
    workload = WorkloadConfig(
        duration_s=300.0,
        arrival_rate=2000.0,
        max_requests=120,
        fault_rate=0.3,
        fail_stop_fraction=0.3,
        errors_per_call=2,
        proc_kill_rate=0.1,
        seed=2029,
        shapes=MIX_SHAPES,
    )
    config = ServiceConfig(
        processes=2,
        workers=2,
        capacity=300,
        max_batch=16,
        retry_budget=2,
        backoff_base_s=0.0005,
        gemm_threads=2,
        team_backend="simulated",
        proc_seed=2029,
        proc_max_replays=4,
        ft=FTGemmConfig(blocking=BlockingConfig.small()),
    )
    report = run_serve_workload(config, workload, timeout_s=600.0)
    assert report.submitted >= 110
    _assert_exactly_once_and_correct(report)
    # the kill chaos actually fired and was survived through replay
    assert report.recovery["proc_deaths"] >= 1
    assert report.recovery["proc_replays"] >= 1


# ---------------------------------------------------------- registry


def test_non_gemm_traffic_does_consult_the_registry(monkeypatch):
    """The pool resolves non-GEMM kernels through the registry: a
    counting lookup sees the request's kernel name."""
    import repro.kernels
    from repro.kernels import get_kernel as real_get_kernel

    lookups = []

    def counting(name):
        lookups.append(name)
        return real_get_kernel(name)

    monkeypatch.setattr(repro.kernels, "get_kernel", counting)
    kern = real_get_kernel("gemv")
    request = kern.sample_request((8, 6), np.random.default_rng(1))
    config = ServiceConfig(
        workers=1,
        ft=FTGemmConfig(blocking=BlockingConfig.small()),
    )
    service = GemmService(config).start()
    try:
        response = service.submit(request).result(timeout=30.0)
        assert response.status == "ok"
    finally:
        service.shutdown()
    assert "gemv" in lookups
