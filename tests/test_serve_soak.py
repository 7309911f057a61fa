"""Fault-storm soak: hundreds of mixed-shape requests through a live
service while transient bit flips, sticky stuck bits and fail-stop thread
deaths strike the execution substrate.

This is the serving layer's end-to-end guarantee under fire:

- **exactly-once** — every submitted request receives exactly one
  terminal response (zero lost, zero duplicated);
- **correctness** — every ``ok`` response matches the NumPy oracle built
  from the request's own operands (the workload driver audits all of
  them);
- **liveness** — the drain terminates even when workers are being
  quarantined and replaced mid-storm.

The fault mix is deterministic per (seed, request_id), so a failing soak
replays bit-identically.
"""

import numpy as np

from repro.core.config import FTGemmConfig
from repro.gemm.blocking import BlockingConfig
from repro.serve import (
    GemmService,
    ServiceConfig,
    ShapeSpec,
    WorkloadConfig,
    make_injector_factory,
    run_workload,
)

#: small-M mixed shapes: two coalescible classes (shared B) and a
#: private-B control class that always executes as singletons
SOAK_SHAPES = (
    ShapeSpec(8, 32, 32, weight=0.45),
    ShapeSpec(6, 48, 24, weight=0.35),
    ShapeSpec(8, 24, 16, weight=0.2, private_b=True),
)


def _soak_config():
    return ServiceConfig(
        workers=2,
        capacity=600,
        max_batch=16,
        retry_budget=2,
        backoff_base_s=0.0005,
        quarantine_after=3,
        gemm_threads=2,  # fail-stops need a team to kill threads in
        team_backend="simulated",
        ft=FTGemmConfig(blocking=BlockingConfig.small()),
    )


def test_fault_storm_soak_exactly_once_and_correct():
    workload = WorkloadConfig(
        # burst submission: the arrival gaps are ~0.5 ms, so all
        # max_requests go in long before duration_s runs out — the
        # request count is what the soak controls, not wall time
        duration_s=120.0,
        arrival_rate=2000.0,
        max_requests=520,
        fault_rate=0.12,
        fail_stop_fraction=0.35,
        errors_per_call=2,
        seed=2026,
        shapes=SOAK_SHAPES,
    )
    inner = make_injector_factory(workload)
    storm = {"faulted": 0, "fail_stops": 0, "models": set()}

    def counting_factory(shape, attempt, request_id, service_config,
                         kernel):
        injector = inner(shape, attempt, request_id, service_config, kernel)
        if injector is not None:
            storm["faulted"] += 1
            storm["models"].add(type(injector.plan.model).__name__)
            if injector.plan.fail_stops:
                storm["fail_stops"] += 1
        return injector

    service = GemmService(
        _soak_config(), injector_factory=counting_factory
    ).start()
    report = run_workload(service, workload, timeout_s=300.0)

    # the storm actually happened, with every fault class represented
    assert report.submitted >= 500
    assert storm["faulted"] >= 0.05 * report.submitted
    assert storm["fail_stops"] >= 1
    assert {"BitFlip", "StuckBit"} <= storm["models"]

    # exactly-once and correct, regardless of what the storm did
    assert report.lost == 0
    assert report.duplicates == 0
    assert report.wrong == 0
    assert report.ok, report.summary()
    assert report.responses.get("ok", 0) == report.submitted
    assert sum(report.responses.values()) == report.submitted

    # the batcher was live during the storm (the throughput multiple is
    # benchmarked elsewhere; here it just must not have collapsed)
    assert report.scheduler["coalesced_batches"] >= 1


def test_soak_with_backpressure_and_deadlines_answers_everything():
    """A nastier variant: tiny queue, shed-lowest policy, tight deadlines
    and mixed priorities — requests leave through every door (ok, shed,
    rejected, expired), and still nothing is lost or answered twice."""
    workload = WorkloadConfig(
        duration_s=60.0,
        # nominal 50 us arrival gaps sit far below any sleep granularity,
        # so submission is an honest burst: the single worker (ms-scale
        # per request) cannot keep up and the 8-slot queue must shed or
        # reject, whatever the host's speed — a 2000/s nominal rate gets
        # silently stretched to ~1 ms gaps by the sleep floor, which a
        # fast host serves without ever building pressure
        arrival_rate=20000.0,
        max_requests=160,
        fault_rate=0.1,
        fail_stop_fraction=0.0,
        seed=7,
        shapes=SOAK_SHAPES,
        deadline_s=0.05,
        priorities=(0, 1, 2),
    )
    config = ServiceConfig(
        workers=1,
        capacity=8,
        policy="shed-lowest",
        max_batch=1,  # no coalescing: keeps the worker slower than arrivals
        retry_budget=1,
        backoff_base_s=0.0,
        gemm_threads=1,
        ft=FTGemmConfig(blocking=BlockingConfig.small()),
    )
    service = GemmService(
        config, injector_factory=make_injector_factory(workload)
    ).start()
    report = run_workload(service, workload, timeout_s=120.0)

    assert report.lost == 0
    assert report.duplicates == 0
    assert report.wrong == 0
    assert report.ok, report.summary()
    assert sum(report.responses.values()) == report.submitted
    # the pressure valve actually opened at least once
    assert set(report.responses) - {"ok"}, report.responses
