"""Process-tier chaos soak: hundreds of mixed-shape requests through the
multi-process tier while workers are SIGKILLed mid-batch at randomized
phases (pack / compute / reduce / reply) *and* the classic fault storm —
transient bit flips, sticky stuck bits, fail-stop thread deaths — strikes
inside the surviving workers.

The acceptance bar, end to end:

- **exactly-once** — zero lost, zero duplicated responses, whichever
  phase the kill hit and however many replays a batch took;
- **correctness** — every ``ok`` response matches the NumPy oracle;
- **containment** — every shared-memory segment is unlinked (no
  ``/dev/shm`` residue from dead workers);
- **liveness** — the drain terminates while processes are dying and
  being respawned through probation.

The storm is deterministic per seed: kill phases, fault models and plans
all derive from the workload seed, so a failing soak replays exactly.
"""

import glob

from repro.core.config import FTGemmConfig
from repro.gemm.blocking import BlockingConfig
from repro.serve import (
    ServiceConfig,
    ShapeSpec,
    WorkloadConfig,
    make_fault_spec_factory,
    run_serve_workload,
)

SOAK_SHAPES = (
    ShapeSpec(8, 32, 32, weight=0.45),
    ShapeSpec(6, 48, 24, weight=0.35),
    ShapeSpec(8, 24, 16, weight=0.2, private_b=True),
)


def test_process_kill_chaos_soak_exactly_once_and_correct():
    before = set(glob.glob("/dev/shm/ftg*"))
    workload = WorkloadConfig(
        # burst submission: arrival gaps ~0.5 ms, so the request count —
        # not wall time — is what the soak controls
        duration_s=300.0,
        arrival_rate=2000.0,
        max_requests=320,
        fault_rate=0.12,
        fail_stop_fraction=0.35,
        errors_per_call=2,
        proc_kill_rate=0.08,
        seed=2027,
        shapes=SOAK_SHAPES,
    )
    config = ServiceConfig(
        processes=2,
        workers=2,
        capacity=400,
        max_batch=16,
        retry_budget=2,
        backoff_base_s=0.0005,
        gemm_threads=2,  # fail-stop specs need a team to kill threads in
        team_backend="simulated",
        proc_seed=2027,
        proc_max_replays=4,
        ft=FTGemmConfig(blocking=BlockingConfig.small()),
    )

    # the storm actually carries every fault class before it runs
    spec_factory = make_fault_spec_factory(workload)
    specs = [
        spec_factory(f"r{i:06d}", config, "gemm")
        for i in range(workload.max_requests)
    ]
    live = [s for s in specs if s is not None]
    assert len(live) >= 0.05 * workload.max_requests
    assert {s["model"] for s in live} == {"flip", "stuck"}
    assert any(s["fail_stop"] for s in live)

    report = run_serve_workload(config, workload, timeout_s=600.0)

    # the kill storm actually happened and was survived through replay
    assert report.submitted >= 300
    assert report.recovery["proc_deaths"] >= 3
    assert report.recovery["proc_replays"] >= 1
    assert report.recovery["proc_respawns"] >= 1

    # exactly-once and correct, regardless of what the storm did
    assert report.lost == 0
    assert report.duplicates == 0
    assert report.wrong == 0
    assert report.ok, report.summary()
    assert report.responses.get("ok", 0) == report.submitted
    assert sum(report.responses.values()) == report.submitted

    # containment: the registry accounts for every segment ever created
    assert report.recovery["proc_leaked_segments"] == 0
    assert set(glob.glob("/dev/shm/ftg*")) <= before

    # the batcher stayed live under fire
    assert report.scheduler["coalesced_batches"] >= 1
