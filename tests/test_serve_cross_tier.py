"""Cross-tier differential test: the thread tier and the process tier
answer the same traffic identically.

Both tiers run every request through one execution core
(:mod:`repro.serve.execute`) and rebuild their fault injectors from the
same spec factory, so for the same requests and workload seed they must
agree request by request: same status, same attempts, byte-identical
result, and the same protection evidence (verified, detected, corrected,
recovery rungs). ``max_batch=1`` keeps every request a singleton —
coalesced batches key their fault plans on batch ids, and batch
composition depends on timing — and the kill rate is 0, so nothing but
the program decides the outcome. One case runs checksum-only drivers so
that some first attempts fail and both tiers' retry paths are compared
too. A second test checks that both tiers stack a coalesced batch whose
requests carry a C0 at ``beta == 0``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import FTGemmConfig
from repro.gemm.blocking import BlockingConfig
from repro.serve import (
    MIXED_SHAPES,
    GemmRequest,
    GemmService,
    ServiceConfig,
    WorkloadConfig,
    make_fault_spec_factory,
    make_injector_factory,
)
from repro.serve.workload import _build_requests


def _serve(workload, config, **hooks):
    """Submit the workload's requests (fixed ids) and drain; returns
    request id -> response."""
    service = GemmService(config, **hooks).start()
    tickets = []
    for i, request in enumerate(_build_requests(workload)):
        request.request_id = f"x{i:04d}"
        tickets.append(service.submit(request))
    service.drain()
    return {t.request_id: t.result(timeout=120.0) for t in tickets}


def _evidence(result):
    recovery = getattr(result, "recovery", None)
    rungs = (
        tuple(r.strategy for r in recovery.rounds)
        if recovery is not None else ()
    )
    return (
        bool(result.verified),
        int(result.detected),
        int(result.corrected),
        rungs,
        getattr(result, "recomputed", 0),
        getattr(result, "escalations", 0),
    )


@pytest.mark.parametrize("gemm_threads,seed,ladder", [
    (1, 2028, True),
    (2, 7, True),
    # checksum-only drivers: a fault the verifier cannot repair in place
    # fails attempt 0, so both tiers' retry paths run
    (1, 11, False),
])
def test_thread_and_process_tiers_answer_alike(gemm_threads, seed, ladder):
    workload = WorkloadConfig(
        duration_s=60.0,
        arrival_rate=2000.0,
        max_requests=160,
        fault_rate=0.3,
        fail_stop_fraction=0.3,
        errors_per_call=2,
        seed=seed,
        shapes=MIXED_SHAPES,
    )
    config = ServiceConfig(
        workers=2,
        capacity=400,
        max_batch=1,
        retry_budget=2,
        backoff_base_s=0.0,
        gemm_threads=gemm_threads,
        team_backend="simulated",
        ft=FTGemmConfig(
            blocking=BlockingConfig.small(),
            enable_supervisor=ladder,
            recompute_fallback=ladder,
        ),
    )
    threads = _serve(
        workload, config, injector_factory=make_injector_factory(workload)
    )
    procs = _serve(
        workload, replace(config, processes=2),
        fault_spec_factory=make_fault_spec_factory(workload),
    )
    assert threads.keys() == procs.keys() and len(threads) == 160
    detected = retried = 0
    for request_id, mine in threads.items():
        theirs = procs[request_id]
        assert (mine.status, mine.attempts) == (
            theirs.status, theirs.attempts
        ), request_id
        retried += mine.attempts > 1
        if not mine.ok:
            continue
        assert np.array_equal(mine.result.c, theirs.result.c), request_id
        assert _evidence(mine.result) == _evidence(theirs.result), request_id
        detected += mine.result.detected > 0
    # the storm struck: a differential test over clean runs shows little
    assert detected >= 10
    assert ladder or retried >= 1


@pytest.mark.parametrize("processes", [0, 2])
def test_coalesced_requests_carrying_c0_at_beta_zero(processes):
    """``GemmClient.gemm(a, b, c0)`` sends a C0 at the default
    ``beta == 0``; such requests still stack on either tier. The C0 never
    reaches the result, and the stacked unit drops it (regression: the
    head's C0 failed the stacked request's shape check, which ended the
    executing thread and stranded the whole batch)."""
    rng = np.random.default_rng(5)
    b = rng.standard_normal((8, 5))
    operands = [rng.standard_normal((m, 8)) for m in (4, 3)]
    config = ServiceConfig(
        workers=1,
        processes=processes,
        window_s=0.25,
        ft=FTGemmConfig(blocking=BlockingConfig.small()),
    )
    service = GemmService(config).start()
    try:
        tickets = [
            service.submit(
                GemmRequest(a, b, c0=np.ones((a.shape[0], 5)), beta=0.0)
            )
            for a in operands
        ]
        responses = [t.result(timeout=60.0) for t in tickets]
    finally:
        service.shutdown(drain=False)
    assert [r.batch_size for r in responses] == [2, 2]  # one stacked unit
    for a, response in zip(operands, responses):
        assert response.ok, response.error
        np.testing.assert_allclose(
            response.result.c, a @ b, rtol=1e-9, atol=1e-9
        )
