"""GemmService end to end: exactly-once completion, shutdown modes,
retries, quarantine, degraded mode, the sync client, and observability."""

import threading
import time

import numpy as np
import pytest

from repro.core.config import FTGemmConfig
from repro.faults.injector import FaultInjector, InjectionPlan
from repro.gemm.blocking import BlockingConfig
from repro.serve import (
    GemmClient,
    GemmRequest,
    GemmService,
    ResponseFuture,
    GemmResponse,
    ServiceConfig,
)
from repro.util.errors import ConfigError, ServeError


def _config(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault(
        "ft", FTGemmConfig(blocking=BlockingConfig.small())
    )
    return ServiceConfig(**kwargs)


def _operands(m=6, k=8, n=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k)), rng.standard_normal((k, n))


# -------------------------------------------------------------- happy paths
def test_submit_executes_and_verifies():
    a, b = _operands()
    with GemmService(_config()) as service:
        ticket = service.submit(GemmRequest(a, b))
        response = ticket.result(10.0)
    assert response.ok and response.verified
    assert response.result.request_id == response.request_id
    np.testing.assert_allclose(response.result.c, a @ b, rtol=1e-9,
                               atol=1e-9)


def test_coalesced_burst_splits_results_correctly():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((8, 5))
    operands = [rng.standard_normal((3, 8)) for _ in range(12)]
    with GemmService(_config(workers=1, max_batch=16)) as service:
        tickets = [service.submit(GemmRequest(a, b)) for a in operands]
        service.drain()
        responses = [t.result(10.0) for t in tickets]
    assert all(r.ok for r in responses)
    assert max(r.batch_size for r in responses) > 1  # some coalescing
    for a, r in zip(operands, responses):
        np.testing.assert_allclose(r.result.c, a @ b, rtol=1e-9, atol=1e-9)


def test_drain_answers_in_flight_requests():
    """Close admission with work still queued: every queued request must
    execute (not cancel) and the drain must not hang."""
    rng = np.random.default_rng(2)
    b = rng.standard_normal((8, 5))
    service = GemmService(_config(workers=1)).start()
    tickets = [
        service.submit(GemmRequest(rng.standard_normal((4, 8)), b))
        for _ in range(24)
    ]
    service.drain()  # returns only after the backlog is executed
    responses = [t.result(1.0) for t in tickets]  # short: already resolved
    assert all(r.ok for r in responses)
    assert service.duplicates == 0


def test_shutdown_without_drain_cancels_backlog():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((8, 5))
    # zero workers would reject config; use a scheduler-stalling deadline
    # instead: fill the queue faster than one worker can drain it, then
    # shut down hard.
    service = GemmService(_config(workers=1)).start()
    tickets = [
        service.submit(GemmRequest(rng.standard_normal((4, 8)), b))
        for _ in range(32)
    ]
    service.shutdown(drain=False)
    statuses = {t.result(5.0).status for t in tickets}
    assert statuses <= {"ok", "cancelled"}
    assert service.duplicates == 0
    # every ticket got exactly one answer
    assert sum(service.completed.values()) == len(tickets)


def test_submit_after_shutdown_is_refused():
    service = GemmService(_config()).start()
    service.drain()
    a, b = _operands()
    with pytest.raises(ConfigError, match="not running"):
        service.submit(GemmRequest(a, b))


def test_expire_while_queued_gets_expired_response():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((8, 5))
    # one slow-ish worker and a deadline shorter than the queue wait
    service = GemmService(_config(workers=1)).start()
    blocker = service.submit(
        GemmRequest(rng.standard_normal((32, 8)), b, priority=10)
    )
    doomed = service.submit(
        GemmRequest(rng.standard_normal((4, 8)), b.copy(),
                    deadline_s=0.001)
    )
    time.sleep(0.05)
    service.drain()
    assert blocker.result(5.0).ok
    response = doomed.result(5.0)
    assert response.status == "expired"
    assert service.completed.get("expired", 0) == 1


def test_reject_policy_resolves_future_with_rejection():
    a, b = _operands()
    service = GemmService(
        _config(workers=1, capacity=1, policy="reject")
    ).start()
    tickets = [service.submit(GemmRequest(a.copy(), b.copy()))
               for _ in range(12)]
    service.drain()
    statuses = [t.result(5.0).status for t in tickets]
    assert statuses.count("rejected") >= 1
    assert all(s in ("ok", "rejected") for s in statuses)


def test_shed_policy_answers_the_victim():
    rng = np.random.default_rng(5)
    b = rng.standard_normal((8, 5))
    service = GemmService(
        _config(workers=1, capacity=2, policy="shed-lowest")
    ).start()
    low = [
        service.submit(
            GemmRequest(rng.standard_normal((16, 8)), b, priority=0)
        )
        for _ in range(3)
    ]
    high = [
        service.submit(
            GemmRequest(rng.standard_normal((16, 8)), b, priority=9)
        )
        for _ in range(3)
    ]
    service.drain()
    low_statuses = [t.result(5.0).status for t in low]
    high_statuses = [t.result(5.0).status for t in high]
    assert all(s in ("ok", "shed", "rejected") for s in low_statuses)
    # shedding happened and was answered through the victim's own future
    assert sum(service.completed.values()) == 6


# ------------------------------------------------------------- exactly once
def test_future_is_one_shot():
    future = ResponseFuture()
    first = GemmResponse(request_id="r1", status="ok")
    second = GemmResponse(request_id="r1", status="failed")
    assert future.set(first)
    assert not future.set(second)
    assert future.result(0.1) is first


def test_future_done_callback_fires_once():
    future = ResponseFuture()
    seen = []
    future.add_done_callback(seen.append)
    response = GemmResponse(request_id="r1", status="ok")
    future.set(response)
    future.set(GemmResponse(request_id="r1", status="failed"))
    future.add_done_callback(seen.append)  # late subscriber: fires now
    assert seen == [response, response]


def test_duplicate_completion_is_counted_not_delivered():
    a, b = _operands()
    service = GemmService(_config()).start()
    ticket = service.submit(GemmRequest(a, b))
    response = ticket.result(10.0)
    # simulate a buggy double-completion: the future refuses, the metric
    # records it
    request = GemmRequest(a, b)
    request.request_id = response.request_id
    service._complete(
        request, GemmResponse(request_id=response.request_id, status="failed")
    )
    assert service.duplicates == 1
    assert ticket.result(0.1) is response  # the original answer stands
    service.drain()


# ----------------------------------------------------- retries / quarantine
class _SubstrateCrash(FaultInjector):
    """A substrate death mid-call: the first instrumented site the driver
    touches raises instead of corrupting — nothing the in-call escalation
    ladder can repair, so the attempt fails and the pool must retry."""

    def __init__(self):
        super().__init__(InjectionPlan.empty())

    def visit(self, site, array, tid=None):
        raise RuntimeError("substrate crashed mid-call")


class _FlakyInjector:
    """Injector factory driving a deterministic failure script keyed on
    (request_id, attempt): sabotaged attempts die mid-call (the in-call
    ABFT ladder repairs mere data corruption, so forcing a *service-level*
    retry needs an unrecoverable substrate failure)."""

    def __init__(self, fail_attempts):
        self.fail_attempts = fail_attempts  # dict request_id -> set(attempts)
        self.calls = []

    def __call__(self, shape, attempt, request_id, service_config,
                 kernel):
        self.calls.append((request_id, attempt))
        if attempt in self.fail_attempts.get(request_id, ()):
            return _SubstrateCrash()
        return None


def test_retry_recovers_from_poisoned_attempt():
    a, b = _operands(m=6, k=8, n=5)
    service = GemmService(
        _config(workers=1, retry_budget=2, backoff_base_s=0.0),
        injector_factory=_FlakyInjector({"r000000": {0}}),
    ).start()
    ticket = service.submit(GemmRequest(a, b))
    service.drain()
    response = ticket.result(10.0)
    assert response.ok
    assert response.attempts == 2  # first attempt poisoned, retry clean
    np.testing.assert_allclose(response.result.c, a @ b, rtol=1e-9,
                               atol=1e-9)
    assert service.metrics.snapshot()["counters"]["serve.retries"] == 1.0


def test_exhausted_retry_budget_fails_cleanly():
    a, b = _operands()
    service = GemmService(
        _config(workers=1, retry_budget=1, backoff_base_s=0.0,
                quarantine_after=100),
        injector_factory=_FlakyInjector({"r000000": {0, 1}}),
    ).start()
    ticket = service.submit(GemmRequest(a, b))
    service.drain()
    response = ticket.result(10.0)
    assert response.status == "failed"
    assert response.attempts == 2
    assert response.error
    assert service.duplicates == 0


def test_repeated_failures_quarantine_and_replace_worker():
    rng = np.random.default_rng(7)
    fail_all = {f"r{i:06d}": {0, 1} for i in range(3)}
    service = GemmService(
        _config(workers=1, retry_budget=1, backoff_base_s=0.0,
                quarantine_after=2),
        injector_factory=_FlakyInjector(fail_all),
    ).start()
    tickets = [
        service.submit(
            GemmRequest(rng.standard_normal((4, 8)),
                        rng.standard_normal((8, 5)))
        )
        for i in range(3)
    ]
    # wait the failures out while the service is live, so the quarantine
    # (and its replacement spawn) happens before shutdown
    assert [t.result(10.0).status for t in tickets] == ["failed"] * 3
    # a fourth, clean request: must be served by the replacement worker
    a, b = _operands(seed=8)
    clean = service.submit(GemmRequest(a, b))
    service.drain()
    response = clean.result(10.0)
    assert response.ok
    assert service.pool.quarantined  # at least one worker retired
    counters = service.metrics.snapshot()["counters"]
    assert counters["serve.worker_quarantined"] >= 1.0
    # the replacement has a fresh index
    assert response.worker not in service.pool.quarantined


def test_failed_request_in_multi_item_batch_does_not_strand_others():
    """Two same-bucket ``beta != 0`` requests travel as one *non-coalesced*
    multi-item batch (stacking cannot express the C0 leg, so they execute
    request-by-request). The first exhausting its retry budget must not
    short-circuit the loop: the second still executes and gets its answer
    (regression: ``all()`` over a generator stranded it forever)."""
    rng = np.random.default_rng(11)
    b = rng.standard_normal((8, 5))
    service = GemmService(
        _config(workers=1, retry_budget=0, backoff_base_s=0.0,
                window_s=0.25, quarantine_after=100),
        injector_factory=_FlakyInjector({"r000000": {0}}),
    ).start()
    a1, a2 = rng.standard_normal((4, 8)), rng.standard_normal((4, 8))
    c0 = np.ones((4, 5))
    doomed = service.submit(GemmRequest(a1, b, c0=c0.copy(), beta=2.0))
    survivor = service.submit(GemmRequest(a2, b, c0=c0.copy(), beta=2.0))
    service.drain()
    failed = doomed.result(10.0)
    okay = survivor.result(10.0)
    assert failed.status == "failed"
    assert okay.ok
    assert okay.batch_size == 2  # they really shared one batch
    np.testing.assert_allclose(okay.result.c, a2 @ b + 2.0 * c0,
                               rtol=1e-9, atol=1e-9)
    assert service.duplicates == 0
    assert sum(service.completed.values()) == 2


def test_per_request_bookkeeping_is_pruned_after_completion():
    """A long-running service must not grow with total traffic served:
    _complete prunes the in-flight maps, late result() lookups are served
    from the bounded recently-completed map, and span lanes stay unique
    across the pruning."""
    rng = np.random.default_rng(12)
    b = rng.standard_normal((8, 5))
    service = GemmService(_config(workers=1, trace=True)).start()
    tickets = [
        service.submit(GemmRequest(rng.standard_normal((4, 8)), b))
        for _ in range(8)
    ]
    service.drain()
    assert all(t.result(10.0).ok for t in tickets)
    assert not service._futures and not service._lanes
    assert not service._started_at and not service._span_t0
    # late result() by id still answers from the bounded recent map
    response = service.result(tickets[0].request_id, timeout=0.1)
    assert response.ok
    # a late double-completion still hits the one-shot guard
    dup = GemmRequest(rng.standard_normal((4, 8)), b)
    dup.request_id = tickets[0].request_id
    service._complete(
        dup, GemmResponse(request_id=dup.request_id, status="failed")
    )
    assert service.duplicates == 1
    assert service.result(tickets[0].request_id, timeout=0.1) is response
    # lanes never get reused even though the lane map was pruned
    spans = service.tracer.spans("serve.request")
    assert len({s.tid for s in spans}) == len(spans) == 8


# ------------------------------------------------------------ degraded mode
def test_degraded_mode_kicks_in_under_queue_pressure():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((8, 5))
    service = GemmService(
        _config(workers=1, degraded_depth=4, max_batch=1)
    ).start()
    tickets = [
        service.submit(GemmRequest(rng.standard_normal((4, 8)), b))
        for _ in range(16)
    ]
    service.drain()
    responses = [t.result(10.0) for t in tickets]
    assert all(r.ok for r in responses)
    assert any(r.degraded for r in responses)  # pressure hit the valve
    counters = service.metrics.snapshot()["counters"]
    assert counters["serve.degraded_batches"] >= 1.0
    # correctness is never traded away
    for r in responses:
        assert r.verified


# ------------------------------------------------------------------- client
def test_client_round_trip_and_unwrap():
    a, b = _operands()
    with GemmService(_config()) as service:
        client = GemmClient(service)
        c = client.gemm(a, b)
        np.testing.assert_allclose(c, a @ b, rtol=1e-9, atol=1e-9)


def test_client_raises_serve_error_with_response_attached():
    a, b = _operands()
    service = GemmService(
        _config(workers=1, retry_budget=0, backoff_base_s=0.0),
        injector_factory=_FlakyInjector({"r000000": {0}}),
    ).start()
    client = GemmClient(service)
    with pytest.raises(ServeError) as excinfo:
        client.gemm(a, b)
    assert excinfo.value.response is not None
    assert excinfo.value.response.status == "failed"
    service.drain()


# ------------------------------------------------------------ observability
def test_service_metrics_and_trace_account_for_requests(tmp_path):
    from repro.obs.export import validate_chrome_trace, write_chrome_trace

    rng = np.random.default_rng(10)
    b = rng.standard_normal((8, 5))
    service = GemmService(_config(workers=1, trace=True)).start()
    tickets = [
        service.submit(GemmRequest(rng.standard_normal((4, 8)), b))
        for _ in range(6)
    ]
    service.drain()
    assert all(t.result(10.0).ok for t in tickets)
    counters = service.metrics.snapshot()["counters"]
    assert counters["serve.admitted"] == 6.0
    assert counters["serve.responses.ok"] == 6.0
    hists = service.metrics.snapshot()["histograms"]
    assert hists["serve.latency_ms"]["count"] == 6
    assert hists["serve.batch_size"]["count"] >= 1
    # one serve.request span per request, on its own lane; batch spans on
    # worker lanes — and the whole trace passes the structural validator
    spans = service.tracer.spans("serve.request")
    assert len(spans) == 6
    assert len({s.tid for s in spans}) == 6
    assert all(s.tid >= 10000 for s in spans)
    batch_spans = service.tracer.spans("serve.batch")
    assert batch_spans and all(1000 <= s.tid < 10000 for s in batch_spans)
    trace = write_chrome_trace(tmp_path / "serve.json", service.tracer)
    assert validate_chrome_trace(trace) > 0


def test_service_config_validation():
    with pytest.raises(ConfigError, match="workers"):
        ServiceConfig(workers=0).validate()
    with pytest.raises(ConfigError, match="retry_budget"):
        ServiceConfig(retry_budget=-1).validate()
    with pytest.raises(ConfigError, match="quarantine_after"):
        ServiceConfig(quarantine_after=0).validate()
    with pytest.raises(ConfigError, match="degraded_depth"):
        ServiceConfig(degraded_depth=0).validate()
    # driver-side inconsistency surfaces through the same gate
    with pytest.raises(ConfigError, match="eager"):
        ServiceConfig(
            ft=FTGemmConfig(verify_mode="eager"), gemm_threads=2
        ).validate()
