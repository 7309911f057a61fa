"""Runtime lock-order/race sanitizer: unit behavior and system sweeps.

Three layers of coverage:

- **detector units** — the acquisition-graph cycle detector on synthetic
  lock patterns (2-cycle, 3-cycle, consistent order, reentrancy,
  condition waits) and the leaked-thread detector;
- **seeded regression** — the test wraps ``WorkerPool._spawn`` and
  ``WorkerPool.stop`` so they take the pool lock and the scheduler's
  ready lock in opposite orders; the sanitizer must catch that
  inversion through a full service start/serve/shutdown, proving the
  detector sees real inversions through the real stack (and that the
  clean run right next to it is genuinely clean, not blind);
- **sanitized system runs** — the serve fault-storm soak (scaled down)
  and the fail-stop recovery grid (sampled) execute entirely under the
  monitor: no cycles, no leaked threads, results still correct.
"""

import threading
import time

import numpy as np
import pytest

from repro.analysis.sanitize import SanitizerError, monitor
from repro.core.config import FTGemmConfig
from repro.core.parallel import ParallelFTGemm
from repro.faults.injector import FaultInjector, InjectionPlan
from repro.faults.models import FailStop
from repro.gemm.blocking import BlockingConfig
from repro.serve import (
    GemmService,
    ServiceConfig,
    ShapeSpec,
    WorkerPool,
    WorkloadConfig,
    make_injector_factory,
    run_workload,
)


def _ordered(lock_a, lock_b):
    with lock_a:
        with lock_b:
            pass


def _in_thread(fn, *args):
    thread = threading.Thread(target=fn, args=args)
    thread.start()
    thread.join()


# ------------------------------------------------------------ detector units
def test_two_lock_inversion_detected():
    with monitor() as san:
        a = threading.Lock()
        b = threading.Lock()
        _in_thread(_ordered, a, b)
        _in_thread(_ordered, b, a)
    assert len(san.cycles) == 1
    assert not san.clean
    with pytest.raises(SanitizerError, match="lock-order cycle"):
        san.check()


def test_three_lock_cycle_detected():
    with monitor() as san:
        a = threading.Lock()
        b = threading.Lock()
        c = threading.Lock()
        _in_thread(_ordered, a, b)
        _in_thread(_ordered, b, c)
        _in_thread(_ordered, c, a)
    assert len(san.cycles) == 1
    assert len(san.cycles[0].path) == 4  # a -> b -> c -> a


def test_consistent_order_is_clean():
    with monitor() as san:
        a = threading.Lock()
        b = threading.Lock()
        for _ in range(3):
            _in_thread(_ordered, a, b)
    san.check()
    assert san.edges and san.clean


def test_rlock_reentrancy_is_not_a_cycle():
    with monitor() as san:
        r = threading.RLock()
        b = threading.Lock()

        def nest():
            with r:
                with b:
                    with r:  # re-entry under b must not create b -> r
                        pass

        _in_thread(nest)
    san.check()


def test_condition_wait_releases_held_lock():
    """A thread blocked in cond.wait holds nothing: another thread taking
    (other_lock -> cond's lock) during the wait must not build an edge
    from the waiter's lock."""
    with monitor() as san:
        cv = threading.Condition()  # bare: instrumented RLock inside
        other = threading.Lock()
        ready = []

        def waiter():
            with cv:
                while not ready:
                    cv.wait(1.0)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)

        def wake():
            with other:
                with cv:
                    ready.append(1)
                    cv.notify_all()

        _in_thread(wake)
        thread.join()
    san.check()


def test_leaked_thread_reported():
    release = threading.Event()
    with monitor(join_grace_s=0.2) as san:
        thread = threading.Thread(target=release.wait, daemon=True)
        thread.start()
    try:
        assert san.leaked_threads
        with pytest.raises(SanitizerError, match="leaked thread"):
            san.check()
    finally:
        release.set()


def test_joined_threads_are_not_leaks():
    with monitor() as san:
        thread = threading.Thread(target=lambda: None)
        thread.start()
        thread.join()
    san.check()
    assert san.leaked_threads == []


# --------------------------------------------------------- seeded regression
def _small_service_config():
    return ServiceConfig(
        workers=2,
        capacity=64,
        ft=FTGemmConfig(blocking=BlockingConfig.small()),
    )


def _serve_a_few(service, rng):
    from repro.serve.request import GemmRequest

    b = rng.standard_normal((24, 16))
    tickets = [
        service.submit(GemmRequest(a=rng.standard_normal((8, 24)), b=b))
        for _ in range(8)
    ]
    for ticket in tickets:
        response = ticket.result(timeout=60)
        assert response.status == "ok", response.summary()


def _seed_lock_inversion(monkeypatch):
    """Make the pool take its own lock and the scheduler's ready lock in
    opposite orders on the spawn and stop paths — a textbook lock-order
    inversion, seeded from outside the product code."""
    spawn, stop = WorkerPool._spawn, WorkerPool.stop

    def inverted_spawn(pool):
        with pool._lock:
            with pool.scheduler._ready_lock:  # pool -> scheduler order
                pass
        return spawn(pool)

    def inverted_stop(pool, join=True):
        with pool.scheduler._ready_lock:
            with pool._lock:  # scheduler -> pool: inverts _spawn's order
                pass
        return stop(pool, join)

    monkeypatch.setattr(WorkerPool, "_spawn", inverted_spawn)
    monkeypatch.setattr(WorkerPool, "stop", inverted_stop)


def test_seeded_lock_inversion_is_caught(rng, monkeypatch):
    _seed_lock_inversion(monkeypatch)
    with monitor() as san:
        service = GemmService(_small_service_config()).start()
        _serve_a_few(service, rng)
        service.shutdown()
    assert san.cycles, "seeded pool<->scheduler inversion not detected"
    description = san.cycles[0].describe()
    assert "pool.py" in description and "scheduler.py" in description


def test_unseeded_service_lifecycle_is_clean(rng):
    """The control for the regression above: identical run, nothing
    seeded — the detector that just fired now reports nothing."""
    with monitor() as san:
        service = GemmService(_small_service_config()).start()
        _serve_a_few(service, rng)
        service.shutdown()
    san.check()
    assert san.locks_created > 0 and san.leaked_threads == []


# ------------------------------------------------------ sanitized system runs
def test_fault_storm_soak_under_sanitizer(lock_sanitizer):
    """The serve soak, scaled to smoke size, entirely under the monitor:
    exactly-once still holds, and the real locking of queue, scheduler,
    pool, service and futures is cycle- and leak-free in practice."""
    shapes = (
        ShapeSpec(8, 32, 32, weight=0.5),
        ShapeSpec(6, 48, 24, weight=0.3),
        ShapeSpec(8, 24, 16, weight=0.2, private_b=True),
    )
    workload = WorkloadConfig(
        duration_s=60.0,
        arrival_rate=2000.0,
        max_requests=120,
        fault_rate=0.1,
        fail_stop_fraction=0.3,
        errors_per_call=2,
        seed=77,
        shapes=shapes,
    )
    config = ServiceConfig(
        workers=2,
        capacity=200,
        max_batch=8,
        retry_budget=2,
        backoff_base_s=0.0005,
        quarantine_after=3,
        gemm_threads=2,
        team_backend="simulated",
        ft=FTGemmConfig(blocking=BlockingConfig.small()),
    )
    service = GemmService(
        config, injector_factory=make_injector_factory(workload)
    ).start()
    report = run_workload(service, workload, timeout_s=180.0)
    assert report.lost == 0
    assert report.duplicates == 0
    assert report.wrong == 0
    assert report.responses.get("ok", 0) == report.submitted
    # lock_sanitizer's teardown runs san.check(): cycles or leaked
    # threads in the run above fail the test there


def test_sigkill_chaos_proc_pool_under_sanitizer(rng):
    """SIGKILL chaos on the process tier with the *parent* under the
    monitor: a shard dies mid-compute, death recovery replays the flight
    exactly once, and the parent's heartbeat/replay/registry locking
    builds no lock-order cycle and leaves no unjoined thread behind."""
    from repro.serve.request import GemmRequest

    armed = []

    def chaos(batch_id, deaths):
        if deaths == 0 and not armed:
            armed.append(batch_id)
            return "compute"
        return None

    config = ServiceConfig(
        processes=2,
        workers=2,
        proc_seed=11,
        ft=FTGemmConfig(blocking=BlockingConfig.small()),
    )
    with monitor() as san:
        service = GemmService(config, chaos=chaos).start()
        pairs = []
        for _ in range(6):
            a = rng.standard_normal((10, 16))
            b = rng.standard_normal((16, 12))
            pairs.append((a, b, service.submit(GemmRequest(a, b))))
        service.drain()
        for a, b, ticket in pairs:
            response = ticket.result(timeout=120)
            assert response.status == "ok", (response.status, response.error)
            np.testing.assert_allclose(response.result.c, a @ b, atol=1e-9)
        counters = service.stats()["metrics"]["counters"]
        assert counters.get("serve.proc.deaths", 0) >= 1
        assert service.duplicates == 0
        service.shutdown()
    san.check()
    assert san.cycles == [] and san.leaked_threads == []


@pytest.mark.parametrize("barrier", [0, 3, 8])
def test_failstop_recovery_under_sanitizer(lock_sanitizer, rng, barrier):
    """Fail-stop recovery on the OS-thread backend under the monitor: the
    team's monitored barrier (bare Condition -> instrumented RLock), the
    locked injector and the recovery epoch hold no conflicting lock
    orders and leak no threads, while the kill/recover grid still
    verifies."""
    a = rng.standard_normal((20, 16))
    b = rng.standard_normal((16, 24))
    cfg = FTGemmConfig(blocking=BlockingConfig.small())
    injector = FaultInjector(
        InjectionPlan(
            schedule={},
            seed=0,
            fail_stops=(FailStop(thread=1, barrier=barrier),),
        )
    )
    driver = ParallelFTGemm(cfg, n_threads=2, backend="threads")
    result = driver.gemm(a, b, injector=injector)
    assert result.verified
    np.testing.assert_allclose(result.c, a @ b, rtol=1e-9, atol=1e-9)
    assert result.recovery is not None
    assert result.recovery.thread_deaths == ((1, barrier),)
