"""Process-tier pool behavior: heartbeat machinery, deterministic
results, death → exactly-once replay → probation re-admission, degraded
buckets after repeated shard deaths, bounded replays, and a death while
the dispatcher holds a flight.

Chaos here is deterministic (a closure arming specific kills), so every
death scenario replays bit-identically; the randomized storm lives in
``test_serve_proc_soak.py``.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.core.config import FTGemmConfig
from repro.gemm.blocking import BlockingConfig
from repro.serve import GemmService, GemmRequest, ServiceConfig
from repro.serve.proc import HeartbeatBoard, HeartbeatMonitor
from repro.serve.proc.heartbeat import Beater
from repro.serve.proc.spawnctx import spawn_context
from repro.util.errors import ConfigError


def _proc_config(**kw) -> ServiceConfig:
    kw.setdefault("processes", 2)
    kw.setdefault("workers", 2)
    kw.setdefault("ft", FTGemmConfig(blocking=BlockingConfig.small()))
    return ServiceConfig(**kw)


def _submit_batch(service, rng, n, shape=(10, 16, 12), b=None):
    m, k, nn = shape
    tickets = []
    for _ in range(n):
        a = rng.standard_normal((m, k))
        bb = b if b is not None else rng.standard_normal((k, nn))
        tickets.append((a, bb, service.submit(GemmRequest(a, bb))))
    return tickets


def _audit(tickets, timeout=60.0):
    for a, b, t in tickets:
        r = t.result(timeout)
        assert r.status == "ok", (r.status, r.error)
        np.testing.assert_allclose(r.result.c, a @ b, atol=1e-9)


# ------------------------------------------------------------- determinism
def test_spawn_context_is_pinned_to_spawn():
    ctx = spawn_context()
    assert ctx.get_start_method() == "spawn"
    assert ctx is spawn_context()  # one singleton, one place
    # pinning never touched the global default
    assert multiprocessing.get_start_method(allow_none=True) in (
        None, "fork", "spawn", "forkserver",
    )


def test_board_tracks_progress_not_beat_count():
    board = HeartbeatBoard()
    value = board.register("w")
    # first beat anchors the progress window at our (fake) clock
    with value.get_lock():
        value.value += 1
    assert board.stalled("w", window_s=10.0, now=100.0) is False
    # no movement for a full window -> stalled
    assert board.stalled("w", window_s=10.0, now=111.0) is True
    # any movement restamps the window
    with value.get_lock():
        value.value += 1
    assert board.stalled("w", window_s=10.0, now=112.0) is False
    assert board.stalled("w", window_s=10.0, now=121.0) is False
    assert board.stalled("w", window_s=10.0, now=122.5) is True
    board.deregister("w")
    assert board.stalled("w", window_s=10.0, now=999.0) is False


def test_beater_moves_the_counter():
    board = HeartbeatBoard()
    value = board.register("w")
    beater = Beater(value, interval_s=0.005)
    beater.start()
    deadline = time.monotonic() + 2.0
    while board.beats("w") < 3 and time.monotonic() < deadline:
        time.sleep(0.005)
    beater.stop()
    assert board.beats("w") >= 3


def test_monitor_escalates_dead_and_stalled_keys():
    board = HeartbeatBoard()
    board.register("dead-one")
    frozen = board.register("frozen-one")
    # one beat ends the boot grace; after it the worker goes silent
    with frozen.get_lock():
        frozen.value += 1
    seen = {"dead": [], "stall": []}
    monitor = HeartbeatMonitor(
        board,
        interval_s=0.01,
        miss_limit=1,
        liveness=lambda key: key != "dead-one",
        on_dead=seen["dead"].append,
        on_stall=seen["stall"].append,
    )
    monitor.tick()  # first sweep stamps baselines; nothing stalled yet
    assert seen["dead"] == ["dead-one"]
    time.sleep(0.03)  # > window_s = 0.01 with no beats
    monitor.tick()
    assert seen["stall"] == ["frozen-one"]


# ------------------------------------------------------------ basic serving
def test_process_tier_serves_and_coalesces(rng):
    service = GemmService(_proc_config()).start()
    shared_b = rng.standard_normal((16, 12))
    tickets = _submit_batch(service, rng, 8, b=shared_b)
    service.drain()
    _audit(tickets)
    stats = service.stats()
    assert stats["proc"]["workers"] == 2
    assert stats["metrics"]["counters"].get("serve.proc.batches", 0) >= 1
    service.shutdown()


def test_process_tier_rejects_live_injector_factory():
    with pytest.raises(ConfigError, match="process boundary"):
        GemmService(
            _proc_config(), injector_factory=lambda *a: None
        )
    with pytest.raises(ConfigError, match="process tier"):
        GemmService(
            ServiceConfig(processes=0), chaos=lambda *a: None
        )


def test_fault_specs_exercise_child_side_abft(rng):
    """A spec-driven injected fault is detected and corrected inside the
    worker process — the response is still correct and verified."""
    def spec_factory(request_id, config, kernel):
        return {
            "model": "flip", "bit": 50, "errors_per_call": 2,
            "plan_seed": 1234, "fail_stop": None,
        }

    service = GemmService(
        _proc_config(processes=1), fault_spec_factory=spec_factory
    ).start()
    tickets = _submit_batch(service, rng, 3)
    service.drain()
    _audit(tickets)
    service.shutdown()


# ---------------------------------------------------------- death and replay
def test_sigkill_mid_compute_replays_exactly_once(rng):
    armed = []

    def chaos(batch_id, deaths):
        if deaths == 0 and not armed:
            armed.append(batch_id)
            return "compute"
        return None

    service = GemmService(_proc_config(proc_seed=5), chaos=chaos).start()
    tickets = _submit_batch(service, rng, 8)
    service.drain()
    _audit(tickets)
    counters = service.stats()["metrics"]["counters"]
    assert counters.get("serve.proc.deaths", 0) >= 1
    assert counters.get("serve.proc.replays", 0) >= 1
    assert service.duplicates == 0
    service.shutdown()


@pytest.mark.parametrize("phase", ["pack", "reduce", "reply"])
def test_sigkill_at_every_phase_is_survivable(rng, phase):
    armed = []

    def chaos(batch_id, deaths):
        if deaths == 0 and not armed:
            armed.append(batch_id)
            return phase
        return None

    service = GemmService(_proc_config(proc_seed=6), chaos=chaos).start()
    tickets = _submit_batch(service, rng, 5)
    service.drain()
    _audit(tickets)
    assert service.stats()["metrics"]["counters"].get(
        "serve.proc.deaths", 0
    ) >= 1
    service.shutdown()


def test_stall_is_caught_by_heartbeat_monitor(rng):
    """A worker that freezes without dying (beater stopped, PID alive)
    must be rescued by miss detection, not pipe EOF."""
    armed = []

    def chaos(batch_id, deaths):
        if deaths == 0 and not armed:
            armed.append(batch_id)
            return "stall"
        return None

    service = GemmService(
        _proc_config(
            proc_seed=7,
            proc_heartbeat_s=0.05,
            proc_miss_limit=6,  # ~0.3 s stall window
        ),
        chaos=chaos,
    ).start()
    tickets = _submit_batch(service, rng, 5)
    service.drain()
    _audit(tickets, timeout=120.0)
    counters = service.stats()["metrics"]["counters"]
    assert counters.get("serve.proc.deaths", 0) >= 1
    service.shutdown()


def test_probation_batch_readmits_replacements(rng):
    armed = []

    def chaos(batch_id, deaths):
        if deaths == 0 and not armed:
            armed.append(batch_id)
            return "compute"
        return None

    service = GemmService(
        _proc_config(proc_seed=8, proc_probation=True), chaos=chaos
    ).start()
    tickets = _submit_batch(service, rng, 8)
    service.drain()
    _audit(tickets)
    counters = service.stats()["metrics"]["counters"]
    assert counters.get("serve.proc.probes_ok", 0) >= 1
    assert counters.get("serve.proc.probes_failed", 0) == 0
    service.shutdown()


def test_replays_are_bounded_and_fail_terminally(rng):
    """A batch whose worker dies on every dispatch exhausts its replay
    budget and fails — terminally, exactly once, without hanging."""
    def chaos(batch_id, deaths):
        return "compute"  # kill every dispatch of every batch

    service = GemmService(
        _proc_config(
            processes=1,
            proc_seed=10,
            proc_max_replays=1,
            proc_probation=False,
        ),
        chaos=chaos,
    ).start()
    a = np.ones((6, 8))
    b = np.ones((8, 4))
    ticket = service.submit(GemmRequest(a, b))
    service.drain()
    response = ticket.result(120.0)
    assert response.status == "failed"
    assert "worker process lost" in response.error
    counters = service.stats()["metrics"]["counters"]
    assert counters.get("serve.proc.replays_exhausted", 0) >= 1
    assert service.duplicates == 0
    service.shutdown()


def test_death_while_dispatcher_holds_a_flight_still_serves_it(rng):
    """The only worker dies during a drain while the dispatcher holds the
    next flight between routing and hand-off. The death protocol sees no
    work and respawns nothing, so the dispatcher must bring a replacement
    back itself; waiting for one would hang the drain forever."""
    draining = threading.Event()
    armed = []

    def deaths():
        counters = service.stats()["metrics"]["counters"]
        return counters.get("serve.proc.deaths", 0)

    def chaos(batch_id, deaths_so_far):
        if armed:
            return None
        armed.append(batch_id)
        draining.wait(10.0)
        time.sleep(0.3)  # the pool marks the drain once the scheduler exits
        for child in multiprocessing.active_children():
            if child.name.startswith("serve-proc-"):
                child.kill()
        deadline = time.monotonic() + 10.0
        while deaths() < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # let the death protocol finish
        return None

    service = GemmService(
        _proc_config(processes=1, proc_probation=False), chaos=chaos
    ).start()
    tickets = _submit_batch(service, rng, 1)
    draining.set()
    drainer = threading.Thread(target=service.drain, daemon=True)
    drainer.start()
    drainer.join(60.0)
    assert not drainer.is_alive(), "drain hung waiting for a replacement"
    _audit(tickets)
    assert deaths() >= 1
    assert service.stats()["proc"]["respawns"] >= 1
    assert service.duplicates == 0


def test_repeated_shard_deaths_degrade_the_bucket(rng):
    """Two deaths on one shape bucket flip it to checksum-only degraded
    mode; later batches of that bucket complete degraded but correct."""
    kills = {"n": 0}

    def chaos(batch_id, deaths):
        if kills["n"] < 2 and deaths < 2:
            kills["n"] += 1
            return "compute"
        return None

    service = GemmService(
        _proc_config(proc_seed=11, proc_bucket_degraded_after=2),
        chaos=chaos,
    ).start()
    shared_b = rng.standard_normal((16, 12))
    tickets = _submit_batch(service, rng, 10, b=shared_b)
    service.drain()
    _audit(tickets, timeout=120.0)
    stats = service.stats()
    assert stats["proc"]["degraded_buckets"] >= 1
    assert stats["metrics"]["counters"].get(
        "serve.proc.degraded_buckets", 0
    ) >= 1
    service.shutdown()


def test_hot_b_cache_ships_cached_refs(rng):
    """Repeat traffic against one B is served from the child-resident
    cache: later dispatches ship a tiny ref instead of the operand."""
    service = GemmService(
        _proc_config(processes=1, proc_b_cache_entries=4, max_batch=1)
    ).start()
    shared_b = rng.standard_normal((16, 12))
    tickets = _submit_batch(service, rng, 6, b=shared_b)
    service.drain()
    _audit(tickets)
    counters = service.stats()["metrics"]["counters"]
    assert counters.get("serve.proc.b_cache_hits", 0) >= 1
    service.shutdown()


def test_process_tier_is_deterministic_across_runs(rng):
    """Same seed, same traffic -> byte-identical results, both runs."""
    def run_once():
        service = GemmService(
            _proc_config(processes=1, proc_seed=42)
        ).start()
        rng_local = np.random.default_rng(99)
        tickets = _submit_batch(service, rng_local, 4)
        service.drain()
        out = [t.result(60.0).result.c.copy() for _, _, t in tickets]
        service.shutdown()
        return out

    first, second = run_once(), run_once()
    for c1, c2 in zip(first, second):
        np.testing.assert_array_equal(c1, c2)
