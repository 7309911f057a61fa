"""Tuning-DB consultation in the serving tier: admission resolution,
tuned-driver execution, coalesce caps, and the untuned A/B guarantee."""

import numpy as np

from repro.core.config import FTGemmConfig
from repro.gemm.blocking import BlockingConfig
from repro.serve import GemmRequest, GemmService, ServiceConfig
from repro.serve.execute import tuned_parts
from repro.simcpu.machine import MachineSpec
from repro.tune.db import TunedConfig, TuningDB

CASCADE = MachineSpec.cascade_lake_w2255()


def _config(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("ft", FTGemmConfig(blocking=BlockingConfig.small()))
    return ServiceConfig(**kwargs)


def _operands(m=24, k=16, n=12, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k)), rng.standard_normal((k, n))


def _db_for(m, n, k, tmp_path, **tuned_kwargs):
    tuned_kwargs.setdefault("mc", 16)
    tuned_kwargs.setdefault("kc", 16)
    tuned_kwargs.setdefault("nc", 32)
    tuned_kwargs.setdefault("mr", 4)
    tuned_kwargs.setdefault("nr", 4)
    db = TuningDB.for_machine(CASCADE, path=tmp_path / "db.json")
    db.put(m, n, k, TunedConfig(**tuned_kwargs))
    return db


# ------------------------------------------------------------- A/B identity
def test_untuned_service_emits_no_tune_metrics():
    a, b = _operands()
    with GemmService(_config()) as service:
        response = service.submit(GemmRequest(a, b)).result(10.0)
        counters = service.metrics.snapshot()["counters"]
    assert response.ok and response.verified
    assert not any(name.startswith("tune.") for name in counters)
    np.testing.assert_allclose(response.result.c, a @ b, rtol=1e-9, atol=1e-9)


def test_untuned_stats_omit_tune_db_block():
    with GemmService(_config()) as service:
        assert "tune_db" not in service.stats()


# ------------------------------------------------------------ resolution
def test_tuned_service_resolves_and_applies(tmp_path):
    a, b = _operands()
    db = _db_for(a.shape[0], b.shape[1], a.shape[1], tmp_path)
    with GemmService(_config(), tune_db=db) as service:
        response = service.submit(GemmRequest(a, b)).result(10.0)
        counters = service.metrics.snapshot()["counters"]
        stats = service.stats()
    assert response.ok and response.verified
    np.testing.assert_allclose(response.result.c, a @ b, rtol=1e-9, atol=1e-9)
    assert counters["tune.resolve_hits"] == 1
    assert counters["tune.applied"] >= 1
    assert stats["tune_db"]["entries"] == 1
    assert stats["tune_db"]["stale"] is False


def test_miss_and_stale_db_fall_back_to_static(tmp_path):
    a, b = _operands()
    # an entry for a different bucket: resolve misses, static config runs
    db = _db_for(4096, 4096, 4096, tmp_path)
    with GemmService(_config(), tune_db=db) as service:
        response = service.submit(GemmRequest(a, b)).result(10.0)
        counters = service.metrics.snapshot()["counters"]
    assert response.ok
    assert counters["tune.resolve_misses"] == 1
    assert "tune.applied" not in counters

    # a stale DB (foreign fingerprint) behaves exactly like a miss
    db = _db_for(a.shape[0], b.shape[1], a.shape[1], tmp_path)
    db.save()
    stale = TuningDB.load(db.path, machine=MachineSpec.small_test_machine())
    assert stale.stale
    with GemmService(_config(), tune_db=stale) as service:
        response = service.submit(GemmRequest(a, b)).result(10.0)
        counters = service.metrics.snapshot()["counters"]
    assert response.ok
    assert counters["tune.resolve_misses"] == 1


# ---------------------------------------------------------- coalesce cap
def test_tuned_coalesce_limit_caps_batches(tmp_path):
    rng = np.random.default_rng(3)
    b = rng.standard_normal((16, 12))
    operands = [rng.standard_normal((24, 16)) for _ in range(8)]
    db = _db_for(24, 12, 16, tmp_path, coalesce_limit=2)
    with GemmService(
        _config(max_batch=8, window_s=0.05), tune_db=db
    ) as service:
        tickets = [service.submit(GemmRequest(a, b)) for a in operands]
        service.drain()
        responses = [t.result(10.0) for t in tickets]
    assert all(r.ok for r in responses)
    sizes = [r.batch_size for r in responses]
    assert max(sizes) <= 2  # the tuned cap binds below max_batch
    assert 2 in sizes  # and coalescing still happens up to the cap
    for a, r in zip(operands, responses):
        np.testing.assert_allclose(r.result.c, a @ b, rtol=1e-9, atol=1e-9)


# ------------------------------------------------------------- tuned_parts
def test_tuned_parts_accepts_config_objects_and_dicts():
    tuned = TunedConfig(mc=16, kc=16, nc=32, mr=4, nr=4, threads=2)
    blocking, threads = tuned_parts(tuned)
    assert blocking == tuned.blocking()
    assert threads == 2
    # the proc tier ships plain dicts across the pipe
    blocking, threads = tuned_parts(tuned.to_dict())
    assert blocking == tuned.blocking()
    assert threads == 2
    minimal = {"mc": 32, "kc": 8, "nc": 16}  # mr/nr default to the paper tile
    blocking, threads = tuned_parts(minimal)
    assert (blocking.mc, blocking.mr, blocking.nr) == (32, 16, 14)
    assert threads == 1


# -------------------------------------------------------------- proc tier
def test_proc_tier_ships_tuned_configs(tmp_path):
    """Tuned entries cross the process boundary as plain dicts and the
    child executes on the tuned driver with correct numerics."""
    a, b = _operands()
    db = _db_for(a.shape[0], b.shape[1], a.shape[1], tmp_path)
    config = ServiceConfig(
        processes=1,
        workers=1,
        ft=FTGemmConfig(blocking=BlockingConfig.small()),
    )
    with GemmService(config, tune_db=db) as service:
        response = service.submit(GemmRequest(a, b)).result(60.0)
        counters = service.metrics.snapshot()["counters"]
    assert response.ok and response.verified
    np.testing.assert_allclose(response.result.c, a @ b, rtol=1e-9, atol=1e-9)
    assert counters["tune.resolve_hits"] == 1
