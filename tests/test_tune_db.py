"""TuningDB persistence: round-trips, byte stability, fingerprint and
version invalidation, shape bucketing, TunedConfig validation."""

import json

import numpy as np
import pytest

from repro.gemm.blocking import BlockingConfig
from repro.simcpu.machine import MachineSpec
from repro.tune.db import (
    SCHEMA_VERSION,
    TunedConfig,
    TuningDB,
    machine_fingerprint,
    shape_bucket,
)
from repro.util.errors import ConfigError


def _db(tmp_path, machine=None):
    machine = machine or MachineSpec.cascade_lake_w2255()
    return TuningDB.for_machine(machine, path=tmp_path / "tune_db.json")


def _tuned(**kwargs):
    kwargs.setdefault("mc", 16)
    kwargs.setdefault("kc", 16)
    kwargs.setdefault("nc", 32)
    kwargs.setdefault("mr", 4)
    kwargs.setdefault("nr", 4)
    return TunedConfig(**kwargs)


# ---------------------------------------------------------------- bucketing
def test_shape_bucket_rounds_up_to_powers_of_two():
    assert shape_bucket(96, 48, 24) == "m128n64k32"
    assert shape_bucket(128, 64, 32) == "m128n64k32"  # exact powers stay
    assert shape_bucket(1, 1, 1) == "m1n1k1"
    assert shape_bucket(129, 65, 33) == "m256n128k64"


def test_nearby_shapes_share_a_bucket():
    assert shape_bucket(100, 50, 20) == shape_bucket(96, 48, 24)


# ---------------------------------------------------------------- round-trip
def test_save_load_round_trip_is_byte_stable(tmp_path):
    db = _db(tmp_path)
    db.put(96, 48, 24, _tuned(measured_gflops=1.25))
    db.put(16, 48, 24, _tuned(mc=8, kc=8, nc=16, source="static"))
    db.save()
    loaded = TuningDB.load(db.path, machine=MachineSpec.cascade_lake_w2255())
    assert not loaded.stale
    assert len(loaded) == len(db) == 2
    assert loaded.to_json() == db.to_json()  # byte-for-byte
    # and saving the loaded copy changes nothing on disk
    before = db.path.read_bytes()
    loaded.save(db.path)
    assert db.path.read_bytes() == before


def test_resolve_after_load_returns_equal_config(tmp_path):
    db = _db(tmp_path)
    tuned = _tuned(coalesce_limit=4, measured_gflops=2.0)
    db.put(96, 48, 24, tuned)
    db.save()
    loaded = TuningDB.load(db.path, machine=MachineSpec.cascade_lake_w2255())
    resolved = loaded.resolve(100, 50, 20)  # same bucket, different shape
    assert resolved == tuned
    assert loaded.resolve(9999, 50, 20) is None  # different bucket


def test_load_missing_or_corrupt_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        TuningDB.load(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        TuningDB.load(bad)


# -------------------------------------------------------------- invalidation
def test_fingerprint_mismatch_marks_db_stale(tmp_path):
    db = _db(tmp_path)
    db.put(96, 48, 24, _tuned())
    db.save()
    other = MachineSpec.small_test_machine()
    loaded = TuningDB.load(db.path, machine=other)
    assert loaded.stale
    assert "fingerprint" in loaded.stale_reason
    # entries are still readable (for `tune show`) but never served
    assert len(loaded) == 1
    assert loaded.resolve(96, 48, 24) is None


def test_version_mismatch_marks_db_stale(tmp_path):
    db = _db(tmp_path)
    db.put(96, 48, 24, _tuned())
    db.save()
    payload = json.loads(db.path.read_text())
    payload["version"] = SCHEMA_VERSION + 1
    db.path.write_text(json.dumps(payload))
    loaded = TuningDB.load(db.path, machine=MachineSpec.cascade_lake_w2255())
    assert loaded.stale
    assert "version" in loaded.stale_reason
    assert loaded.resolve(96, 48, 24) is None


def test_fingerprint_is_stable_and_machine_sensitive():
    cascade = MachineSpec.cascade_lake_w2255()
    assert machine_fingerprint(cascade) == machine_fingerprint(
        MachineSpec.cascade_lake_w2255()
    )
    assert machine_fingerprint(cascade) != machine_fingerprint(
        MachineSpec.small_test_machine()
    )


# -------------------------------------------------------------- TunedConfig
def test_tuned_config_validates_at_construction():
    with pytest.raises(ConfigError, match="multiple"):
        TunedConfig(mc=10, kc=8, nc=16, mr=4, nr=4)
    with pytest.raises(ConfigError):
        _tuned(threads=0)
    with pytest.raises(ConfigError):
        _tuned(coalesce_limit=-1)


def test_tuned_config_dict_round_trip_filters_unknown_fields():
    tuned = _tuned(threads=2, coalesce_limit=4)
    data = tuned.to_dict()
    data["future_field"] = "ignored"  # forward compatibility
    assert TunedConfig.from_dict(data) == tuned


def test_record_with_retired_dispatch_key_loads_and_resolves(tmp_path):
    """DBs written while configs still carried a macro-kernel ``dispatch``
    field keep loading, resolving and configuring the serving path."""
    from repro.serve.execute import tuned_parts

    machine = MachineSpec.cascade_lake_w2255()
    db = _db(tmp_path, machine)
    db.put(96, 48, 24, _tuned(threads=2))
    db.save()
    payload = json.loads(db.path.read_text())
    for entry in payload["entries"].values():
        entry["dispatch"] = "tile"
    db.path.write_text(json.dumps(payload))
    tuned = TuningDB.load(db.path, machine=machine).resolve(96, 48, 24)
    assert tuned == _tuned(threads=2)
    entry = next(iter(payload["entries"].values()))
    assert tuned_parts(entry) == tuned_parts(tuned) == (tuned.blocking(), 2)


def test_tuned_config_accepts_numpy_integers():
    tuned = TunedConfig(
        mc=np.int64(16), kc=np.int64(16), nc=np.int64(32), mr=4, nr=4
    )
    blocking = tuned.blocking()
    assert isinstance(blocking.mc, int) and blocking.mc == 16


def test_from_blocking_marks_source_static():
    tuned = TunedConfig.from_blocking(BlockingConfig.small(), threads=2)
    assert tuned.source == "static"
    assert tuned.threads == 2
    assert tuned.blocking() == BlockingConfig.small()
