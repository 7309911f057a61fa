"""Persistent shape→config tuning database.

The DSE harness (:mod:`repro.tune.search`) distills each searched shape
class into one winning :class:`TunedConfig`; this module stores those
winners on disk as versioned JSON keyed by ``(shape bucket, dtype)`` under
a **machine fingerprint**, and serves them back to the serving tier at
admission time.

Design rules:

- **Shape buckets, not exact shapes.** Requests rarely repeat exact
  dimensions; :func:`shape_bucket` rounds each of (m, n, k) up to the next
  power of two so one searched representative covers its whole class.
- **Byte-stable JSON.** :meth:`TuningDB.to_json` sorts keys and fixes the
  indentation, so saving the same entries twice yields identical bytes —
  the round-trip tests and the CI artifact diff rely on this.
- **Fingerprint invalidation, never wrong answers.** A DB recorded on one
  machine (or an older schema version) is *stale* on another: it loads
  fine, but :meth:`TuningDB.resolve` answers ``None`` for everything, so
  the service silently falls back to its static config instead of applying
  another machine's blocking parameters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.gemm.blocking import BlockingConfig
from repro.simcpu.machine import MachineSpec
from repro.util.errors import ConfigError

__all__ = [
    "SCHEMA_VERSION",
    "TunedConfig",
    "TuningDB",
    "machine_fingerprint",
    "shape_bucket",
]

#: Bump whenever the on-disk layout or the meaning of a field changes; a
#: version-mismatched file loads as stale (resolve always misses).
SCHEMA_VERSION = 1


def _bucket_dim(x: int) -> int:
    """Round a dimension up to the next power of two (minimum 1)."""
    if x < 1:
        raise ConfigError(f"shape dimension must be >= 1, got {x}")
    return 1 << (int(x) - 1).bit_length()


def shape_bucket(m: int, n: int, k: int) -> str:
    """The shape-class key of an ``m x n x k`` problem, e.g. ``m512n64k32``.

    Dimensions are rounded up to powers of two so every request within a
    ~2x band shares the entry its representative was tuned on.
    """
    return f"m{_bucket_dim(m)}n{_bucket_dim(n)}k{_bucket_dim(k)}"


def machine_fingerprint(machine: MachineSpec) -> str:
    """A 16-hex-digit stable digest of everything the search depends on.

    Derived from the full :class:`MachineSpec` (cores, frequencies, ports,
    lanes, every cache level, memory system), so *any* change to the
    modeled machine invalidates previously recorded tunings.
    """
    spec = dataclasses.asdict(machine)
    blob = json.dumps(spec, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TunedConfig:
    """One shape class's winning execution configuration.

    The first six fields mirror :class:`~repro.gemm.blocking.BlockingConfig`;
    ``threads`` selects serial vs team execution inside a worker, and
    ``coalesce_limit`` caps how many compatible requests the scheduler may
    stack into one batch for this class (0 means "no extra cap"). The
    trailing metadata records where the entry came from and how fast the
    search predicted/measured it, for `repro tune show` and the CI artifact.
    """

    mc: int
    kc: int
    nc: int
    mr: int = 16
    nr: int = 14
    threads: int = 1
    coalesce_limit: int = 0
    predicted_gflops: float = 0.0
    measured_gflops: float = 0.0
    source: str = "search"

    def __post_init__(self) -> None:
        # constructing the BlockingConfig runs the full legality check
        # (positive, mc % mr, tile vs block bounds) exactly once, up front
        self.blocking()
        if not isinstance(self.threads, int) or self.threads < 1:
            raise ConfigError(f"threads must be a positive int, got {self.threads!r}")
        if not isinstance(self.coalesce_limit, int) or self.coalesce_limit < 0:
            raise ConfigError(
                f"coalesce_limit must be a non-negative int, got {self.coalesce_limit!r}"
            )

    # ------------------------------------------------------------ conversion
    def blocking(self) -> BlockingConfig:
        """The blocking parameters as the GEMM layer's config object."""
        return BlockingConfig(
            mc=self.mc, kc=self.kc, nc=self.nc,
            mr=self.mr, nr=self.nr,
        )

    @classmethod
    def from_blocking(
        cls,
        blocking: BlockingConfig,
        *,
        threads: int = 1,
        coalesce_limit: int = 0,
        source: str = "static",
    ) -> "TunedConfig":
        return cls(
            mc=blocking.mc, kc=blocking.kc, nc=blocking.nc,
            mr=blocking.mr, nr=blocking.nr,
            threads=threads, coalesce_limit=coalesce_limit, source=source,
        )

    def key(self) -> tuple:
        """The execution-relevant identity (metadata excluded) — what the
        worker pools key their driver caches on."""
        return (self.mc, self.kc, self.nc, self.mr, self.nr, self.threads)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TunedConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"tuned config must be a mapping, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        missing = {"mc", "kc", "nc"} - set(data)
        if missing:
            raise ConfigError(f"tuned config missing fields: {sorted(missing)}")
        return cls(**{name: value for name, value in data.items() if name in known})


@dataclass
class TuningDB:
    """In-memory view of one machine's shape→config store.

    ``stale`` marks a DB whose file did not match this process's machine
    fingerprint or schema version: it still *shows* (so ``repro tune show``
    can explain why nothing applies) but every :meth:`resolve` misses.
    """

    fingerprint: str
    machine_name: str = ""
    path: str | None = None
    entries: dict[tuple[str, str], TunedConfig] = field(default_factory=dict)
    stale: bool = False
    stale_reason: str = ""

    # ---------------------------------------------------------- construction
    @classmethod
    def for_machine(cls, machine: MachineSpec, *, path: str | None = None) -> "TuningDB":
        """A fresh, empty DB bound to ``machine``'s fingerprint."""
        return cls(
            fingerprint=machine_fingerprint(machine),
            machine_name=machine.name,
            path=path,
        )

    @classmethod
    def load(cls, path: str, *, machine: MachineSpec | None = None) -> "TuningDB":
        """Load a DB file; mismatches yield a *stale* DB, not an error.

        With ``machine`` given (the serving path), the file's fingerprint
        must match the current machine or every lookup falls back; without
        it (inspection tools), the file is trusted as-is.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load tuning DB {path!r}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"tuning DB {path!r} is not a JSON object")
        db = cls(
            fingerprint=str(payload.get("fingerprint", "")),
            machine_name=str(payload.get("machine", "")),
            path=path,
        )
        version = payload.get("version")
        if version != SCHEMA_VERSION:
            db.stale = True
            db.stale_reason = f"schema version {version!r} != {SCHEMA_VERSION}"
        elif machine is not None:
            want = machine_fingerprint(machine)
            if db.fingerprint != want:
                db.stale = True
                db.stale_reason = (
                    f"machine fingerprint {db.fingerprint or '<none>'} does not "
                    f"match this machine ({want})"
                )
        for key, entry in (payload.get("entries") or {}).items():
            bucket, _, dtype = str(key).partition("/")
            db.entries[(bucket, dtype or "float64")] = TunedConfig.from_dict(entry)
        return db

    # --------------------------------------------------------------- queries
    def resolve(self, m: int, n: int, k: int, *, dtype: str = "float64") -> TunedConfig | None:
        """The tuned config for this shape class, or ``None`` (use static)."""
        if self.stale:
            return None
        return self.entries.get((shape_bucket(m, n, k), dtype))

    def put(self, m: int, n: int, k: int, tuned: TunedConfig, *, dtype: str = "float64") -> str:
        """Record ``tuned`` as the winner for the shape's bucket; returns the
        bucket key it landed under."""
        bucket = shape_bucket(m, n, k)
        self.entries[(bucket, dtype)] = tuned
        return bucket

    def __len__(self) -> int:
        return len(self.entries)

    # ----------------------------------------------------------- persistence
    def to_json(self) -> str:
        """Byte-stable serialization: sorted keys, fixed indent, one
        trailing newline — identical entries always produce identical bytes."""
        payload = {
            "version": SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "machine": self.machine_name,
            "entries": {
                f"{bucket}/{dtype}": tuned.to_dict()
                for (bucket, dtype), tuned in self.entries.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def save(self, path: str | None = None) -> str:
        """Write atomically (tmp + rename) to ``path`` or the bound path."""
        target = path or self.path
        if not target:
            raise ConfigError("tuning DB has no path to save to")
        tmp = f"{target}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        os.replace(tmp, target)
        self.path = target
        return target
