"""Process-level serving tier: the fault domain becomes the process.

`repro.serve.proc` scales the serving subsystem past one interpreter: a
pool of **spawned worker processes**, each holding its own protected
GEMM engines, executes the batches the in-parent scheduler forms. The
tier keeps every guarantee the thread tier proved — exactly-once
responses through the service's ``_complete`` funnel, verified results,
graceful drain — while surviving the fault the thread tier cannot:
**loss of a whole worker process** (SIGKILL, OOM-kill, hard hang).

- :mod:`repro.serve.proc.spawnctx` — the one place the ``spawn`` start
  method is pinned, plus deterministic per-worker RNG seed derivation;
- :mod:`repro.serve.proc.shm` — shared-memory operand transport: A/B/C
  panels move through named ``SharedMemory`` segments tracked by a
  leak-audited registry (matrices are never pickled across the process
  boundary), with an inline-bytes fallback for oversized operands;
- :mod:`repro.serve.proc.heartbeat` — per-worker heartbeat board and the
  monitor that turns missed beats or a dead PID into the death protocol;
- :mod:`repro.serve.proc.worker` — the child-process entry point:
  engines, per-worker operand/panel caches, deterministic in-child fault
  injection, and the chaos self-kill hooks;
- :mod:`repro.serve.proc.pool` — :class:`ProcWorkerPool`: shape-bucket
  shard routing, dispatch/receive/monitor threads, exactly-once replay
  of a dead worker's in-flight batches, probation re-admission and
  per-bucket degraded mode;
- :mod:`repro.serve.proc.gateway` — the asyncio gateway: open-loop
  clients await responses without holding a thread each.
"""

from repro.serve.proc.gateway import AsyncGateway
from repro.serve.proc.heartbeat import HeartbeatBoard, HeartbeatMonitor
from repro.serve.proc.pool import ProcWorkerPool
from repro.serve.proc.shm import ShmRegistry, ShmTransport
from repro.serve.proc.spawnctx import spawn_context

__all__ = [
    "AsyncGateway",
    "HeartbeatBoard",
    "HeartbeatMonitor",
    "ProcWorkerPool",
    "ShmRegistry",
    "ShmTransport",
    "spawn_context",
]
