"""Fault-tolerant GEMM serving: queue, scheduler, worker pool, service.

The serving subsystem turns the library's protected GEMM drivers into a
long-running, multi-tenant service with an exactly-once response
guarantee:

- :mod:`repro.serve.request` — request/response types and the one-shot
  :class:`ResponseFuture`;
- :mod:`repro.serve.queue` — bounded admission with backpressure
  (block / reject / shed-lowest) and deadline expiry;
- :mod:`repro.serve.scheduler` — shape-coalescing batcher: compatible
  requests execute as one stacked product;
- :mod:`repro.serve.execute` — the execution core both tiers call: one
  retry loop around the registry kernel, coalesced-batch stacking and
  the per-worker engine cache;
- :mod:`repro.serve.pool` — supervised workers with quarantine and a
  degraded checksum-only mode under pressure;
- :mod:`repro.serve.service` — the :class:`GemmService` facade wiring it
  together; :mod:`repro.serve.client` — the blocking convenience client;
- :mod:`repro.serve.workload` — open-loop synthetic workloads with a
  built-in exactly-once / correctness audit (the CLI and CI entry);
- :mod:`repro.serve.proc` — the process tier: multiprocessing workers
  behind the same scheduler, shared-memory operand transport, heartbeat
  death detection with exactly-once replay, and an asyncio gateway.
"""

from repro.serve.client import GemmClient
from repro.serve.queue import Admission, AdmissionQueue, POLICIES
from repro.serve.request import (
    GemmRequest,
    GemmResponse,
    ResponseFuture,
    SCHEMES,
    TERMINAL_STATUSES,
    Ticket,
)
from repro.serve.scheduler import Batch, BatchScheduler, SchedulerStats
from repro.serve.execute import Worker
from repro.serve.pool import WorkerPool
from repro.serve.service import GemmService, ServiceConfig
from repro.serve.workload import (
    DEFAULT_SHAPES,
    MIXED_SHAPES,
    ShapeSpec,
    WorkloadConfig,
    WorkloadReport,
    make_fault_spec_factory,
    make_injector_factory,
    make_proc_chaos,
    run_serve_workload,
    run_workload,
)

__all__ = [
    "Admission",
    "AdmissionQueue",
    "Batch",
    "BatchScheduler",
    "DEFAULT_SHAPES",
    "MIXED_SHAPES",
    "GemmClient",
    "GemmRequest",
    "GemmResponse",
    "GemmService",
    "POLICIES",
    "ResponseFuture",
    "SCHEMES",
    "SchedulerStats",
    "ServiceConfig",
    "ShapeSpec",
    "TERMINAL_STATUSES",
    "Ticket",
    "Worker",
    "WorkerPool",
    "WorkloadConfig",
    "WorkloadReport",
    "make_fault_spec_factory",
    "make_injector_factory",
    "make_proc_chaos",
    "run_serve_workload",
    "run_workload",
]
