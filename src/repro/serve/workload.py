"""Open-loop synthetic workloads against the serving layer.

The workload driver is what the ``repro serve`` CLI subcommand, the CI
smoke job and the soak tests run: submit requests at a configured arrival
rate for a configured duration — *open loop*, so submission pressure does
not slack off when the service slows down — optionally under live fault
injection, then audit the outcome:

- **exactly-once**: every submitted request produced exactly one terminal
  response (``lost == 0`` and ``service.duplicates == 0``);
- **correctness**: every ``ok`` response matches the NumPy oracle
  computed from the request's own operands;
- **performance**: throughput, latency percentiles, batch-size mix.

Shapes are drawn from a weighted mix. Requests of one shape class share
one operand (the inference pattern: many activations against one weight
matrix — B for GEMM, the A factor for GEMV/TRSM), which is what gives
the scheduler something to coalesce and the caches something to reuse;
classes marked ``private_b`` get fresh operands per request and always
execute as singletons — the control group.

A shape class may name any registered kernel (``ShapeSpec.kernel``), so
one open-loop run can storm a heterogeneous mix — :data:`MIXED_SHAPES`
is the stock four-kernel blend — and the audit checks each ``ok``
response against *its own kernel's* NumPy oracle.

Fault injection is deterministic per (request, attempt): one spec
factory derives every choice from the workload seed, and both tiers
rebuild their injectors from its specs, so a failing soak replays
exactly on either tier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.kernels import get_kernel
from repro.serve.execute import injector_from_spec
from repro.serve.request import (
    FftRequest,
    GemmRequest,
    GemvRequest,
    KernelRequest,
    TrsmRequest,
)
from repro.serve.service import GemmService, ServiceConfig
from repro.util.errors import ConfigError
from repro.util.rng import derive_seed, make_rng


@dataclass(frozen=True)
class ShapeSpec:
    """One shape class in the mix: ``weight`` is its draw probability
    mass; ``private_b`` forces per-request operands (no sharing, no
    coalescing); ``kernel`` names the registered kernel the class
    exercises.

    Dimension conventions per kernel (the three fields are positional
    for GEMM history; other kernels read the ones they need):

    - ``gemm`` — A is ``m×k``, B is ``k×n``;
    - ``gemv`` — A is ``m×k``, x has length ``k`` (``n`` unused);
    - ``trsm`` — the triangular factor is ``k×k``, ``n`` right-hand
      sides (``m`` unused);
    - ``fft`` — signals of power-of-two length ``n`` (``m``/``k``
      unused; every signal is private).
    """

    m: int
    k: int
    n: int
    weight: float = 1.0
    private_b: bool = False
    kernel: str = "gemm"


#: default mixed-shape workload: two coalescible classes sharing a B each,
#: plus a private-B singleton class
DEFAULT_SHAPES = (
    ShapeSpec(24, 32, 32, weight=0.5),
    ShapeSpec(16, 48, 24, weight=0.3),
    ShapeSpec(20, 40, 28, weight=0.2, private_b=True),
)

#: the stock heterogeneous blend: every registered kernel in one storm —
#: a coalescible GEMM class, GEMV and TRSM classes sharing their A
#: factors (the many-solves-per-factorization pattern), and private FFT
#: signals
MIXED_SHAPES = (
    ShapeSpec(24, 32, 32, weight=0.35),
    ShapeSpec(40, 24, 1, weight=0.25, kernel="gemv"),
    ShapeSpec(1, 40, 8, weight=0.2, kernel="trsm"),
    ShapeSpec(1, 1, 64, weight=0.2, private_b=True, kernel="fft"),
)


@dataclass(frozen=True)
class WorkloadConfig:
    """An open-loop run: arrivals, shapes, faults, stop conditions."""

    duration_s: float = 2.0
    #: mean arrival rate (requests/second); inter-arrival times are
    #: exponential (Poisson arrivals)
    arrival_rate: float = 50.0
    #: fraction of requests whose first execution attempt receives a
    #: fault plan (a stacked unit is struck when any member is)
    fault_rate: float = 0.0
    #: of the faulted attempts: how many carry a fail-stop on top
    #: (needs ``gemm_threads >= 2``; silently skipped otherwise)
    fail_stop_fraction: float = 0.2
    #: errors per faulted call
    errors_per_call: int = 2
    seed: int = 0
    shapes: tuple[ShapeSpec, ...] = DEFAULT_SHAPES
    #: queue deadline applied to every request (None = none)
    deadline_s: float | None = None
    #: priorities drawn uniformly from this tuple
    priorities: tuple[int, ...] = (0,)
    #: stop after this many submissions even if time remains
    max_requests: int | None = None
    #: hot-B mode: instead of one shared B per coalescible shape class,
    #: draw each request's B from a pool of this many operands with
    #: Zipf-distributed popularity (rank r drawn ∝ 1/r^zipf_s) — the
    #: realistic reuse skew hot-operand caching feeds on. None (default)
    #: keeps the single-shared-B behaviour (and the exact operand rng
    #: sequence) of every existing benchmark and soak.
    hot_b_pool: int | None = None
    #: skew exponent of the hot-B popularity distribution (larger =
    #: hotter head); only read when ``hot_b_pool`` is set
    zipf_s: float = 1.2
    #: process-kill chaos (process tier only): probability a dispatched
    #: batch's worker SIGKILLs itself mid-batch at a random phase
    #: (pack / compute / reduce / reply). Halved per replay of the same
    #: batch so a chaos storm converges instead of deterministically
    #: re-killing its own replays.
    proc_kill_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        if self.arrival_rate <= 0:
            raise ConfigError(
                f"arrival_rate must be positive, got {self.arrival_rate}"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ConfigError(
                f"fault_rate must be in [0, 1], got {self.fault_rate}"
            )
        if not self.shapes:
            raise ConfigError("shapes must not be empty")
        if self.hot_b_pool is not None and self.hot_b_pool < 1:
            raise ConfigError(
                f"hot_b_pool must be >= 1 or None, got {self.hot_b_pool}"
            )
        if self.zipf_s <= 0:
            raise ConfigError(
                f"zipf_s must be positive, got {self.zipf_s}"
            )
        if not 0.0 <= self.proc_kill_rate <= 1.0:
            raise ConfigError(
                f"proc_kill_rate must be in [0, 1], got "
                f"{self.proc_kill_rate}"
            )


@dataclass
class WorkloadReport:
    """The audit of one run; ``ok`` gates the CI smoke job's exit code."""

    submitted: int = 0
    responses: dict[str, int] = field(default_factory=dict)
    #: submitted requests that never produced a response — must be 0
    lost: int = 0
    #: second completions observed by the service — must be 0
    duplicates: int = 0
    #: ok responses whose C failed the NumPy oracle — must be 0
    wrong: int = 0
    elapsed_s: float = 0.0
    throughput_rps: float = 0.0
    latency_ms: dict[str, float] = field(default_factory=dict)
    #: scheduler view: batches formed, coalesced share
    scheduler: dict = field(default_factory=dict)
    #: fault-path view: retries, quarantines, degraded batches
    recovery: dict = field(default_factory=dict)
    #: panel-cache view (empty when the cache is disabled)
    panel_cache: dict = field(default_factory=dict)
    #: per-kernel audit tally: kernel -> {submitted, ok, wrong} (a
    #: GEMM-only run reports a single "gemm" row)
    kernels: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Every request answered exactly once, every answer correct."""
        return self.lost == 0 and self.duplicates == 0 and self.wrong == 0

    def summary(self) -> str:
        parts = [
            f"submitted={self.submitted}",
            "responses="
            + "/".join(f"{k}:{v}" for k, v in sorted(self.responses.items())),
            f"lost={self.lost}",
            f"duplicates={self.duplicates}",
            f"wrong={self.wrong}",
            f"throughput={self.throughput_rps:.1f} req/s",
        ]
        if self.latency_ms:
            parts.append(
                f"latency p50/p95={self.latency_ms.get('p50', 0.0):.2f}/"
                f"{self.latency_ms.get('p95', 0.0):.2f} ms"
            )
        status = "OK" if self.ok else "FAILED"
        return f"workload {status}: " + ", ".join(parts)

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "responses": dict(self.responses),
            "lost": self.lost,
            "duplicates": self.duplicates,
            "wrong": self.wrong,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": dict(self.latency_ms),
            "scheduler": dict(self.scheduler),
            "recovery": dict(self.recovery),
            "panel_cache": dict(self.panel_cache),
            "kernels": {k: dict(v) for k, v in self.kernels.items()},
            "ok": self.ok,
        }


def make_injector_factory(workload: WorkloadConfig):
    """An ``injector_factory`` for the thread tier of :class:`GemmService`:
    the spec :func:`make_fault_spec_factory` draws, rebuilt in process by
    :func:`~repro.serve.execute.injector_from_spec` — the process tier
    rebuilds the same spec in its worker, so both tiers strike the same
    requests with the same faults.

    Only first attempts are faulted: a retry models re-execution on
    healthy substrate, which is the service-level recovery the retries
    exist to provide.
    """
    spec_of = make_fault_spec_factory(workload)
    if spec_of is None:
        return None

    def factory(shape, attempt, request_id, service_config, kernel):
        if attempt > 0:
            return None
        return injector_from_spec(
            spec_of(request_id, service_config, kernel), shape,
            service_config,
        )

    return factory


def make_fault_spec_factory(workload: WorkloadConfig):
    """The one place per-request fault choices are drawn: returns a
    ``fault_spec_factory(request_id, service_config, kernel)`` producing
    the plain picklable spec dict (or None) both tiers rebuild their
    injectors from (:func:`~repro.serve.execute.injector_from_spec`).

    The fault mix is deterministic per request id: bit flips (transient),
    stuck bits (the sticky model the supervisor quarantines), and — on
    multi-threaded GEMM workers — fail-stop thread deaths.
    """
    if workload.fault_rate <= 0.0:
        return None

    def factory(request_id, service_config, kernel):
        rng = make_rng(derive_seed(workload.seed, "serve", request_id))
        if rng.random() >= workload.fault_rate:
            return None
        spec = {
            "model": "stuck" if rng.random() < 0.3 else "flip",
            "errors_per_call": workload.errors_per_call,
            "plan_seed": derive_seed(workload.seed, "plan", request_id),
            "fail_stop": None,
        }
        spec["bit"] = 51 if spec["model"] == "stuck" else 50
        if kernel != "gemm":
            # the kernel's own site map; no fail-stop rung (the non-GEMM
            # kernels run single-threaded — there is no thread team to
            # lose a member of)
            spec["kernel"] = kernel
            return spec
        if (
            service_config.gemm_threads >= 2
            and rng.random() < workload.fail_stop_fraction
        ):
            # barriers 1..3 exist for every shape (the round barriers of
            # the first K-block); thread 0 must survive to supervise
            spec["fail_stop"] = {
                "thread": int(rng.integers(1, service_config.gemm_threads)),
                "barrier": int(rng.integers(1, 4)),
            }
        return spec

    return factory


def make_proc_chaos(workload: WorkloadConfig):
    """A deterministic process-kill schedule for the process tier: returns
    ``chaos(batch_id, deaths)`` yielding a kill phase (or ``None``) for
    each dispatch of a batch.

    Each (batch, dispatch-attempt) pair draws independently from the
    workload seed, so the storm replays exactly; the kill probability is
    halved per prior death of the batch (``deaths``) so a storm at high
    rate still converges — replays are progressively less likely to be
    re-killed rather than deterministically doomed. Draws span the four
    mid-batch phases; ``stall`` is exercised by a dedicated heartbeat
    test, not the storm, because a stall costs a full miss window of
    wall-clock per strike.
    """
    if workload.proc_kill_rate <= 0.0:
        return None
    phases = ("pack", "compute", "reduce", "reply")

    def chaos(batch_id, deaths):
        rng = make_rng(
            derive_seed(workload.seed, "prockill", batch_id, deaths)
        )
        if rng.random() >= workload.proc_kill_rate * (0.5 ** deaths):
            return None
        return phases[int(rng.integers(len(phases)))]

    return chaos


def _trsm_factor(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A well-conditioned lower-triangular factor (diagonally dominant,
    so solve error stays well under the audit tolerance)."""
    return np.tril(rng.standard_normal((dim, dim))) + dim * np.eye(dim)


def _shared_operand(rng: np.random.Generator, spec: ShapeSpec):
    """The class's shareable operand: B for GEMM (byte-identical draw to
    the GEMM-only driver), the A factor for GEMV/TRSM."""
    if spec.kernel == "gemm":
        return rng.standard_normal((spec.k, spec.n))
    if spec.kernel == "gemv":
        return rng.standard_normal((spec.m, spec.k))
    if spec.kernel == "trsm":
        return _trsm_factor(rng, spec.k)
    return None  # fft: every signal is private


def _build_requests(workload: WorkloadConfig) -> list[KernelRequest]:
    """Pre-build the whole arrival schedule so submission-time work is
    only the sleep + submit (operand construction off the clock).

    GEMM-only shape mixes consume the RNG stream exactly as before the
    kernel family broadened (pinned by the A/B test): the per-kernel
    branches draw nothing unless their class is actually in the mix.
    """
    rng = make_rng(derive_seed(workload.seed, "workload"))
    weights = np.array([s.weight for s in workload.shapes], dtype=float)
    weights /= weights.sum()
    n_requests = int(round(workload.arrival_rate * workload.duration_s))
    if workload.max_requests is not None:
        n_requests = min(n_requests, workload.max_requests)
    n_requests = max(n_requests, 1)
    pool = 1 if workload.hot_b_pool is None else workload.hot_b_pool
    # one shared operand per coalescible class — or, in hot-B mode, a
    # pool of candidates drawn with Zipf-rank popularity (rank 1 hot)
    shared_b = {
        i: [_shared_operand(rng, spec) for _ in range(pool)]
        for i, spec in enumerate(workload.shapes)
        if not spec.private_b and spec.kernel != "fft"
    }
    zipf_p = None
    if workload.hot_b_pool is not None:
        ranks = np.arange(1.0, workload.hot_b_pool + 1.0)
        zipf_p = ranks ** -workload.zipf_s
        zipf_p /= zipf_p.sum()
    requests = []
    for _ in range(n_requests):
        i = int(rng.choice(len(workload.shapes), p=weights))
        spec = workload.shapes[i]
        if spec.kernel == "gemm":
            a = rng.standard_normal((spec.m, spec.k))
            if spec.private_b:
                b = rng.standard_normal((spec.k, spec.n))
            elif zipf_p is None:
                b = shared_b[i][0]
            else:
                b = shared_b[i][int(rng.choice(len(zipf_p), p=zipf_p))]
            build = lambda **env: GemmRequest(a, b, **env)  # noqa: E731
        elif spec.kernel == "gemv":
            x = rng.standard_normal(spec.k)
            if spec.private_b:
                mat = rng.standard_normal((spec.m, spec.k))
            elif zipf_p is None:
                mat = shared_b[i][0]
            else:
                mat = shared_b[i][int(rng.choice(len(zipf_p), p=zipf_p))]
            build = lambda **env: GemvRequest(mat, x, **env)  # noqa: E731
        elif spec.kernel == "trsm":
            rhs = rng.standard_normal((spec.k, spec.n))
            if spec.private_b:
                factor = _trsm_factor(rng, spec.k)
            elif zipf_p is None:
                factor = shared_b[i][0]
            else:
                factor = shared_b[i][int(rng.choice(len(zipf_p), p=zipf_p))]
            build = lambda **env: TrsmRequest(factor, rhs, **env)  # noqa: E731
        elif spec.kernel == "fft":
            sig = rng.standard_normal(spec.n)
            build = lambda **env: FftRequest(sig, **env)  # noqa: E731
        else:
            raise ConfigError(
                f"unknown kernel {spec.kernel!r} in shape mix"
            )
        priority = workload.priorities[
            int(rng.integers(len(workload.priorities)))
        ]
        requests.append(
            build(
                priority=int(priority),
                deadline_s=workload.deadline_s,
            )
        )
    return requests


def run_workload(
    service: GemmService,
    workload: WorkloadConfig,
    *,
    timeout_s: float = 60.0,
) -> WorkloadReport:
    """Drive ``service`` (already started) with an open-loop run and audit
    the responses. Drains the service before auditing — after this
    returns the service is retired."""
    rng = make_rng(derive_seed(workload.seed, "arrivals"))
    requests = _build_requests(workload)
    tickets = []
    t_start = time.perf_counter()
    deadline = t_start + workload.duration_s
    # arrivals keep an absolute schedule: a submitter that wakes late (a
    # worker thread held the GIL) submits what is overdue at once rather
    # than stretching every later gap to the service's own pace
    arrival = t_start
    for request in requests:
        tickets.append((request, service.submit(request)))
        arrival += rng.exponential(1.0 / workload.arrival_rate)
        now = time.perf_counter()
        if now >= deadline:
            break
        if arrival > now:
            time.sleep(min(arrival, deadline) - now)
    service.drain()
    elapsed = time.perf_counter() - t_start

    report = WorkloadReport(submitted=len(tickets), elapsed_s=elapsed)
    latencies = []
    audit_deadline = time.perf_counter() + timeout_s
    for request, ticket in tickets:
        tally = report.kernels.setdefault(
            request.kernel, {"submitted": 0, "ok": 0, "wrong": 0}
        )
        tally["submitted"] += 1
        try:
            response = ticket.result(
                max(0.0, audit_deadline - time.perf_counter())
            )
        except TimeoutError:
            report.lost += 1
            continue
        report.responses[response.status] = (
            report.responses.get(response.status, 0) + 1
        )
        latencies.append(response.latency_s * 1e3)
        if response.ok:
            tally["ok"] += 1
            # each kernel's own NumPy oracle, recomputed from the
            # request's operands (for GEMM this is gemm_reference —
            # byte-identical to the audit before the family broadened)
            expected = get_kernel(request.kernel).oracle(request)
            scale = float(np.max(np.abs(expected))) + 1.0
            err = float(
                np.max(np.abs(np.asarray(response.result.c) - expected))
            )
            if err > 1e-8 * scale:
                report.wrong += 1
                tally["wrong"] += 1
    report.duplicates = service.duplicates
    n_ok = report.responses.get("ok", 0)
    report.throughput_rps = n_ok / elapsed if elapsed > 0 else 0.0
    if latencies:
        arr = np.array(latencies)
        report.latency_ms = {
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
            "p99": float(np.percentile(arr, 99)),
            "max": float(arr.max()),
        }
    stats = service.stats()
    report.scheduler = stats["scheduler"]
    metrics = stats["metrics"]["counters"]
    report.recovery = {
        "retries": int(metrics.get("serve.retries", 0)),
        "quarantined": len(stats["quarantined_workers"]),
        "degraded_batches": int(metrics.get("serve.degraded_batches", 0)),
        "shed": int(metrics.get("serve.shed", 0)),
        "rejected": int(metrics.get("serve.rejected", 0)),
        "expired": int(metrics.get("serve.expired", 0)),
    }
    if "proc" in stats:
        report.recovery.update(
            proc_deaths=int(metrics.get("serve.proc.deaths", 0)),
            proc_replays=int(metrics.get("serve.proc.replays", 0)),
            proc_respawns=stats["proc"]["respawns"],
            proc_child_retries=int(
                metrics.get("serve.proc.child_retries", 0)
            ),
            proc_degraded_buckets=stats["proc"]["degraded_buckets"],
            proc_late_results=int(
                metrics.get("serve.proc.late_results", 0)
            ),
            proc_leaked_segments=stats["proc"]["segments"]["live"],
        )
    report.panel_cache = stats.get("panel_cache", {})
    return report


def run_serve_workload(
    service_config: ServiceConfig,
    workload: WorkloadConfig,
    *,
    timeout_s: float = 60.0,
) -> WorkloadReport:
    """Convenience wrapper: build, start, drive, drain, audit.

    Fault plumbing follows the tier: in-process services take a live
    ``injector_factory``; process tiers (``processes > 0``) take the
    picklable spec factory plus the process-kill chaos schedule.
    """
    if service_config.processes > 0:
        service = GemmService(
            service_config,
            fault_spec_factory=make_fault_spec_factory(workload),
            chaos=make_proc_chaos(workload),
        )
    else:
        service = GemmService(
            service_config,
            injector_factory=make_injector_factory(workload),
        )
    service.start()
    return run_workload(service, workload, timeout_s=timeout_s)
