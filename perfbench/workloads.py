"""The benchmark's workloads, each run inside one fresh interpreter.

Every workload takes ``seed`` (inputs), ``seconds`` (measured time) and
``trace``; it returns the run's audit, its metrics and a few facts for the
printed report. ``trace=False`` measures the end-to-end metrics with no
probe installed. ``trace=True`` alternates untraced and traced stretches
of the same workload, takes the per-layer metrics from the traced ones and
the tracing overhead from the pair.

The program only ever receives requests the benchmark generated from the
seed. Request ids are assigned here too, so the fault plan of a request
that runs alone, which keys on its id, does not move when warm-up traffic
changes; a coalesced GEMM batch's plan keys on the batch id the scheduler
assigns, which depends on timing.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from typing import NamedTuple

import numpy as np

from host import tree_peak_rss_mib
from stats import Audit, interleaved_ratio, median, oracle_tolerance, percentile

GEMM_N = 1024
CALLERS = 16
#: closed-loop responses still outstanding when the window closes get this
#: long to arrive before they count as lost
DRAIN_S = 30.0
STORM_FAULT_RATE = 0.3


class Result:
    """What one run reports back to the launcher."""

    def __init__(self) -> None:
        self.audit = Audit()
        self.metrics: dict[str, tuple[float, int]] = {}
        self.info: dict = {}
        self.setup_s = 0.0

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = (float(value), int(samples))

    def to_dict(self) -> dict:
        return {
            "setup_s": self.setup_s,
            "audit": vars(self.audit),
            "correct": self.audit.correct,
            "attempted": self.audit.attempted,
            "failed": self.audit.misses,
            "metrics": {k: list(v) for k, v in self.metrics.items()},
            "info": self.info,
        }


def _ms(seconds_list) -> float:
    return median(seconds_list) * 1e3 if seconds_list else 0.0


def _check_against(c, expected) -> float:
    """Max-abs distance of ``c`` to the oracle (inf on a shape mismatch)."""
    c = np.asarray(c)
    if c.shape != expected.shape:
        return math.inf
    return float(np.max(np.abs(c - expected)))


# --------------------------------------------------------------------- gemm-1k
def gemm_1k(seed: int, seconds: float, trace: bool, since_launch,
            setup_only: bool = False) -> Result:
    from repro import BlockedGemm, FTGemm
    from repro.baselines.traditional_abft import TraditionalABFT
    from repro.obs import Tracer

    out = Result()
    rng = np.random.default_rng([seed, GEMM_N])
    a = rng.standard_normal((GEMM_N, GEMM_N))
    b = rng.standard_normal((GEMM_N, GEMM_N))
    ft = FTGemm()
    ft.gemm(a, b)
    a @ b
    if trace:
        ft_traced = FTGemm(tracer=Tracer())
        ori = BlockedGemm()
        classic = TraditionalABFT()
        ft_traced.gemm(a, b)
        ori.gemm(a, b)
        classic.gemm(a, b)
    out.setup_s = since_launch()
    if setup_only:
        return out

    audit = out.audit
    probes = None
    if trace:
        from probes import Probes

        probes = Probes()

        def traced_call():
            probes.install()
            try:
                return ft_traced.gemm(a, b)
            finally:
                probes.uninstall()

        calls = [("ft", lambda: ft.gemm(a, b)), ("ft_traced", traced_call),
                 ("blas", lambda: a @ b), ("ori", lambda: ori.gemm(a, b)),
                 ("classic", lambda: classic.gemm(a, b))]
    else:
        calls = [("ft", lambda: ft.gemm(a, b)), ("blas", lambda: a @ b)]
    times: dict[str, list[float]] = {name: [] for name, _ in calls}

    rounds = 0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        # rotate the call order every round so no call always runs right
        # after the same neighbour
        shift = rounds % len(calls)
        outputs = {}
        for name, fn in calls[shift:] + calls[:shift]:
            t0 = time.perf_counter()
            outputs[name] = fn()
            times[name].append(time.perf_counter() - t0)
        # the oracle is this round's OpenBLAS product of the same operands
        c_ref = outputs["blas"]
        tol = oracle_tolerance(float(np.max(np.abs(c_ref))))
        for name in ("ft", "ft_traced") if trace else ("ft",):
            result = outputs[name]
            audit.record("ok", result.verified, _check_against(result.c, c_ref),
                         tol, label=f"gemm-1k {name} round {rounds}")
        rounds += 1
    out.info["rounds"] = rounds
    ft_t = times["ft"]
    flops = 2.0 * GEMM_N ** 3
    if not trace:
        out.put("mem_mb", *tree_peak_rss_mib())
        out.put("ok_frac", audit.ok_frac, audit.attempted)
        out.put("gflops", flops / median(ft_t) / 1e9, len(ft_t))
        out.put("blas_frac", interleaved_ratio(times["blas"], ft_t), rounds)
        out.put("goodput_rps", audit.hits / sum(ft_t), len(ft_t))
        out.put("lat_ms_p50", percentile(ft_t, 50) * 1e3, len(ft_t))
        out.put("lat_ms_p90", percentile(ft_t, 90) * 1e3, len(ft_t))
        return out

    _layer_metrics(out, probes, phase_s=0.0, workers=0)
    out.put("gemm.ori_blas_frac",
            interleaved_ratio(times["blas"], times["ori"]), rounds)
    out.put("core.ft_overhead_pct",
            (interleaved_ratio(ft_t, times["ori"]) - 1.0) * 100.0, rounds)
    out.put("baselines.classic_overhead_pct",
            (interleaved_ratio(times["classic"], times["ori"]) - 1.0) * 100.0,
            rounds)
    out.put("trace.overhead_pct",
            (interleaved_ratio(times["ft_traced"], ft_t) - 1.0) * 100.0, rounds)
    return out


# ------------------------------------------------------------------- serving
class Mix:
    """Seeded request generator for one serving workload.

    Operands come from bounded pools built once, so memory measures the
    program, not the harness; request ``i`` is a pure function of the
    seed and ``i``.
    """

    POOL = 64

    def __init__(self, workload: str, seed: int) -> None:
        from repro.serve import MIXED_SHAPES

        rng = np.random.default_rng([seed, 7])
        self.classes: list[dict] = []
        if workload in ("serve-mix", "serve-storm"):
            for spec in MIXED_SHAPES:
                self.classes.append(self._blend_class(spec, rng))
        else:
            # two shared-B GEMM classes drawing B from a Zipf(1.2) pool of
            # 16 (twice the workers' 8-entry resident-B cache), one
            # private-B class
            for m, k, n, weight, shared in ((64, 128, 128, 0.4, True),
                                            (96, 96, 160, 0.4, True),
                                            (48, 128, 96, 0.2, False)):
                self.classes.append(self._proc_class(m, k, n, weight, shared, rng))
        weights = np.array([c["weight"] for c in self.classes])
        self.p = weights / weights.sum()
        self.seed = seed
        self._drawn = 0
        self._cls = np.empty(0, dtype=np.int64)
        self._u = np.empty(0, dtype=np.int64)
        self._f = np.empty(0)

    def _blend_class(self, spec, rng) -> dict:
        cls = {"kernel": spec.kernel, "weight": spec.weight}
        if spec.kernel == "gemm":
            cls["shared"] = rng.standard_normal((spec.k, spec.n))
            cls["pool"] = rng.standard_normal((self.POOL, spec.m, spec.k))
            cls["flops"] = 2.0 * spec.m * spec.n * spec.k
        elif spec.kernel == "gemv":
            cls["shared"] = rng.standard_normal((spec.m, spec.k))
            cls["pool"] = rng.standard_normal((self.POOL, spec.k))
            cls["flops"] = 2.0 * spec.m * spec.k
        elif spec.kernel == "trsm":
            cls["shared"] = (np.tril(rng.standard_normal((spec.k, spec.k)))
                             + spec.k * np.eye(spec.k))
            cls["pool"] = rng.standard_normal((self.POOL, spec.k, spec.n))
            cls["flops"] = float(spec.k * spec.k * spec.n)
        else:
            cls["pool"] = rng.standard_normal((4 * self.POOL, spec.n))
            cls["flops"] = 5.0 * spec.n * math.log2(spec.n)
        return cls

    def _proc_class(self, m, k, n, weight, shared, rng) -> dict:
        cls = {"kernel": "gemm", "weight": weight,
               "pool": rng.standard_normal((self.POOL, m, k)),
               "flops": 2.0 * m * n * k, "shared_pool": shared}
        if shared:
            cls["b_pool"] = [rng.standard_normal((k, n)) for _ in range(16)]
            ranks = np.arange(1.0, 17.0) ** -1.2
            cls["zipf"] = np.cumsum(ranks / ranks.sum())
        else:
            cls["b_pool"] = rng.standard_normal((self.POOL, k, n))
        return cls

    def _draw(self, upto: int) -> None:
        """Extend the per-request draws to cover index ``upto``, in blocks
        seeded by their offset, so request ``i`` is the same however far a
        run gets."""
        while self._drawn <= upto:
            block = np.random.default_rng([self.seed, 11, self._drawn])
            size = 4096
            self._cls = np.concatenate(
                [self._cls, block.choice(len(self.classes), size=size, p=self.p)])
            self._u = np.concatenate([self._u, block.integers(0, 1 << 30, size)])
            self._f = np.concatenate([self._f, block.random(size)])
            self._drawn += size

    def make(self, i: int, request_id: str):
        from repro.serve import GemmRequest
        from repro.serve.request import FftRequest, GemvRequest, TrsmRequest

        self._draw(i)
        cls_i = int(self._cls[i])
        cls = self.classes[cls_i]
        u = int(self._u[i])
        pool = cls["pool"]
        unit = pool[u % len(pool)]
        kernel = cls["kernel"]
        if kernel == "gemm":
            if "shared" in cls:
                b = cls["shared"]
            elif cls["shared_pool"]:
                j = int(np.searchsorted(cls["zipf"], self._f[i], side="right"))
                b = cls["b_pool"][min(j, len(cls["b_pool"]) - 1)]
            else:
                # a fresh view object per request: the program sees a private
                # B (its own identity), the harness keeps a bounded pool
                b = cls["b_pool"][(u >> 8) % len(cls["b_pool"])]
            request = GemmRequest(unit, b, request_id=request_id)
        elif kernel == "gemv":
            request = GemvRequest(cls["shared"], unit, request_id=request_id)
        elif kernel == "trsm":
            request = TrsmRequest(cls["shared"], unit, request_id=request_id)
        else:
            request = FftRequest(unit, request_id=request_id)
        return request, cls_i

    def flops(self, cls_i: int) -> float:
        return self.classes[cls_i]["flops"]


class Done(NamedTuple):
    """One answered request: its index, class, the submit call's start and
    return, when its future resolved, whether it was a hit, the batch size
    it ran in, and its id."""

    i: int
    cls: int
    t_submit: float
    t_admitted: float
    t_done: float
    hit: bool
    batch_size: int
    request_id: str


class ClosedLoop:
    """One generator thread keeping ``CALLERS`` requests in flight.

    Each completion is stamped by a done-callback in the completing
    thread; the generator then audits the answer against the kernel's
    oracle (outside every timed interval) and submits the next request.
    """

    def __init__(self, service, mix: Mix, seed: int, audit: Audit) -> None:
        from repro.kernels import get_kernel

        self.service = service
        self.mix = mix
        self.seed = seed
        self.audit = audit
        self.get_kernel = get_kernel
        self.done: queue.SimpleQueue = queue.SimpleQueue()
        self.inflight: dict[int, tuple] = {}
        self.next_i = 0
        self.records: list[Done] = []
        #: class index -> oracle call durations (s), from the audit
        self.oracle_s: dict[int, list[float]] = {
            i: [] for i in range(len(mix.classes))}

    def submit(self, tag: str = "") -> None:
        i = self.next_i
        self.next_i += 1
        request, cls_i = self.mix.make(i, f"{tag}{self.seed}-{i:07d}")
        t0 = time.perf_counter()
        ticket = self.service.submit(request)
        t1 = time.perf_counter()
        self.inflight[i] = (request, cls_i, t0, t1)
        ticket.future.add_done_callback(
            lambda response, i=i: self.done.put((i, time.perf_counter(), response))
        )

    def complete(self, item) -> Done:
        i, t_done, response = item
        request, cls_i, t0, t1 = self.inflight.pop(i)
        hit = False
        if response.ok:
            kernel = self.get_kernel(request.kernel)
            t_ref = time.perf_counter()
            expected = kernel.oracle(request)
            self.oracle_s[cls_i].append(time.perf_counter() - t_ref)
            tol = oracle_tolerance(float(np.max(np.abs(expected))))
            err = _check_against(response.result.c, expected)
            hit = self.audit.record("ok", response.verified, err, tol,
                                    label=request.request_id)
        else:
            self.audit.record(response.status, label=request.request_id)
        return Done(i, cls_i, t0, t1, t_done, hit, response.batch_size,
                    request.request_id)

    def run(self, seconds: float, on_tick=None) -> None:
        """Keep the loop full for ``seconds``. ``on_tick(now)`` runs between
        completions (the traced run switches its probes there)."""
        t_start = time.perf_counter()
        while len(self.inflight) < CALLERS:
            self.submit()
        t_end = t_start + seconds
        while True:
            now = time.perf_counter()
            if now >= t_end:
                break
            if on_tick is not None:
                on_tick(now)
            try:
                item = self.done.get(timeout=t_end - now)
            except queue.Empty:
                break
            self.records.append(self.complete(item))
            self.submit()
        self.t_start, self.t_end = t_start, t_end

    def drain(self) -> None:
        """Collect the outstanding answers; what never arrives is lost."""
        deadline = time.perf_counter() + DRAIN_S
        while self.inflight:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                item = self.done.get(timeout=remaining)
            except queue.Empty:
                break
            self.records.append(self.complete(item))
        for _ in self.inflight:
            self.audit.record(None)
        self.inflight.clear()

    def warm_up(self, per_class: int = 8) -> None:
        """Untimed, audited traffic touching every class. Its request ids
        carry a ``w`` tag, so the measured requests keep the ids, and with
        them the fault plans, that they would have without it."""
        for _ in range(per_class * len(self.mix.classes)):
            self.submit(tag="w")
        while self.inflight:
            self.complete(self.done.get(timeout=DRAIN_S))
        self.next_i = 0


def _service(workload: str, seed: int):
    from repro.serve import (GemmService, ServiceConfig, WorkloadConfig,
                             make_injector_factory)

    if workload == "serve-proc":
        return GemmService(ServiceConfig(processes=2, proc_transport="shm"))
    factory = None
    if workload == "serve-storm":
        factory = make_injector_factory(
            WorkloadConfig(fault_rate=STORM_FAULT_RATE, seed=seed))
    return GemmService(ServiceConfig(), injector_factory=factory)


def _counters(service) -> dict:
    stats = service.stats()
    counters = dict(stats["metrics"]["counters"])
    counters["sched.coalesced_requests"] = stats["scheduler"]["coalesced_requests"]
    return counters


def serve(workload: str, seed: int, seconds: float, trace: bool, since_launch,
          setup_only: bool = False) -> Result:
    out = Result()
    mix = Mix(workload, seed)
    service = _service(workload, seed)
    service.start()
    loop = ClosedLoop(service, mix, seed, out.audit)
    try:
        loop.warm_up()
        out.setup_s = since_launch()
        if setup_only:
            return out
        if trace:
            _serve_traced(out, service, loop, seconds)
        else:
            loop.run(seconds)
            out.put("mem_mb", *tree_peak_rss_mib())
    finally:
        loop.drain()
        service.drain()
    out.info["duplicates"] = service.duplicates
    out.audit.duplicated = service.duplicates
    out.info["leftovers"] = _leftovers(service)
    if not trace:
        _serve_metrics(out, loop, mix)
    return out


def _serve_metrics(out: Result, loop: ClosedLoop, mix: Mix) -> None:
    window = loop.t_end - loop.t_start
    hits = [r for r in loop.records if r.hit and r.t_done <= loop.t_end]
    lat = [r.t_done - r.t_submit for r in loop.records]
    out.put("ok_frac", out.audit.ok_frac, out.audit.attempted)
    out.put("goodput_rps", len(hits) / window, len(hits))
    out.put("gflops", sum(mix.flops(r.cls) for r in hits) / window / 1e9,
            len(hits))
    out.put("lat_ms_p50", percentile(lat, 50) * 1e3, len(lat))
    out.put("lat_ms_p90", percentile(lat, 90) * 1e3, len(lat))
    # the NumPy/OpenBLAS time for the same answers: each class's median
    # oracle time, measured by the audit during the window (so host drift
    # hits it and the service alike), times the class's hits
    per_class = {i: median(t) for i, t in loop.oracle_s.items() if t}
    ref_s = sum(per_class[r.cls] for r in hits)
    out.put("blas_frac", ref_s / window, len(hits))


class Phases:
    """Equal stretches of one traced run: even ones untraced, odd ones with
    the probes installed. Counter deltas are summed over traced stretches."""

    COUNT = 4

    def __init__(self, probes, service, seconds: float) -> None:
        self.probes = probes
        self.service = service
        self.length = seconds / self.COUNT
        self.t_start: float | None = None
        self.edges: list[tuple[float, int]] = []
        self.deltas: dict[str, float] = {}
        self.traced_s = 0.0
        self._counters0: dict = {}

    @staticmethod
    def traced(phase: int) -> bool:
        return phase >= 0 and phase % 2 == 1

    def _close(self, now: float) -> None:
        if self.edges and self.traced(self.edges[-1][1]):
            self.probes.uninstall()
            for key, value in _counters(self.service).items():
                self.deltas[key] = (self.deltas.get(key, 0.0) + value
                                    - self._counters0.get(key, 0.0))
            self.traced_s += now - self.edges[-1][0]

    def tick(self, now: float) -> None:
        if self.t_start is None:
            self.t_start = now
        phase = min(self.COUNT - 1, int((now - self.t_start) / self.length))
        if self.edges and self.edges[-1][1] == phase:
            return
        self._close(now)
        self.edges.append((now, phase))
        if self.traced(phase):
            self._counters0 = _counters(self.service)
            self.probes.install()

    def finish(self, now: float) -> None:
        self._close(now)
        self.edges.append((now, self.COUNT))

    def of(self, t: float) -> int:
        for (start, phase), (end, _) in zip(self.edges, self.edges[1:]):
            if start <= t < end:
                return phase
        return -1

    def seconds(self, phase: int) -> float:
        return sum(end - start for (start, p), (end, _)
                   in zip(self.edges, self.edges[1:]) if p == phase)


def _serve_traced(out: Result, service, loop: "ClosedLoop",
                  seconds: float) -> None:
    from probes import Probes

    probes = Probes()
    phases = Phases(probes, service, seconds)
    loop.run(seconds, on_tick=phases.tick)
    phases.finish(loop.t_end)

    hits_by_phase = [0] * Phases.COUNT
    in_traced = []  # requests completed in a traced stretch
    for r in loop.records:
        phase = phases.of(r.t_done)
        if phase >= 0 and r.hit:
            hits_by_phase[phase] += 1
        if phases.traced(phase):
            in_traced.append(r)
    rate = [hits / phases.seconds(p) if phases.seconds(p) else 0.0
            for p, hits in enumerate(hits_by_phase)]
    untraced_rate, traced_rate = sum(rate[0::2]), sum(rate[1::2])
    out.put("trace.overhead_pct",
            (untraced_rate / traced_rate - 1.0) * 100.0 if traced_rate else 0.0,
            sum(hits_by_phase))
    out.info["phase_rates_rps"] = [round(x, 1) for x in rate]

    workers = service.config.workers if service.config.processes == 0 else 0
    _layer_metrics(out, probes, phase_s=phases.traced_s, workers=workers)

    # stage split of requests submitted and answered in one traced stretch
    staged = [r for r in in_traced if phases.of(r.t_submit) == phases.of(r.t_done)
              and r.request_id in probes.picked]
    picked = [probes.picked[r.request_id] for r in staged]
    admit = [r.t_admitted - r.t_submit for r in staged]
    wait = [max(0.0, t - r.t_admitted) for r, t in zip(staged, picked)]
    execs = [r.t_done - t for r, t in zip(staged, picked)]
    n = len(staged)
    out.put("serve.admit_ms_p50", _ms(admit), n)
    out.put("serve.wait_ms_p50", _ms(wait), n)
    out.put("serve.wait_ms_p90", percentile(wait, 90) * 1e3 if n else 0.0, n)
    out.put("serve.exec_ms_p50", _ms(execs), n)
    covered = [x + y + z for x, y, z in zip(admit, wait, execs)]
    latency = [r.t_done - r.t_submit for r in staged]
    out.put("trace.latency_cover_frac",
            median(covered) / median(latency) if n else 0.0, n)
    out.put("serve.batch_size_mean",
            sum(r.batch_size for r in staged) / n if n else 0.0, n)

    # program counters over the traced stretches, per request answered there
    requests = len(in_traced)

    def per_request(*keys: str) -> float:
        total = sum(phases.deltas.get(key, 0.0) for key in keys)
        return total / requests if requests else 0.0

    out.put("serve.coalesced_frac", per_request("sched.coalesced_requests"),
            requests)
    out.put("serve.retries_per_req", per_request("serve.retries"), requests)
    out.put("serve.proc.segments_per_req", per_request("serve.proc.shm_segments"),
            requests)
    out.put("serve.proc.pipe_kb_per_req",
            per_request("serve.proc.pipe_tx_bytes", "serve.proc.pipe_rx_bytes")
            / 1024.0, requests)
    batches = phases.deltas.get("serve.proc.batches", 0.0)
    out.put("serve.proc.b_cache_hit_frac",
            phases.deltas.get("serve.proc.b_cache_hits", 0.0) / batches
            if batches else 0.0, int(batches))
    out.put("serve.proc.dispatch_ms_p50", _ms(probes.dispatch_s),
            len(probes.dispatch_s))
    per_batch = list(probes.transport_s.values())
    out.put("serve.proc.transport_ms_p50", _ms(per_batch), len(per_batch))


def _layer_metrics(out: Result, probes, *, phase_s: float, workers: int) -> None:
    """Per-layer metrics every workload reports from its probes; a layer
    that did no work on this workload reports 0 with 0 samples."""
    calls = probes.ft_calls
    n = len(calls)

    def per_call(key):
        return median([c[key] for c in calls]) if calls else 0.0

    out.put("gemm.macro_ms", per_call("macro"), n)
    out.put("gemm.pack_a_ms", per_call("pack_a"), n)
    out.put("gemm.pack_b_ms", per_call("pack_b"), n)
    out.put("gemm.batched_frac",
            sum(c["batched"] for c in calls) / n if n else 0.0, n)
    out.put("gemm.pack_mb", per_call("pack_mb"), n)
    out.put("core.checksum_mflop", per_call("checksum_mflop"), n)
    out.put("core.prologue_ms", per_call("prologue"), n)
    out.put("core.checksum_ms", per_call("checksum"), n)
    out.put("core.verify_ms", _ms(probes.finalize_s), len(probes.finalize_s))
    out.put("trace.stage_cover_frac",
            median([c["stages_ms"] / c["wall_ms"] for c in calls]) if n else 0.0, n)
    faulted = probes.faulted
    out.put("core.recovered_frac", probes.recovered / faulted if faulted else 0.0,
            faulted)
    out.put("core.escalated_frac", probes.escalated / faulted if faulted else 0.0,
            faulted)
    for kernel in ("gemm", "gemv", "trsm", "fft"):
        samples = probes.kernel_s.get(kernel, [])
        out.put(f"kernels.{kernel}_ms_p50", _ms(samples), len(samples))
    out.put("serve.busy_frac",
            probes.worker_busy_s / (workers * phase_s) if workers and phase_s
            else 0.0, probes.worker_calls)
    for name in ("gemm.ori_blas_frac", "core.ft_overhead_pct",
                 "baselines.classic_overhead_pct", "serve.admit_ms_p50",
                 "serve.wait_ms_p50", "serve.wait_ms_p90", "serve.exec_ms_p50",
                 "serve.batch_size_mean", "serve.coalesced_frac",
                 "serve.retries_per_req", "serve.proc.dispatch_ms_p50",
                 "serve.proc.transport_ms_p50", "serve.proc.segments_per_req",
                 "serve.proc.pipe_kb_per_req", "serve.proc.b_cache_hit_frac",
                 "trace.latency_cover_frac"):
        out.metrics.setdefault(name, (0.0, 0))


def _leftovers(service) -> dict:
    """What a retired service left behind: shm segments still named in
    /dev/shm under its prefix, and threads or processes still alive."""
    import multiprocessing
    import os

    prefix = f"ftg{os.getpid():x}"
    try:
        segments = sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except OSError:
        segments = []
    threads = sorted(t.name for t in threading.enumerate()
                     if t is not threading.main_thread() and t.is_alive())
    children = [p.name for p in multiprocessing.active_children()]
    return {"shm_segments": segments, "threads": threads, "processes": children}


WORKLOADS = {
    "gemm-1k": gemm_1k,
    "serve-mix": lambda *a, **k: serve("serve-mix", *a, **k),
    "serve-proc": lambda *a, **k: serve("serve-proc", *a, **k),
    "serve-storm": lambda *a, **k: serve("serve-storm", *a, **k),
}
