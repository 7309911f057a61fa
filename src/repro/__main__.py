"""Top-level CLI: ``python -m repro <subcommand>``.

Subcommands:

- ``bench``    — regenerate the paper's figures (delegates to repro.bench);
- ``inject``   — one protected kernel (GEMM by default; ``--kernel`` picks
  GEMV/TRSM/FFT from the registry) under a chosen number of faults, with a
  human-readable account of what was detected/corrected;
- ``tune``     — derive blocking parameters for the (or a scaled) machine;
- ``validate`` — diff a real run's counters against the analytic accounting;
- ``storm``    — a quick reliability campaign at a physical error rate;
- ``trace``    — run one (optionally parallel, optionally faulted) FT-GEMM
  with structured tracing on and write a Chrome/Perfetto trace plus a
  measured-vs-predicted phase table;
- ``analyze``  — run the project-invariant static analyzer (hot-loop
  allocation discipline, barrier pairing, lock discipline, completion
  funnelling, tracer hygiene) against the source tree.

``inject`` and ``validate`` additionally accept ``--trace PATH`` to
capture the run they already perform.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_bench(args) -> int:
    from repro.bench.__main__ import main as bench_main

    forward: list[str] = []
    for figure in args.figure or []:
        forward += ["--figure", figure]
    forward += ["--out", args.out]
    return bench_main(forward)


def _inject_model(name: str):
    from repro.faults.models import (
        Additive,
        BitFlip,
        ColBurst,
        RowBurst,
        StuckBit,
        StuckValue,
    )

    return {
        "bitflip": lambda: BitFlip(),
        "additive": lambda: Additive(magnitude=64.0),
        "stuck": lambda: StuckValue(value=0.0),
        "stuckbit": lambda: StuckBit(),
        "rowburst": lambda: RowBurst(),
        "colburst": lambda: ColBurst(),
    }[name]()


def _parse_fail_stops(specs):
    from repro.faults.models import FailStop

    stops = []
    for spec in specs or []:
        tid, sep, barrier = spec.partition(":")
        if not sep:
            raise SystemExit(f"--fail-stop wants TID:BARRIER, got {spec!r}")
        stops.append(FailStop(thread=int(tid), barrier=int(barrier)))
    return tuple(stops)


def _write_trace(tracer, path, *, breakdown=None, phases=True) -> None:
    """Export ``tracer`` as a Chrome trace and print the phase table."""
    from repro.obs import phase_report, write_chrome_trace

    write_chrome_trace(path, tracer)
    print(f"trace    : {len(tracer.events)} events -> {path}")
    if phases:
        print(phase_report(tracer.events, breakdown=breakdown).to_table())


KERNEL_CHOICES = ("gemm", "gemv", "trsm", "fft")


def _kernel_shape(kernel: str, size: int) -> tuple:
    """Map the CLI's single ``--size`` knob onto a kernel shape: a square
    GEMV, a well-populated TRSM (size unknowns, size//16 right-hand
    sides), and an FFT of the next power-of-two length."""
    if kernel == "gemv":
        return (size, size)
    if kernel == "trsm":
        return (size, max(1, size // 16))
    if kernel == "fft":
        return (1 << max(1, size - 1).bit_length(),)
    raise SystemExit(f"no standalone shape rule for kernel {kernel!r}")


def _print_site_outcomes(injector) -> None:
    outcomes = injector.site_outcomes()
    if outcomes:
        print("per-site : site         injected detected corrected uncorrected")
        for site in sorted(outcomes):
            row = outcomes[site]
            print(
                f"           {site:<12s} {row['injected']:8d} "
                f"{row['detected']:8d} {row['corrected']:9d} "
                f"{row['uncorrected']:11d}"
            )


def _inject_kernel(args) -> int:
    """``repro inject --kernel {gemv,trsm,fft}``: one protected non-GEMM
    kernel under faults, through the registry's own plan/run/oracle."""
    from repro.faults.injector import FaultInjector
    from repro.kernels import get_kernel

    if args.fail_stop:
        print("fail-stop faults are a GEMM thread-team feature; "
              f"--kernel {args.kernel} runs single-threaded")
        return 2
    kern = get_kernel(args.kernel)
    shape = _kernel_shape(args.kernel, args.size)
    rng = np.random.default_rng(args.seed)
    request = kern.sample_request(shape, rng)
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    plan = kern.plan(
        shape,
        args.errors,
        model=_inject_model(args.model) if args.model else None,
        seed=args.seed,
    )
    injector = FaultInjector(plan)
    result = kern.run(request, injector=injector, tracer=tracer)
    expected = kern.oracle(request)
    err = float(np.abs(result.c - expected).max())
    dims = "x".join(str(d) for d in shape)
    print(f"kernel {args.kernel} {dims}, scheme={args.scheme}")
    print(f"injected : {injector.n_injected} faults ({injector.summary()})")
    print(f"verified : {result.verified}")
    print(
        f"repairs  : {result.corrected} corrected in place, "
        f"{result.recomputed} recomputed, "
        f"{result.escalations} escalations"
    )
    _print_site_outcomes(injector)
    print(f"max |error| vs oracle: {err:.3e}")
    if tracer is not None:
        _write_trace(tracer, args.trace, phases=False)
    if not result.verified:
        return 2
    return 0 if err < 1e-8 else 1


def _cmd_inject(args) -> int:
    if args.kernel != "gemm":
        return _inject_kernel(args)
    from dataclasses import replace

    from repro.core.config import FTGemmConfig
    from repro.core.ftgemm import FTGemm
    from repro.core.parallel import ParallelFTGemm
    from repro.faults.campaign import (
        plan_for_gemm,
        site_invocation_counts_parallel,
    )
    from repro.faults.injector import FaultInjector
    from repro.gemm.blocking import BlockingConfig

    fail_stops = _parse_fail_stops(args.fail_stop)
    if fail_stops and args.threads < 2:
        print("fail-stop faults need --threads >= 2 (a thread team to kill)")
        return 2
    config = FTGemmConfig(
        blocking=BlockingConfig.small(mr=8, nr=6),
        checksum_scheme=args.scheme,
        strict=args.strict,
    )
    rng = np.random.default_rng(args.seed)
    n = args.size
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    counts = None
    if args.threads > 1:
        driver = ParallelFTGemm(
            config, n_threads=args.threads, backend=args.backend,
            tracer=tracer,
        )
        counts = site_invocation_counts_parallel(
            n, n, n, config.blocking, args.threads
        )
    else:
        driver = FTGemm(config, tracer=tracer)
    sites = tuple(args.sites.split(",")) if args.sites else None
    plan_kwargs = {"sites": sites} if sites else {}
    plan = plan_for_gemm(
        n,
        n,
        n,
        config.blocking,
        args.errors,
        seed=args.seed,
        counts=counts,
        model=_inject_model(args.model) if args.model else None,
        **plan_kwargs,
    )
    if fail_stops:
        plan = replace(plan, fail_stops=fail_stops)
    injector = FaultInjector(plan)
    result = driver.gemm(a, b, injector=injector)
    expected = a @ b
    err = float(np.abs(result.c - expected).max())
    print(
        f"matrix {n}x{n}x{n}, scheme={args.scheme}, threads={args.threads}"
    )
    print(f"injected : {injector.n_injected} faults ({injector.summary()})")
    print(f"verified : {result.verified}")
    print(
        f"repairs  : {result.corrected} corrected in place, "
        f"{result.recomputed_blocks} lines recomputed, "
        f"{len(result.reports)} verification rounds"
    )
    _print_site_outcomes(injector)
    if result.recovery is not None:
        print(f"recovery : {result.recovery.summary()}")
    print(f"max |error| vs oracle: {err:.3e}")
    if tracer is not None:
        _write_trace(tracer, args.trace)
    if not result.verified:
        return 2
    return 0 if err < 1e-8 else 1


def _cmd_tune(args) -> int:
    # "derive" is the historic analytic path below; the DSE actions live
    # in repro.tune.cli (search/show/apply over the persistent TuningDB)
    if args.smoke:
        args.action = "search"
    if args.action != "derive":
        from repro.tune import cli as tune_cli

        fn = {
            "search": tune_cli.cmd_search,
            "show": tune_cli.cmd_show,
            "apply": tune_cli.cmd_apply,
        }[args.action]
        return fn(args)
    from repro.gemm.tuning import blocking_footprints, tune_blocking, tune_micro_tile
    from repro.simcpu.machine import MachineSpec
    from repro.util.formatting import format_bytes

    machine = MachineSpec.cascade_lake_w2255()
    if args.l2_kib or args.l3_mib:
        caches = list(machine.caches)
        if args.l2_kib:
            old = machine.cache(2)
            caches[1] = type(old)(2, args.l2_kib * 1024, old.line_bytes,
                                  old.associativity, old.latency_cycles,
                                  old.bandwidth_bytes_per_cycle, old.shared)
        if args.l3_mib:
            old = machine.last_level
            caches[2] = type(old)(3, args.l3_mib * 1024 * 1024, old.line_bytes,
                                  old.associativity, old.latency_cycles,
                                  old.bandwidth_bytes_per_cycle, old.shared)
        machine = machine.with_(caches=tuple(caches))
    tile = tune_micro_tile(machine)
    cfg = tune_blocking(machine)
    print(f"machine    : {machine.name}")
    print(f"micro tile : {tile.mr} x {tile.nr} ({tile.accumulators} accumulators)")
    print(f"blocking   : MC={cfg.mc} KC={cfg.kc} NC={cfg.nc}")
    for name, size in blocking_footprints(cfg).items():
        print(f"  {name:10s} {format_bytes(size)}")
    return 0


def _cmd_validate(args) -> int:
    from repro.core.config import FTGemmConfig
    from repro.gemm.blocking import BlockingConfig
    from repro.perfmodel.validate import validate_parallel_run, validate_run

    config = FTGemmConfig(
        blocking=BlockingConfig.small(),
        checksum_scheme=args.scheme,
    )
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    n = args.size
    if args.threads > 1:
        report = validate_parallel_run(
            n, n, n, config,
            n_threads=args.threads, backend=args.backend,
            beta=args.beta, tracer=tracer,
        )
    else:
        report = validate_run(n, n, n, config, beta=args.beta, tracer=tracer)
    print(report)
    print("counters", "MATCH" if report.ok else "MISMATCH")
    if tracer is not None:
        _write_trace(tracer, args.trace)
    return 0 if report.ok else 1


def _trace_kernel(args) -> int:
    """``repro trace --kernel {gemv,trsm,fft}``: one traced protected
    kernel run; ``--no-ft`` maps to the degraded (no-escalation) ladder."""
    from repro.faults.injector import FaultInjector
    from repro.kernels import get_kernel
    from repro.obs import Tracer

    if args.fail_stop:
        print("fail-stop faults are a GEMM thread-team feature; "
              f"--kernel {args.kernel} runs single-threaded")
        return 2
    kern = get_kernel(args.kernel)
    shape = _kernel_shape(args.kernel, args.size)
    rng = np.random.default_rng(args.seed)
    request = kern.sample_request(shape, rng)
    tracer = Tracer()
    injector = None
    if args.errors:
        injector = FaultInjector(
            kern.plan(shape, args.errors, seed=args.seed)
        )
    result = kern.run(
        request, injector=injector, degraded=not args.ft, tracer=tracer
    )
    err = float(np.abs(result.c - kern.oracle(request)).max())
    dims = "x".join(str(d) for d in shape)
    print(f"kernel {args.kernel} {dims}, ft={args.ft}")
    if injector is not None:
        print(f"injected : {injector.n_injected} faults "
              f"({injector.summary()})")
    print(f"verified : {result.verified}")
    print(f"max |error| vs oracle: {err:.3e}")
    # kernel spans are not GEMM phases — skip the phase table
    _write_trace(tracer, args.out, phases=False)
    if not result.verified:
        return 2
    return 0 if err < 1e-8 else 1


def _cmd_trace(args) -> int:
    if args.kernel != "gemm":
        return _trace_kernel(args)
    from dataclasses import replace

    from repro.core.config import FTGemmConfig
    from repro.core.ftgemm import FTGemm
    from repro.core.parallel import ParallelFTGemm
    from repro.faults.campaign import (
        plan_for_gemm,
        site_invocation_counts_parallel,
    )
    from repro.faults.injector import FaultInjector
    from repro.gemm.blocking import BlockingConfig
    from repro.obs import Tracer
    from repro.perfmodel import GemmPerfModel

    fail_stops = _parse_fail_stops(args.fail_stop)
    if fail_stops and args.threads < 2:
        print("fail-stop faults need --threads >= 2 (a thread team to kill)")
        return 2
    config = FTGemmConfig(
        blocking=BlockingConfig.small(mr=8, nr=6),
        checksum_scheme=args.scheme,
    ).with_(enable_ft=args.ft)
    rng = np.random.default_rng(args.seed)
    n = args.size
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    tracer = Tracer()
    if args.threads > 1:
        driver = ParallelFTGemm(
            config, n_threads=args.threads, backend=args.backend,
            tracer=tracer,
        )
    else:
        driver = FTGemm(config, tracer=tracer)
    injector = None
    if args.errors or fail_stops:
        counts = None
        if args.threads > 1:
            counts = site_invocation_counts_parallel(
                n, n, n, config.blocking, args.threads
            )
        plan = plan_for_gemm(
            n, n, n, config.blocking, args.errors, seed=args.seed,
            counts=counts,
        )
        if fail_stops:
            plan = replace(plan, fail_stops=fail_stops)
        injector = FaultInjector(plan)
    result = driver.gemm(a, b, injector=injector)
    err = float(np.abs(result.c - a @ b).max())
    print(
        f"matrix {n}x{n}x{n}, scheme={args.scheme}, threads={args.threads}, "
        f"ft={args.ft}"
    )
    if injector is not None:
        print(f"injected : {injector.n_injected} faults "
              f"({injector.summary()})")
    if result.recovery is not None:
        print(f"recovery : {result.recovery.summary()}")
    print(f"verified : {result.verified}")
    print(f"max |error| vs oracle: {err:.3e}")
    breakdown = GemmPerfModel(
        blocking=config.blocking,
        mode="ft" if args.ft else "ori",
        threads=args.threads,
    ).breakdown(n, beta_nonzero=False)
    _write_trace(tracer, args.out, breakdown=breakdown)
    if not result.verified:
        return 2
    return 0 if err < 1e-8 else 1


def _cmd_serve(args) -> int:
    import json

    from repro.core.config import FTGemmConfig
    from repro.gemm.blocking import BlockingConfig
    from repro.serve import (
        MIXED_SHAPES,
        GemmService,
        ServiceConfig,
        WorkloadConfig,
        make_fault_spec_factory,
        make_injector_factory,
        make_proc_chaos,
        run_workload,
    )
    from repro.util.errors import ConfigError

    if args.proc_kill_rate and not args.processes:
        raise ConfigError("--proc-kill-rate requires --processes > 0")
    if args.kernel_mix and args.kernel != "gemm":
        raise ConfigError("--kernel-mix already blends every kernel; "
                          "drop --kernel")
    workload_kwargs = {}
    if args.kernel_mix:
        workload_kwargs["shapes"] = MIXED_SHAPES
    elif args.kernel != "gemm":
        # the single-kernel workload reuses that kernel's stock shape
        # class from the mixed blend
        workload_kwargs["shapes"] = tuple(
            s for s in MIXED_SHAPES if s.kernel == args.kernel
        )
    tune_db = None
    if args.tune_db is not None:
        from repro.tune.cli import machine_for
        from repro.tune.db import TuningDB

        tune_db = TuningDB.load(args.tune_db, machine=machine_for(args.machine))
        if tune_db.stale:
            print(f"tune-db  : STALE ({tune_db.stale_reason}) — serving on "
                  f"the static config")
        else:
            print(f"tune-db  : {len(tune_db)} entries from {args.tune_db}")
    service_config = ServiceConfig(
        workers=args.workers,
        processes=args.processes,
        proc_seed=args.seed,
        capacity=args.capacity,
        policy=args.policy,
        max_batch=args.max_batch,
        window_s=args.window_ms / 1e3,
        gemm_threads=args.gemm_threads,
        degraded_depth=args.degraded_depth,
        panel_cache_bytes=(
            None if args.panel_cache_mb is None
            else int(args.panel_cache_mb * (1 << 20))
        ),
        ft=FTGemmConfig(
            blocking=BlockingConfig.small(),
            checksum_scheme=args.scheme,
        ),
        trace=args.trace is not None,
    )
    workload = WorkloadConfig(
        duration_s=args.duration,
        arrival_rate=args.arrival_rate,
        fault_rate=args.fault_rate,
        seed=args.seed,
        deadline_s=None if args.deadline_ms is None else args.deadline_ms / 1e3,
        hot_b_pool=args.hot_b_pool,
        zipf_s=args.zipf_s,
        proc_kill_rate=args.proc_kill_rate,
        **workload_kwargs,
    )
    if args.processes > 0:
        service = GemmService(
            service_config,
            fault_spec_factory=make_fault_spec_factory(workload),
            chaos=make_proc_chaos(workload),
            tune_db=tune_db,
        )
    else:
        service = GemmService(
            service_config,
            injector_factory=make_injector_factory(workload),
            tune_db=tune_db,
        )
    service.start()
    report = run_workload(service, workload)
    print(report.summary())
    if report.kernels and set(report.kernels) != {"gemm"}:
        # per-kernel audit tallies; a pure-GEMM run keeps its old output
        mix = ", ".join(
            f"{name} {tally['ok']}/{tally['submitted']} ok"
            + (f" ({tally['wrong']} wrong)" if tally["wrong"] else "")
            for name, tally in sorted(report.kernels.items())
        )
        print(f"kernels  : {mix}")
    sched = report.scheduler
    print(
        f"batches  : {sched.get('batches', 0)} total, "
        f"{sched.get('coalesced_batches', 0)} coalesced covering "
        f"{sched.get('coalesced_requests', 0)} requests, "
        f"{sched.get('singleton_batches', 0)} singleton"
    )
    rec = report.recovery
    print(
        f"recovery : {rec.get('retries', 0)} retries, "
        f"{rec.get('quarantined', 0)} workers quarantined, "
        f"{rec.get('degraded_batches', 0)} degraded batches; "
        f"shed={rec.get('shed', 0)} rejected={rec.get('rejected', 0)} "
        f"expired={rec.get('expired', 0)}"
    )
    if args.processes > 0:
        print(
            f"processes: {rec.get('proc_deaths', 0)} deaths, "
            f"{rec.get('proc_replays', 0)} replays, "
            f"{rec.get('proc_respawns', 0)} respawns, "
            f"{rec.get('proc_degraded_buckets', 0)} degraded buckets, "
            f"{rec.get('proc_late_results', 0)} late results, "
            f"{rec.get('proc_leaked_segments', 0)} leaked segments"
        )
    if report.panel_cache:
        pc = report.panel_cache
        print(
            f"panelcache: {pc.get('hits', 0)} hits, "
            f"{pc.get('misses', 0)} misses, "
            f"{pc.get('evictions', 0)} evictions, "
            f"{pc.get('reverify_failed', 0)} re-verify failures, "
            f"{pc.get('entries', 0)} resident "
            f"({pc.get('bytes', 0)} B of {pc.get('budget_bytes', 0)} B)"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"report   : {args.json}")
    if args.trace and service.tracer is not None:
        # serve traces carry request/batch lanes, not driver phase spans
        # (workers run untraced drivers) — a phase table would be all zeros
        _write_trace(service.tracer, args.trace, phases=False)
    return 0 if report.ok else 1


def _cmd_storm(args) -> int:
    from repro.bench.figures import reliability_table

    fig = reliability_table(
        rates_per_minute=tuple(args.rate), n=args.size, runs=args.runs
    )
    print(fig.to_table())
    ok = all(v == 100.0 for v in fig.series["correct %"])
    return 0 if ok else 1


def _cmd_analyze(args) -> int:
    from repro.analysis.cli import run_analyze

    return run_analyze(args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FT-GEMM reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="regenerate the paper's figures")
    p.add_argument("--figure", action="append")
    p.add_argument("--out", default="results")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("inject", help="one protected kernel under faults")
    p.add_argument("--kernel", choices=KERNEL_CHOICES, default="gemm",
                   help="protected kernel to run (non-gemm kernels are "
                        "single-threaded and use their own site maps; "
                        "--size maps onto each kernel's shape rule)")
    p.add_argument("--size", type=int, default=160)
    p.add_argument("--errors", type=int, default=5)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--backend", choices=("simulated", "threads"),
                   default="simulated",
                   help="team backend when --threads > 1")
    p.add_argument("--scheme", choices=("dual", "weighted"), default="dual")
    p.add_argument("--model",
                   choices=("bitflip", "additive", "stuck", "stuckbit",
                            "rowburst", "colburst"),
                   default=None,
                   help="fault model (stuckbit is persistent; bursts strike "
                        "multiple elements)")
    p.add_argument("--sites", default=None,
                   help="comma-separated injection sites "
                        "(default: kernel sites)")
    p.add_argument("--fail-stop", action="append", default=None,
                   metavar="TID:BARRIER",
                   help="kill thread TID at barrier BARRIER (repeatable; "
                        "needs --threads >= 2)")
    p.add_argument("--strict", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="raise on unverifiable results instead of exiting 2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a Chrome/Perfetto trace of the run to PATH")
    p.set_defaults(fn=_cmd_inject)

    p = sub.add_parser(
        "tune",
        help="derive blocking parameters, or search/show/apply a tuning DB",
    )
    p.add_argument("action", nargs="?", default="derive",
                   choices=("derive", "search", "show", "apply"),
                   help="derive (default): analytic blocking for a machine "
                        "model; search: run the DSE funnel and persist "
                        "winners into --db; show: print a DB; apply: "
                        "resolve one --shape and race tuned vs static")
    p.add_argument("--l2-kib", type=int, default=None)
    p.add_argument("--l3-mib", type=int, default=None)
    p.add_argument("--shape", action="append", default=None, metavar="MxNxK",
                   help="shape class to search/apply (repeatable)")
    p.add_argument("--space", choices=("small", "default"), default="default",
                   help="candidate grid (small: seconds-scale CI grid)")
    p.add_argument("--db", default="tune_db.json", metavar="PATH",
                   help="tuning database path (default: tune_db.json)")
    p.add_argument("--machine", choices=("cascade-lake", "small-test"),
                   default="cascade-lake",
                   help="machine model the DB is fingerprinted against")
    p.add_argument("--top-k", type=int, default=3,
                   help="model-ranked candidates to measure per shape")
    p.add_argument("--measure", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="run top-K on real hardware (--no-measure keeps "
                        "the search purely model-ranked)")
    p.add_argument("--repeats", type=int, default=2,
                   help="timing repeats per measured candidate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true",
                   help="CI smoke: search the small space over two small "
                        "shape classes with one repeat")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write per-shape search reports as JSON to PATH")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a Chrome/Perfetto trace of the search")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("validate", help="counters vs analytic accounting")
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--threads", type=int, default=1,
                   help="validate the parallel driver when > 1")
    p.add_argument("--backend", choices=("simulated", "threads"),
                   default="simulated",
                   help="team backend when --threads > 1")
    p.add_argument("--scheme", choices=("dual", "weighted"), default="dual")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a Chrome/Perfetto trace of the run to PATH")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser(
        "trace",
        help="run one traced FT kernel and write a Chrome/Perfetto trace",
    )
    p.add_argument("--kernel", choices=KERNEL_CHOICES, default="gemm",
                   help="protected kernel to trace (for non-gemm kernels "
                        "--no-ft runs the degraded, no-escalation ladder)")
    p.add_argument("--size", type=int, default=160)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--backend", choices=("simulated", "threads"),
                   default="simulated",
                   help="team backend when --threads > 1")
    p.add_argument("--scheme", choices=("dual", "weighted"), default="dual")
    p.add_argument("--ft", action=argparse.BooleanOptionalAction, default=True,
                   help="protect the run with ABFT checksums")
    p.add_argument("--errors", type=int, default=0,
                   help="transient faults to inject during the run")
    p.add_argument("--fail-stop", action="append", default=None,
                   metavar="TID:BARRIER",
                   help="kill thread TID at barrier BARRIER (repeatable; "
                        "needs --threads >= 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="trace.json", metavar="PATH",
                   help="trace output path (default: trace.json)")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "serve",
        help="open-loop workload against the serving subsystem",
    )
    p.add_argument("--kernel", choices=KERNEL_CHOICES, default="gemm",
                   help="serve a single-kernel workload (non-gemm kernels "
                        "use their stock shape class from the mixed blend)")
    p.add_argument("--kernel-mix", action="store_true",
                   help="serve the stock four-kernel heterogeneous blend "
                        "(gemm+gemv+trsm+fft) with per-kernel oracle audit")
    p.add_argument("--duration", type=float, default=2.0,
                   help="workload duration in seconds")
    p.add_argument("--arrival-rate", type=float, default=50.0,
                   help="mean request arrivals per second (open loop)")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="fraction of executions receiving injected faults")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--processes", type=int, default=0,
                   help="process tier: serve from this many worker "
                        "processes with shared-memory operand transport "
                        "(default 0 = in-process thread workers)")
    p.add_argument("--proc-kill-rate", type=float, default=0.0,
                   help="process-kill chaos: probability a batch's worker "
                        "is SIGKILLed mid-batch (requires --processes)")
    p.add_argument("--gemm-threads", type=int, default=1,
                   help="intra-request GEMM threads per worker")
    p.add_argument("--capacity", type=int, default=256,
                   help="admission queue capacity")
    p.add_argument("--policy", choices=("block", "reject", "shed-lowest"),
                   default="block", help="backpressure policy")
    p.add_argument("--max-batch", type=int, default=16,
                   help="coalescing limit (requests per batch)")
    p.add_argument("--window-ms", type=float, default=2.0,
                   help="batching window in milliseconds")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request queue deadline in milliseconds")
    p.add_argument("--degraded-depth", type=int, default=None,
                   help="queue depth that flips checksum-only degraded mode")
    p.add_argument("--panel-cache-mb", type=float, default=None,
                   help="enable the cross-request packed-panel cache with "
                        "this byte budget in MiB (default: off)")
    p.add_argument("--hot-b-pool", type=int, default=None,
                   help="hot-B workload mode: draw each request's B from a "
                        "pool of this many operands with Zipf popularity")
    p.add_argument("--zipf-s", type=float, default=1.2,
                   help="skew exponent of the hot-B popularity distribution")
    p.add_argument("--scheme", choices=("dual", "weighted"), default="dual")
    p.add_argument("--tune-db", default=None, metavar="PATH",
                   help="consult this tuning database at admission (from "
                        "`repro tune search`); omitted = static config")
    p.add_argument("--machine", choices=("cascade-lake", "small-test"),
                   default="cascade-lake",
                   help="machine model used to validate --tune-db's "
                        "fingerprint")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the workload report as JSON to PATH")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a Chrome/Perfetto trace of the run to PATH")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("storm", help="reliability campaign at physical rates")
    p.add_argument("--rate", type=float, action="append",
                   default=None, help="errors/minute (repeatable)")
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--runs", type=int, default=3)
    p.set_defaults(fn=_cmd_storm)

    p = sub.add_parser(
        "analyze", help="project-invariant static analysis of the source"
    )
    from repro.analysis.cli import add_analyze_args

    add_analyze_args(p)
    p.set_defaults(fn=_cmd_analyze)

    args = parser.parse_args(argv)
    if args.command == "storm" and args.rate is None:
        args.rate = [0, 120, 360, 600]
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
