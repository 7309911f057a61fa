"""CLI entry points for ``python -m repro tune {search,show,apply}``.

The ``tune`` subcommand keeps its historic bare form (``repro tune`` derives
blocking parameters analytically for a — possibly rescaled — machine model;
that path lives in ``repro.__main__``) and gains three DSE actions:

- ``search`` — run the enumerate→prune→score→measure funnel over one or
  more shape classes and persist the winners into a :class:`TuningDB`;
- ``show``   — print a DB's entries (and why it would be ignored, if stale);
- ``apply``  — resolve one shape against a DB and run the tuned config
  head-to-head against the static default on real operands.

``--smoke`` is the CI shape of ``search``: the
:meth:`SearchSpace.small` grid on two seconds-scale shape classes, one
measurement repeat, DB written next to the working directory so the job
can upload it as an artifact.
"""

from __future__ import annotations

import json

from repro.simcpu.machine import MachineSpec
from repro.util.errors import ReproError

#: machine models the tune/serve CLI can bind a DB to
MACHINES = {
    "cascade-lake": MachineSpec.cascade_lake_w2255,
    "small-test": MachineSpec.small_test_machine,
}

#: default shape classes of ``--smoke``: one tall-skinny, one small-K —
#: the regimes where the paper's static blocking is furthest from optimal
SMOKE_SHAPES = ("256x48x24", "96x64x8")


def machine_for(name: str) -> MachineSpec:
    try:
        return MACHINES[name]()
    except KeyError:
        raise ReproError(
            f"unknown machine {name!r}; choose from {sorted(MACHINES)}"
        ) from None


def _print_result(result) -> None:
    shape = result.shape
    print(f"shape {shape.label}  (bucket {result.bucket})")
    rejected = ", ".join(
        f"{reason}={count}" for reason, count in sorted(result.rejected.items())
    ) or "none"
    print(
        f"  funnel   : {result.n_candidates} candidates -> "
        f"{result.n_scored} scored (rejected: {rejected})"
    )
    for i, scored in enumerate(result.top):
        cfg = scored.config
        line = (
            f"  top{i}     : mc={cfg.mc} kc={cfg.kc} nc={cfg.nc} "
            f"{cfg.mr}x{cfg.nr} t{cfg.threads} "
            f"pred={scored.predicted_seconds * 1e3:.2f}ms"
        )
        if result.measured:
            line += f" meas={result.measurements[i].seconds * 1e3:.2f}ms"
        print(line)
    static = result.static_scored
    line = (
        f"  static   : mc={static.config.mc} kc={static.config.kc} "
        f"nc={static.config.nc} {static.config.mr}x{static.config.nr} "
        f"pred={static.predicted_seconds * 1e3:.2f}ms"
    )
    if result.static_measurement is not None:
        line += f" meas={result.static_measurement.seconds * 1e3:.2f}ms"
    print(line)
    win = result.winner
    print(
        f"  winner   : mc={win.mc} kc={win.kc} nc={win.nc} "
        f"{win.mr}x{win.nr} t{win.threads} "
        f"coalesce={win.coalesce_limit or 'uncapped'} ({win.source})"
    )
    if result.speedup_vs_static is not None:
        print(f"  speedup  : {result.speedup_vs_static:.2f}x vs static")
    if result.rank_correlation is not None:
        print(f"  rank rho : {result.rank_correlation:+.2f} "
              f"(predicted vs measured, top-{len(result.top)})")


def cmd_search(args) -> int:
    from repro.gemm.blocking import BlockingConfig
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import NULL_TRACER
    from repro.tune.db import TuningDB
    from repro.tune.search import ShapeClass, run_search
    from repro.tune.space import SearchSpace

    machine = machine_for(args.machine)
    space_name = args.space
    shapes = list(args.shape or [])
    measure = args.measure
    repeats = args.repeats
    if args.smoke:
        space_name = "small"
        shapes = shapes or list(SMOKE_SHAPES)
        repeats = 1
    space = SearchSpace.named(space_name)
    if not shapes:
        raise ReproError("tune search needs at least one --shape MxNxK")
    static = (
        BlockingConfig.small() if space_name == "small" else BlockingConfig()
    )
    db = TuningDB.for_machine(machine, path=args.db)
    metrics = MetricsRegistry()
    tracer = None
    if args.trace:
        from repro.obs import Tracer, write_chrome_trace

        tracer = Tracer(metrics=metrics)
    print(
        f"machine {machine.name}  space {space.name!r}  "
        f"fingerprint {db.fingerprint}"
    )
    results = run_search(
        [ShapeClass.parse(s) for s in shapes],
        machine=machine,
        space=space,
        db=db,
        static=static,
        top_k=args.top_k,
        measure=measure,
        repeats=repeats,
        seed=args.seed,
        metrics=metrics,
        tracer=tracer if tracer is not None else NULL_TRACER,
    )
    for result in results:
        _print_result(result)
    db.save()
    print(f"db       : {len(db)} entries -> {db.path}")
    counters = metrics.snapshot()["counters"]
    funnel = {
        name: int(counters.get(f"tune.{name}", 0))
        for name in ("shapes", "candidates", "pruned", "scored", "measured")
    }
    print("counters : " + ", ".join(f"{k}={v}" for k, v in funnel.items()))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                [result.to_dict() for result in results],
                fh, indent=2, sort_keys=True,
            )
        print(f"report   : {args.json}")
    if tracer is not None:
        write_chrome_trace(args.trace, tracer)
        print(f"trace    : {len(tracer.events)} events -> {args.trace}")
    return 0


def cmd_show(args) -> int:
    from repro.tune.db import TuningDB

    machine = machine_for(args.machine)
    db = TuningDB.load(args.db, machine=machine)
    print(f"db        : {args.db}")
    print(f"machine   : {db.machine_name or '<unknown>'} "
          f"(fingerprint {db.fingerprint or '<none>'})")
    if db.stale:
        print(f"STALE     : {db.stale_reason} — every lookup falls back "
              f"to the static config")
    if not db.entries:
        print("entries   : none")
        return 0
    print(f"entries   : {len(db)}")
    for (bucket, dtype), tuned in sorted(db.entries.items()):
        perf = ""
        if tuned.measured_gflops:
            perf = f"  {tuned.measured_gflops:.3f} gflops measured"
        print(
            f"  {bucket}/{dtype}: mc={tuned.mc} kc={tuned.kc} nc={tuned.nc} "
            f"{tuned.mr}x{tuned.nr} t{tuned.threads} "
            f"coalesce={tuned.coalesce_limit or 'uncapped'} "
            f"({tuned.source}){perf}"
        )
    return 0


def cmd_apply(args) -> int:
    from repro.gemm.blocking import BlockingConfig
    from repro.tune.db import TunedConfig, TuningDB
    from repro.tune.measure import measure_candidate
    from repro.tune.search import ShapeClass

    if not args.shape:
        raise ReproError("tune apply needs exactly one --shape MxNxK")
    if len(args.shape) > 1:
        raise ReproError("tune apply takes a single --shape")
    shape = ShapeClass.parse(args.shape[0])
    machine = machine_for(args.machine)
    db = TuningDB.load(args.db, machine=machine)
    tuned = db.resolve(shape.m, shape.n, shape.k)
    if tuned is None:
        reason = db.stale_reason if db.stale else "no entry for this bucket"
        print(f"no tuned config for {shape.label}: {reason}")
        print("the service would run this shape on its static config")
        return 1
    static = TunedConfig.from_blocking(
        BlockingConfig.small() if args.space == "small" else BlockingConfig(),
        source="static",
    )
    t_static = measure_candidate(
        static, shape.m, shape.n, shape.k,
        seed=args.seed, repeats=args.repeats,
    )
    t_tuned = measure_candidate(
        tuned, shape.m, shape.n, shape.k,
        seed=args.seed, repeats=args.repeats,
    )
    print(f"shape  : {shape.label}")
    print(f"tuned  : mc={tuned.mc} kc={tuned.kc} nc={tuned.nc} "
          f"{tuned.mr}x{tuned.nr} t{tuned.threads} "
          f"-> {t_tuned.seconds * 1e3:.2f}ms "
          f"(verified={t_tuned.verified})")
    print(f"static : mc={static.mc} kc={static.kc} nc={static.nc} "
          f"{static.mr}x{static.nr} "
          f"-> {t_static.seconds * 1e3:.2f}ms "
          f"(verified={t_static.verified})")
    print(f"speedup: {t_static.seconds / t_tuned.seconds:.2f}x")
    return 0 if t_tuned.verified and t_static.verified else 1
