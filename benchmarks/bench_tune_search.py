"""Auto-tuning evidence run: DSE search quality and tuned serving speedup.

``test_tuned_serving_beats_static`` produces the committed artefacts
``results/tune.json`` / ``results/tune.txt`` and asserts the tuning
subsystem's two core claims on a **tall-skinny** shape class — a regime
the paper's square-matrix blocking was never chosen for:

1. the prune -> model-score -> measure funnel ranks candidates the way
   the hardware does (positive Spearman correlation between predicted
   and measured times over the measured top-K plus the static config);
2. a :class:`~repro.serve.service.GemmService` consulting the resulting
   :class:`~repro.tune.db.TuningDB` serves the same workload at
   >= 1.15x the throughput of the identical service on the static
   config (the acceptance bar; the measured margin is far larger).

The static lane is byte-for-byte the pre-tuning service: ``tune_db`` is
simply not passed, so no ``tune.*`` metric exists and the worker driver
cache keys stay ``(scheme, degraded)``.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core.config import FTGemmConfig
from repro.gemm.blocking import BlockingConfig
from repro.serve import GemmRequest, GemmService, ServiceConfig
from repro.simcpu.machine import MachineSpec
from repro.tune.db import TuningDB
from repro.tune.search import ShapeClass, run_search
from repro.tune.space import SearchSpace

RESULTS = Path(__file__).parent / "results"

#: tall-skinny serving shape (m, n, k): many rows against a small shared
#: weight panel — small-K work where the static small-config blocking
#: leaves most of its packing reuse on the table
SHAPE = ShapeClass(256, 48, 24, name="tall-skinny")
STATIC = BlockingConfig.small()
REQUESTS = 32
WARMUP = 8
REPEATS = 3
MAX_BATCH = 4
TOP_K = 3
SEED = 7
ACCEPTANCE_SPEEDUP = 1.15


def _service(tune_db=None):
    return GemmService(
        ServiceConfig(
            workers=1,
            max_batch=MAX_BATCH,
            window_s=0.001,
            ft=FTGemmConfig(blocking=STATIC),
        ),
        tune_db=tune_db,
    )


def _throughput(tune_db=None):
    """Best-of-``REPEATS`` submit-and-drain throughput in requests/s."""
    rng = np.random.default_rng(SEED)
    b = rng.standard_normal((SHAPE.k, SHAPE.n))
    operands = [
        rng.standard_normal((SHAPE.m, SHAPE.k)) for _ in range(REQUESTS)
    ]
    best = 0.0
    with _service(tune_db) as service:
        for a in operands[:WARMUP]:
            service.submit(GemmRequest(a, b)).result(30.0)
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            tickets = [service.submit(GemmRequest(a, b)) for a in operands]
            responses = [t.result(30.0) for t in tickets]
            elapsed = time.perf_counter() - t0
            assert all(r.ok and r.verified for r in responses)
            best = max(best, REQUESTS / elapsed)
        counters = service.metrics.snapshot()["counters"]
    # correctness spot check on the last round
    np.testing.assert_allclose(
        responses[-1].result.c, operands[-1] @ b, rtol=1e-9, atol=1e-9
    )
    return best, counters


def test_tuned_serving_beats_static(tmp_path):
    machine = MachineSpec.cascade_lake_w2255()
    db = TuningDB.for_machine(machine, path=tmp_path / "tune_db.json")
    result = run_search(
        [SHAPE],
        machine=machine,
        space=SearchSpace.small(),
        db=db,
        static=STATIC,
        top_k=TOP_K,
        repeats=2,
        seed=SEED,
    )[0]

    # funnel quality: the model's ranking must agree with the hardware
    assert result.rank_correlation is not None
    assert result.rank_correlation > 0.0, (
        f"model ranking anti-correlated with measurement "
        f"(rho={result.rank_correlation:+.2f})"
    )
    assert result.speedup_vs_static >= 1.0  # winner never regresses

    static_rps, static_counters = _throughput()
    tuned_rps, tuned_counters = _throughput(db)
    speedup = tuned_rps / static_rps

    # the untuned lane must be the pre-tuning pipeline, bit for bit
    assert not any(k.startswith("tune.") for k in static_counters)
    assert tuned_counters.get("tune.resolve_hits", 0) >= REQUESTS

    assert speedup >= ACCEPTANCE_SPEEDUP, (
        f"tuned serving only {speedup:.2f}x static "
        f"({tuned_rps:.0f} vs {static_rps:.0f} req/s)"
    )

    win = result.winner
    payload = {
        "shape": {"m": SHAPE.m, "n": SHAPE.n, "k": SHAPE.k,
                  "class": SHAPE.label, "bucket": result.bucket},
        "search": {
            "space": "small",
            "candidates": result.n_candidates,
            "rejected": result.rejected,
            "scored": result.n_scored,
            "measured_top_k": TOP_K,
            "rank_correlation_spearman": result.rank_correlation,
            "driver_speedup_vs_static": result.speedup_vs_static,
        },
        "winner": win.to_dict(),
        "static": {"mc": STATIC.mc, "kc": STATIC.kc, "nc": STATIC.nc,
                   "mr": STATIC.mr, "nr": STATIC.nr},
        "serving": {
            "requests": REQUESTS,
            "warmup": WARMUP,
            "repeats_best_of": REPEATS,
            "max_batch": MAX_BATCH,
            "workers": 1,
            "throughput_rps": {"static": static_rps, "tuned": tuned_rps},
            "speedup_tuned_vs_static": speedup,
            "acceptance_bar": ACCEPTANCE_SPEEDUP,
        },
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "tune.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    lines = [
        f"Auto-tuned serving vs static config "
        f"({SHAPE.label} {SHAPE.m}x{SHAPE.n}x{SHAPE.k}, "
        f"{REQUESTS} requests/round, max_batch={MAX_BATCH}, 1 worker)",
        "",
        f"search funnel : {result.n_candidates} candidates -> "
        f"{result.n_scored} scored -> top-{TOP_K} measured",
        f"winner        : mc={win.mc} kc={win.kc} nc={win.nc} "
        f"{win.mr}x{win.nr} t{win.threads} ({win.source})",
        f"static        : mc={STATIC.mc} kc={STATIC.kc} nc={STATIC.nc} "
        f"{STATIC.mr}x{STATIC.nr}",
        f"rank rho      : {result.rank_correlation:+.2f} "
        f"(model-predicted vs measured, top-{TOP_K})",
        "",
        f"throughput    : static {static_rps:.0f} req/s, "
        f"tuned {tuned_rps:.0f} req/s",
        f"speedup       : {speedup:.2f}x "
        f"(acceptance bar: >= {ACCEPTANCE_SPEEDUP}x)",
        "",
        "static lane is byte-for-byte the pre-tuning serving pipeline "
        "(no tune_db -> no tune.* metrics, unchanged driver cache keys).",
    ]
    (RESULTS / "tune.txt").write_text("\n".join(lines) + "\n")
