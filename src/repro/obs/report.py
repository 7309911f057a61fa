"""Join measured span totals against the perfmodel's phase predictions.

The instrumentation in the drivers emits *leaf* spans whose categories
partition the run's work — ``pack`` (pack-A/pack-B passes), ``compute``
(macro-kernel contractions), ``checksum`` (fused encode/update work),
``scale`` (the beta pass), ``sync`` (barrier waits), ``verify``
(verification rounds) and ``recover`` (escalation-ladder legs). By
construction these spans never nest inside each other (recovery legs run
their inner drivers untraced), so summing durations per category is safe.
In a parallel run several logical threads (lanes) record spans at once,
so the sums are *per-thread* time and every share is taken over
per-thread time too: each lane's own spans plus its remainder up to the
run's wall time.

:func:`phase_report` lines those totals up against a
:class:`~repro.perfmodel.gemm_model.PerfBreakdown`. The absolute seconds
are *not* comparable — the model prices the paper's Cascade Lake testbed
while the measurement is a NumPy run on whatever host executed it — so the
join is on **shares of total time**, which is also how the paper argues
the ~3 % fused-checksum claim (checksum work as a fraction of the run).
The checksum-overhead row reports exactly that fraction on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tracer import TraceEvent

__all__ = ["PhaseReport", "PhaseRow", "phase_report", "phase_totals"]

#: span categories that partition measured run time (leaf spans only)
PHASE_CATS = ("pack", "compute", "checksum", "scale", "sync", "verify",
              "recover")

#: categories with a modeled counterpart in PerfBreakdown
_PREDICTED = {
    "pack": "pack_seconds",
    "compute": "compute_seconds",
    "checksum": "checksum_seconds",
    "sync": "sync_seconds",
}


def phase_totals(events) -> dict[str, float]:
    """Measured per-thread seconds per phase category, plus ``other``,
    ``total``, ``wall`` (seconds) and ``lanes`` (a count).

    ``wall`` is the duration of the root ``gemm`` span (the longest if
    several — recovery epochs' nested drivers suppress their roots), and
    ``lanes`` the number of logical threads that recorded a phase span or
    the root. Each lane is charged ``max(wall, its own phase sum)``;
    ``total`` is that per-thread time summed over lanes, and ``other`` the
    lanes' untraced remainder: driver loop glue, result assembly, Python
    overhead, and a fail-stopped thread's time after it died. The phase
    rows and ``other`` therefore add up to ``total``. A serial trace has
    one lane, so ``total`` is the root span's duration; with no root span
    each lane's time is its own phase sum and ``other`` is zero.
    """
    totals = {cat: 0.0 for cat in PHASE_CATS}
    per_lane: dict[int, float] = {}
    wall = 0.0
    for e in events:
        if not isinstance(e, TraceEvent) or e.ph != "X":
            continue
        dur = (e.dur_us or 0.0) / 1e6
        if e.cat in totals:
            totals[e.cat] += dur
            per_lane[e.tid] = per_lane.get(e.tid, 0.0) + dur
        elif e.cat == "driver" and e.name == "gemm":
            wall = max(wall, dur)
            per_lane.setdefault(e.tid, 0.0)
    total = sum(max(wall, spent) for spent in per_lane.values())
    totals["other"] = max(0.0, total - sum(totals.values()))
    totals["total"] = total
    totals["wall"] = wall
    totals["lanes"] = len(per_lane)
    return totals


@dataclass
class PhaseRow:
    phase: str
    measured_s: float
    measured_share: float
    predicted_s: float | None = None
    predicted_share: float | None = None


@dataclass
class PhaseReport:
    """Measured-vs-predicted phase table for one traced run."""

    rows: list[PhaseRow]
    #: per-thread time: the sum over lanes (see :func:`phase_totals`)
    measured_total_s: float
    predicted_total_s: float | None
    #: fused checksum+verify work as a fraction of the *rest* of the run —
    #: the measured analogue of the paper's ~3 % fused-ABFT overhead claim
    checksum_overhead_measured: float | None = None
    checksum_overhead_predicted: float | None = None
    mode: str | None = None
    lanes: int = 1
    wall_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_table(self) -> str:
        lines = [
            f"{'phase':<10s} {'measured':>12s} {'share':>7s} "
            f"{'predicted':>12s} {'share':>7s}",
        ]
        for row in self.rows:
            pred = (f"{row.predicted_s * 1e3:9.3f} ms"
                    if row.predicted_s is not None else f"{'—':>12s}")
            pshare = (f"{row.predicted_share * 100:6.1f}%"
                      if row.predicted_share is not None else f"{'—':>7s}")
            lines.append(
                f"{row.phase:<10s} {row.measured_s * 1e3:9.3f} ms "
                f"{row.measured_share * 100:6.1f}% {pred} {pshare}"
            )
        total_pred = (f"{self.predicted_total_s * 1e3:9.3f} ms"
                      if self.predicted_total_s is not None else f"{'—':>12s}")
        lines.append(
            f"{'total':<10s} {self.measured_total_s * 1e3:9.3f} ms "
            f"{100.0:6.1f}% {total_pred} {100.0:6.1f}%"
        )
        if self.lanes > 1:
            lines.append(
                f"measured shares are of per-thread time summed over "
                f"{self.lanes} lanes (wall {self.wall_s * 1e3:.3f} ms)"
            )
        if self.checksum_overhead_measured is not None:
            pred = (f" (model: {self.checksum_overhead_predicted * 100:.2f}%)"
                    if self.checksum_overhead_predicted is not None else "")
            lines.append(
                f"checksum overhead: {self.checksum_overhead_measured * 100:.2f}%"
                f"{pred}  [ft-only work / remainder of run]"
            )
        return "\n".join(lines)


def phase_report(events, breakdown=None) -> PhaseReport:
    """Build the measured-vs-predicted table.

    ``events`` is a list of :class:`TraceEvent` (a ``Tracer.events`` or a
    :func:`repro.obs.export.load_jsonl` result); ``breakdown`` an optional
    :class:`~repro.perfmodel.gemm_model.PerfBreakdown` for the same
    problem. Prediction columns appear only for phases the model prices;
    memory time is omitted — the model treats DRAM traffic as overlapping
    compute, so it has no span counterpart.
    """
    totals = phase_totals(events)
    measured_total = totals["total"] or 1e-30

    predicted_total = None
    predicted: dict[str, float] = {}
    if breakdown is not None:
        predicted_total = breakdown.seconds
        for cat, attr in _PREDICTED.items():
            predicted[cat] = getattr(breakdown, attr)

    rows: list[PhaseRow] = []
    for cat in (*PHASE_CATS, "other"):
        measured = totals[cat]
        row = PhaseRow(
            phase=cat,
            measured_s=measured,
            measured_share=measured / measured_total,
        )
        if cat in predicted and predicted_total:
            row.predicted_s = predicted[cat]
            row.predicted_share = predicted[cat] / predicted_total
        rows.append(row)

    ft_work = totals["checksum"] + totals["verify"]
    rest = measured_total - ft_work - totals["recover"]
    overhead = ft_work / rest if rest > 0 else None
    overhead_pred = None
    if breakdown is not None and breakdown.mode == "ft" and breakdown.seconds:
        rest_pred = breakdown.seconds - breakdown.checksum_seconds
        if rest_pred > 0:
            overhead_pred = breakdown.checksum_seconds / rest_pred

    return PhaseReport(
        rows=rows,
        measured_total_s=measured_total,
        predicted_total_s=predicted_total,
        checksum_overhead_measured=overhead,
        checksum_overhead_predicted=overhead_pred,
        mode=breakdown.mode if breakdown is not None else None,
        lanes=int(totals["lanes"]),
        wall_s=totals["wall"],
    )
