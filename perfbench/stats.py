"""Pure helpers shared by the benchmark: order statistics, interleaved
ratios, span self time and the per-operation audit tally.

Nothing here imports the program under test, so the helpers are testable
on their own and cheap to import in the launcher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between
    order statistics (NumPy's default rule). Raises on an empty sample:
    a percentile of nothing is a bug in the caller, not a zero."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def interleaved_ratio(numer_times, denom_times) -> float:
    """Median over rounds of ``numer[i] / denom[i]``.

    The two sequences hold the times of two calls made back to back in the
    same round, so a host whose speed drifts between rounds slows both
    calls of a round alike and the per-round ratio cancels the drift; the
    median then discards rounds where a burst hit only one side.
    """
    if len(numer_times) != len(denom_times):
        raise ValueError("interleaved series must have one entry per round")
    ratios = [n / d for n, d in zip(numer_times, denom_times) if d > 0]
    return median(ratios)


@dataclass(frozen=True)
class Span:
    """One complete span: ``tid`` groups spans that can nest."""

    name: str
    ts_us: float
    dur_us: float
    tid: int = 0


def self_times(spans) -> list[tuple[Span, float]]:
    """Each span paired with its self time: its duration minus the part of
    its interval covered by its direct children.

    Children are found by interval containment on the same ``tid`` (the
    tracer records complete events without parent links). Spans on one
    tid either nest or stay disjoint, which is what the program's tracer
    guarantees for one driver call.
    """
    ordered = sorted(spans, key=lambda s: (s.tid, s.ts_us, -s.dur_us))
    child_us = [0.0] * len(ordered)
    stack: list[int] = []
    for i, span in enumerate(ordered):
        while stack:
            top = ordered[stack[-1]]
            if top.tid == span.tid and span.ts_us < top.ts_us + top.dur_us:
                break
            stack.pop()
        if stack:
            child_us[stack[-1]] += span.dur_us
        stack.append(i)
    return [(s, s.dur_us - c) for s, c in zip(ordered, child_us)]


def self_time_by_name(spans) -> dict[str, float]:
    """Total self time (microseconds) per span name."""
    totals: dict[str, float] = {}
    for span, own in self_times(spans):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


#: terminal statuses that mean the service refused or dropped the request
REFUSED = ("rejected", "shed", "expired", "cancelled")


@dataclass
class Audit:
    """Outcome tally of every attempted operation.

    An operation is a hit only when it was answered ``ok`` and verified by
    the program *and* its value matches the oracle. Everything else is a
    miss with one named cause; a wrong answer is counted, never raised.
    """

    attempted: int = 0
    hits: int = 0
    failed: int = 0
    refused: int = 0
    lost: int = 0
    wrong: int = 0
    duplicated: int = 0
    #: the first few wrong answers, for the printed report
    examples: list = field(default_factory=list)

    def record(self, status: str | None, verified: bool = False,
               error: float | None = None, tolerance: float = 0.0,
               label: str = "") -> bool:
        """Tally one attempted operation; returns True for a hit.

        ``status`` None means no response arrived (lost). ``error`` is the
        max-abs distance to the oracle and ``tolerance`` the allowed one.
        """
        self.attempted += 1
        if status is None:
            self.lost += 1
            return False
        if status in REFUSED:
            self.refused += 1
            return False
        if status != "ok" or not verified:
            self.failed += 1
            return False
        if error is None or not error <= tolerance:
            self.wrong += 1
            if len(self.examples) < 5:
                self.examples.append(f"{label} error={error}")
            return False
        self.hits += 1
        return True

    @property
    def misses(self) -> int:
        """Attempted operations that did not end in one correct answer: a
        request answered twice counts as missed too."""
        return min(self.attempted, self.attempted - self.hits + self.duplicated)

    @property
    def ok_frac(self) -> float:
        if self.attempted == 0:
            return 0.0
        return (self.attempted - self.misses) / self.attempted

    @property
    def correct(self) -> bool:
        """No answer was wrong, lost or duplicated (refusals and explicit
        failures are answers the program owned up to)."""
        return self.wrong == 0 and self.lost == 0 and self.duplicated == 0


def oracle_tolerance(expected_max_abs: float) -> float:
    """The repository's audit rule: ``1e-8 * (max|C| + 1)``."""
    return 1e-8 * (expected_max_abs + 1.0)
