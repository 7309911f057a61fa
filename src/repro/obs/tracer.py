"""Structured tracing: nested spans and instant events on a monotonic clock.

Design constraints (mirrors the ``NULL_INJECTOR`` pattern used by the
drivers): the *disabled* path must cost essentially nothing. Call sites in
hot loops therefore hold ``tracer = self.tracer if self.tracer.enabled else
None`` and only build span names/argument dicts when that local is not
``None``; the shared :data:`NULL_TRACER` singleton exists so attributes are
always present and ``tracer.enabled`` is a plain attribute load.

Spans are recorded as Chrome-trace *complete* events (phase ``"X"``): one
record per span carrying its begin timestamp and duration, appended when
the span closes. Timestamps are microseconds of :func:`time.perf_counter`
relative to the tracer's construction, so traces from one run share one
timeline across OS threads. The ``tid`` of a span is the *logical* team
thread (0 for serial phases), which is what groups rows in Perfetto.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.obs.metrics import NULL_METRICS, MetricsRegistry

__all__ = ["NULL_SPAN", "NULL_TRACER", "NullTracer", "Span", "TraceEvent",
           "Tracer"]


@dataclass
class TraceEvent:
    """One trace record in (a superset of) Chrome trace-event terms.

    ``ph`` is the Chrome phase: ``"X"`` complete span (has ``dur_us``),
    ``"i"`` instant event, ``"C"`` counter sample.
    """

    name: str
    cat: str
    ph: str
    ts_us: float
    tid: int = 0
    dur_us: float | None = None
    args: dict | None = None

    def to_chrome(self) -> dict:
        event: dict = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts_us,
            "pid": 0,
            "tid": self.tid,
        }
        if self.ph == "X":
            event["dur"] = 0.0 if self.dur_us is None else self.dur_us
        if self.ph == "i":
            event["s"] = "t"  # instant scope: thread
        if self.args is not None:
            event["args"] = self.args
        return event


class Span:
    """Context manager recording one complete event on exit.

    Re-entering a Span is not supported; the tracer hands out a fresh
    instance per :meth:`Tracer.span` call, so nesting works naturally.
    """

    __slots__ = ("_tracer", "name", "cat", "tid", "args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, tid: int,
                 args: dict | None):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.tid = tid
        self.args = args
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self._t0 = self._tracer.now_us()
        self._tracer._register_open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        t1 = tracer.now_us()
        tracer._finish_span(
            self,
            TraceEvent(
                name=self.name,
                cat=self.cat,
                ph="X",
                ts_us=self._t0,
                tid=self.tid,
                dur_us=t1 - self._t0,
                args=self.args,
            ),
        )


class _NullSpan:
    """Shared no-op context manager; stateless, safe to reuse/nest."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


#: shared no-op span — hot call sites use
#: ``cm = tr.span(...) if tr is not None else NULL_SPAN`` so the disabled
#: path neither builds argument dicts nor allocates span objects
NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a cheap no-op.

    ``enabled`` is False so hot paths can skip argument construction with a
    single attribute test; the methods still exist (and do nothing) so cold
    paths may call them unconditionally.
    """

    enabled = False
    metrics = NULL_METRICS

    __slots__ = ()

    def span(self, name, *, cat="phase", tid=0, args=None):
        return NULL_SPAN

    def event(self, name, *, cat="event", tid=0, args=None):
        return None

    def counter(self, name, value, *, tid=0):
        return None

    def complete(self, name, *, cat="phase", tid=0, t0_us=0.0, args=None):
        return None

    def now_us(self) -> float:
        return 0.0


NULL_TRACER = NullTracer()


@dataclass
class Tracer:
    """Collects spans/events/counter samples; thread-safe appends.

    Instances are cheap; one per traced run. Events accumulate in memory
    (a traced run is short by construction) and are exported afterwards by
    :mod:`repro.obs.export`.
    """

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    enabled: bool = True

    def __post_init__(self) -> None:
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self.events: list[TraceEvent] = []
        # spans entered but not yet exited — what an export sees mid-run
        self._open: list[Span] = []

    # ------------------------------------------------------------------ clock
    def now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    # ------------------------------------------------------------- recording
    def span(self, name: str, *, cat: str = "phase", tid: int = 0,
             args: dict | None = None) -> Span:
        """Open a span; use as ``with tracer.span("pack_b", ...):``."""
        return Span(self, name, cat, tid, args)

    def event(self, name: str, *, cat: str = "event", tid: int = 0,
              args: dict | None = None) -> None:
        """Record an instant event (fault injection, verdicts, deaths)."""
        self._append(
            TraceEvent(name=name, cat=cat, ph="i", ts_us=self.now_us(),
                       tid=tid, args=args)
        )

    def counter(self, name: str, value: float, *, tid: int = 0) -> None:
        """Record a Chrome counter sample (rendered as a track in Perfetto)."""
        self._append(
            TraceEvent(name=name, cat="counter", ph="C", ts_us=self.now_us(),
                       tid=tid, args={"value": value})
        )

    def complete(self, name: str, *, cat: str = "phase", tid: int = 0,
                 t0_us: float, args: dict | None = None) -> None:
        """Record a span retroactively from an explicit begin timestamp.

        For call sites where a ``with`` block does not fit the control flow
        (loops with several exit points): take ``t0_us = tracer.now_us()``
        up front, then call this once the phase ends.
        """
        self._append(
            TraceEvent(name=name, cat=cat, ph="X", ts_us=t0_us, tid=tid,
                       dur_us=self.now_us() - t0_us, args=args)
        )

    def _append(self, event: TraceEvent) -> None:
        with self._lock:
            self.events.append(event)

    def _register_open(self, span: Span) -> None:
        with self._lock:
            self._open.append(span)

    def _finish_span(self, span: Span, event: TraceEvent) -> None:
        with self._lock:
            try:
                self._open.remove(span)
            except ValueError:
                pass  # already drained by a concurrent export
            self.events.append(event)

    # ---------------------------------------------------------------- export
    def open_spans(self) -> list[Span]:
        """Spans currently entered but not exited (other threads mid-work)."""
        with self._lock:
            return list(self._open)

    def events_with_open(self) -> list[TraceEvent]:
        """All events, plus retroactive completes for still-open spans.

        An export can race live work — a service drains while a worker is
        mid-batch, say — leaving spans entered but not exited. Dropping
        them would hide in-flight work; exporting half-built records would
        fail the structural validator. Instead each open span is emitted as
        a complete event ending *now*, tagged ``"open_at_export": True``.
        The span itself stays open: its eventual exit records the real
        duration as usual.
        """
        now = self.now_us()
        with self._lock:
            events = list(self.events)
            for span in self._open:
                args = dict(span.args) if span.args else {}
                args["open_at_export"] = True
                events.append(
                    TraceEvent(
                        name=span.name,
                        cat=span.cat,
                        ph="X",
                        ts_us=span._t0,
                        tid=span.tid,
                        dur_us=now - span._t0,
                        args=args,
                    )
                )
        return events

    # ------------------------------------------------------------- inspection
    def spans(self, name: str | None = None, *, cat: str | None = None):
        """All complete spans, optionally filtered by name and/or category."""
        with self._lock:
            events = list(self.events)
        return [
            e
            for e in events
            if e.ph == "X"
            and (name is None or e.name == name)
            and (cat is None or e.cat == cat)
        ]

    def instants(self, name: str | None = None):
        with self._lock:
            events = list(self.events)
        return [e for e in events if e.ph == "i"
                and (name is None or e.name == name)]
