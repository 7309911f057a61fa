"""The fault injector the FT drivers consult at every instrumented site.

:class:`FaultInjector` follows a deterministic :class:`InjectionPlan`: the
plan names, per site, the *invocation indices* at which to strike (e.g. "the
37th micro-kernel tile of this GEMM call"). The injector keeps per-site
invocation counters, corrupts one element (or, for burst models, a run of
elements) of the array it is handed when a scheduled index comes up, and
records every strike as an :class:`InjectionRecord` so campaigns can check
detection coverage strike by strike.

Determinism matters twice: the paper's experiments are repeated twenty times
(we want bit-identical reruns), and the parallel scheme executes hooks from
several threads. Two mechanisms make parallel injection schedule-independent:

- the victim RNG is derived from ``(plan.seed, site, invocation)``, never
  from a shared stream, so *which element* is corrupted does not depend on
  interleaving;
- when the driver binds a *thread map* (see
  :func:`repro.faults.campaign.parallel_thread_map`), each ``visit`` carries
  the calling thread id and is translated to its canonical invocation index
  — the index it would have in the deterministic simulated schedule — so
  *which visit* is struck is interleaving-independent too, even on real OS
  threads or permuted simulated step orders.

Persistent (``model.persistent``) strikes additionally enter a sticky
registry: every later visit to the struck site re-applies the corruption
(the stuck latch is still stuck), and the verification layer re-poisons
recomputed lines through :meth:`FaultInjector.reapply_sticky` until the
supervisor quarantines the fault.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.faults.models import FailStop, FaultModel, default_model
from repro.faults.sites import ALL_SITES, KERNEL_SITES, SITE_MICROKERNEL, validate_site
from repro.util.errors import ConfigError, SimulationError
from repro.util.rng import derive_seed

#: kernel-site sticky faults re-poison a recomputed line once per packed
#: micro-panel that flows through the stuck buffer slot; this is the modeled
#: panel width (elements per pass over the stuck slot)
_REPLAY_PERIOD = 8


@dataclass
class InjectionRecord:
    """One executed strike."""

    site: str
    invocation: int
    index: tuple[int, ...]
    old_value: float
    new_value: float
    model: str
    #: filled in by the verification layer when the strike is detected
    detected: bool = False
    corrected: bool = False
    #: thread that executed the struck visit (None for serial drivers)
    tid: int | None = None
    #: elements corrupted by this strike (> 1 for burst models)
    n_elements: int = 1
    #: True when the fault entered the sticky registry (persistent models)
    persistent: bool = False

    @property
    def magnitude(self) -> float:
        return abs(self.new_value - self.old_value)


@dataclass
class _StickyFault:
    """A live persistent fault: re-applies until quarantined."""

    site: str
    flat_index: int
    model: FaultModel
    reapplied: int = 0


@dataclass(frozen=True)
class InjectionPlan:
    """Which invocations of which sites get corrupted.

    ``schedule`` maps site → sorted tuple of 0-based invocation indices.
    ``seed`` drives victim-element and bit choices. ``fail_stops`` lists
    thread deaths (executed by the team backends, not by ``visit``).
    """

    schedule: dict[str, tuple[int, ...]]
    model: FaultModel = field(default_factory=default_model)
    seed: int = 0
    fail_stops: tuple[FailStop, ...] = ()

    def __post_init__(self) -> None:
        for site, indices in self.schedule.items():
            validate_site(site)
            if any(i < 0 for i in indices):
                raise ConfigError(f"negative invocation index for site {site!r}")
            if list(indices) != sorted(set(indices)):
                raise ConfigError(
                    f"schedule for {site!r} must be sorted and duplicate-free"
                )
        for stop in self.fail_stops:
            if not isinstance(stop, FailStop):
                raise ConfigError(
                    f"fail_stops entries must be FailStop, got {stop!r}"
                )

    @property
    def total_planned(self) -> int:
        return sum(len(v) for v in self.schedule.values())

    @staticmethod
    def empty() -> "InjectionPlan":
        return InjectionPlan(schedule={})

    @staticmethod
    def single(site: str, invocation: int = 0, *, model: FaultModel | None = None,
               seed: int = 0) -> "InjectionPlan":
        """Convenience: one strike at one site."""
        return InjectionPlan(
            schedule={validate_site(site): (invocation,)},
            model=model or default_model(),
            seed=seed,
        )


class FaultInjector:
    """Stateful executor of one :class:`InjectionPlan` over one GEMM call."""

    def __init__(self, plan: InjectionPlan):
        self.plan = plan
        self.records: list[InjectionRecord] = []
        self._counters: dict[str, int] = {site: 0 for site in ALL_SITES}
        self._scheduled: dict[str, frozenset[int]] = {
            site: frozenset(indices) for site, indices in plan.schedule.items()
        }
        self._struck: set[tuple[str, int]] = set()
        self._thread_map: dict[str, list[list[int]]] | None = None
        self._tid_counters: dict[tuple[str, int], int] = {}
        self._sticky: list[_StickyFault] = []
        self._quarantined: list[_StickyFault] = []
        #: total sticky re-applications performed (all sites)
        self.sticky_reapplied = 0
        #: attachment point for :mod:`repro.obs`: the traced drivers set a
        #: live Tracer here so every strike emits a ``fault.injected`` event
        self.tracer = None

    # ------------------------------------------------------------ thread map
    def bind_thread_map(self, thread_map: dict[str, list[list[int]]]) -> None:
        """Attach the canonical per-thread invocation map for a parallel run.

        After binding, a ``visit(site, array, tid=t)`` is numbered by the
        canonical schedule (``thread_map[site][t][k]`` for the thread's
        k-th visit of the site) instead of by global arrival order, which
        makes strike placement identical across team backends and step
        orders. Call once per GEMM, before the parallel region.
        """
        self._thread_map = thread_map
        self._tid_counters = {}

    def _next_invocations(
        self, site: str, tid: int | None, count: int
    ) -> Sequence[int]:
        """Canonical invocation indices of the next ``count`` visits of
        ``site`` (by thread ``tid`` when a thread map is bound), ascending."""
        if tid is None or self._thread_map is None:
            start = self._counters[site]
            invocations: Sequence[int] = range(start, start + count)
        else:
            lanes = self._thread_map.get(site, [])
            key = (site, tid)
            pos = self._tid_counters.get(key, 0)
            self._tid_counters[key] = pos + count
            lane = lanes[tid] if tid < len(lanes) else []
            if pos + count > len(lane):
                raise SimulationError(
                    f"thread {tid} visited {site!r} {pos + count} times but the "
                    f"bound thread map only lists {len(lane)} visits — the "
                    "map was built for a different call shape"
                )
            invocations = lane[pos : pos + count]
        self._counters[site] += count
        return invocations

    # ------------------------------------------------------------------ hook
    def visit(self, site: str, array: np.ndarray, tid: int | None = None) -> bool:
        """The driver hook: called once per invocation of ``site``.

        Corrupts element(s) of ``array`` (a writable view of live state)
        in place if this invocation is scheduled, then re-applies any live
        sticky faults registered for the site. Returns True on a new strike.
        """
        validate_site(site)
        invocation = self._next_invocations(site, tid, 1)[0]
        return self._visit_at(site, invocation, array, tid)

    def visit_tiles(
        self, block: np.ndarray, mr: int, nr: int, tid: int | None = None
    ) -> int:
        """Visit the micro-kernel site once per ``mr x nr`` tile of a freshly
        contracted C block; returns the number of new strikes.

        Tiles are numbered A-panel major, B-panel minor — the register-tile
        sweep's order — and each is the ``(tm, tn)`` view that sweep would
        update, so a plan strikes the same tile at the same in-tile index
        whether the block was computed tile by tile or in one contraction.
        Only scheduled tiles are touched, O(strikes) work, until a
        persistent micro-kernel fault is live; from then on every later tile
        is revisited in order, so the stuck latch re-applies per tile.
        """
        site = SITE_MICROKERNEL
        mlen, nlen = block.shape
        n_cols = -(-nlen // nr)
        count = -(-mlen // mr) * n_cols
        if count == 0:
            return 0
        invocations = self._next_invocations(site, tid, count)
        hits = iter(self._scheduled_positions(site, invocations))
        struck = 0
        t = 0 if self._site_is_sticky(site) else next(hits, count)
        while t < count:
            ia, jb = divmod(t, n_cols)
            tile = block[ia * mr : (ia + 1) * mr, jb * nr : (jb + 1) * nr]
            struck += self._visit_at(site, invocations[t], tile, tid)
            t = t + 1 if self._site_is_sticky(site) else next(hits, count)
        return struck

    def _scheduled_positions(
        self, site: str, invocations: Sequence[int]
    ) -> list[int]:
        """Positions in the ascending ``invocations`` that the plan
        schedules, found by bisection over the plan's sorted schedule."""
        schedule = self.plan.schedule.get(site, ())
        lo = bisect_left(schedule, invocations[0])
        hi = bisect_right(schedule, invocations[-1])
        positions = []
        for invocation in schedule[lo:hi]:
            pos = bisect_left(invocations, invocation)
            if invocations[pos] == invocation:
                positions.append(pos)
        return positions

    def _site_is_sticky(self, site: str) -> bool:
        return any(fault.site == site for fault in self._sticky)

    def _visit_at(
        self, site: str, invocation: int, array: np.ndarray, tid: int | None
    ) -> bool:
        struck = False
        scheduled = self._scheduled.get(site)
        if (
            scheduled is not None
            and invocation in scheduled
            and (site, invocation) not in self._struck
            and array.size > 0
        ):
            self._struck.add((site, invocation))
            rng = np.random.default_rng(
                derive_seed(self.plan.seed, site, invocation)
            )
            flat_idx = int(rng.integers(array.size))
            index = np.unravel_index(flat_idx, array.shape)
            touched = self.plan.model.strike(array, index, rng)
            first_index, old, new = touched[0]
            self.records.append(
                InjectionRecord(
                    site=site,
                    invocation=invocation,
                    index=first_index,
                    old_value=old,
                    new_value=new,
                    model=self.plan.model.describe(),
                    tid=tid,
                    n_elements=len(touched),
                    persistent=self.plan.model.persistent,
                )
            )
            if self.plan.model.persistent:
                for elem_index, _old, _new in touched:
                    self._sticky.append(
                        _StickyFault(
                            site=site,
                            flat_index=int(
                                np.ravel_multi_index(elem_index, array.shape)
                            ),
                            model=self.plan.model,
                        )
                    )
            tracer = self.tracer
            if tracer is not None:
                tracer.event(
                    "fault.injected", cat="fault", tid=tid or 0,
                    args={
                        "site": site,
                        "invocation": invocation,
                        "model": self.plan.model.describe(),
                        "index": [int(i) for i in first_index],
                        "elements": len(touched),
                        "persistent": self.plan.model.persistent,
                    },
                )
                tracer.metrics.inc("faults.injected")
            struck = True
        if self._sticky:
            self._reapply_site(site, array)
        return struck

    def _reapply_site(self, site: str, array: np.ndarray) -> None:
        """Re-corrupt one element per live sticky fault of ``site`` — the
        stuck buffer slot strikes whatever data flows through it next."""
        if array.size == 0:
            return
        for fault in self._sticky:
            if fault.site != site:
                continue
            index = np.unravel_index(fault.flat_index % array.size, array.shape)
            array[index] = fault.model.reapply(float(array[index]))
            fault.reapplied += 1
            self.sticky_reapplied += 1

    # -------------------------------------------------- persistent machinery
    @property
    def has_persistent(self) -> bool:
        """True while un-quarantined sticky faults are live."""
        return bool(self._sticky)

    def reapply_sticky(
        self, array: np.ndarray, *, sites: tuple[str, ...] | None = None
    ) -> int:
        """Re-poison freshly recomputed data (the verification layer's
        recompute flows through the same stuck hardware).

        Kernel-site faults corrupt once per modeled packed panel
        (``_REPLAY_PERIOD`` elements) — a recomputed line passes through the
        stuck slot once per panel, so plain recompute keeps re-introducing
        errors and can never converge. Other sites corrupt one element.
        Returns the number of elements corrupted.
        """
        if array.size == 0 or not self._sticky:
            return 0
        n = 0
        for fault in self._sticky:
            if sites is not None and fault.site not in sites:
                continue
            if fault.site in KERNEL_SITES:
                start = fault.flat_index % _REPLAY_PERIOD
                positions = range(start, array.size, _REPLAY_PERIOD)
            else:
                positions = (fault.flat_index % array.size,)
            for pos in positions:
                index = np.unravel_index(pos, array.shape)
                array[index] = fault.model.reapply(float(array[index]))
                n += 1
            fault.reapplied += 1
        self.sticky_reapplied += n
        return n

    def quarantine(self) -> tuple[tuple[str, int], ...]:
        """Retire every live sticky fault (the supervisor declared its
        region suspect and routes around it). Returns ``(site, flat_index)``
        descriptors of what was quarantined."""
        retired = tuple((f.site, f.flat_index) for f in self._sticky)
        self._quarantined.extend(self._sticky)
        self._sticky.clear()
        return retired

    # ------------------------------------------------------------- reporting
    @property
    def n_injected(self) -> int:
        return len(self.records)

    @property
    def n_pending(self) -> int:
        return sum(len(v) for v in self._scheduled.values()) - len(self._struck)

    @property
    def canonical_records(self) -> list[InjectionRecord]:
        """Records in canonical ``(site, invocation)`` order — identical
        across team backends and step orders for the same plan."""
        return sorted(self.records, key=lambda r: (r.site, r.invocation))

    def targets_site(self, site: str) -> bool:
        """Whether the plan schedules any strike at ``site``."""
        return bool(self._scheduled.get(validate_site(site)))

    def invocations(self, site: str) -> int:
        """How many times ``site`` was visited so far."""
        return self._counters[validate_site(site)]

    def mark_detected(self, n: int) -> None:
        """Flag the first ``n`` undetected records as detected (called by the
        verification layer, which knows only aggregate counts per verify)."""
        remaining = n
        for rec in self.records:
            if remaining <= 0:
                break
            if not rec.detected:
                rec.detected = True
                remaining -= 1

    def mark_corrected(self, n: int) -> None:
        """Flag the first ``n`` uncorrected records as corrected."""
        remaining = n
        for rec in self.records:
            if remaining <= 0:
                break
            if not rec.corrected:
                rec.corrected = True
                remaining -= 1

    def summary(self) -> dict[str, int]:
        per_site: dict[str, int] = {}
        for rec in self.records:
            per_site[rec.site] = per_site.get(rec.site, 0) + 1
        return per_site

    def site_outcomes(self) -> dict[str, dict[str, int]]:
        """Per-site injected/detected/corrected/uncorrected counts."""
        outcomes: dict[str, dict[str, int]] = {}
        for rec in self.records:
            row = outcomes.setdefault(
                rec.site,
                {"injected": 0, "detected": 0, "corrected": 0, "uncorrected": 0},
            )
            row["injected"] += 1
            row["detected"] += int(rec.detected)
            row["corrected"] += int(rec.corrected)
            row["uncorrected"] += int(not rec.corrected)
        return outcomes


class NullInjector:
    """The injector of a fault-free call: every hook is a no-op, so the
    drivers' hot paths carry no ``None`` checks. Stateless (no instance
    attributes), so the one shared :data:`NULL_INJECTOR` serves every
    driver and thread."""

    __slots__ = ()

    n_injected = 0

    def visit(self, site: str, array: np.ndarray, tid: int | None = None) -> bool:
        return False

    def visit_tiles(
        self, block: np.ndarray, mr: int, nr: int, tid: int | None = None
    ) -> int:
        return 0

    def mark_detected(self, n: int) -> None:
        pass

    def mark_corrected(self, n: int) -> None:
        pass


NULL_INJECTOR = NullInjector()
