"""Fixtures for the dataflow-aware rule families (analyzer v2).

Same contract as test_analysis_rules.py — every rule gets at least one
fixture that must trip it and one that must pass — but these rules are
path-sensitive: the bad fixtures seed defects on *exception* and
*conditional* paths that the per-line syntactic rules could never see,
and the good fixtures exercise the path reasoning (finally routing,
ft-branch pruning, entry-set inference) that keeps the rules quiet on
the real code.
"""

from repro.analysis import analyze
from repro.analysis.engine import SUPPRESSION_RULE


def findings_for(tmp_path, text, rule=None):
    path = tmp_path / "fixture.py"
    path.write_text(text)
    result = analyze([path], root=tmp_path)
    found = result.findings
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


# ------------------------------------------------------- funnel-completeness
def test_funnel_flags_swallowed_exception_path(tmp_path):
    """The seeded regression: the happy path completes every request but
    the except arm logs and returns — a permanently hung client future
    that only the exception edge in the CFG can see."""
    bad = """\
class Pool:
    def __init__(self, service):
        self.complete = service.complete

    def _execute_batch(self, batch):
        try:
            out = kernel(batch)
        except Exception:
            log_error()
            return
        for request in batch:
            self.complete(request, out)
"""
    found = findings_for(tmp_path, bad, "funnel-completeness")
    assert len(found) >= 1
    assert "_execute_batch" in found[0].message
    assert "complete" in found[0].message


def test_funnel_exception_path_that_completes_passes(tmp_path):
    good = """\
class Pool:
    def __init__(self, service):
        self.complete = service.complete

    def _execute_batch(self, batch):
        try:
            out = kernel(batch)
        except Exception as exc:
            for request in batch:
                self.complete(request, error_of(exc))
            return
        for request in batch:
            self.complete(request, out)
"""
    assert findings_for(tmp_path, good, "funnel-completeness") == []


def test_funnel_reraise_is_the_sanctioned_alternative(tmp_path):
    good = """\
class Pool:
    def __init__(self, service):
        self.complete = service.complete

    def _execute_batch(self, batch):
        try:
            out = kernel(batch)
        except Exception:
            cleanup()
            raise
        for request in batch:
            self.complete(request, out)
"""
    assert findings_for(tmp_path, good, "funnel-completeness") == []


def test_funnel_handoff_transfers_ownership(tmp_path):
    """_requeue_or_fail moves the flight to the replay queue, which then
    owns completing it — the hand-off counts as the completion event."""
    good = """\
class Pool:
    def __init__(self, service):
        self.complete = service.complete

    def _lost_flight(self, flight):
        self._requeue_or_fail(flight)
"""
    assert findings_for(tmp_path, good, "funnel-completeness") == []


def test_funnel_one_level_sibling_summary(tmp_path):
    """Delegating to a sibling executor that provably completes on every
    path is as good as completing in place."""
    good = """\
class Pool:
    def __init__(self, service):
        self.complete = service.complete

    def _execute_batch(self, batch):
        for request in batch:
            self._run_single(request)

    def _run_single(self, request):
        self.complete(request, kernel(request))
"""
    assert findings_for(tmp_path, good, "funnel-completeness") == []


# ---------------------------------------------------------- ledger-coverage
_LEDGER_BAD = """\
class FtDriver:
    def __init__(self, ledger):
        self._ledger = ledger

    def _pack_b_block(self, b, p):
        panel = super()._pack_b_block(b, p)
        return panel
"""


def test_ledger_flags_unmirrored_driver_write(tmp_path):
    found = findings_for(tmp_path, _LEDGER_BAD, "ledger-coverage")
    assert len(found) == 1
    assert "_pack_b_block" in found[0].message
    assert "checksum-ledger" in found[0].message


def test_ledger_write_then_mirror_passes(tmp_path):
    good = """\
class FtDriver:
    def __init__(self, ledger):
        self._ledger = ledger

    def _pack_b_block(self, b, p):
        panel = super()._pack_b_block(b, p)
        self._ledger.row_pred[p] = checksum(panel)
        return panel
"""
    assert findings_for(tmp_path, good, "ledger-coverage") == []


def test_ledger_ft_off_branch_is_pruned(tmp_path):
    """The unprotected fast path makes no checksum promises: a write
    reachable only through ``if not self.ft:`` is out of scope."""
    good = """\
class FtDriver:
    def __init__(self, ledger):
        self._ledger = ledger

    def _pack_b_block(self, b, p):
        if not self.ft:
            return super()._pack_b_block(b, p)
        panel = super()._pack_b_block(b, p)
        self._ledger.row_pred[p] = checksum(panel)
        return panel
"""
    assert findings_for(tmp_path, good, "ledger-coverage") == []


def test_ledger_blas_entry_output_alias_tracked(tmp_path):
    """In ``ft_gemv`` the protected buffer is whatever name feeds
    ``BlasResult(value=...)`` — a bare subscript store into it with no
    residual check anywhere on the path is the finding."""
    bad = """\
def ft_gemv(a, x, y):
    out = prepare(y)
    out[:] = a @ x
    return BlasResult(value=out)
"""
    found = findings_for(tmp_path, bad, "ledger-coverage")
    assert len(found) == 1

    good = """\
def ft_gemv(a, x, y):
    out = prepare(y)
    out[:] = a @ x
    residual = checksum_row(a) @ x - out.sum()
    return BlasResult(value=out)
"""
    assert findings_for(tmp_path, good, "ledger-coverage") == []


def test_ledger_suppression_requires_justification(tmp_path):
    bare = _LEDGER_BAD.replace(
        "panel = super()._pack_b_block(b, p)",
        "panel = super()._pack_b_block(b, p)"
        "  # analysis: ignore[ledger-coverage]",
    )
    found = findings_for(tmp_path, bare)
    assert [f.rule for f in found] == [SUPPRESSION_RULE]
    assert "justification" in found[0].message

    justified = _LEDGER_BAD.replace(
        "panel = super()._pack_b_block(b, p)",
        "panel = super()._pack_b_block(b, p)"
        "  # analysis: ignore[ledger-coverage] -- mirrored at pack time",
    )
    assert findings_for(tmp_path, justified) == []


# -------------------------------------------------------- resource-lifecycle
def test_resource_flags_exception_path_leak(tmp_path):
    """The close is there — but an injector raise inside fill() unwinds
    past it. Only the exception edges expose this."""
    bad = """\
from multiprocessing.shared_memory import SharedMemory


def stage(payload):
    seg = SharedMemory(create=True, size=4096)
    fill(seg.buf, payload)
    seg.close()
"""
    found = findings_for(tmp_path, bad, "resource-lifecycle")
    assert len(found) == 1
    assert "exception" in found[0].message


def test_resource_flags_missing_close_on_normal_path(tmp_path):
    bad = """\
from multiprocessing.shared_memory import SharedMemory


def stage(payload):
    seg = SharedMemory(create=True, size=4096)
    fill(seg.buf, payload)
"""
    found = findings_for(tmp_path, bad, "resource-lifecycle")
    assert len(found) == 1
    assert "normal return" in found[0].message


def test_resource_try_finally_close_passes(tmp_path):
    good = """\
from multiprocessing.shared_memory import SharedMemory


def stage(payload):
    seg = SharedMemory(create=True, size=4096)
    try:
        fill(seg.buf, payload)
    finally:
        seg.close()
"""
    assert findings_for(tmp_path, good, "resource-lifecycle") == []


def test_resource_child_unlink_is_banned(tmp_path):
    bad = """\
from repro.serve.proc.shm import attach


def consume(descriptor):
    view, seg = attach(descriptor)
    try:
        return view.copy()
    finally:
        seg.close()
        seg.unlink()
"""
    found = findings_for(tmp_path, bad, "resource-lifecycle")
    assert len(found) == 1
    assert "unlink" in found[0].message


def test_resource_arena_view_escape(tmp_path):
    bad = """\
def run_block(ws, state):
    view = ws.a_view()
    state.saved = view
"""
    found = findings_for(tmp_path, bad, "resource-lifecycle")
    assert len(found) == 1
    assert "aliases Workspace scratch" in found[0].message


# -------------------------------------------- lock entry-set inference (v2)
def test_lock_entry_set_inferred_without_annotation(tmp_path):
    """The fixpoint proves _admit is only ever called under the lock —
    no ``# analysis: caller-holds-lock`` annotation needed anymore."""
    good = """\
import threading

class Service:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []

    def add(self, x):
        with self._lock:
            self.items.append(x)
            self._admit(x)

    def _admit(self, x):
        self.items.append(x)
"""
    assert findings_for(tmp_path, good, "lock-discipline") == []


def test_lock_entry_set_broken_by_unlocked_call_site(tmp_path):
    """One unlocked call site and the inference (correctly) refuses to
    bless the helper: the intersection over call sites is empty."""
    bad = """\
import threading

class Service:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []

    def add(self, x):
        with self._lock:
            self.items.append(x)
            self._admit(x)

    def unsafe_add(self, x):
        self._admit(x)

    def _admit(self, x):
        self.items.append(x)
"""
    found = findings_for(tmp_path, bad, "lock-discipline")
    assert found  # the append reads and writes self.items unguarded
    assert all("_admit" in f.message for f in found)


def test_lock_blocking_entry_held_helper_reports_in_body(tmp_path):
    """A private helper whose every call site holds the lock blocks *as
    if* it held the lock itself — the report lands in its body."""
    bad = """\
import threading

class Drain:
    def __init__(self, queue):
        self._lock = threading.Lock()
        self.queue = queue

    def drain(self):
        with self._lock:
            return self._pull()

    def _pull(self):
        return self.queue.get(timeout=1.0)
"""
    found = findings_for(tmp_path, bad, "lock-blocking")
    assert len(found) == 1
    assert "_pull" in found[0].message
    assert "queue.get" in found[0].message


def test_lock_blocking_one_level_call_summary(tmp_path):
    """A helper that blocks with no lock of its own is flagged at the
    call site that does hold one — the blocking moved a frame down, not
    away."""
    bad = """\
import threading

class Drain:
    def __init__(self, queue):
        self._lock = threading.Lock()
        self.queue = queue

    def poll(self):
        return self._pull()

    def drain(self):
        with self._lock:
            return self._pull()

    def _pull(self):
        return self.queue.get(timeout=1.0)
"""
    found = findings_for(tmp_path, bad, "lock-blocking")
    assert len(found) == 1
    assert "called here while holding self._lock" in found[0].message
