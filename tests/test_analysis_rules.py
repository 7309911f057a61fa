"""Good/bad source fixtures for every project-invariant rule.

Each rule gets at least one fixture that must trip it and one that must
pass — the acceptance gate for the analyzer is precisely "nonzero on the
bad fixture, zero on the repo".
"""

from repro.analysis import analyze


def findings_for(tmp_path, text, rule=None):
    path = tmp_path / "fixture.py"
    path.write_text(text)
    result = analyze([path], root=tmp_path)
    found = result.findings
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


# ------------------------------------------------------------ hot-loop-alloc
def test_hot_loop_alloc_flags_np_alloc_in_kernel_loop(tmp_path):
    bad = """\
import numpy as np

def macro_kernel(ws, a, b, c):
    for j in range(4):
        scratch = np.empty((4, 4))
        c[:, j] += scratch[:, 0]
"""
    found = findings_for(tmp_path, bad, "hot-loop-alloc")
    assert len(found) == 1
    assert "np.empty" in found[0].message


def test_hot_loop_alloc_flags_copy_and_packless_out(tmp_path):
    bad = """\
def _pack_a_block(a, panels):
    for p in panels:
        tile = a.copy()
        pack_a(tile, 4)
"""
    rules = [f.message for f in findings_for(tmp_path, bad, "hot-loop-alloc")]
    assert any(".copy()" in m for m in rules)
    assert any("without out=" in m for m in rules)


def test_hot_loop_alloc_good_arena_reuse_passes(tmp_path):
    good = """\
import numpy as np

def macro_kernel(ws, a, b, c):
    scratch = np.empty((4, 4))  # preallocated outside the loop
    for j in range(4):
        pack_a(a, 4, out=ws.view)
        scratch[:] = 0.0
"""
    assert findings_for(tmp_path, good, "hot-loop-alloc") == []


def test_hot_loop_alloc_ignores_cold_functions(tmp_path):
    cold = """\
import numpy as np

def setup_buffers(n):
    for i in range(n):
        yield np.zeros(n)
"""
    assert findings_for(tmp_path, cold, "hot-loop-alloc") == []


def test_hot_loop_alloc_covers_cache_consult_path(tmp_path):
    """The panel-cache admission runs per batch on the serving hot path:
    acquire() and the worker's panels_for() consult are hot names, so an
    allocating loop inside either is a finding."""
    bad = """\
import numpy as np

def acquire(self, b, config):
    for key in self._entries:
        probe = np.zeros(4)

def panels_for(self, b):
    for entry in self._entries:
        samples = np.empty(8)
"""
    found = findings_for(tmp_path, bad, "hot-loop-alloc")
    assert len(found) == 2
    assert any("acquire" in f.message for f in found)
    assert any("panels_for" in f.message for f in found)


# ------------------------------------------------------------ barrier-pairing
def test_barrier_pairing_flags_unnamed_yield(tmp_path):
    bad = """\
def worker(tid):
    yield
    counters.barriers += 1
"""
    found = findings_for(tmp_path, bad, "barrier-pairing")
    assert len(found) == 1
    assert "# barrier" in found[0].message


def test_barrier_pairing_flags_uncounted_yield(tmp_path):
    bad = """\
def worker(tid):
    yield  # barrier: prologue
    do_work()
"""
    found = findings_for(tmp_path, bad, "barrier-pairing")
    assert len(found) == 1
    assert "barriers += 1" in found[0].message


def test_barrier_pairing_terminal_yield_needs_no_counter(tmp_path):
    good = """\
def recovery_worker(slot):
    do_work(slot)
    yield  # barrier: recovery epoch complete
"""
    assert findings_for(tmp_path, good, "barrier-pairing") == []


def test_barrier_pairing_checks_map_against_recovery(tmp_path):
    bad = """\
def worker(tid):
    yield  # barrier: prologue
    counters.barriers += 1
    for p in range(2):
        for j in range(2):
            yield  # barrier: pack done
            counters.barriers += 1

def _recover_from_deaths(deaths):
    for death in deaths:
        t = death.block
        if 1 + 2 * t <= death.barrier:
            continue
"""
    found = findings_for(tmp_path, bad, "barrier-pairing")
    assert len(found) == 1
    assert "barrier map mismatch" in found[0].message


def test_barrier_pairing_good_map_passes(tmp_path):
    good = """\
def worker(tid):
    yield  # barrier: prologue
    counters.barriers += 1
    for p in range(2):
        for j in range(2):
            yield  # barrier: pack done
            counters.barriers += 1
            macro()
            yield  # barrier: macro done
            counters.barriers += 1

def _recover_from_deaths(deaths):
    for death in deaths:
        t = death.block
        if 1 + 2 * t <= death.barrier:
            continue
"""
    assert findings_for(tmp_path, good, "barrier-pairing") == []


def test_barrier_pairing_flags_lost_recovery_formula(tmp_path):
    bad = """\
def worker(tid):
    yield  # barrier: prologue
    counters.barriers += 1
    for p in range(2):
        for j in range(2):
            yield  # barrier: pack
            counters.barriers += 1
            yield  # barrier: macro
            counters.barriers += 1

def _recover_from_deaths(deaths):
    return []
"""
    found = findings_for(tmp_path, bad, "barrier-pairing")
    assert len(found) == 1
    assert "1 + 2 * t" in found[0].message


# ------------------------------------------------------------ lock-discipline
def test_lock_discipline_flags_mixed_access(tmp_path):
    bad = """\
import threading

class Service:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count = self.count + 1

    def read(self):
        return self.count
"""
    found = findings_for(tmp_path, bad, "lock-discipline")
    assert len(found) == 1
    assert "self.count" in found[0].message
    assert "read" in found[0].message


def test_lock_discipline_flags_unguarded_rmw(tmp_path):
    bad = """\
import threading

class Service:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0

    def record(self):
        self.hits += 1
"""
    found = findings_for(tmp_path, bad, "lock-discipline")
    assert len(found) == 1
    assert "read-modify-write" in found[0].message


def test_lock_discipline_good_consistent_guarding_passes(tmp_path):
    good = """\
import threading

class Service:
    def __init__(self):
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1

    def read(self):
        with self._cv:
            return self.count
"""
    assert findings_for(tmp_path, good, "lock-discipline") == []


def test_lock_discipline_immutable_after_init_is_exempt(tmp_path):
    good = """\
import threading

class Service:
    def __init__(self, cap):
        self._lock = threading.Lock()
        self.cap = cap
        self.items = []

    def add(self, x):
        with self._lock:
            if len(self.items) < self.cap:
                self.items.append(x)

    def describe(self):
        return self.cap
"""
    assert findings_for(tmp_path, good, "lock-discipline") == []


def test_lock_discipline_caller_holds_lock_annotation(tmp_path):
    good = """\
import threading

class Service:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []

    def add(self, x):
        with self._lock:
            self._admit(x)

    # analysis: caller-holds-lock
    def _admit(self, x):
        self.items.append(x)
"""
    assert findings_for(tmp_path, good, "lock-discipline") == []


def test_lock_discipline_classes_without_locks_exempt(tmp_path):
    good = """\
class Plain:
    def __init__(self):
        self.n = 0

    def bump(self):
        self.n += 1
"""
    assert findings_for(tmp_path, good, "lock-discipline") == []


# -------------------------------------------------------------- lock-blocking
def test_lock_blocking_flags_queue_get_under_lock(tmp_path):
    bad = """\
import threading

class Drain:
    def __init__(self, queue):
        self._lock = threading.Lock()
        self.queue = queue

    def drain_one(self):
        with self._lock:
            return self.queue.get(timeout=1.0)
"""
    found = findings_for(tmp_path, bad, "lock-blocking")
    assert len(found) == 1
    assert "queue.get" in found[0].message


def test_lock_blocking_flags_future_result_and_sleep(tmp_path):
    bad = """\
import threading
import time

class Waiter:
    def __init__(self):
        self._lock = threading.Lock()

    def wait_for(self, future):
        with self._lock:
            time.sleep(0.1)
            return future.result(timeout=5)
"""
    messages = [f.message for f in findings_for(tmp_path, bad, "lock-blocking")]
    assert len(messages) == 2
    assert any("sleep" in m for m in messages)
    assert any("result" in m for m in messages)


def test_lock_blocking_condition_wait_on_own_lock_is_fine(tmp_path):
    good = """\
import threading

class Gate:
    def __init__(self):
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self.open = False

    def wait_open(self):
        with self._cv:
            while not self.open:
                self._cv.wait(0.1)
"""
    assert findings_for(tmp_path, good, "lock-blocking") == []


def test_lock_blocking_foreign_wait_under_lock_is_flagged(tmp_path):
    bad = """\
import threading

class Gate:
    def __init__(self, event):
        self._lock = threading.Lock()
        self.event = event

    def wait_open(self):
        with self._lock:
            self.event.wait(1.0)
"""
    found = findings_for(tmp_path, bad, "lock-blocking")
    assert len(found) == 1


def test_lock_blocking_flags_pipe_send_recv_under_lock(tmp_path):
    bad = """\
import threading

class Shard:
    def __init__(self, cmd_conn, res_conn):
        self._lock = threading.Lock()
        self.cmd_conn = cmd_conn
        self.res_conn = res_conn

    def roundtrip(self, payload):
        with self._lock:
            self.cmd_conn.send_bytes(payload)
            return self.res_conn.recv_bytes()
"""
    messages = [f.message for f in findings_for(tmp_path, bad, "lock-blocking")]
    assert len(messages) == 2
    assert any("send_bytes" in m for m in messages)
    assert any("recv_bytes" in m for m in messages)


def test_lock_blocking_flags_process_reap_under_lock(tmp_path):
    bad = """\
import threading

class Reaper:
    def __init__(self, proc):
        self._lock = threading.Lock()
        self.proc = proc

    def reap(self):
        with self._lock:
            self.proc.kill()
            self.proc.join(5.0)
"""
    messages = [f.message for f in findings_for(tmp_path, bad, "lock-blocking")]
    assert len(messages) == 2
    assert any("kill" in m for m in messages)
    assert any("join" in m for m in messages)


def test_lock_blocking_pipe_methods_on_other_receivers_pass(tmp_path):
    good = """\
import threading

class Mailer:
    def __init__(self, sink):
        self._lock = threading.Lock()
        self.sink = sink
        self.sent = 0

    def record(self, payload):
        with self._lock:
            self.sink.send(payload)  # not a pipe/conn receiver
            self.sent += 1
"""
    assert findings_for(tmp_path, good, "lock-blocking") == []


def test_lock_blocking_outside_lock_is_fine(tmp_path):
    good = """\
import threading
import time

class Waiter:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def wait_then_count(self, future):
        response = future.result(timeout=5)
        time.sleep(0.01)
        with self._lock:
            self.n += 1
        return response
"""
    assert findings_for(tmp_path, good, "lock-blocking") == []


# ------------------------------------------------------------ complete-funnel
def test_complete_funnel_flags_stray_response_construction(tmp_path):
    bad = """\
from repro.serve.request import GemmRequest, GemmResponse

def answer(request):
    return GemmResponse(request_id=request.request_id, status="failed")
"""
    found = findings_for(tmp_path, bad, "complete-funnel")
    assert len(found) == 1
    assert "funnel" in found[0].message


def test_complete_funnel_allows_funneled_construction(tmp_path):
    good = """\
from repro.serve.request import GemmRequest, GemmResponse

def answer(service, request):
    service.complete(
        request,
        GemmResponse(request_id=request.request_id, status="failed"),
    )
"""
    assert findings_for(tmp_path, good, "complete-funnel") == []


def test_complete_funnel_flags_direct_future_set(tmp_path):
    bad = """\
from repro.serve.request import ResponseFuture

def shortcut(future, response):
    future.set(response)
"""
    found = findings_for(tmp_path, bad, "complete-funnel")
    assert len(found) == 1
    assert ".set" in found[0].message


def test_complete_funnel_defining_module_is_exempt(tmp_path):
    good = """\
class GemmResponse:
    pass

def make():
    return GemmResponse()
"""
    assert findings_for(tmp_path, good, "complete-funnel") == []


# --------------------------------------------------------------- span-pairing
def test_span_pairing_flags_unentered_span(tmp_path):
    bad = """\
def run(tracer):
    tracer.span("phase", cat="core")
    do_work()
"""
    found = findings_for(tmp_path, bad, "span-pairing")
    assert len(found) == 1
    assert "never entered" in found[0].message


def test_span_pairing_flags_complete_without_t0(tmp_path):
    bad = """\
def run(tr):
    if tr is None:
        return
    tr.complete("phase", cat="core")
"""
    found = findings_for(tmp_path, bad, "span-pairing")
    assert len(found) == 1
    assert "t0_us" in found[0].message


def test_span_pairing_good_usage_passes(tmp_path):
    good = """\
def run(tr):
    if tr is None:
        return
    with tr.span("phase", cat="core"):
        do_work()
    t0 = tr.now_us()
    do_more()
    tr.complete("phase2", cat="core", t0_us=t0)
"""
    assert findings_for(tmp_path, good, "span-pairing") == []


def test_span_pairing_ignores_non_tracer_receivers(tmp_path):
    good = """\
def run(pool, request, response):
    pool.complete(request, response)
"""
    assert findings_for(tmp_path, good, "span-pairing") == []


# --------------------------------------------------------------- tracer-guard
def test_tracer_guard_flags_unguarded_none_default(tmp_path):
    bad = """\
def run(x, tracer=None):
    tracer.event("start", cat="core")
    return x
"""
    found = findings_for(tmp_path, bad, "tracer-guard")
    assert len(found) == 1
    assert "None" in found[0].message


def test_tracer_guard_accepts_is_none_guard(tmp_path):
    good = """\
def run(x, tracer=None):
    if tracer is not None:
        tracer.event("start", cat="core")
    return x
"""
    assert findings_for(tmp_path, good, "tracer-guard") == []


def test_tracer_guard_accepts_null_tracer_rebinding(tmp_path):
    good = """\
def run(x, tracer=None):
    tracer = tracer or NULL_TRACER
    tracer.event("start", cat="core")
    return x
"""
    assert findings_for(tmp_path, good, "tracer-guard") == []
