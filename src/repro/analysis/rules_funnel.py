"""Rule: funnel-completeness — batch executors always reach the funnel.

The serving tier's exactly-once story hangs on one funnel: every request
a pool takes off the queue is answered by exactly one call to the
service's ``complete``/``_complete`` hook (which owns future delivery,
duplicate suppression and latency stamping). PR 5's syntactic rule
checks *where* responses are built; this rule checks the stronger path
property — **every path out of a batch executor, including the paths
created by exception edges, either passes a completion call or
re-raises**. A swallowed exception that returns without completing is a
permanently hung client future; no chaos soak reliably finds it.

Scope: classes that *bind the funnel* (``self.complete = ...`` in
``__init__`` — the thread and process worker pools), and within them the
batch-execution methods (names starting ``_execute``/``_run``/
``_finish``/``_fail``/``_lost``). Hand-off methods (``_dispatch``,
``_requeue_or_fail``) transfer ownership instead of completing and are
deliberately out of scope.

Mechanics (see :mod:`~repro.analysis.cfg`): a node is a *completion
event* when it calls ``self.complete``/``self._complete`` (or a local
``complete`` alias), calls an ownership-transfer hand-off
(``self._requeue_or_fail``/``self._dispatch``/``self._fail_flight`` —
the flight moves to the replay queue or a worker, which now owns
completing it), or calls a sibling executor whose own analysis proves
it completes on every path (the one-level call summary — this is what
lets ``_execute_batch`` delegate to ``_run_unit``). The method is
clean when no path from entry to the *normal* exit avoids every event;
paths to the raise exit are legal (an escaping exception is the
dispatcher's problem, and re-raising is the documented alternative to
completing). The check is exactly event-free reachability on the CFG.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.cfg import CFG, Node
from repro.analysis.dataflow import reaches_without
from repro.analysis.engine import Finding, SourceModule, rule

#: batch-execution method names inside a funnel-owning class
_EXECUTOR_RE = re.compile(r"^_(execute|run|finish|fail|lost)")

#: direct completion call names
_DIRECT = {"complete", "_complete"}

#: ownership-transfer calls that count as events: the flight moves to
#: the replay queue or a worker — someone downstream now owns completing
#: it, which is the documented alternative to completing in place
_HANDOFF = {"_requeue_or_fail", "_dispatch", "_fail_flight"}


def _binds_funnel(cls: ast.ClassDef) -> bool:
    """True when some method assigns ``self.complete = ...``."""
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "complete"
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return True
    return False


def _methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt


def _completion_calls(node: Node, creditable: set[str]) -> bool:
    """Does this node call the funnel directly, or a sibling executor
    summarised as always-completing?"""
    for sub in node.walk():
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Name) and func.id in _DIRECT:
            return True
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id == "self":
                if (
                    func.attr in _DIRECT
                    or func.attr in _HANDOFF
                    or func.attr in creditable
                ):
                    return True
    return False


def _event_nodes(cfg: CFG, creditable: set[str]) -> set[int]:
    events = {
        node.index
        for node in cfg.stmt_nodes()
        if _completion_calls(node, creditable)
    }
    return events | _credit_loops(cfg, events)


def _credit_loops(cfg: CFG, events: set[int]) -> set[int]:
    """Loop heads whose body completes count as events themselves: the
    zero-iteration path would otherwise read as a leak, but a batch
    handed to an executor is non-empty by scheduler contract — the
    interesting leaks are swallowed exceptions, not empty loops."""
    extra: set[int] = set()
    for node in cfg.nodes:
        is_loop = node.kind == "loop" or (
            node.kind == "branch" and isinstance(node.stmt, ast.While)
        )
        if not is_loop:
            continue
        from_head = cfg.reachable(node.index)
        for event in events:
            if event in from_head and node.index in cfg.reachable(event):
                extra.add(node.index)
                break
    return extra


def _always_completes(cfg: CFG, events: set[int]) -> bool:
    """Every path entry -> normal exit passes an event (re-raises are
    free: the raise exit is not the target)."""
    return not reaches_without(cfg, cfg.entry, events, cfg.exit)


def _leaking_returns(cfg: CFG, events: set[int]) -> list[Node]:
    """Nodes on an event-free path whose next step is the normal exit —
    the statements where an uncompleted path leaves the function."""
    stop = set(events)
    seen = {cfg.entry}
    stack = [cfg.entry]
    leaks: list[Node] = []
    while stack:
        n = stack.pop()
        if n in stop:
            continue
        for edge in cfg.nodes[n].succs:
            if edge.dst == cfg.exit and cfg.nodes[n].stmt is not None:
                leaks.append(cfg.nodes[n])
            if edge.dst not in seen:
                seen.add(edge.dst)
                stack.append(edge.dst)
    return leaks


@rule(
    "funnel-completeness",
    "every path out of a pool batch executor (exception edges included) "
    "must reach the complete/_complete funnel or re-raise",
)
def check_funnel_completeness(module: SourceModule) -> Iterator[Finding]:
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef) or not _binds_funnel(cls):
            continue
        executors = [
            m for m in _methods(cls) if _EXECUTOR_RE.match(m.name)
        ]
        if not executors:
            continue
        # one-level summaries: which executors complete unconditionally,
        # judged on direct funnel calls alone (no transitive credit)
        creditable: set[str] = set()
        for method in executors:
            cfg = module.cfg(method)
            if _always_completes(cfg, _event_nodes(cfg, set())):
                creditable.add(method.name)
        for method in executors:
            cfg = module.cfg(method)
            events = _event_nodes(cfg, creditable - {method.name})
            if _always_completes(cfg, events):
                continue
            leaks = _leaking_returns(cfg, events)
            if not leaks:
                leaks = [cfg.nodes[cfg.entry]]
            reported: set[int] = set()
            for node in leaks:
                line = node.line or method.lineno
                if line in reported:
                    continue
                reported.add(line)
                yield module.finding(
                    "funnel-completeness",
                    line,
                    f"{cls.name}.{method.name}: a path reaches this exit "
                    "without passing the complete/_complete funnel "
                    "(hung client future) — complete the flight or "
                    "re-raise",
                )
