"""The single place the multiprocessing start method is pinned.

Every process the tier creates comes from :func:`spawn_context`, which
pins the **spawn** start method: children begin from a fresh interpreter
that re-imports the library instead of forking the parent's address
space. That is the only start method whose semantics are identical on
Linux and macOS (fork is unsafe with threads on macOS and the serving
parent is full of threads), and a fresh interpreter is what makes the
process the genuine fault domain the tier claims to recover — a child
shares no locks, no NumPy state and no arena memory with the parent.

Pinning happens here via ``multiprocessing.get_context("spawn")`` rather
than ``multiprocessing.set_start_method("spawn")``: a context object
scopes the choice to this tier without mutating the process-global
default out from under embedding applications — while still being the
one authoritative spot the whole package gets its start method from
(nothing under ``repro.serve.proc`` may call ``multiprocessing``
directly; the analyzer's import conventions and the tests pin this).
"""

from __future__ import annotations

import multiprocessing

_CTX: multiprocessing.context.BaseContext | None = None


def spawn_context() -> multiprocessing.context.BaseContext:
    """The tier's pinned multiprocessing context (start method: spawn)."""
    global _CTX
    if _CTX is None:
        _CTX = multiprocessing.get_context("spawn")
    return _CTX

