"""Rule: no allocating NumPy calls inside hot kernel/packing loops.

The GotoBLAS-style pipeline (PAPER.md §2) gets its fused, traffic-free
checksum verification from one discipline: every buffer the macro/micro
kernels and the packing routines touch per iteration comes from the
preallocated :class:`~repro.gemm.workspace.Workspace` arena. An
``np.zeros`` (or a ``.copy()``, or a ``pack_a`` without an ``out=``
target) inside one of those loops silently reintroduces per-iteration
allocation — correct results, ruined memory traffic, and a perf cliff no
unit test notices. This rule walks the loop bodies of the known hot
functions and flags any allocating call.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, SourceModule, rule

#: function names that are hot paths (macro/micro kernels, packing, the
#: parallel worker bodies)
HOT_NAMES = {
    "microkernel",
    "macro_kernel",
    "pack_a",
    "pack_b",
    "worker",
    "recovery_worker",
    # panel-cache admission: consulted per batch on the serving hot path,
    # so the consult itself must never allocate in a loop (the encode
    # miss path is the one sanctioned allocation site, and it lives in
    # encode_b, outside these functions)
    "acquire",
    "panels_for",
    # the non-GEMM kernel family's per-iteration loops: the FFT stage
    # loop (its checkpoint buffer is preallocated), the blocked TRSM
    # diagonal sweep, and the DMR solve it calls per block
    "ft_fft",
    "ft_trsm",
    "ft_gemv",
    "_dmr_block_solve",
}

#: prefixes marking internal hot helpers in the drivers
HOT_PREFIXES = (
    "_pack_",
    "_run_macro",
    "_reuse_a",
    "_run_loops",
    "_scale_c",
)

#: numpy constructors/ops that materialise a fresh array
ALLOC_FUNCS = {
    "array",
    "asarray",
    "ascontiguousarray",
    "asfortranarray",
    "zeros",
    "ones",
    "empty",
    "full",
    "zeros_like",
    "ones_like",
    "empty_like",
    "full_like",
    "copy",
    "concatenate",
    "stack",
    "vstack",
    "hstack",
    "dstack",
    "tile",
    "repeat",
    "outer",
    "eye",
    "identity",
    "arange",
    "linspace",
}

#: packing entry points that must reuse arena storage via ``out=``
PACK_FUNCS = {"pack_a", "pack_b"}

_NUMPY_ALIASES = {"np", "numpy"}


def _is_hot(name: str) -> bool:
    return name in HOT_NAMES or name.startswith(HOT_PREFIXES)


def _function_defs(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _loop_bodies(fn: ast.FunctionDef) -> Iterator[ast.stmt]:
    """Statements lexically inside a loop of ``fn``, not descending into
    nested function/lambda definitions (their bodies run when called,
    not per iteration — a closure *definition* in a loop is cheap)."""

    def visit(stmts, in_loop: bool):
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if in_loop:
                yield stmt
            if isinstance(stmt, (ast.For, ast.While)):
                yield from visit(stmt.body, True)
                yield from visit(stmt.orelse, True)
            elif isinstance(stmt, (ast.If,)):
                yield from visit(stmt.body, in_loop)
                yield from visit(stmt.orelse, in_loop)
            elif isinstance(stmt, (ast.With, ast.Try)):
                for block in _blocks_of(stmt):
                    yield from visit(block, in_loop)

    yield from visit(fn.body, False)


def _blocks_of(stmt: ast.stmt):
    if isinstance(stmt, ast.With):
        return [stmt.body]
    if isinstance(stmt, ast.Try):
        blocks = [stmt.body, stmt.orelse, stmt.finalbody]
        blocks.extend(h.body for h in stmt.handlers)
        return blocks
    return []


def _calls_in(stmt: ast.stmt) -> Iterator[ast.Call]:
    for node in ast.walk(stmt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # don't descend into nested definitions; ast.walk already
            # yielded them — skip their calls by filtering on parents is
            # overkill here: nested defs inside loop *statements* are
            # excluded at the statement level in _loop_bodies
            continue
        if isinstance(node, ast.Call):
            yield node


def _alloc_message(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        base = func.value
        if (
            isinstance(base, ast.Name)
            and base.id in _NUMPY_ALIASES
            and func.attr in ALLOC_FUNCS
        ):
            return f"allocating call np.{func.attr}(...) inside a hot loop"
        if func.attr == "copy" and not call.args and not call.keywords:
            return "array .copy() inside a hot loop allocates a fresh buffer"
        if func.attr in PACK_FUNCS and not any(
            kw.arg == "out" for kw in call.keywords
        ):
            return (
                f"{func.attr}(...) without out= inside a hot loop "
                "allocates instead of reusing the Workspace arena"
            )
    elif isinstance(func, ast.Name):
        if func.id in PACK_FUNCS and not any(
            kw.arg == "out" for kw in call.keywords
        ):
            return (
                f"{func.id}(...) without out= inside a hot loop "
                "allocates instead of reusing the Workspace arena"
            )
    return None


@rule(
    "hot-loop-alloc",
    "no allocating NumPy calls inside macro/micro-kernel and packing "
    "loops; hot paths must reuse the Workspace arena",
)
def check_hot_loop_alloc(module: SourceModule) -> Iterator[Finding]:
    for fn in _function_defs(module.tree):
        if not _is_hot(fn.name):
            continue
        for stmt in _loop_bodies(fn):
            for call in _calls_in(stmt):
                message = _alloc_message(call)
                if message is not None:
                    yield module.finding(
                        "hot-loop-alloc",
                        call,
                        f"in {fn.name}(): {message}",
                    )
