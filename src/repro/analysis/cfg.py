"""Intraprocedural control-flow graphs for the dataflow-aware rules.

One :class:`CFG` per function body, built at *statement* granularity:
simple statements become one node each, compound statements contribute a
head node (the ``if``/``while`` test, the ``for`` iterable, the ``with``
context expressions) plus the nodes of their blocks. Three synthetic
nodes frame the graph — ``entry``, ``exit`` (normal returns and falling
off the end) and ``raise_exit`` (exceptions that escape the function).

Edges carry a kind:

- ``flow`` — ordinary fallthrough;
- ``true``/``false`` — the two sides of an ``if``/``while`` test (the
  test expression rides on the edge, so rules can inspect what guards a
  path);
- ``iter``/``done`` — a ``for`` loop entering its body / exhausting;
- ``exc`` — a statement that may raise, jumping to the enclosing
  handler, through the enclosing ``finally``, or out of the function.

Exception edges are explicit and honest about ``try``/``except``/
``finally`` scoping: a statement inside a ``try`` body edges to each of
its handlers (and to the ``finally``, which then either rejoins normal
flow or propagates outward); a statement inside a handler propagates
*past* its own ``try``. ``with`` blocks do not catch, but every node
records the stack of enclosing ``withitem``s (`Node.withs`) — that is
how the lock rules know which locks are lexically held at a node.

On top of the graph the class offers the queries the dataflow layer
needs: statement nodes in order (``stmt_nodes``), successors with or
without exception edges (``succs``) and reachability (``reachable``).
Graphs are a few hundred nodes at most; :meth:`SourceModule.cfg` caches
one graph per function so every rule shares it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["CFG", "Edge", "Node", "build_cfg"]

#: statement types that can never raise on their own
_SAFE_STMTS = (ast.Pass, ast.Break, ast.Continue, ast.Global, ast.Nonlocal)

#: expression types whose evaluation may raise (calls obviously; attribute
#: and subscript access, arithmetic and comparisons can all throw — being
#: generous here only adds exception edges, never hides a path)
_RAISING_EXPRS = (
    ast.Call,
    ast.Attribute,
    ast.Subscript,
    ast.BinOp,
    ast.UnaryOp,
    ast.Compare,
    ast.Await,
)


@dataclass(frozen=True)
class Edge:
    """One control-flow edge. ``test`` is the branch expression for
    ``true``/``false`` edges (None otherwise)."""

    src: int
    dst: int
    kind: str  # "flow" | "true" | "false" | "iter" | "done" | "exc"
    test: ast.expr | None = None


@dataclass
class Node:
    """One CFG node. ``stmt`` is the owning AST statement (None for the
    synthetic entry/exit nodes); ``withs`` the enclosing ``withitem``
    stack, innermost last."""

    index: int
    kind: str  # "entry"|"exit"|"raise"|"stmt"|"branch"|"loop"|"with"|"handler"
    stmt: ast.stmt | None = None
    line: int = 0
    succs: list[Edge] = field(default_factory=list)
    preds: list[Edge] = field(default_factory=list)
    withs: tuple[ast.withitem, ...] = ()

    def own_nodes(self) -> list[ast.AST]:
        """The AST fragments this node *evaluates* — for compound
        statements only the head expressions, so walking every node's
        fragments visits each expression of the function exactly once.
        Nested function/class bodies are opaque (they run later)."""
        stmt = self.stmt
        if stmt is None:
            return []
        if self.kind == "branch":
            return [stmt.test]
        if self.kind == "loop":
            return [stmt.target, stmt.iter]
        if self.kind == "with":
            out: list[ast.AST] = []
            for item in stmt.items:
                out.append(item.context_expr)
                if item.optional_vars is not None:
                    out.append(item.optional_vars)
            return out
        if self.kind == "handler":
            return [stmt.type] if stmt.type is not None else []
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return []
        return [stmt]

    def walk(self) -> Iterator[ast.AST]:
        """``ast.walk`` over this node's own fragments, skipping nested
        function/lambda bodies."""
        stack: list[ast.AST] = list(self.own_nodes())
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))


@dataclass
class _TryLevel:
    """One enclosing ``try`` while its body (or handlers) are built."""

    handler_entries: list[int]
    catches_all: bool
    finally_entry: int | None
    #: set when a ``return`` routed through this level's finally — only
    #: then does the finally's normal exit continue to the function exit
    returns_routed: bool = False


class CFG:
    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef):
        self.fn = fn
        self.nodes: list[Node] = []
        self._with_stack: list[ast.withitem] = []
        self._try_stack: list[_TryLevel] = []
        self._loop_stack: list[dict] = []  # {"breaks": [idx], "head": idx}
        self.entry = self._new("entry").index
        self.exit = self._new("exit").index
        self.raise_exit = self._new("raise").index
        frontier = self._block(fn.body, [self.entry])
        for idx in frontier:
            self._edge(idx, self.exit, "flow")

    # ------------------------------------------------------------ construction
    def _new(self, kind: str, stmt: ast.stmt | None = None) -> Node:
        node = Node(
            index=len(self.nodes),
            kind=kind,
            stmt=stmt,
            line=getattr(stmt, "lineno", 0),
            withs=tuple(self._with_stack),
        )
        self.nodes.append(node)
        return node

    def _edge(self, src: int, dst: int, kind: str,
              test: ast.expr | None = None) -> None:
        edge = Edge(src=src, dst=dst, kind=kind, test=test)
        self.nodes[src].succs.append(edge)
        self.nodes[dst].preds.append(edge)

    def _exc_targets(self, *, skip_handlers_of: _TryLevel | None = None
                     ) -> list[int]:
        """Where an exception raised *here* can go *next*: the handlers
        of each enclosing try (innermost first) until a level catches
        everything or runs a ``finally`` — an uncaught exception enters
        the first finally on the way out and only continues from the
        finally's *own* exit (those edges are added when the finally is
        built), so a node under ``try..finally`` never jumps straight to
        the raise exit past the cleanup. With neither, the raise exit."""
        targets: list[int] = []
        for level in reversed(self._try_stack):
            if level is not skip_handlers_of:
                targets.extend(level.handler_entries)
                if level.catches_all:
                    return targets
            if level.finally_entry is not None:
                targets.append(level.finally_entry)
                return targets
        targets.append(self.raise_exit)
        return targets

    def _add_exc_edges(self, node: Node) -> None:
        for target in self._exc_targets():
            self._edge(node.index, target, "exc")

    @staticmethod
    def _may_raise(node: Node) -> bool:
        stmt = node.stmt
        if stmt is None or isinstance(stmt, _SAFE_STMTS):
            return False
        if isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            return True
        for sub in node.walk():
            if isinstance(sub, ast.Compare) and all(
                isinstance(op, (ast.Is, ast.IsNot)) for op in sub.ops
            ):
                # identity tests cannot raise (no __eq__ dispatch); the
                # operands are walked on their own and judged separately
                continue
            if isinstance(sub, _RAISING_EXPRS):
                return True
        return False

    def _stmt_node(self, kind: str, stmt: ast.stmt,
                   frontier: list[int]) -> Node:
        node = self._new(kind, stmt)
        for idx in frontier:
            self._edge(idx, node.index, "flow")
        if self._may_raise(node):
            self._add_exc_edges(node)
        return node

    def _block(self, stmts: list[ast.stmt], frontier: list[int]) -> list[int]:
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _stmt(self, stmt: ast.stmt, frontier: list[int]) -> list[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, ast.While):
            return self._while(stmt, frontier)
        if isinstance(stmt, ast.For):
            return self._for(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, ast.Return):
            node = self._stmt_node("stmt", stmt, frontier)
            target = self._return_target()
            self._edge(node.index, target, "flow")
            return []
        if isinstance(stmt, ast.Raise):
            self._stmt_node("stmt", stmt, frontier)
            return []
        if isinstance(stmt, ast.Break):
            node = self._stmt_node("stmt", stmt, frontier)
            if self._loop_stack:
                self._loop_stack[-1]["breaks"].append(node.index)
            return []
        if isinstance(stmt, ast.Continue):
            node = self._stmt_node("stmt", stmt, frontier)
            if self._loop_stack:
                self._edge(node.index, self._loop_stack[-1]["head"], "flow")
            return []
        node = self._stmt_node("stmt", stmt, frontier)
        return [node.index]

    def _return_target(self) -> int:
        """A ``return`` inside ``try..finally`` runs the finally first."""
        for level in reversed(self._try_stack):
            if level.finally_entry is not None:
                level.returns_routed = True
                return level.finally_entry
        return self.exit

    def _if(self, stmt: ast.If, frontier: list[int]) -> list[int]:
        branch = self._stmt_node("branch", stmt, frontier)
        body = self._branch_block(branch, stmt.body, "true", stmt.test)
        if stmt.orelse:
            orelse = self._branch_block(branch, stmt.orelse, "false", stmt.test)
            return body + orelse
        # explicit false-side join so the fallthrough edge carries the
        # test — pruning rules need to know which side they skip
        fall = self._new("join")
        self._edge(branch.index, fall.index, "false", stmt.test)
        return body + [fall.index]

    def _branch_block(self, branch: Node, stmts: list[ast.stmt],
                      kind: str, test: ast.expr) -> list[int]:
        head = self._new("join")
        self._edge(branch.index, head.index, kind, test)
        return self._block(stmts, [head.index])

    def _while(self, stmt: ast.While, frontier: list[int]) -> list[int]:
        branch = self._stmt_node("branch", stmt, frontier)
        self._loop_stack.append({"breaks": [], "head": branch.index})
        body = self._branch_block(branch, stmt.body, "true", stmt.test)
        info = self._loop_stack.pop()
        for idx in body:
            self._edge(idx, branch.index, "flow")
        out = list(info["breaks"])
        infinite = (
            isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
        )
        if not infinite:
            if stmt.orelse:
                head = self._new("join")
                self._edge(branch.index, head.index, "false", stmt.test)
                out.extend(self._block(stmt.orelse, [head.index]))
            else:
                exit_join = self._new("join")
                self._edge(branch.index, exit_join.index, "false", stmt.test)
                out.append(exit_join.index)
        return out

    def _for(self, stmt: ast.For, frontier: list[int]) -> list[int]:
        head = self._stmt_node("loop", stmt, frontier)
        self._loop_stack.append({"breaks": [], "head": head.index})
        body_head = self._new("join")
        self._edge(head.index, body_head.index, "iter")
        body = self._block(stmt.body, [body_head.index])
        info = self._loop_stack.pop()
        for idx in body:
            self._edge(idx, head.index, "flow")
        out = list(info["breaks"])
        done = self._new("join")
        self._edge(head.index, done.index, "done")
        if stmt.orelse:
            out.extend(self._block(stmt.orelse, [done.index]))
        else:
            out.append(done.index)
        return out

    def _with(self, stmt: ast.With, frontier: list[int]) -> list[int]:
        enter = self._stmt_node("with", stmt, frontier)
        self._with_stack.extend(stmt.items)
        body = self._block(stmt.body, [enter.index])
        del self._with_stack[len(self._with_stack) - len(stmt.items):]
        return body

    def _try(self, stmt: ast.Try, frontier: list[int]) -> list[int]:
        finally_entry: int | None = None
        finally_join: Node | None = None
        if stmt.finalbody:
            finally_join = self._new("join")
            finally_entry = finally_join.index

        handler_nodes: list[Node] = []
        catches_all = False
        for handler in stmt.handlers:
            node = self._new("handler", handler)
            node.line = handler.lineno
            handler_nodes.append(node)
            if handler.type is None or (
                isinstance(handler.type, ast.Name)
                and handler.type.id in ("Exception", "BaseException")
            ):
                catches_all = True

        level = _TryLevel(
            handler_entries=[n.index for n in handler_nodes],
            catches_all=catches_all,
            finally_entry=finally_entry,
        )

        self._try_stack.append(level)
        body_out = self._block(stmt.body, frontier)
        # the else clause and the handler bodies sit *outside* the
        # handlers' protection (Python only guards the try block) but
        # still inside the finally
        shadow = _TryLevel([], False, finally_entry)
        self._try_stack[-1] = shadow
        if stmt.orelse:
            body_out = self._block(stmt.orelse, body_out)
        handler_out: list[int] = []
        for handler, node in zip(stmt.handlers, handler_nodes):
            handler_out.extend(self._block(handler.body, [node.index]))
        self._try_stack.pop()

        level.returns_routed = level.returns_routed or shadow.returns_routed
        after = body_out + handler_out
        if finally_join is None:
            return after
        for idx in after:
            self._edge(idx, finally_join.index, "flow")
        final_out = self._block(stmt.finalbody, [finally_join.index])
        # the exceptional traversal of the finally continues propagating
        for idx in final_out:
            for target in self._exc_targets():
                self._edge(idx, target, "exc")
            # a return routed through the finally continues to the exit
            if level.returns_routed:
                self._edge(idx, self.exit, "flow")
        return final_out

    # ---------------------------------------------------------------- queries
    def stmt_nodes(self) -> Iterator[Node]:
        for node in self.nodes:
            if node.stmt is not None:
                yield node

    def node_of(self, stmt: ast.stmt) -> Node | None:
        for node in self.nodes:
            if node.stmt is stmt:
                return node
        return None

    def succs(self, idx: int, *, exc: bool = True) -> Iterator[Edge]:
        for edge in self.nodes[idx].succs:
            if exc or edge.kind != "exc":
                yield edge

    def reachable(self, start: int | None = None, *,
                  exc: bool = True) -> set[int]:
        start = self.entry if start is None else start
        seen = {start}
        stack = [start]
        while stack:
            for edge in self.succs(stack.pop(), exc=exc):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append(edge.dst)
        return seen


def build_cfg(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    return CFG(fn)
