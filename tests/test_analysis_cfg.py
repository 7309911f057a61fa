"""CFG construction and dataflow-lattice units.

The dataflow rules are only as honest as the graph under them, so the
edge semantics the rules rely on are pinned directly: exception edges
route through handlers and finallys (never around a finally), the else
clause of a try sits outside its handlers' protection, branch edges
carry their test expression, and the reaching-defs queries give
textbook answers on small functions.
"""

import ast

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import (
    may_pass_through,
    reaches_without,
    reaching_defs,
)


def cfg_of(src, name=None):
    tree = ast.parse(src)
    fns = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef)
        and (name is None or n.name == name)
    ]
    return build_cfg(fns[0])


def node_at(cfg, line):
    for node in cfg.stmt_nodes():
        if node.line == line:
            return node
    raise AssertionError(f"no node at line {line}")


def edge_kinds(node):
    return sorted(e.kind for e in node.succs)


# -------------------------------------------------------------- basic shape
def test_linear_flow_entry_to_exit():
    cfg = cfg_of("def f():\n    x = 1\n    y = 2\n")
    x = node_at(cfg, 2)
    y = node_at(cfg, 3)
    assert any(e.dst == x.index for e in cfg.nodes[cfg.entry].succs)
    assert any(e.dst == y.index and e.kind == "flow" for e in x.succs)
    assert any(e.dst == cfg.exit for e in y.succs)


def test_if_else_edges_carry_test():
    cfg = cfg_of("def f(a):\n    if a:\n        x = 1\n    else:\n        x = 2\n")
    branch = node_at(cfg, 2)
    kinds = {e.kind: e for e in branch.succs}
    assert {"true", "false"} <= set(kinds)
    assert isinstance(kinds["true"].test, ast.Name)
    assert isinstance(kinds["false"].test, ast.Name)


def test_if_without_else_has_explicit_false_edge_with_test():
    """The fallthrough side of a one-armed if still records what test it
    skipped — the ft-pruning in the ledger rule depends on it."""
    cfg = cfg_of("def f(a):\n    if a:\n        x = 1\n    y = 2\n")
    branch = node_at(cfg, 2)
    false = [e for e in branch.succs if e.kind == "false"]
    assert len(false) == 1
    assert isinstance(false[0].test, ast.Name) and false[0].test.id == "a"


def test_return_edges_to_exit_and_cuts_fallthrough():
    cfg = cfg_of("def f(a):\n    if a:\n        return 1\n    return 2\n")
    ret1 = node_at(cfg, 3)
    assert any(e.dst == cfg.exit for e in ret1.succs)
    # nothing flows from the first return to the second
    assert cfg.exit in cfg.reachable(ret1.index)
    assert node_at(cfg, 4).index not in cfg.reachable(ret1.index)


def test_while_true_has_no_false_exit():
    cfg = cfg_of("def f(q):\n    while True:\n        q.get()\n")
    branch = node_at(cfg, 2)
    assert not any(e.kind == "false" for e in branch.succs)


def test_with_stack_recorded_on_body_not_head():
    cfg = cfg_of(
        "def f(self):\n"
        "    with self._lock:\n"
        "        x = 1\n"
        "    y = 2\n"
    )
    head = node_at(cfg, 2)
    body = node_at(cfg, 3)
    after = node_at(cfg, 4)
    # the context expr evaluates before acquisition: the head is outside
    assert head.withs == ()
    assert len(body.withs) == 1
    assert after.withs == ()


# --------------------------------------------------------- exception routing
def test_try_body_raise_edges_to_handler():
    cfg = cfg_of(
        "def f():\n"
        "    try:\n"
        "        risky()\n"
        "    except ValueError:\n"
        "        x = 1\n"
    )
    risky = node_at(cfg, 3)
    handler = next(n for n in cfg.nodes if n.kind == "handler")
    assert any(
        e.kind == "exc" and e.dst == handler.index for e in risky.succs
    )


def test_catch_all_handler_stops_propagation():
    cfg = cfg_of(
        "def f():\n"
        "    try:\n"
        "        risky()\n"
        "    except Exception:\n"
        "        x = 1\n"
    )
    risky = node_at(cfg, 3)
    assert not any(e.dst == cfg.raise_exit for e in risky.succs)


def test_handler_body_raises_past_its_own_try():
    """Python does not re-dispatch to sibling handlers: an exception in a
    handler body propagates outward."""
    cfg = cfg_of(
        "def f():\n"
        "    try:\n"
        "        risky()\n"
        "    except ValueError:\n"
        "        cleanup()\n"
        "    except Exception:\n"
        "        x = 1\n"
    )
    cleanup = node_at(cfg, 5)
    assert any(
        e.kind == "exc" and e.dst == cfg.raise_exit for e in cleanup.succs
    )


def test_else_clause_is_outside_handler_protection():
    cfg = cfg_of(
        "def f():\n"
        "    try:\n"
        "        risky()\n"
        "    except Exception:\n"
        "        x = 1\n"
        "    else:\n"
        "        also_risky()\n"
    )
    in_else = node_at(cfg, 7)
    handler = next(n for n in cfg.nodes if n.kind == "handler")
    assert not any(e.dst == handler.index for e in in_else.succs)
    assert any(e.dst == cfg.raise_exit for e in in_else.succs)


def test_finally_intercepts_escape_no_bypass_edge():
    """Nothing inside try..finally jumps straight to the raise exit —
    the exceptional path must traverse the finally, whose own exc edges
    then continue the propagation."""
    cfg = cfg_of(
        "def f():\n"
        "    try:\n"
        "        risky()\n"
        "    finally:\n"
        "        close()\n"
    )
    risky = node_at(cfg, 3)
    close = node_at(cfg, 5)
    assert not any(e.dst == cfg.raise_exit for e in risky.succs)
    assert any(e.kind == "exc" for e in risky.succs)
    # escaping still possible — but only by passing through the finally
    assert cfg.raise_exit in cfg.reachable(risky.index)
    assert not reaches_without(
        cfg, risky.index, {close.index}, cfg.raise_exit
    )
    assert any(e.dst == cfg.raise_exit for e in close.succs)


def test_return_routes_through_finally_to_exit():
    cfg = cfg_of(
        "def f():\n"
        "    try:\n"
        "        return 1\n"
        "    finally:\n"
        "        close()\n"
    )
    ret = node_at(cfg, 3)
    close = node_at(cfg, 5)
    assert not any(e.dst == cfg.exit for e in ret.succs)
    assert not reaches_without(cfg, ret.index, {close.index}, cfg.exit)
    assert any(e.dst == cfg.exit and e.kind == "flow" for e in close.succs)


def test_identity_compare_cannot_raise():
    """``x is not None`` never dispatches __eq__, so the None-guard
    close idiom must not grow an exception edge of its own."""
    cfg = cfg_of("def f(x):\n    if x is not None:\n        pass\n")
    guard = node_at(cfg, 2)
    assert not any(e.kind == "exc" for e in guard.succs)
    cfg2 = cfg_of("def f(x, y):\n    if x == y:\n        pass\n")
    assert any(e.kind == "exc" for e in node_at(cfg2, 2).succs)


# ------------------------------------------------------------------ lattices
def test_reaching_defs_kill_and_merge():
    cfg = cfg_of(
        "def f(a):\n"
        "    x = 1\n"
        "    if a:\n"
        "        x = 2\n"
        "    use(x)\n"
    )
    defs = reaching_defs(cfg)
    use = node_at(cfg, 5)
    reaching = defs[use.index]["x"]
    lines = {cfg.nodes[d].line for d in reaching}
    assert lines == {2, 4}  # both defs merge at the join
    # inside the true arm only the redefinition is live... after it
    redef = node_at(cfg, 4)
    assert {cfg.nodes[d].line for d in defs[redef.index]["x"]} == {2}


def test_reaches_without_blocks_paths_through():
    cfg = cfg_of(
        "def f(a):\n"
        "    if a:\n"
        "        evidence = 1\n"
        "    else:\n"
        "        evidence = 2\n"
        "    out = 3\n"
    )
    ev1 = node_at(cfg, 3)
    ev2 = node_at(cfg, 5)
    assert not reaches_without(
        cfg, cfg.entry, {ev1.index, ev2.index}, cfg.exit
    )
    assert reaches_without(cfg, cfg.entry, {ev1.index}, cfg.exit)


def test_may_pass_through_exception_path_skips_event():
    cfg = cfg_of(
        "def f():\n"
        "    risky()\n"
        "    done = 1\n"
    )
    done = node_at(cfg, 3)
    state = may_pass_through(
        cfg, lambda n: n.line == 3
    )
    assert state[cfg.exit] is True
    assert state[cfg.raise_exit] is False or state[done.index] is False
