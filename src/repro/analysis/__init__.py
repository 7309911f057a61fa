"""Project-invariant static analyzer and runtime concurrency sanitizer.

Two complementary halves:

- the **static analyzer** (:mod:`~repro.analysis.engine` plus the
  ``rules_*`` modules) parses the source with stdlib ``ast``, builds a
  statement-granularity CFG with explicit exception edges
  (:mod:`~repro.analysis.cfg`; reaching definitions live in
  :mod:`~repro.analysis.dataflow`), and checks the unwritten invariants
  the layers rely on — hot-loop allocation discipline, barrier pairing,
  inferred lock discipline, completion funnelling across exception paths,
  shm segment lifecycle, checksum-ledger coverage of FT writes, tracer
  hygiene — with justified per-line suppressions, a committed baseline,
  ``--diff REF`` changed-files mode, and SARIF 2.1.0 export;
- the **runtime sanitizer** (:mod:`~repro.analysis.sanitize`) wraps
  ``threading`` locks inside a ``monitor()`` scope, records the per-
  thread lock acquisition graph, and reports lock-order cycles and
  leaked (unjoined) threads; it runs as an opt-in pytest fixture over
  the serve soak and fail-stop recovery tests.

Run the analyzer with ``repro analyze`` or ``scripts/run_analysis.py``.
"""

from repro.analysis.baseline import Baseline, BaselineEntry, Comparison
from repro.analysis.engine import (
    AnalysisResult,
    Finding,
    RuleSpec,
    SourceModule,
    analyze,
    registered_rules,
    rule,
)
from repro.analysis.cfg import CFG, Edge, Node
from repro.analysis.report import render_json, render_sarif, render_text

__all__ = [
    "AnalysisResult",
    "Baseline",
    "BaselineEntry",
    "CFG",
    "Comparison",
    "Edge",
    "Finding",
    "Node",
    "RuleSpec",
    "SourceModule",
    "analyze",
    "registered_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "rule",
]
