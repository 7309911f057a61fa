"""The rule engine: source loading, rule registry, suppressions, analysis.

The analyzer is a zero-dependency, stdlib-``ast`` static checker for the
*project-specific* invariants the test suite cannot see — hot-path
allocation discipline, barrier pairing, lock discipline, response
funnelling, tracer hygiene. It is deliberately not a general linter:
every rule encodes one assumption another layer of this codebase relies
on, and each fires only where that assumption applies.

Architecture:

- a **rule** is a function ``check(module: SourceModule) -> Iterable[Finding]``
  registered under a stable name with :func:`rule`; the registry is what
  the CLI, the reporters and the baseline all key on;
- a :class:`SourceModule` wraps one parsed file (text, AST, line table,
  suppression map) so rules share the parse;
- **suppressions** are per-line comments —
  ``# analysis: ignore[rule-a,rule-b]`` silences those rules on that
  line, bare ``# analysis: ignore`` silences every rule, and
  ``# analysis: ignore[rule] -- why it is safe`` attaches a
  justification. A suppression naming an unknown rule is itself reported
  (under the reserved rule id ``suppression``) with the nearest valid
  rule name suggested, so typos cannot silently disable a check; rules
  registered with ``requires_justification=True`` (the ledger-coverage
  family) additionally report any suppression of themselves that does
  not say why;
- :class:`SourceModule` also memoises one
  :class:`~repro.analysis.cfg.CFG` per function (``module.cfg(fn)``) so
  every dataflow rule shares the graph build;
- :func:`analyze` walks files/directories, applies every (selected)
  rule, filters suppressed findings and returns them deterministically
  sorted, which is what keeps ``--json`` output diffable against the
  committed baseline.
"""

from __future__ import annotations

import ast
import difflib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "AnalysisResult",
    "Finding",
    "RuleSpec",
    "SourceModule",
    "analyze",
    "load_module",
    "registered_rules",
    "rule",
]

#: reserved rule id for problems with suppression comments themselves
SUPPRESSION_RULE = "suppression"

_SUPPRESS_RE = re.compile(
    r"#\s*analysis:\s*ignore(?:\[(?P<rules>[^\]]*)\])?"
    r"(?:\s*--\s*(?P<why>.+))?"
)

#: annotation for helper methods whose contract is "caller holds the
#: lock" — the lock-discipline rule treats the annotated method's body
#: as guarded (the annotation goes on or right above the ``def`` line)
_CALLER_HOLDS_RE = re.compile(r"#\s*analysis:\s*caller-holds-lock")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is (file, line, rule, message) so sorted findings — and the
    JSON made from them — are stable across runs and platforms.
    """

    file: str
    line: int
    rule: str
    message: str
    #: the stripped source line — the baseline matches on this rather
    #: than the line number, so findings survive unrelated edits above
    snippet: str = ""

    def location(self) -> str:
        return f"{self.file}:{self.line}"


@dataclass(frozen=True)
class RuleSpec:
    """A registered rule: stable name, human description, check function.

    ``requires_justification`` marks rules whose inline suppressions must
    carry a ``-- why`` justification (suppressing a checksum-coverage
    finding without saying why is itself a finding).
    """

    name: str
    description: str
    check: Callable[["SourceModule"], Iterable[Finding]]
    requires_justification: bool = False


_REGISTRY: dict[str, RuleSpec] = {}


def rule(name: str, description: str, *, requires_justification: bool = False):
    """Register ``fn`` as the checker for rule ``name`` (decorator)."""

    def decorate(fn: Callable[["SourceModule"], Iterable[Finding]]):
        if name in _REGISTRY:
            raise ValueError(f"rule {name!r} registered twice")
        _REGISTRY[name] = RuleSpec(
            name=name,
            description=description,
            check=fn,
            requires_justification=requires_justification,
        )
        return fn

    return decorate


def registered_rules() -> dict[str, RuleSpec]:
    """All known rules, importing the built-in rule modules on first use."""
    # the imports run the @rule decorators; keeping them lazy avoids an
    # import cycle (rules import engine for the decorator)
    from repro.analysis import (  # noqa: F401
        rules_funnel,
        rules_kernel,
        rules_ledger,
        rules_obs,
        rules_parallel,
        rules_resource,
        rules_serve,
    )

    return dict(_REGISTRY)


class SourceModule:
    """One parsed source file shared by every rule.

    ``rel`` is the path findings report — repo-relative POSIX when the
    file sits under the analysis root, so baselines are portable.
    """

    def __init__(self, path: Path, text: str, rel: str):
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        #: line number -> set of suppressed rule names ("*" = all)
        self.suppressions: dict[int, set[str]] = {}
        #: line number -> the ``-- why`` justification text ("" when none)
        self.suppression_reasons: dict[int, str] = {}
        #: line numbers carrying a "caller holds the lock" annotation
        self.caller_holds_lock: set[int] = set()
        self._cfg_cache: dict[int, "CFG"] = {}
        for lineno, comment in self._comments(text):
            match = _SUPPRESS_RE.search(comment)
            if match is not None:
                names = match.group("rules")
                if names is None:
                    self.suppressions[lineno] = {"*"}
                else:
                    self.suppressions[lineno] = {
                        n.strip() for n in names.split(",") if n.strip()
                    }
                why = match.group("why")
                self.suppression_reasons[lineno] = (why or "").strip()
            if _CALLER_HOLDS_RE.search(comment):
                self.caller_holds_lock.add(lineno)

    def cfg(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> "CFG":
        """The (memoised) control-flow graph of one function body."""
        from repro.analysis.cfg import build_cfg

        key = id(fn)
        graph = self._cfg_cache.get(key)
        if graph is None:
            graph = self._cfg_cache[key] = build_cfg(fn)
        return graph

    @staticmethod
    def _comments(text: str) -> Iterator[tuple[int, str]]:
        """(line, comment text) for every real comment token — scanning
        tokens rather than raw lines keeps ``# analysis:`` examples in
        docstrings from being treated as live annotations."""
        try:
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                if tok.type == tokenize.COMMENT:
                    yield tok.start[0], tok.string
        except (tokenize.TokenError, IndentationError):
            return

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule_name: str, node_or_line, message: str) -> Finding:
        line = getattr(node_or_line, "lineno", node_or_line)
        return Finding(
            file=self.rel,
            line=int(line),
            rule=rule_name,
            message=message,
            snippet=self.snippet(int(line)),
        )

    def suppressed(self, rule_name: str, line: int) -> bool:
        names = self.suppressions.get(line)
        if names is None:
            return False
        return "*" in names or rule_name in names


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    #: files that failed to parse (path, error) — reported, never fatal
    errors: list[tuple[str, str]] = field(default_factory=list)
    #: suppression comments that actually silenced at least one finding
    suppressions_used: int = 0


def load_module(path: Path, root: Path | None = None) -> SourceModule:
    text = path.read_text(encoding="utf-8")
    rel = str(path)
    if root is not None:
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
    return SourceModule(path, text, rel)


def _iter_files(paths: Iterable[Path]) -> Iterator[Path]:
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def analyze(
    paths: Iterable[Path | str],
    *,
    root: Path | str | None = None,
    rules: Iterable[str] | None = None,
) -> AnalysisResult:
    """Run the (selected) rules over every ``.py`` file under ``paths``.

    ``rules=None`` runs everything registered; passing names restricts
    the run (unknown names raise ``ValueError`` — a misspelt ``--rules``
    must not silently pass). Findings come back sorted.
    """
    registry = registered_rules()
    if rules is None:
        selected = list(registry.values())
    else:
        unknown = sorted(set(rules) - set(registry))
        if unknown:
            raise ValueError(
                f"unknown rule(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(registry))}"
            )
        selected = [registry[name] for name in rules]

    result = AnalysisResult()
    root_path = Path(root) if root is not None else None
    for file_path in _iter_files(Path(p) for p in paths):
        try:
            module = load_module(file_path, root=root_path)
        except (SyntaxError, UnicodeDecodeError) as exc:
            result.errors.append((str(file_path), f"{type(exc).__name__}: {exc}"))
            continue
        result.files += 1
        known_names = set(registry)
        for line, names in sorted(module.suppressions.items()):
            for name in sorted(names - {"*"} - known_names):
                close = difflib.get_close_matches(
                    name, sorted(known_names), n=1, cutoff=0.5
                )
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                result.findings.append(
                    module.finding(
                        SUPPRESSION_RULE,
                        line,
                        f"suppression names unknown rule {name!r}{hint}",
                    )
                )
        for spec in selected:
            for found in spec.check(module):
                if module.suppressed(found.rule, found.line):
                    result.suppressions_used += 1
                    owner = registry.get(found.rule)
                    if (
                        owner is not None
                        and owner.requires_justification
                        and not module.suppression_reasons.get(
                            found.line, ""
                        )
                    ):
                        result.findings.append(
                            module.finding(
                                SUPPRESSION_RULE,
                                found.line,
                                f"suppressing {found.rule!r} requires a "
                                "justification: write "
                                f"`# analysis: ignore[{found.rule}] -- "
                                "why this is safe`",
                            )
                        )
                    continue
                result.findings.append(found)
    result.findings.sort()
    return result
