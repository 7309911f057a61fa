"""CLI surface of analyzer v2: SARIF export, --diff, baseline --prune.

The SARIF document is validated against an embedded subset of the SARIF
2.1.0 schema (the properties this tool emits, with the spec's required
fields) via jsonschema — no network fetch, but a real structural
validation rather than spot checks. The --diff and prune paths run
through ``cli.main`` end-to-end against throwaway git repos.
"""

import json
import subprocess

import jsonschema
import pytest

from repro.analysis import Baseline, BaselineEntry, analyze, render_sarif
from repro.analysis.cli import changed_files, main
from repro.analysis.report import SARIF_SCHEMA, SARIF_VERSION

BAD_HOT = """\
import numpy as np

def microkernel(c, a, b):
    for i in range(4):
        t = np.zeros(4)
    return c
"""

#: the subset of the SARIF 2.1.0 schema this tool's output exercises;
#: ``required`` lists mirror the spec so a missing mandatory property
#: fails validation, and additionalProperties stays open like the spec
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer",
                                    "minimum": 0,
                                },
                                "level": {
                                    "enum": [
                                        "none", "note", "warning", "error",
                                    ]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {
                                                                "type": "string"
                                                            },
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "invocations": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["executionSuccessful"],
                        },
                    },
                },
            },
        },
    },
}


def analyze_bad(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(BAD_HOT)
    return analyze([path], root=tmp_path)


# --------------------------------------------------------------------- sarif
def test_sarif_validates_against_schema(tmp_path):
    result = analyze_bad(tmp_path)
    document = json.loads(render_sarif(result))
    jsonschema.validate(document, SARIF_SUBSET_SCHEMA)
    assert document["version"] == SARIF_VERSION
    assert document["$schema"] == SARIF_SCHEMA


def test_sarif_results_reference_driver_rules(tmp_path):
    result = analyze_bad(tmp_path)
    document = json.loads(render_sarif(result))
    run = document["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    ids = [r["id"] for r in rules]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    assert "ledger-coverage" in ids and "funnel-completeness" in ids
    assert len(run["results"]) == 1
    entry = run["results"][0]
    assert entry["ruleId"] == "hot-loop-alloc"
    assert ids[entry["ruleIndex"]] == entry["ruleId"]
    region = entry["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 5
    assert "np.zeros" in region["snippet"]["text"]


def test_sarif_parse_errors_become_notifications(tmp_path):
    (tmp_path / "broken.py").write_text("def nope(:\n")
    result = analyze([tmp_path], root=tmp_path)
    document = json.loads(render_sarif(result))
    jsonschema.validate(document, SARIF_SUBSET_SCHEMA)
    invocation = document["runs"][0]["invocations"][0]
    assert invocation["executionSuccessful"] is False
    notes = invocation["toolExecutionNotifications"]
    assert len(notes) == 1 and "broken.py" in notes[0]["message"]["text"]


def test_cli_writes_sarif_file(tmp_path, monkeypatch):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    fixture = tmp_path / "mod.py"
    fixture.write_text(BAD_HOT)
    out = tmp_path / "analysis.sarif"
    monkeypatch.chdir(tmp_path)
    code = main(
        ["--paths", str(fixture), "--sarif", str(out), "--no-baseline"]
    )
    assert code == 1  # the finding fails the run; the log is still written
    document = json.loads(out.read_text())
    jsonschema.validate(document, SARIF_SUBSET_SCHEMA)
    assert len(document["runs"][0]["results"]) == 1


# ------------------------------------------------------------ baseline prune
def test_baseline_prune_drops_stale_and_shrinks_overcounted():
    live = BaselineEntry(
        rule="hot-loop-alloc", file="mod.py", snippet="t = np.zeros(4)",
        count=2, justification="perf fix pending",
    )
    gone = BaselineEntry(
        rule="lock-blocking", file="other.py", snippet="q.get()",
        count=1, justification="was fixed",
    )
    from repro.analysis import Finding

    finding = Finding(
        file="mod.py", line=5, rule="hot-loop-alloc",
        message="m", snippet="t = np.zeros(4)",
    )
    pruned, removed = Baseline([live, gone]).prune([finding])
    assert [e.rule for e in pruned.entries] == ["hot-loop-alloc"]
    assert pruned.entries[0].count == 1  # shrunk from 2 to the live count
    assert {e.rule for e in removed} == {"hot-loop-alloc", "lock-blocking"}
    excess = next(e for e in removed if e.rule == "hot-loop-alloc")
    assert excess.count == 1


def test_cli_baseline_prune_end_to_end(tmp_path, monkeypatch, capsys):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    fixture = tmp_path / "mod.py"
    fixture.write_text(BAD_HOT)
    bpath = tmp_path / "baseline.json"
    Baseline([
        BaselineEntry(
            rule="hot-loop-alloc", file="mod.py",
            snippet="t = np.zeros(4)", justification="perf fix pending",
        ),
        BaselineEntry(
            rule="lock-blocking", file="gone.py", snippet="q.get()",
            justification="was fixed",
        ),
    ]).dump(bpath)
    monkeypatch.chdir(tmp_path)
    args = [
        "baseline", "--prune",
        "--paths", str(fixture), "--baseline", str(bpath),
    ]
    assert main(args) == 0
    kept = Baseline.load(bpath)
    assert [e.rule for e in kept.entries] == ["hot-loop-alloc"]
    assert "pruned" in capsys.readouterr().out
    # second run: nothing left to prune, file untouched
    before = bpath.read_text()
    assert main(args) == 0
    assert "already minimal" in capsys.readouterr().out
    assert bpath.read_text() == before


def test_cli_baseline_subcommand_requires_prune(tmp_path, monkeypatch):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    fixture = tmp_path / "mod.py"
    fixture.write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    assert main(["baseline", "--paths", str(fixture)]) == 2


# -------------------------------------------------------------------- --diff
def git(*args, cwd):
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
        cwd=cwd, check=True, capture_output=True,
    )


@pytest.fixture
def git_repo(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    (tmp_path / "clean.py").write_text("x = 1\n")
    (tmp_path / "hot.py").write_text(BAD_HOT)
    git("init", "-q", cwd=tmp_path)
    git("add", "-A", cwd=tmp_path)
    git("commit", "-q", "-m", "seed", cwd=tmp_path)
    return tmp_path


def test_changed_files_reports_modified_and_untracked(git_repo):
    (git_repo / "hot.py").write_text(BAD_HOT + "\n")
    (git_repo / "new.py").write_text("y = 2\n")
    (git_repo / "notes.txt").write_text("not python\n")
    changed = changed_files(git_repo, "HEAD")
    assert changed == [git_repo / "hot.py", git_repo / "new.py"]


def test_changed_files_none_on_bad_ref(git_repo, tmp_path):
    assert changed_files(git_repo, "no-such-ref") is None


def test_cli_diff_analyzes_only_changed(git_repo, monkeypatch, capsys):
    monkeypatch.chdir(git_repo)
    base = ["--paths", str(git_repo), "--no-baseline"]
    # nothing changed: clean exit, no analysis
    assert main(["--diff", "HEAD", *base]) == 0
    assert "no analyzed files changed" in capsys.readouterr().out
    # touch the hot file: its finding comes back
    (git_repo / "hot.py").write_text(BAD_HOT + "\n")
    assert main(["--diff", "HEAD", *base]) == 1
    out = capsys.readouterr().out
    assert "hot.py" in out and "1 file(s) analyzed" in out


def test_cli_diff_bad_ref_falls_back_to_full_run(
    git_repo, monkeypatch, capsys
):
    monkeypatch.chdir(git_repo)
    code = main(
        ["--diff", "no-such-ref", "--paths", str(git_repo), "--no-baseline"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "falling back to a full run" in captured.err
    assert "2 file(s) analyzed" in captured.out


# -------------------------------------------------- suppression diagnostics
def test_unknown_suppression_suggests_nearest_rule(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("x = 1  # analysis: ignore[lock-dicipline]\n")
    result = analyze([path], root=tmp_path)
    assert [f.rule for f in result.findings] == ["suppression"]
    message = result.findings[0].message
    assert "lock-dicipline" in message
    assert "did you mean 'lock-discipline'?" in message
