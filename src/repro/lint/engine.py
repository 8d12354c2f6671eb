"""The simlint engine: parse, dispatch rules, apply suppressions.

The engine owns everything rule-agnostic: walking paths to ``.py``
files, parsing each into a :class:`SourceFile` (AST + raw text +
suppression index), running per-file and project rules, and filtering
findings through the inline-suppression index.  Rules never see the
suppression machinery — they report everything, and the engine decides
what the developer has justified away.

Two entry points matter to callers:

* :func:`lint_paths` — lint files/directories on disk (the CLI);
* :func:`lint_sources` — lint in-memory ``{virtual_path: source}``
  mappings, which is how the fixture tests exercise path-scoped rules
  without planting trip-wire files inside the real package tree.
"""

from __future__ import annotations

import ast
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.lint.findings import Finding
from repro.lint.registry import RULES, Rule
from repro.lint.suppress import SuppressionIndex, parse_suppressions

__all__ = [
    "LintReport",
    "SourceFile",
    "lint_paths",
    "lint_sources",
    "walk_paths",
]

#: Directory names never descended into.  ``lint_fixtures`` holds the
#: deliberately-broken rule fixtures used by the test suite; they are
#: data, not code, and must not fail a whole-repo run.
SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".mypy_cache",
    ".ruff_cache",
    ".pytest_cache",
    ".venv",
    "venv",
    "node_modules",
    "lint_fixtures",
}


@dataclass
class SourceFile:
    """One parsed module: path, text, AST and its suppression index."""

    path: str
    text: str
    tree: Optional[ast.AST]
    suppressions: SuppressionIndex
    parse_error: Optional[str] = None

    @classmethod
    def from_text(cls, text: str, path: str) -> "SourceFile":
        tree: Optional[ast.AST] = None
        error: Optional[str] = None
        try:
            tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            error = f"{exc.msg} (line {exc.lineno})"
        return cls(
            path=path,
            text=text,
            tree=tree,
            suppressions=parse_suppressions(text),
            parse_error=error,
        )

    @classmethod
    def from_disk(cls, path: "str | os.PathLike[str]") -> "SourceFile":
        p = pathlib.Path(path)
        return cls.from_text(p.read_text(encoding="utf-8"), p.as_posix())

    @property
    def module_name(self) -> str:
        """The bare module name (``red`` for ``src/repro/net/red.py``)."""
        return pathlib.PurePosixPath(self.path).stem


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Wall time spent per rule code, in seconds (``--stats``).
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        by_code: dict[str, int] = {}
        for finding in self.findings:
            by_code[finding.rule] = by_code.get(finding.rule, 0) + 1
        return dict(sorted(by_code.items()))

    def as_dict(self) -> dict:
        from repro.lint.findings import JSON_SCHEMA_VERSION

        return {
            "version": JSON_SCHEMA_VERSION,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "counts": self.counts(),
            "findings": [f.as_dict() for f in self.findings],
        }


def walk_paths(paths: Sequence["str | os.PathLike[str]"]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[str] = set()
    for raw in paths:
        p = pathlib.Path(raw)
        if p.is_file():
            if p.suffix == ".py":
                out.add(p.as_posix())
            continue
        if not p.is_dir():
            raise FileNotFoundError(f"no such file or directory: {p}")
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames[:] = sorted(
                d for d in dirnames if d not in SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.add((pathlib.Path(dirpath) / name).as_posix())
    return sorted(out)


def _active_rules(
    select: "set[str] | None", ignore: "set[str] | None"
) -> list[Rule]:
    rules = [
        r
        for code, r in RULES.items()
        if (select is None or code in select)
        and (ignore is None or code not in ignore)
    ]
    return rules


def _admit(
    finding: Finding,
    rule: Rule,
    by_path: Mapping[str, SourceFile],
    report: LintReport,
) -> Optional[Finding]:
    """Apply the suppression index; return the finding to keep, if any."""
    src = by_path.get(finding.path)
    if src is None:
        return finding
    supp = src.suppressions.lookup(finding.rule, finding.line)
    if supp is None:
        return finding
    if rule.requires_reason and not supp.has_reason:
        return Finding(
            finding.rule,
            finding.path,
            finding.line,
            finding.col,
            finding.message
            + f" [suppressing {finding.rule} requires a justification: "
            f"# simlint: disable={finding.rule}(reason)]",
        )
    report.suppressed += 1
    return None


def lint_files(
    files: Sequence[SourceFile],
    select: "set[str] | None" = None,
    ignore: "set[str] | None" = None,
) -> LintReport:
    """Run the active rules over parsed files and filter suppressions."""
    report = LintReport(files_checked=len(files))
    by_path = {src.path: src for src in files}
    rules = _active_rules(select, ignore)

    raw: list[tuple[Rule, Finding]] = []
    timings = report.timings
    for src in files:
        if src.parse_error is not None:
            report.findings.append(
                Finding("X000", src.path, 1, 1, f"syntax error: {src.parse_error}")
            )
            continue
        for r in rules:
            if r.project or not r.applies(src.path):
                continue
            started = time.perf_counter()
            for finding in r.check_file(src):
                raw.append((r, finding))
            timings[r.code] = timings.get(r.code, 0.0) + (
                time.perf_counter() - started
            )
    parseable = [src for src in files if src.parse_error is None]
    for r in rules:
        if not r.project:
            continue
        started = time.perf_counter()
        for finding in r.check_project(parseable):
            raw.append((r, finding))
        timings[r.code] = timings.get(r.code, 0.0) + (
            time.perf_counter() - started
        )

    for r, finding in raw:
        kept = _admit(finding, r, by_path, report)
        if kept is not None:
            report.findings.append(kept)
    report.findings.sort(key=Finding.sort_key)
    return report


def lint_sources(
    sources: Mapping[str, str],
    select: "set[str] | None" = None,
    ignore: "set[str] | None" = None,
) -> LintReport:
    """Lint in-memory ``{virtual_path: source_text}`` modules.

    The virtual path decides which rules apply — a fixture passed as
    ``repro/net/example.py`` is linted exactly as if it lived in the
    real ``repro.net`` package.
    """
    files = [SourceFile.from_text(text, path) for path, text in sources.items()]
    return lint_files(files, select=select, ignore=ignore)


def lint_paths(
    paths: Sequence["str | os.PathLike[str]"],
    select: "set[str] | None" = None,
    ignore: "set[str] | None" = None,
) -> LintReport:
    """Lint files and directory trees on disk."""
    files = [SourceFile.from_disk(p) for p in walk_paths(paths)]
    return lint_files(files, select=select, ignore=ignore)
