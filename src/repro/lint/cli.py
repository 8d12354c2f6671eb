"""``python -m repro.lint`` — the simlint command line.

Usage::

    python -m repro.lint src tests            # lint, human output
    python -m repro.lint src --json           # machine-readable report
    python -m repro.lint src --select D001,D002
    python -m repro.lint src --ignore E001
    python -m repro.lint --list-rules
    python -m repro.lint src --stats          # per-rule wall time

Exit status: 0 clean, 1 findings, 2 usage error.  Inline suppressions
use ``# simlint: disable=CODE`` (``CODE(reason)`` where a justification
is required — see ``docs/linting.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import repro.lint.rules  # noqa: F401  (register every rule)
from repro.lint.engine import lint_paths
from repro.lint.registry import RULES, resolve_codes

__all__ = ["main"]


def _format_stats(timings: "dict[str, float]") -> str:
    lines = ["per-rule wall time:"]
    total = sum(timings.values())
    for code, seconds in sorted(timings.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {code}  {seconds * 1000.0:8.1f} ms")
    lines.append(f"  all  {total * 1000.0:8.1f} ms")
    return "\n".join(lines)


def _list_rules() -> str:
    lines = ["simlint rules:"]
    for code in sorted(RULES):
        r = RULES[code]
        reason = " [suppression requires a reason]" if r.requires_reason else ""
        lines.append(f"  {code}  {r.summary}{reason}")
        if r.scope:
            lines.append(f"        scope: {', '.join(r.scope)}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Simulator-aware static analysis: determinism, "
        "picklability, hash stability, registry consistency, blind "
        "excepts and telemetry storage.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable report instead of text",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every registered rule and exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="report per-rule wall time after linting (text output only)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        select = resolve_codes(args.select)
        ignore = resolve_codes(args.ignore)
    except ValueError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2

    try:
        report = lint_paths(args.paths, select=select, ignore=ignore)
    except FileNotFoundError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0 if report.ok else 1

    for finding in report.findings:
        print(finding.format())
    summary = (
        f"{len(report.findings)} finding(s)"
        if report.findings
        else "clean"
    )
    suppressed = (
        f", {report.suppressed} suppressed" if report.suppressed else ""
    )
    print(f"simlint: {summary} in {report.files_checked} file(s){suppressed}")
    if args.stats:
        print(_format_stats(report.timings))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
