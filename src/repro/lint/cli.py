"""``python -m repro.lint`` — the simlint command line.

Usage::

    python -m repro.lint src tests            # lint, human output
    python -m repro.lint src --format json    # machine-readable report
    python -m repro.lint src --format sarif   # SARIF 2.1.0 (CI upload)
    python -m repro.lint src --select U001,U002
    python -m repro.lint src --ignore E001
    python -m repro.lint --list-rules
    python -m repro.lint --explain I001       # rationale + examples
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
from repro.lint.sarif import to_sarif

__all__ = ["main"]


def _explain_rule(code: str) -> "str | None":
    """The ``--explain`` text for one rule code; None when unknown."""
    r = RULES.get(code.upper())
    if r is None:
        return None
    lines = [f"{r.code}: {r.summary}", ""]
    rationale = r.rationale or (type(r).__doc__ or "").strip()
    if rationale:
        lines.append(rationale)
        lines.append("")
    if r.scope:
        lines.append(f"Scope: {', '.join(r.scope)}")
    if r.requires_reason:
        lines.append(
            "Suppressing this rule requires a justification: "
            f"# simlint: disable={r.code}(reason)"
        )
    if r.scope or r.requires_reason:
        lines.append("")
    if r.bad_example:
        lines.append("Bad:")
        lines.extend("    " + line for line in r.bad_example.rstrip().splitlines())
        lines.append("")
    if r.good_example:
        lines.append("Good:")
        lines.extend("    " + line for line in r.good_example.rstrip().splitlines())
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _format_stats(timings: "dict[str, float]") -> str:
    lines = ["per-rule wall time:"]
    total = sum(timings.values())
    for code, seconds in sorted(timings.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {code}  {seconds * 1000.0:8.1f} ms")
    lines.append(f"  all  {total * 1000.0:8.1f} ms")
    lines.append(
        "  (a project rule that triggers a shared analysis build pays "
        "for it; later rules reuse the cache)"
    )
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
        "picklability, hash stability, registry consistency, units of "
        "measure and cache purity.",
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
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--json",
        action="store_const",
        const="json",
        dest="format",
        help="alias for --format json",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every registered rule and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        help="print one rule's rationale and a minimal good/bad example, "
        "then exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="report per-rule wall time after linting (text format only)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    if args.explain is not None:
        text = _explain_rule(args.explain)
        if text is None:
            from repro.lint.registry import all_codes

            print(
                f"repro.lint: unknown rule code {args.explain!r}; "
                f"available: {', '.join(all_codes())}",
                file=sys.stderr,
            )
            return 2
        print(text, end="")
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

    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    if args.format == "sarif":
        print(json.dumps(to_sarif(report, RULES), indent=2, sort_keys=True))
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
