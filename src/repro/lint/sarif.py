"""SARIF 2.1.0 output for simlint reports.

SARIF (Static Analysis Results Interchange Format, OASIS standard) is
what code-scanning UIs ingest — GitHub's security tab, VS Code's SARIF
viewer, most CI annotators.  ``python -m repro.lint --format sarif``
emits one run with simlint as the tool driver, every registered rule
described in ``tool.driver.rules``, and one ``result`` per finding with
a physical location (URI + region).  Inline-suppressed findings are
*absent* (the report reflects what fails the run), but their count is
preserved in the run's ``properties`` bag.

:func:`validate_sarif` is a hand-rolled structural validator for the
subset of the SARIF 2.1.0 schema this module emits: the test suite
always runs it, and additionally validates against the full official
JSON schema when the optional ``jsonschema`` package is importable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import LintReport
    from repro.lint.registry import Rule

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "to_sarif", "validate_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: simlint findings are invariant violations, not style nits.
_LEVEL = "error"


def _rule_descriptor(rule: "Rule") -> dict[str, Any]:
    descriptor: dict[str, Any] = {
        "id": rule.code,
        "shortDescription": {"text": rule.summary},
        "defaultConfiguration": {"level": _LEVEL},
    }
    properties: dict[str, Any] = {}
    if rule.scope:
        properties["scope"] = list(rule.scope)
    if rule.requires_reason:
        properties["suppressionRequiresReason"] = True
    if properties:
        descriptor["properties"] = properties
    return descriptor


def _result(finding: Finding) -> dict[str, Any]:
    return {
        "ruleId": finding.rule,
        "level": _LEVEL,
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": max(1, finding.line),
                        "startColumn": max(1, finding.col),
                    },
                }
            }
        ],
    }


def to_sarif(
    report: "LintReport", rules: "Mapping[str, Rule]"
) -> dict[str, Any]:
    """The SARIF 2.1.0 document for one lint run."""
    from repro import __version__ as tool_version

    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "informationUri": (
                            "https://example.invalid/repro/docs/linting.md"
                        ),
                        "version": tool_version,
                        "rules": [
                            _rule_descriptor(rules[code])
                            for code in sorted(rules)
                        ],
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": [_result(f) for f in report.findings],
                "properties": {
                    "filesChecked": report.files_checked,
                    "suppressed": report.suppressed,
                },
            }
        ],
    }


def validate_sarif(doc: Any) -> list[str]:
    """Structural errors in ``doc`` against the SARIF subset we emit.

    Empty list means valid.  Checks the invariants the 2.1.0 schema
    imposes on the fields :func:`to_sarif` produces: required keys,
    value types, the version literal, and per-result location shape.
    """
    errors: list[str] = []

    def check(cond: bool, message: str) -> bool:
        if not cond:
            errors.append(message)
        return cond

    if not check(isinstance(doc, dict), "document must be an object"):
        return errors
    check(doc.get("version") == SARIF_VERSION, "version must be '2.1.0'")
    runs = doc.get("runs")
    if not check(isinstance(runs, list) and runs, "runs must be a non-empty array"):
        return errors
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not check(isinstance(run, dict), f"{where} must be an object"):
            continue
        driver = run.get("tool", {}).get("driver") if isinstance(
            run.get("tool"), dict
        ) else None
        if check(isinstance(driver, dict), f"{where}.tool.driver is required"):
            check(
                isinstance(driver.get("name"), str) and driver["name"],
                f"{where}.tool.driver.name must be a non-empty string",
            )
            for j, rule in enumerate(driver.get("rules", [])):
                rwhere = f"{where}.tool.driver.rules[{j}]"
                if check(isinstance(rule, dict), f"{rwhere} must be an object"):
                    check(
                        isinstance(rule.get("id"), str) and rule["id"],
                        f"{rwhere}.id must be a non-empty string",
                    )
        results = run.get("results")
        if not check(isinstance(results, list), f"{where}.results must be an array"):
            continue
        rule_ids = {
            rule.get("id")
            for rule in (driver or {}).get("rules", [])
            if isinstance(rule, dict)
        }
        for j, result in enumerate(results):
            rwhere = f"{where}.results[{j}]"
            if not check(isinstance(result, dict), f"{rwhere} must be an object"):
                continue
            message = result.get("message")
            check(
                isinstance(message, dict) and isinstance(message.get("text"), str),
                f"{rwhere}.message.text is required",
            )
            if isinstance(result.get("ruleId"), str) and rule_ids:
                check(
                    result["ruleId"] in rule_ids,
                    f"{rwhere}.ruleId {result.get('ruleId')!r} is not a "
                    "declared rule",
                )
            for k, location in enumerate(result.get("locations", [])):
                lwhere = f"{rwhere}.locations[{k}]"
                if not check(
                    isinstance(location, dict), f"{lwhere} must be an object"
                ):
                    continue
                physical = location.get("physicalLocation")
                if not check(
                    isinstance(physical, dict),
                    f"{lwhere}.physicalLocation must be an object",
                ):
                    continue
                artifact = physical.get("artifactLocation")
                check(
                    isinstance(artifact, dict)
                    and isinstance(artifact.get("uri"), str),
                    f"{lwhere}.physicalLocation.artifactLocation.uri is required",
                )
                region = physical.get("region")
                if isinstance(region, dict):
                    for field in ("startLine", "startColumn"):
                        value = region.get(field)
                        if value is not None:
                            check(
                                isinstance(value, int) and value >= 1,
                                f"{lwhere}...region.{field} must be a "
                                "positive integer",
                            )
    return errors
