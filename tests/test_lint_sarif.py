"""Tests for SARIF export."""

import json
import pathlib

import pytest

from repro.lint import RULES, lint_sources, main, to_sarif, validate_sarif
from repro.lint.sarif import SARIF_SCHEMA_URI, SARIF_VERSION

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"
NET = "src/repro/net/example.py"


def fixture_text(name):
    return (FIXTURES / f"{name}.py").read_text(encoding="utf-8")


def u001_report():
    return lint_sources({NET: fixture_text("u001_bad")}, select={"U001"})


# ---------------------------------------------------------------------------
# SARIF shape
# ---------------------------------------------------------------------------


class TestSarif:
    def test_document_passes_structural_validation(self):
        doc = to_sarif(u001_report(), RULES)
        assert validate_sarif(doc) == []

    def test_header_and_tool(self):
        doc = to_sarif(u001_report(), RULES)
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"] == SARIF_SCHEMA_URI
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"
        declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert declared == set(RULES)

    def test_results_carry_locations(self):
        doc = to_sarif(u001_report(), RULES)
        results = doc["runs"][0]["results"]
        assert len(results) == 4
        for result in results:
            assert result["ruleId"] == "U001"
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"] == NET
            assert location["region"]["startLine"] >= 1

    def test_clean_report_yields_empty_results(self):
        report = lint_sources({NET: "x = 1\n"})
        doc = to_sarif(report, RULES)
        assert validate_sarif(doc) == []
        assert doc["runs"][0]["results"] == []

    def test_validator_rejects_malformed_documents(self):
        assert validate_sarif({"version": "2.1.0"})  # no runs
        doc = to_sarif(u001_report(), RULES)
        doc["runs"][0]["results"][0]["ruleId"] = "Z999"
        assert any("Z999" in e for e in validate_sarif(doc))

    def test_against_vendored_schema_subset(self):
        # Full jsonschema validation against the vendored subset of the
        # OASIS SARIF 2.1.0 schema (the emitted properties, faithfully
        # transcribed).  Skips when jsonschema is not installed — the
        # hand-rolled validate_sarif() above always runs.
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (FIXTURES / "sarif-schema-2.1.0-subset.json").read_text(
                encoding="utf-8"
            )
        )
        doc = to_sarif(u001_report(), RULES)
        jsonschema.validate(doc, schema)

    def test_cli_format_sarif(self, tmp_path, capsys):
        target = tmp_path / "repro" / "net"
        target.mkdir(parents=True)
        (target / "example.py").write_text(fixture_text("u001_bad"))
        rc = main([str(tmp_path), "--format", "sarif", "--select", "U001"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert validate_sarif(doc) == []
        assert len(doc["runs"][0]["results"]) == 4

