"""Tests for the whole-program U- (units) rules.

Fixtures live under ``tests/lint_fixtures/`` and are linted under
*virtual* paths (see ``tests/test_lint.py``): U-rules only fire inside
the unit-annotated packages (net/cc/metrics/telemetry).
"""

import pathlib

from repro.lint import lint_sources
from repro.units import (
    BIT,
    BITS_PER_BYTE,
    BYTE,
    PACKET,
    RATIO,
    SECOND,
    Unit,
)

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"

NET = "src/repro/net/example.py"
SIM = "src/repro/sim/example.py"


def fixture_text(name):
    return (FIXTURES / f"{name}.py").read_text(encoding="utf-8")


def lint_fixture(name, virtual_path, select):
    return lint_sources(
        {virtual_path: fixture_text(name)}, select=set(select.split(","))
    )


def lines(report, code=None):
    return sorted(
        f.line for f in report.findings if code is None or f.rule == code
    )


# ---------------------------------------------------------------------------
# The Unit algebra itself
# ---------------------------------------------------------------------------


class TestUnitAlgebra:
    def test_multiplication_adds_dimension_vectors(self):
        bdp = (BIT / SECOND) * SECOND
        assert bdp == BIT

    def test_division_cancels(self):
        assert (BYTE / SECOND) * (SECOND / BYTE) == RATIO

    def test_bits_per_byte_converts(self):
        assert BYTE * BITS_PER_BYTE == BIT
        assert BIT / BITS_PER_BYTE == BYTE

    def test_packet_erasure_compatibility(self):
        # Packet counts and dimensionless ratios interconvert freely:
        # a BDP expressed in packets is comparable with a ratio.
        assert PACKET.compatible(RATIO)
        assert not PACKET.compatible(SECOND)

    def test_mixed_bits_and_bytes_detected(self):
        assert (BIT * BYTE).mixes_bits_and_bytes
        assert not (BIT / SECOND).mixes_bits_and_bytes

    def test_str_round_trip_is_stable(self):
        assert str(BIT / SECOND) == "bit/s"
        assert str(Unit.of()) == "ratio"


# ---------------------------------------------------------------------------
# U001: unit-mismatched arithmetic / comparison / assignment / return
# ---------------------------------------------------------------------------


class TestU001:
    def test_bad_fixture_flags_each_mismatch_kind(self):
        report = lint_fixture("u001_bad", NET, "U001")
        assert all(f.rule == "U001" for f in report.findings)
        # add, compare, suffixed assignment, return
        assert lines(report) == [7, 11, 15, 20]
        messages = " ".join(f.message for f in report.findings)
        assert "adds incompatible units" in messages
        assert "compares incompatible units" in messages
        assert "declared to return" in messages

    def test_good_fixture_is_clean(self):
        assert lint_fixture("u001_good", NET, "U001").ok

    def test_rule_is_scoped_to_unit_packages(self):
        # sim/ has no unit annotations of its own; the same text linted
        # there is out of scope.
        assert lint_fixture("u001_bad", SIM, "U001").ok


# ---------------------------------------------------------------------------
# U002: bits and bytes mixed without the factor-8 conversion
# ---------------------------------------------------------------------------


class TestU002:
    def test_bad_fixture_flags_both_directions(self):
        report = lint_fixture("u002_bad", NET, "U002")
        assert all(f.rule == "U002" for f in report.findings)
        assert lines(report) == [7, 11]
        assert all("factor-8" in f.message for f in report.findings)

    def test_literal_eight_conversion_is_sanctioned(self):
        # bytes*8, bits/8 and 8/bps are the conversion idiom, not a mix.
        assert lint_fixture("u002_good", NET, "U001,U002").ok


# ---------------------------------------------------------------------------
# U003: call arguments disagreeing with the callee's declared units
# ---------------------------------------------------------------------------


class TestU003:
    def test_bad_fixture_flags_positional_and_keyword(self):
        report = lint_fixture("u003_bad", NET, "U003")
        assert all(f.rule == "U003" for f in report.findings)
        assert lines(report) == [11, 15]
        assert all("'delay_s'" in f.message for f in report.findings)

    def test_good_fixture_is_clean(self):
        assert lint_fixture("u003_good", NET, "U003").ok

    def test_staticmethod_through_its_class_binds_every_parameter(self):
        # A @staticmethod has no self/cls to skip: 1.5 lands on ``p``
        # (I002) and size_bytes on ``d_s`` (U003).  A classmethod still
        # has its ``cls`` skipped, so the same arguments line up too.
        src = (
            "from repro.contracts import Probability\n"
            "from repro.units import Bytes, Seconds\n"
            "class K:\n"
            "    @staticmethod\n"
            "    def s(p: Probability, d_s: Seconds) -> None: ...\n"
            "    @classmethod\n"
            "    def c(cls, p: Probability, d_s: Seconds) -> None: ...\n"
            "def caller(size_bytes: Bytes) -> None:\n"
            "    K.s(1.5, size_bytes)\n"
            "    K.c(1.5, size_bytes)\n"
        )
        report = lint_sources({NET: src}, select={"U003", "I002"})
        assert [(f.rule, f.line, f.col) for f in report.findings] == [
            ("I002", 9, 9),
            ("U003", 9, 14),
            ("I002", 10, 9),
            ("U003", 10, 14),
        ]


# ---------------------------------------------------------------------------
# U004: name suffix contradicting the declared annotation
# ---------------------------------------------------------------------------


class TestU004:
    def test_bad_fixture_flags_param_and_variable(self):
        report = lint_fixture("u004_bad", NET, "U004")
        assert all(f.rule == "U004" for f in report.findings)
        assert lines(report) == [6, 12]
        assert all("rename or fix" in f.message for f in report.findings)

    def test_good_fixture_is_clean(self):
        assert lint_fixture("u004_good", NET, "U004").ok


# ---------------------------------------------------------------------------
# The real repository must be clean under the whole-program rule families
# ---------------------------------------------------------------------------


class TestRepoIsUnitClean:
    def test_src_has_no_unit_findings(self):
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        from repro.lint import lint_paths

        report = lint_paths(
            [str(repo_root / "src")],
            select={"U001", "U002", "U003", "U004"},
        )
        assert report.ok, "\n".join(f.format() for f in report.findings)
