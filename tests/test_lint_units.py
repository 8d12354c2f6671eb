"""Tests for the whole-program U- (units) rules and their walker.

Fixtures live under ``tests/lint_fixtures/`` and are linted under
*virtual* paths (see ``tests/test_lint.py``): U-rules only fire inside
the unit-annotated packages (net/cc/metrics/telemetry).
"""

import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lint import lint_sources
from repro.lint.analysis import contracts
from repro.lint.analysis.contracts import analyze_contracts
from repro.lint.analysis.symbols import build_program
from repro.lint.analysis.walker import Interpreter, Value
from repro.lint.engine import SourceFile
from repro.units import (
    BIT,
    BIT_PER_SECOND,
    BITS_PER_BYTE,
    BYTE,
    PACKET,
    RATIO,
    SECOND,
    Unit,
)

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

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
        # A @staticmethod has no self/cls to skip: size_bytes lands on
        # ``d_s``.  A classmethod still has its ``cls`` skipped, so the
        # same arguments line up too.
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
        report = lint_sources({NET: src}, select={"U003"})
        assert [(f.rule, f.line, f.col) for f in report.findings] == [
            ("U003", 9, 14),
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
# The flow-sensitive walk the four rules share
# ---------------------------------------------------------------------------


def _kinds(source, path="src/repro/cc/example.py"):
    src = SourceFile.from_text(source, path)
    events = analyze_contracts(
        build_program([src]), [src], ("repro/cc", "repro/net", "repro/sim")
    )
    return [(e.kind, e.node.lineno) for e in events]


#: The walker's abstract values: a known or unknown (None) unit and
#: receiver class.  Classes are compared by identity, so any two
#: distinct objects stand in for two ``ClassInfo``s.
VALUES = st.builds(
    Value,
    st.sampled_from([None, SECOND, BYTE, BIT_PER_SECOND, RATIO]),
    st.sampled_from([None, "class A", "class B"]),
)


def below(a, b):
    """The information order: ``b`` says what ``a`` says, or nothing."""
    return b.unit in (None, a.unit) and b.cls in (None, a.cls)


class TestUnitLattice:
    """The flat-lattice laws the loop fixpoint leans on: a join only
    ever forgets, so a loop head settles without widening."""

    @given(VALUES, VALUES)
    def test_join_is_an_upper_bound(self, a, b):
        assert below(a, a.join(b))
        assert below(b, a.join(b))

    @given(VALUES, VALUES)
    def test_join_commutes(self, a, b):
        assert a.join(b) == b.join(a)

    @given(VALUES)
    def test_join_is_idempotent(self, a):
        assert a.join(a) == a


class TestWalker:
    def test_alias_resolution_requires_contracts_import(self):
        body = (
            "def f(rtt: PositiveSeconds, size: PositiveBytes) -> float:\n"
            "    return rtt + size\n"
        )
        imported = "from repro.contracts import PositiveBytes, PositiveSeconds\n"
        assert _kinds(imported + body) == [("arith", 3)]
        # Homonymous user-defined aliases must stay uninterpreted.
        homonyms = "PositiveSeconds = float\nPositiveBytes = float\n"
        assert _kinds(homonyms + body) == []

    def test_unit_survives_a_join_only_when_both_arms_agree(self):
        header = (
            "from repro.units import Bytes, Seconds\n"
            "def f(c, a_s: Seconds, b_s: Seconds, n_bytes: Bytes) -> Bytes:\n"
            "    if c:\n"
            "        x = a_s\n"
            "    else:\n"
        )
        # Both arms bind seconds: x is seconds after the join, and
        # returning it as Bytes is a U001.
        assert _kinds(header + "        x = b_s\n    return x\n") == [("arith", 7)]
        # The arms disagree: x has no unit after the join, so nothing
        # is claimed about the return (the old walker said "last wins").
        assert _kinds(header + "        x = n_bytes\n    return x\n") == []

    def test_loop_rebinding_across_units_converges(self, monkeypatch):
        body_passes = []
        original = Interpreter._exec_stmt

        def counting(self, stmt, env):
            if stmt.lineno == 6:  # first statement of the loop body
                body_passes.append(1)
            return original(self, stmt, env)

        monkeypatch.setattr(Interpreter, "_exec_stmt", counting)
        events = _kinds(
            "from repro.units import Bytes, Seconds\n"
            "def f(n, a_s: Seconds, b_bytes: Bytes) -> Seconds:\n"
            "    x = a_s\n"
            "    total = 0.0\n"
            "    while total < n:\n"
            "        total = total + 1.0\n"
            "        x = b_bytes\n"
            "    return x\n"
        )
        # x is seconds on entry and bytes after an iteration: unknown at
        # the loop head, hence nothing to report at the return.
        assert events == []
        # The lattice is flat, so the head can only lose a fact: one pass
        # drops x's unit, the next confirms the head is stable.
        assert len(body_passes) <= 3

    def test_code_after_an_unconditional_return_is_not_examined(self):
        assert _kinds(
            "from repro.units import Bytes, Seconds\n"
            "def f(a_s: Seconds, b_bytes: Bytes) -> float:\n"
            "    return 1.0\n"
            "    x = a_s + b_bytes\n"
        ) == []

    def test_scope_excludes_unrelated_packages(self):
        source = (
            "from repro.units import Bytes, Seconds\n"
            "def f(a_s: Seconds, b_bytes: Bytes) -> float:\n"
            "    return a_s + b_bytes\n"
        )
        assert _kinds(source) == [("arith", 3)]
        assert _kinds(source, path="src/repro/plotting/example.py") == []

    def test_the_four_rules_share_one_analysis_build(self, monkeypatch):
        source = (
            "from repro.units import Bytes, Seconds\n"
            "def g(d_s: Seconds) -> None: ...\n"
            "def f(rtt_s: Bytes, n_bytes: Bytes, rate_bps: float) -> float:\n"
            "    g(n_bytes)\n"
            "    return n_bytes / rate_bps + rtt_s\n"
        )
        builds = []
        original = contracts.analyze_contracts

        def counting(*args):
            builds.append(1)
            return original(*args)

        monkeypatch.setattr(contracts, "analyze_contracts", counting)
        report = lint_sources(
            {NET: source}, select={"U001", "U002", "U003", "U004"}
        )
        assert sorted((f.rule, f.line) for f in report.findings) == [
            ("U002", 5),
            ("U003", 4),
            ("U004", 3),
        ]
        assert len(builds) == 1


# ---------------------------------------------------------------------------
# The real repository: clean as it stands, and not by being blind
# ---------------------------------------------------------------------------

TFRC = "src/repro/cc/tfrc.py"


class TestRepoIsUnitClean:
    def test_src_has_no_unit_findings(self):
        from repro.lint import lint_paths

        report = lint_paths(
            [str(REPO_ROOT / "src")],
            select={"U001", "U002", "U003", "U004"},
        )
        assert report.ok, "\n".join(f.format() for f in report.findings)

    @pytest.mark.parametrize(
        "original, mutated, code",
        [
            # byte/s assigned to the bit/s attribute
            (
                "self.rate_bps = packet_size * 8.0 / initial_rtt",
                "self.rate_bps = packet_size / initial_rtt",
                "U001",
            ),
            # bytes over bit/s scheduled as a send gap
            (
                "schedule(self.packet_size * 8.0 / self.rate_bps)",
                "schedule(self.packet_size / self.rate_bps)",
                "U002",
            ),
            # byte/s returned from a function declared to return bit/s
            (
                "return pps * self.packet_size * 8.0",
                "return pps * self.packet_size",
                "U001",
            ),
        ],
    )
    def test_a_dropped_bit_byte_conversion_in_tfrc_is_caught(
        self, original, mutated, code
    ):
        # The whole package, so attribute and callee units resolve as
        # they do in a real run.
        sources = {
            path.relative_to(REPO_ROOT).as_posix(): path.read_text(encoding="utf-8")
            for path in sorted((REPO_ROOT / TFRC).parent.glob("*.py"))
        }
        text = sources[TFRC]
        assert text.count(original) == 1
        line = text[: text.index(original)].count("\n") + 1
        sources[TFRC] = text.replace(original, mutated)
        report = lint_sources(sources, select={"U001", "U002", "U003", "U004"})
        assert [(f.rule, f.path, f.line) for f in report.findings] == [
            (code, TFRC, line)
        ]
