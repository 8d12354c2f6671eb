"""Tests for the whole-program U- (units) and F- (cache purity) rules.

Fixtures live under ``tests/lint_fixtures/`` and are linted under
*virtual* paths (see ``tests/test_lint.py``): U-rules only fire inside
the unit-annotated packages (net/cc/metrics/telemetry), F-rules only on
cache-relevant entry points in ``repro.experiments`` modules.
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
EXPERIMENTS = "src/repro/experiments/example.py"


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
# F001: file I/O and environment reads on cache-relevant paths
# ---------------------------------------------------------------------------


class TestF001:
    def test_bad_fixture_flags_runner_helper_and_jobs(self):
        report = lint_fixture("f001_bad", EXPERIMENTS, "F001")
        assert all(f.rule == "F001" for f in report.findings)
        assert lines(report) == [9, 14, 19]

    def test_findings_carry_the_call_chain(self):
        report = lint_fixture("f001_bad", EXPERIMENTS, "F001")
        chains = {f.line: f.message for f in report.findings}
        # the helper's open() is anchored at the impure site, with the
        # interprocedural route from the entry point spelled out
        assert "via run -> _load_config" in chains[9]
        assert "via jobs" in chains[19]

    def test_good_fixture_is_clean_including_unreachable_io(self):
        # helper_outside_cache_scope does I/O but nothing cache-relevant
        # reaches it; the analysis is rooted, not module-wide.
        assert lint_fixture("f001_good", EXPERIMENTS, "F001").ok

    def test_bare_jobs_roots_only_in_experiments_modules(self):
        # An ``@scenario`` runner registers itself wherever it lives, so
        # those roots follow the decorator; a *bare* ``jobs()`` function
        # is an entry point only inside repro.experiments modules.  The
        # same text under net/ keeps the runner findings but drops the
        # jobs() one.
        report = lint_fixture("f001_bad", NET, "F001")
        assert lines(report) == [9, 14]

    def test_suppression_requires_a_reason(self):
        src = fixture_text("f001_bad").replace(
            'os.getenv("HOME")',
            'os.getenv("HOME")  # simlint: disable=F001',
        )
        report = lint_sources({EXPERIMENTS: src}, select={"F001"})
        bare = [f for f in report.findings if f.line == 14]
        assert len(bare) == 1
        assert "requires a justification" in bare[0].message


# ---------------------------------------------------------------------------
# F002: module-global mutation on cache-relevant paths
# ---------------------------------------------------------------------------


class TestF002:
    def test_bad_fixture_flags_store_and_mutating_method(self):
        report = lint_fixture("f002_bad", EXPERIMENTS, "F002")
        assert all(f.rule == "F002" for f in report.findings)
        assert lines(report) == [10, 15]
        messages = " ".join(f.message for f in report.findings)
        assert "'_TOTALS'" in messages and "'_CACHE'" in messages

    def test_global_reads_and_local_mutation_pass(self):
        assert lint_fixture("f002_good", EXPERIMENTS, "F002").ok


# ---------------------------------------------------------------------------
# The real repository must be clean under the whole-program rule families
# ---------------------------------------------------------------------------


class TestRepoIsUnitClean:
    def test_src_has_no_unit_or_purity_findings(self):
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        from repro.lint import lint_paths

        report = lint_paths(
            [str(repo_root / "src")],
            select={"U001", "U002", "U003", "U004", "F001", "F002"},
        )
        assert report.ok, "\n".join(f.format() for f in report.findings)
