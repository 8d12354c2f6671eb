"""Tests for the abstract interpreter and the I-rules.

Three layers:

* property tests (hypothesis) for the lattice laws — join/meet bounds
  and monotonicity on intervals, the join laws again on the
  interval × unit product values, widening termination, and soundness
  of the arithmetic transfer functions against concrete float sampling;
* targeted refinement scenarios proving the analysis understands the
  repo's guard idioms (``if not 0 < p <= 1: raise``, ``max(x, eps)``)
  and how units ride the same flow-sensitive walk;
* fixture tests pinning each I-rule's seeded finding to an exact line.
"""

import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import lint_sources
from repro.lint.analysis import contracts
from repro.lint.analysis.contracts import ALIASES, analyze_contracts, interval_of
from repro.lint.analysis.intervals import (
    EMPTY,
    MAX_LOOP_PASSES,
    TOP,
    Interpreter,
    Interval,
    Value,
)
from repro.units import BIT_PER_SECOND, BYTE, RATIO, SECOND

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"

#: Virtual path inside the I-rule scope (see INTERVAL_SCOPE).
CC = "src/repro/cc/example.py"

I_RULES = {"I001", "I002", "I003", "I004"}


def fixture_text(name):
    return (FIXTURES / f"{name}.py").read_text(encoding="utf-8")


def lint_fixture(name, select=I_RULES, virtual_path=CC):
    return lint_sources({virtual_path: fixture_text(name)}, select=set(select))


def findings(report, code):
    return [(f.line, f.col) for f in report.findings if f.rule == code]


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

_ENDPOINTS = [-math.inf, -5.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5, 7.0, math.inf]


@st.composite
def intervals(draw):
    lo = draw(st.sampled_from(_ENDPOINTS))
    hi = draw(st.sampled_from(_ENDPOINTS))
    lo_open = draw(st.booleans())
    hi_open = draw(st.booleans())
    return Interval.make(lo, hi, lo_open, hi_open)


@st.composite
def nonempty_intervals(draw):
    iv = draw(intervals())
    if iv.is_empty:
        return TOP
    return iv


@st.composite
def values(draw):
    """Product values: an interval with a known or unknown (None) unit."""
    unit = draw(st.sampled_from([None, SECOND, BYTE, BIT_PER_SECOND, RATIO]))
    return Value(draw(intervals()), unit)


def below(a, b):
    """The product order: ranges nest, and ``b`` has ``a``'s unit or none."""
    return a.interval.subset_of(b.interval) and b.unit in (None, a.unit)


def sample_points(iv):
    """A handful of concrete floats guaranteed to lie inside ``iv``."""
    if iv.is_empty:
        return []
    lo = iv.lo if math.isfinite(iv.lo) else -1e6
    hi = iv.hi if math.isfinite(iv.hi) else 1e6
    if lo > hi:  # the interval lives beyond the clip range
        return []
    candidates = {lo, hi, (lo + hi) / 2.0, 0.0, lo + (hi - lo) / 4.0}
    return [x for x in candidates if iv.contains(x)]


# ---------------------------------------------------------------------------
# Lattice laws
# ---------------------------------------------------------------------------


class TestLatticeLaws:
    @given(intervals(), intervals(), values(), values())
    def test_join_is_an_upper_bound(self, a, b, va, vb):
        j = a.join(b)
        assert a.subset_of(j)
        assert b.subset_of(j)
        vj = va.join(vb)
        assert below(va, vj)
        assert below(vb, vj)

    @given(intervals(), intervals())
    def test_meet_is_a_lower_bound(self, a, b):
        m = a.meet(b)
        assert m.subset_of(a)
        assert m.subset_of(b)

    @given(intervals(), intervals(), values(), values())
    def test_join_commutes(self, a, b, va, vb):
        assert a.join(b) == b.join(a)
        assert va.join(vb) == vb.join(va)

    @given(intervals(), intervals())
    def test_meet_commutes(self, a, b):
        assert a.meet(b) == b.meet(a)

    @given(intervals(), values())
    def test_join_meet_idempotent(self, a, va):
        assert a.join(a) == a
        assert a.meet(a) == a
        assert va.join(va) == va

    @given(intervals(), intervals(), intervals())
    def test_join_is_monotone(self, a, b, c):
        # a <= b implies a v c <= b v c.
        if a.subset_of(b):
            assert a.join(c).subset_of(b.join(c))

    @given(intervals(), intervals(), intervals())
    def test_meet_is_monotone(self, a, b, c):
        if a.subset_of(b):
            assert a.meet(c).subset_of(b.meet(c))

    @given(intervals())
    def test_top_and_empty_are_units(self, a):
        assert a.join(EMPTY) == a
        assert a.meet(TOP) == a
        assert a.subset_of(TOP)
        assert EMPTY.subset_of(a)

    @given(intervals(), intervals(), values(), values())
    def test_widen_covers_join(self, a, b, va, vb):
        # Widening must over-approximate the join (soundness of the
        # fixpoint acceleration).
        assert a.join(b).subset_of(a.widen(b))
        assert below(va.join(vb), va.widen(vb))

    @given(intervals(), st.lists(intervals(), min_size=1, max_size=24))
    def test_widening_terminates(self, start, updates):
        # Any chain of widen() applications reaches a fixpoint quickly:
        # endpoints only ever move to thresholds or infinity.
        current = start
        changes = 0
        for nxt in updates * 3:
            widened = current.widen(nxt)
            if widened != current:
                changes += 1
            current = widened
        # 2 endpoints x (|thresholds| + 1) moves is a generous bound.
        assert changes <= 8
        assert changes < MAX_LOOP_PASSES


# ---------------------------------------------------------------------------
# Transfer soundness vs concrete sampling
# ---------------------------------------------------------------------------


class TestTransferSoundness:
    @given(nonempty_intervals(), nonempty_intervals())
    @settings(max_examples=200)
    def test_add_sub_mul_sound(self, a, b):
        added, subbed, mulled = a.add(b), a.sub(b), a.mul(b)
        for x in sample_points(a):
            for y in sample_points(b):
                assert added.contains(x + y), (a, b, x, y)
                assert subbed.contains(x - y), (a, b, x, y)
                assert mulled.contains(x * y), (a, b, x, y)

    @given(nonempty_intervals(), nonempty_intervals())
    @settings(max_examples=200)
    def test_div_sound(self, a, b):
        quotient = a.div(b)
        for x in sample_points(a):
            for y in sample_points(b):
                if y == 0:
                    continue
                assert quotient.contains(x / y), (a, b, x, y)

    @given(nonempty_intervals())
    def test_neg_abs_sound(self, a):
        negated, absolute = a.neg(), a.absolute()
        for x in sample_points(a):
            assert negated.contains(-x)
            assert absolute.contains(abs(x))

    @given(nonempty_intervals())
    def test_outward_int_sound(self, a):
        out = a.outward_int()
        for x in sample_points(a):
            assert out.contains(float(int(x)))
            assert out.contains(float(round(x)))
            assert out.contains(float(math.floor(x)))
            assert out.contains(float(math.ceil(x)))

    @given(nonempty_intervals())
    def test_sqrt_sound(self, a):
        domain = Interval.make(0.0, math.inf, False, True)
        image = a.monotone(math.sqrt, domain)
        for x in sample_points(a):
            if x >= 0:
                assert image.contains(math.sqrt(x)), (a, x)

    @given(nonempty_intervals())
    def test_log_sound(self, a):
        domain = Interval.make(0.0, math.inf, True, True)
        image = a.monotone(
            lambda x: math.log(x) if x > 0 else -math.inf, domain
        )
        for x in sample_points(a):
            if x > 0:
                assert image.contains(math.log(x)), (a, x)


# ---------------------------------------------------------------------------
# Refinement scenarios: the repo's guard idioms, end to end
# ---------------------------------------------------------------------------


def _events(source, path=CC):
    from repro.lint.analysis.symbols import build_program
    from repro.lint.engine import SourceFile

    src = SourceFile.from_text(source, path)
    program = build_program([src])
    return analyze_contracts(
        program, [src], ("repro/cc", "repro/net", "repro/sim")
    )


def _kinds(source):
    return [(e.kind, e.node.lineno) for e in _events(source)]


class TestRefinement:
    def test_raise_guard_proves_division_safe(self):
        events = _events(
            "from repro.contracts import Probability\n"
            "def f(p: Probability) -> float:\n"
            "    if not 0 < p <= 1:\n"
            "        raise ValueError\n"
            "    return 1.5 / p\n"
        )
        assert events == []

    def test_unguarded_contract_division_reported(self):
        events = _events(
            "from repro.contracts import Probability\n"
            "def f(p: Probability) -> float:\n"
            "    return 1.5 / p\n"
        )
        assert [e.kind for e in events] == ["div"]

    def test_max_clamp_proves_division_safe(self):
        events = _events(
            "from repro.contracts import Probability\n"
            "def f(p: Probability) -> float:\n"
            "    return 1.5 / max(p, 1e-9)\n"
        )
        assert events == []

    def test_top_divisor_stays_silent(self):
        # Unknown values must not be reported (only speak when known).
        events = _events("def f(x, y):\n    return x / y\n")
        assert events == []

    def test_loop_widening_converges_without_events(self):
        events = _events(
            "def f(n: int) -> float:\n"
            "    total = 1.0\n"
            "    while total < 100.0:\n"
            "        total = total * 2.0\n"
            "    return 10.0 / total\n"
        )
        assert events == []

    def test_alias_resolution_requires_contracts_import(self):
        # A homonymous user-defined Probability must stay uninterpreted.
        events = _events(
            "Probability = float\n"
            "def f(p: Probability) -> float:\n"
            "    return 1.5 / p\n"
        )
        assert events == []

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
        # total's climbing bound needs widening; the flat unit component
        # settles in one extra pass, far from the forced cut-off.
        assert 2 < len(body_passes) < MAX_LOOP_PASSES

    def test_code_after_an_unconditional_return_is_not_examined(self):
        assert _kinds(
            "from repro.units import Bytes, Seconds\n"
            "def f(a_s: Seconds, b_bytes: Bytes) -> float:\n"
            "    return 1.0\n"
            "    x = a_s + b_bytes\n"
        ) == []

    def test_units_and_ranges_share_one_analysis_build(self, monkeypatch):
        # A guard-refined Probability parameter is RATIO-checked by the
        # very walk that proves the division safe.
        source = (
            "from repro.contracts import Probability\n"
            "from repro.units import Seconds\n"
            "def f(p: Probability, rtt_s: Seconds) -> float:\n"
            "    if p > rtt_s:\n"
            "        return 0.0\n"
            "    if p <= 0.0:\n"
            "        return 1.0 / p\n"
            "    return 1.5 / p\n"
        )
        builds = []
        original = contracts.analyze_contracts

        def counting(*args):
            builds.append(1)
            return original(*args)

        monkeypatch.setattr(contracts, "analyze_contracts", counting)
        report = lint_sources({CC: source}, select={"U001", "I001"})
        assert [(f.rule, f.line) for f in report.findings] == [
            ("U001", 4),
            ("I001", 7),
        ]
        assert len(builds) == 1

    def test_scope_excludes_unrelated_packages(self):
        events = _events(
            "from repro.contracts import Probability\n"
            "def f(p: Probability) -> float:\n"
            "    return 1.5 / p\n",
            path="src/repro/plotting/example.py",
        )
        assert events == []


# ---------------------------------------------------------------------------
# Contract Range -> Interval agreement
# ---------------------------------------------------------------------------


class TestIntervalOfRange:
    @pytest.mark.parametrize(
        "name", sorted(n for n, a in ALIASES.items() if a.declared.range)
    )
    def test_alias_interval_contains_sampled_members(self, name):
        rng = ALIASES[name].declared.range
        iv = interval_of(rng)
        for x in (0.0, 0.5, 1.0, 2.0, 1e-9, 1e9):
            if rng.contains(x):
                assert iv.contains(x), (name, x)


# ---------------------------------------------------------------------------
# Fixtures: every I-rule catches its seeded bug at a pinned line
# ---------------------------------------------------------------------------


class TestFixtures:
    def test_i001_bad(self):
        report = lint_fixture("i001_bad")
        assert findings(report, "I001") == [(9, 12), (15, 12)]

    def test_i001_good(self):
        assert lint_fixture("i001_good").findings == []

    def test_i002_bad(self):
        report = lint_fixture("i002_bad")
        # The last two resolve set_p through a receiver typed by a
        # parameter annotation and by a constructor call.
        assert findings(report, "I002") == [(12, 21), (17, 5), (27, 13), (33, 13)]

    def test_i002_good(self):
        assert lint_fixture("i002_good").findings == []

    def test_i003_bad(self):
        report = lint_fixture("i003_bad")
        assert findings(report, "I003") == [(10, 26), (14, 24)]

    def test_i003_good(self):
        assert lint_fixture("i003_good").findings == []

    def test_i004_bad(self):
        report = lint_fixture("i004_bad")
        assert findings(report, "I004") == [(8, 5)]

    def test_i004_good(self):
        assert lint_fixture("i004_good").findings == []

    def test_messages_explain_the_guard_fix(self):
        report = lint_fixture("i001_bad")
        assert "dominating guard" in report.findings[0].message
