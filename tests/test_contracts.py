"""Tests for the declarative contracts layer (``repro.contracts``).

Covers the :class:`Range` semantics the I-rules depend on, the shape of
the ``Annotated`` aliases and the name-keyed table simlint derives from
them, and the ``@checked`` debug-enforcement gate.
"""

import math
import os
import subprocess
import sys
import typing

import pytest

from repro import contracts
from repro.contracts import (
    ContractViolation,
    Range,
    checked,
    contracts_enabled,
)
from repro.lint.analysis.contracts import ALIASES

#: The contract aliases, found the way a reader would: by their type.
CONTRACT_ALIASES = sorted(
    name
    for name, value in vars(contracts).items()
    if typing.get_origin(value) is typing.Annotated
)


class TestRange:
    def test_closed_interval_contains_endpoints(self):
        rng = Range(0.0, 1.0)
        assert rng.contains(0.0)
        assert rng.contains(1.0)
        assert rng.contains(0.5)
        assert not rng.contains(-1e-12)
        assert not rng.contains(1.0 + 1e-12)

    def test_open_endpoints_exclude_their_values(self):
        rng = Range(0.0, 1.0, lo_open=True, hi_open=True)
        assert not rng.contains(0.0)
        assert not rng.contains(1.0)
        assert rng.contains(1e-300)

    def test_infinite_endpoints_are_permissive(self):
        # A closed infinite endpoint admits infinity itself: TCP-equation
        # rates legitimately return inf as loss goes to zero.
        rng = Range(0.0, math.inf)
        assert rng.contains(math.inf)
        assert rng.contains(1e308)
        assert not rng.contains(-math.inf)

    def test_nan_never_satisfies_any_contract(self):
        assert not Range(-math.inf, math.inf).contains(math.nan)

    def test_nan_endpoints_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Range(math.nan, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            Range(0.0, math.nan)

    def test_inverted_endpoints_rejected(self):
        with pytest.raises(ValueError, match="empty Range"):
            Range(1.0, 0.0)

    def test_degenerate_point_range(self):
        rng = Range(2.0, 2.0)
        assert rng.contains(2.0)
        assert not rng.contains(2.0 + 1e-12)

    def test_str_uses_bracket_convention(self):
        assert str(Range(0.0, 1.0)) == "[0, 1]"
        assert str(Range(0.0, math.inf, lo_open=True)) == "(0, inf]"
        assert str(Range(0.0, 1.0, hi_open=True)) == "[0, 1)"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Range(0.0, 1.0).lo = 5.0  # type: ignore[misc]


class TestAliasTables:
    """simlint resolves aliases by name through a table it derives from
    the alias definitions — it must cover every alias and never disagree
    with what ``typing.get_type_hints`` would see."""

    def test_tables_cover_the_same_aliases(self):
        derived = {n for n, a in ALIASES.items() if a.module == "repro.contracts"}
        assert derived == set(CONTRACT_ALIASES)
        assert len(CONTRACT_ALIASES) == 10
        # The plain unit aliases ride the same table, without a range.
        assert ALIASES["Seconds"].module == "repro.units"
        assert ALIASES["Seconds"].declared.range is None

    @pytest.mark.parametrize("name", CONTRACT_ALIASES)
    def test_alias_metadata_matches_tables(self, name):
        alias = getattr(contracts, name)
        metadata = typing.get_args(alias)[1:]
        units = [m for m in metadata if type(m).__name__ == "Unit"]
        ranges = [m for m in metadata if isinstance(m, Range)]
        assert len(units) == 1, f"{name} must carry exactly one Unit"
        assert len(ranges) == 1, f"{name} must carry exactly one Range"
        assert ALIASES[name].declared == (units[0], ranges[0])

    @pytest.mark.parametrize("name", CONTRACT_ALIASES)
    def test_aliases_are_float_based(self, name):
        alias = getattr(contracts, name)
        assert typing.get_args(alias)[0] is float

    def test_all_aliases_exported(self):
        for name in CONTRACT_ALIASES:
            assert name in contracts.__all__


def _strictly_positive(x: contracts.PositiveSeconds) -> contracts.Probability:
    return x


class TestCheckedDisabled:
    def test_disabled_returns_the_same_object(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
        assert not contracts_enabled()
        assert checked(_strictly_positive) is _strictly_positive

    def test_gate_requires_exactly_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "yes")
        assert not contracts_enabled()
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        assert contracts_enabled()


class TestCheckedEnabled:
    @pytest.fixture(autouse=True)
    def _enable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")

    def test_valid_call_passes_through(self):
        wrapped = checked(_strictly_positive)
        assert wrapped is not _strictly_positive
        assert wrapped(0.5) == 0.5

    def test_argument_violation_raises(self):
        wrapped = checked(_strictly_positive)
        with pytest.raises(ContractViolation, match=r"x=0.0.*\(0, inf\]"):
            wrapped(0.0)

    def test_return_violation_raises(self):
        wrapped = checked(_strictly_positive)
        with pytest.raises(ContractViolation, match=r"return value 2.0"):
            wrapped(2.0)

    def test_keyword_and_default_arguments_checked(self):
        @checked
        def f(a: float, p: contracts.Probability = 2.0) -> float:
            return a

        with pytest.raises(ContractViolation, match="p=2.0"):
            f(1.0)
        with pytest.raises(ContractViolation, match="p=-1.0"):
            f(1.0, p=-1.0)
        assert f(1.0, p=0.5) == 1.0

    def test_non_numeric_values_skipped(self):
        @checked
        def f(p: contracts.Probability) -> contracts.Probability:
            return p

        assert f(None) is None  # type: ignore[arg-type]

    def test_uncontracted_function_returned_unchanged(self):
        def plain(x: float) -> float:
            return x

        assert checked(plain) is plain


class TestEquationContractsUnderEnforcement:
    """The annotated cc.equations surface honors its own contracts when
    enforcement is switched on in a fresh interpreter."""

    def test_equations_run_clean_under_enforcement(self):
        code = (
            "from repro.cc import equations as eq\n"
            "for p in (1e-6, 0.01, 0.1, 0.5, 0.9999):\n"
            "    eq.simple_response_rate(p)\n"
            "    eq.aimd_with_timeouts_rate(p)\n"
            "    eq.padhye_rate_pps(p, rtt_s=0.1, rto_s=0.4, packet_size=1000)\n"
            "eq.simple_response_rate(1.0)\n"
            "eq.padhye_rate_pps(1.0, rtt_s=0.1, rto_s=0.4, packet_size=1000)\n"
            "print('OK')\n"
        )
        env = dict(os.environ, REPRO_CONTRACTS="1", PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "OK"

    def test_violation_surfaces_in_fresh_interpreter(self):
        code = (
            "from repro.cc import equations as eq\n"
            "try:\n"
            "    eq.simple_response_rate(1.5)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__)\n"
        )
        env = dict(os.environ, REPRO_CONTRACTS="1", PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ContractViolation"
