"""Tests for the declarative contracts layer (``repro.contracts``).

Covers the :class:`Range` semantics, the shape of the ``Annotated``
aliases, the ``@checked`` enforcement gate, and the two properties that
make run-time enforcement the only guard the ranges need: a census (every
``Range``-annotated signature is wrapped when the gate is on) and a
sweep (every closed-form function honours its ranges over all of them).
"""

import importlib
import inspect
import json
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
import types
import typing

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import contracts, units
from repro.contracts import (
    ContractViolation,
    Range,
    checked,
    contracts_enabled,
)
from tests import test_sim_engine

REPO = pathlib.Path(__file__).resolve().parent.parent

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
    """Every contract alias is a float labelled with one unit and one
    ``Range``; the plain unit aliases carry a unit and nothing else."""

    def test_tables_cover_the_same_aliases(self):
        assert len(CONTRACT_ALIASES) == 10
        plain = [
            name
            for name in units.__all__
            if typing.get_origin(getattr(units, name)) is typing.Annotated
        ]
        assert "Seconds" in plain
        for name in plain:
            metadata = typing.get_args(getattr(units, name))[1:]
            assert [type(m) for m in metadata] == [units.Unit], name

    @pytest.mark.parametrize("name", CONTRACT_ALIASES)
    def test_alias_metadata_matches_tables(self, name):
        alias = getattr(contracts, name)
        metadata = typing.get_args(alias)[1:]
        labels = [m for m in metadata if isinstance(m, units.Unit)]
        ranges = [m for m in metadata if isinstance(m, Range)]
        assert len(labels) == 1, f"{name} must carry exactly one Unit"
        assert len(ranges) == 1, f"{name} must carry exactly one Range"
        assert len(metadata) == 2, f"{name} carries more than a Unit and a Range"

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


    def test_an_optional_alias_keeps_its_range(self):
        @checked
        def f(rto_s: "contracts.PositiveSeconds | None" = None) -> float:
            return 1.0

        assert f() == 1.0
        with pytest.raises(ContractViolation, match="rto_s=0.0"):
            f(0.0)

    def test_an_unresolvable_hint_raises_instead_of_disabling_the_check(self):
        # What a TYPE_CHECKING-only import looks like at run time.
        def f(p: contracts.Probability, sim: "NotImportedAtRunTime") -> None: ...  # noqa: F821

        with pytest.raises(TypeError, match=r"f\(\).*NotImportedAtRunTime"):
            checked(f)


def run_enforced(*argv: str) -> str:
    """Stdout of a fresh interpreter with ``REPRO_CONTRACTS=1`` armed.

    The gate is read when ``@checked`` decorates, i.e. at import, so
    enforcement of the product tree can only be observed from outside.
    """
    env = dict(os.environ, REPRO_CONTRACTS="1", PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestEquationContractsUnderEnforcement:
    """The annotated cc.equations surface honors its own contracts when
    enforcement is switched on in a fresh interpreter."""

    def test_equations_run_clean_under_enforcement(self):
        code = (
            "from repro.cc import equations as eq\n"
            "for p in (1e-6, 0.01, 0.1, 0.5, 0.9999):\n"
            "    eq.simple_response_rate(p)\n"
            "    eq.aimd_with_timeouts_rate(p)\n"
            "    eq.padhye_rate_pps(p, rtt_s=0.1, rto_s=0.4)\n"
            "eq.simple_response_rate(1.0)\n"
            "eq.padhye_rate_pps(1.0, rtt_s=0.1, rto_s=0.4)\n"
            "print('OK')\n"
        )
        assert run_enforced("-c", code) == "OK"

    def test_violation_surfaces_in_fresh_interpreter(self):
        code = (
            "from repro.cc import equations as eq\n"
            "try:\n"
            "    eq.simple_response_rate(1.5)\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__)\n"
        )
        assert run_enforced("-c", code) == "ContractViolation"


# ---------------------------------------------------------------------------
# Census: no Range annotation without enforcement behind it
# ---------------------------------------------------------------------------

#: The packages whose public signatures carry ``Range`` contracts.
PACKAGES = ("cc", "net", "sim", "metrics", "analysis")

#: The only contracted signatures without ``@checked``: the kernel's own
#: always-on rejection of negative, past and NaN times *is* their
#: contract (and raises ``SimulationError``, which callers catch), each
#: listed with the test that proves it.
KERNEL_ENFORCED = {
    "repro.sim.engine.Simulator.at": (
        test_sim_engine.TestScheduling, "test_nan_time_rejected"),
    "repro.sim.engine.Timer.schedule": (
        test_sim_engine.TestTimer, "test_negative_and_nan_delays_rejected"),
}


def resolved_hints(fn) -> dict:
    """``get_type_hints`` that survives ``TYPE_CHECKING``-only names.

    Such a name resolves to the contract alias it spells, if any (so an
    alias somebody forgot to import still counts), else to ``object``.
    """
    localns: dict = {}
    while True:
        try:
            return typing.get_type_hints(fn, localns=localns, include_extras=True)
        except NameError as exc:
            localns[exc.name] = getattr(contracts, exc.name, object)


def contracted(fn) -> "dict[str, Range]":
    """Parameter/return name -> Range, as ``@checked`` reads a signature."""
    table = {
        name: contracts._annotation_range(hint)
        for name, hint in resolved_hints(fn).items()
    }
    return {name: rng for name, rng in table.items() if rng is not None}


def functions_written_in(module):
    """Top-level functions, methods and property getters of ``module``."""
    for obj in vars(module).values():
        owned = getattr(obj, "__module__", None) == module.__name__
        members = vars(obj).values() if inspect.isclass(obj) and owned else [obj]
        for member in members:
            if isinstance(member, property):
                member = member.fget
            fn = getattr(member, "__func__", member)  # static/classmethod
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if inspect.unwrap(fn).__code__.co_filename.startswith("<"):
                continue  # dataclass-generated; __post_init__ validates
            yield fn


def census() -> "dict[str, bool]":
    """Every ``Range``-carrying callable -> is it wrapped by ``@checked``?"""
    found = {}
    for package in PACKAGES:
        root = importlib.import_module(f"repro.{package}")
        for info in pkgutil.iter_modules(root.__path__, root.__name__ + "."):
            module = importlib.import_module(info.name)
            for fn in functions_written_in(module):
                if contracted(fn):
                    wrapped = hasattr(fn, "__wrapped__")
                    found[f"{module.__name__}.{fn.__qualname__}"] = wrapped
    return found


class TestCensus:
    def test_every_range_annotated_signature_is_enforced(self):
        found = json.loads(
            run_enforced(
                "-c",
                "import json; from tests.test_contracts import census; "
                "print(json.dumps(census()))",
            )
        )
        unwrapped = sorted(name for name, wrapped in found.items() if not wrapped)
        assert unwrapped == sorted(KERNEL_ENFORCED)
        for cls, test in KERNEL_ENFORCED.values():
            assert callable(getattr(cls, test))
        # Pinned, so a removed annotation shows like a removed decorator.
        assert len(found) == 55


# ---------------------------------------------------------------------------
# Sweep: every closed form honours its ranges over all of them
# ---------------------------------------------------------------------------

CLOSED_FORM_MODULES = (
    "repro.cc.equations",
    "repro.cc.aimd",
    "repro.cc.binomial",
    "repro.analysis.convergence",
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def scalar_strategy(hint, rng: "Range | None"):
    """Draws for one parameter, or None when it is not a number."""
    optional = False
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        members = [m for m in typing.get_args(hint) if m is not type(None)]
        optional = len(members) == 1
        hint = members[0] if optional else hint
    if typing.get_origin(hint) is typing.Annotated:
        hint = typing.get_args(hint)[0]
    if hint not in (float, int):
        return None
    if rng is None:
        draws = FINITE
    else:
        # The declared range, endpoints as declared; ``inf`` itself is
        # a limit the functions return, not an input they are handed.
        draws = st.floats(
            min_value=rng.lo,
            max_value=None if math.isinf(rng.hi) else rng.hi,
            exclude_min=rng.lo_open,
            exclude_max=rng.hi_open and not math.isinf(rng.hi),
            allow_nan=False,
            allow_infinity=False,
        )
    return st.none() | draws if optional else draws


def argument_strategy(fn):
    """Keyword arguments for ``fn``: every contracted parameter drawn
    from its declared range, every other required one from all finite
    floats; None when a required parameter is not a scalar.  A
    parameter that declares no range and has a default keeps it."""
    hints, ranges = resolved_hints(fn), contracted(fn)
    drawn = {}
    for name, param in inspect.signature(fn).parameters.items():
        if name not in ranges and param.default is not inspect.Parameter.empty:
            continue
        strategy = scalar_strategy(hints.get(name), ranges.get(name))
        if strategy is None:
            return None
        drawn[name] = strategy
    return st.fixed_dictionaries(drawn)


def closed_forms():
    for name in CLOSED_FORM_MODULES:
        module = importlib.import_module(name)
        for fn in vars(module).values():
            if inspect.isfunction(fn) and fn.__module__ == name and contracted(fn):
                if argument_strategy(fn) is not None:
                    yield fn


#: In-contract calls this sweep found failing on the tree it was first
#: run on: four divided by an underflowed zero, the third returned nan
#: (an overflowed default rto times an underflowed loss term).
FOUND_BY_THE_SWEEP = {
    "padhye_rate_pps": [
        dict(p=0.25, rtt_s=5e-324, rto_s=5e-324),
        dict(p=1e-300, rtt_s=1e-300, rto_s=None),
        dict(p=5e-324, rtt_s=4.49423283715579e307, rto_s=None),
    ],
    "aimd_response_rate": [dict(p=5e-324, a=0.5, b=0.25)],
    "acks_to_fairness": [dict(b=0.5, p=5.392690700282198e-155, delta=0.5)],
}


@pytest.mark.parametrize("fn", list(closed_forms()), ids=lambda fn: fn.__name__)
def test_closed_forms_honour_their_ranges_over_all_of_them(fn):
    returns = contracted(fn).get("return")
    # The function itself even when the suite runs armed: the return is
    # checked here, and the arguments are in range by construction.
    raw = inspect.unwrap(fn)

    @given(argument_strategy(fn))
    def sweep(kwargs):
        try:
            result = raw(**kwargs)
        except ValueError:
            # A documented rejection of part of the range (p = 0, b = 1) —
            # or, armed, the same from an inner signature's stricter
            # contract (sqrt_rule(0.0)): a ContractViolation is one.
            return
        if returns is not None:
            assert returns.contains(result), f"{fn.__name__}(**{kwargs}) = {result!r}"

    for kwargs in FOUND_BY_THE_SWEEP.get(fn.__name__, ()):
        sweep = example(kwargs)(sweep)
    sweep()
