"""Declarative range contracts: the numeric invariants the paper relies on.

The reproduction's claims rest on quantities that must stay inside known
ranges — loss-event rates and drop probabilities in ``[0, 1]``, send
rates non-negative, RTTs strictly positive, congestion windows never
below one segment (Bansal, Balakrishnan, Floyd & Shenker, SIGCOMM 2001).
This module gives those ranges first-class names:

* :class:`Range` — a closed/open interval with a ``contains`` check;
* ``Annotated`` aliases (:data:`Probability`, :data:`NonNegRate`,
  :data:`PositiveSeconds`, ...) that compose a :class:`repro.units.Unit`
  label with a :class:`Range`, so one annotation tells a reader the unit
  and :func:`checked` the range, which it enforces on the floats;
* :func:`checked` — enforcement of the ranges at run time, gated by
  ``REPRO_CONTRACTS=1``.

Like the unit aliases, the contract aliases are plain ``float`` at
runtime (``Annotated`` metadata is erased), so annotating a signature
can never change behavior.  Every ``Range``-annotated signature in
``cc``/``net``/``metrics``/``analysis`` carries ``@checked``
(``tests/test_contracts.py`` pins the census); the kernel's scheduling
entry points reject negative and NaN times themselves, always.

Enforcement
-----------
``@checked`` wraps a function so every ``Range``-annotated argument and
the return value are validated, raising :class:`ContractViolation` on
escape.  The gate is evaluated **at decoration time**: when
``REPRO_CONTRACTS`` is unset the original function object is returned
unchanged, so the disabled mode costs literally nothing — not even an
extra frame.  When it is set, a signature whose hints cannot be
resolved fails at import rather than going unchecked.  CI runs the
whole tier-1 suite, plus full-size fig04 and fig14, under
``REPRO_CONTRACTS=1``; the tables stay byte-identical to the default
mode (see ``docs/contracts.md``).
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import types
import typing
from dataclasses import dataclass
from typing import Annotated

from repro.units import (
    BIT_PER_SECOND,
    BYTE,
    PACKET,
    PACKET_PER_SECOND,
    RATIO,
    SECOND,
)

__all__ = [
    "ContractViolation",
    "CwndPackets",
    "NonNegPps",
    "NonNegRate",
    "NonNegRatio",
    "NonNegSeconds",
    "PositiveBytes",
    "PositiveRate",
    "PositiveRatio",
    "PositiveSeconds",
    "Probability",
    "Range",
    "checked",
    "contracts_enabled",
]


@dataclass(frozen=True)
class Range:
    """A numeric interval contract, with optionally open endpoints.

    ``Range(0.0, 1.0)`` is the closed unit interval ``[0, 1]``;
    ``Range(0.0, math.inf, lo_open=True)`` is ``(0, inf]`` — "strictly
    positive".  Infinite endpoints are permissive: ``hi=math.inf``
    admits ``math.inf`` itself (TCP-equation rates legitimately return
    infinity as loss goes to zero).  NaN never satisfies any contract.
    """

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("Range endpoints cannot be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty Range: lo={self.lo} > hi={self.hi}")

    def contains(self, value: float) -> bool:
        """True when ``value`` satisfies the contract."""
        if math.isnan(value):
            return False
        if value < self.lo or (value == self.lo and self.lo_open):
            return False
        if value > self.hi or (value == self.hi and self.hi_open):
            return False
        return True

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


# -- The contract aliases used on public signatures --------------------------
#
# Each alias carries a Unit (a label for readers) and a Range (consumed
# by @checked).  All are float-based, so mypy sees plain
# floats and integer arguments annotate cleanly.

#: A probability or loss-event rate: ``[0, 1]``, dimensionless.
Probability = Annotated[float, RATIO, Range(0.0, 1.0)]
#: A send/receive/bottleneck rate in bit/s: ``[0, inf]``.
NonNegRate = Annotated[float, BIT_PER_SECOND, Range(0.0, math.inf)]
#: A link/bottleneck bandwidth in bit/s: strictly positive, ``(0, inf]``.
PositiveRate = Annotated[float, BIT_PER_SECOND, Range(0.0, math.inf, lo_open=True)]
#: A packet rate in pkt/s: ``[0, inf]``.
NonNegPps = Annotated[float, PACKET_PER_SECOND, Range(0.0, math.inf)]
#: A duration or timestamp that must be strictly positive: ``(0, inf]``.
PositiveSeconds = Annotated[float, SECOND, Range(0.0, math.inf, lo_open=True)]
#: A duration or timestamp that may be zero: ``[0, inf]``.
NonNegSeconds = Annotated[float, SECOND, Range(0.0, math.inf)]
#: A strictly positive byte count (packet sizes, thresholds): ``(0, inf]``.
PositiveBytes = Annotated[float, BYTE, Range(0.0, math.inf, lo_open=True)]
#: A congestion window in packets: never below one segment, ``[1, inf]``.
CwndPackets = Annotated[float, PACKET, Range(1.0, math.inf)]
#: A strictly positive dimensionless factor: ``(0, inf]``.
PositiveRatio = Annotated[float, RATIO, Range(0.0, math.inf, lo_open=True)]
#: A non-negative dimensionless factor (rates that may underflow to 0).
NonNegRatio = Annotated[float, RATIO, Range(0.0, math.inf)]

#: ``@checked`` hands back the signature it was given, so type checkers
#: keep seeing the decorated constructors, methods and properties.
_F = typing.TypeVar("_F", bound=typing.Callable[..., object])


class ContractViolation(ValueError):
    """A runtime value escaped its declared :class:`Range` contract."""


def contracts_enabled() -> bool:
    """True when ``REPRO_CONTRACTS=1`` requests enforcement."""
    return os.environ.get("REPRO_CONTRACTS", "") == "1"


def _annotation_range(annotation: object) -> "Range | None":
    """The :class:`Range` carried by an ``Annotated`` alias, if any.

    ``Alias | None`` carries the alias's range: ``None`` is skipped at
    call time like every other non-number.
    """
    members = [annotation]
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        members = list(typing.get_args(annotation))
    for member in members:
        for meta in getattr(member, "__metadata__", ()):
            if isinstance(meta, Range):
                return meta
    return None


def _contract_table(fn: "typing.Callable") -> "dict[str, Range]":
    """Parameter/return name -> Range for every contracted annotation."""
    try:
        hints = typing.get_type_hints(fn, include_extras=True)
    except NameError as exc:
        # Returning fn unwrapped here would switch the check off silently.
        raise TypeError(
            f"@checked cannot resolve the annotations of {fn.__qualname__}(): "
            f"{exc} (import it at run time, not under TYPE_CHECKING)"
        ) from exc
    table: dict[str, Range] = {}
    for name, annotation in hints.items():
        rng = _annotation_range(annotation)
        if rng is not None:
            table[name] = rng
    return table


def checked(fn: _F) -> _F:
    """Enforce this function's :class:`Range` contracts when armed.

    With ``REPRO_CONTRACTS`` unset (the default), returns ``fn``
    unchanged — zero overhead, decided once at import time.  With
    ``REPRO_CONTRACTS=1``, every call validates the contracted
    arguments and the return value, raising :class:`ContractViolation`
    naming the function, parameter, offending value and range.
    """
    if not contracts_enabled():
        return fn
    contracts = _contract_table(fn)
    if not contracts:
        return fn
    signature = inspect.signature(fn)
    return_contract = contracts.get("return")

    @functools.wraps(fn)
    def wrapper(*args: object, **kwargs: object) -> object:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        for name, value in bound.arguments.items():
            rng = contracts.get(name)
            if rng is None or not isinstance(value, (int, float)):
                continue
            if not rng.contains(float(value)):
                raise ContractViolation(
                    f"{fn.__qualname__}(): argument {name}={value!r} "
                    f"violates its contract {rng}"
                )
        result = fn(*args, **kwargs)
        if return_contract is not None and isinstance(result, (int, float)):
            if not return_contract.contains(float(result)):
                raise ContractViolation(
                    f"{fn.__qualname__}(): return value {result!r} "
                    f"violates its contract {return_contract}"
                )
        return result

    return typing.cast(_F, wrapper)
