"""Named protocol configurations matching the paper's notation.

The paper parameterizes each family by a slowness parameter gamma:
TCP(1/gamma), RAP(1/gamma), SQRT(1/gamma) use multiplicative decrease
b = 1/gamma; TFRC(gamma) averages gamma loss intervals.

A :class:`Protocol` is a pure ``(family, params)`` value that jobs ship to
worker processes and hash into cache keys as is; ``name`` and ``make(sim)``
come from :data:`FAMILIES`.  Parameters beyond the slowness parameter go
straight to the family's ``new_*_flow``, so every sender option already is
one: ``tfrc(256, conservative=True, conservative_c=1.5)``.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.cc.base import Receiver, Sender
from repro.cc.binomial import iiad_rule, sqrt_rule, tcp_rule
from repro.cc.rap import RapSender, new_rap_flow
from repro.cc.tcp import TcpSender, new_tcp_flow
from repro.cc.tear import TearSender, new_tear_flow
from repro.cc.tfrc import TfrcSender, new_tfrc_flow
from repro.sim.engine import Simulator
from repro.units import Bytes, Ratio

__all__ = ["FAMILIES", "Protocol", "tcp", "tcp_b", "sqrt", "iiad", "rap", "tfrc", "tear"]


class _Family(NamedTuple):
    key: str  # the slowness parameter, as Protocol.describe() spells it ...
    flow_arg: str  # ... the ``flow`` argument it becomes ...
    convert: Callable[[Any], Any]  # ... and how
    flow: Callable[..., "tuple[Sender, Receiver]"]  # new_*_flow(sim, **kwargs)
    sender: type  # where ``flow`` forwards its **sender_kwargs
    label: str  # the paper's notation, formatted with the converted ``key``


#: The vocabulary :class:`Protocol` understands, by family name.
FAMILIES: dict[str, _Family] = {
    "tcp_b": _Family("b", "rule", tcp_rule, new_tcp_flow, TcpSender, "TCP({0.b:g})"),
    "sqrt": _Family(
        "gamma", "rule", lambda g: sqrt_rule(1.0 / g), new_tcp_flow, TcpSender, "SQRT({0.b:g})"
    ),
    "iiad": _Family("b", "rule", iiad_rule, new_tcp_flow, TcpSender, "IIAD"),
    "rap": _Family("gamma", "b", lambda g: 1.0 / g, new_rap_flow, RapSender, "RAP({0:g})"),
    "tfrc": _Family("k", "n_intervals", int, new_tfrc_flow, TfrcSender, "TFRC({0})"),
    "tear": _Family("epochs", "epochs", int, new_tear_flow, TearSender, "TEAR({0})"),
}


@functools.cache
def _accepts(family_name: str) -> frozenset[str]:
    """Every parameter name a protocol of this family may carry."""
    if family_name not in FAMILIES:
        raise KeyError(
            f"unknown protocol family {family_name!r}; available: {', '.join(sorted(FAMILIES))}"
        )
    family = FAMILIES[family_name]
    flow, sender = (inspect.signature(fn).parameters for fn in (family.flow, family.sender))
    return frozenset({*flow, *sender} - {"sim", "sender_kwargs", family.flow_arg} | {family.key})


@dataclass(frozen=True)
class Protocol:
    """``family`` names an entry of :data:`FAMILIES`; ``params`` is a sorted
    tuple of ``(name, value)`` keyword arguments for it.  Two protocols are
    equal (and hash equal) exactly when they describe the same configuration.
    """

    family: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        valid, given = _accepts(self.family), {name for name, _ in self.params}
        key = FAMILIES[self.family].key
        if key not in given or given - valid:
            raise TypeError(
                f"{self.family} needs {key!r}, got "
                f"{', '.join(sorted(given)) or 'nothing'}; "
                f"valid parameters: {', '.join(sorted(valid))}"
            )

    @classmethod
    def of(cls, family: str, **params: Any) -> "Protocol":
        return cls(family, tuple(sorted(params.items())))

    @property
    def name(self) -> str:
        """The paper's notation, e.g. ``TCP(0.125)`` or ``TFRC(256)+SC``."""
        family, params = FAMILIES[self.family], dict(self.params)
        label = family.label.format(family.convert(params[family.key]))
        return label + ("+SC" if params.get("conservative") else "")

    def make(self, sim: Simulator) -> "tuple[Sender, Receiver]":
        """A fresh (sender, receiver) pair on ``sim``, not yet attached."""
        family, kwargs = FAMILIES[self.family], dict(self.params)
        kwargs[family.flow_arg] = family.convert(kwargs.pop(family.key))
        return family.flow(sim, **kwargs)

    def describe(self) -> dict:
        """A canonical JSON-able description (used for content hashing)."""
        return {"__protocol__": self.family, "params": dict(self.params)}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def tcp(gamma: float = 2.0, packet_size: Bytes = 1000, **options: Any) -> Protocol:
    """TCP(1/gamma): window-based AIMD with the full TCP machinery."""
    return tcp_b(1.0 / gamma, packet_size, **options)


def tcp_b(b: Ratio, packet_size: Bytes = 1000, **options: Any) -> Protocol:
    """TCP(b) by decrease factor (TCP(0.5) is standard TCP)."""
    return Protocol.of("tcp_b", b=float(b), packet_size=int(packet_size), **options)


def sqrt(gamma: float = 2.0, packet_size: Bytes = 1000, **options: Any) -> Protocol:
    """SQRT(1/gamma): the k = l = 1/2 binomial on the TCP machinery."""
    return Protocol.of("sqrt", gamma=float(gamma), packet_size=int(packet_size), **options)


def iiad(b: Ratio = 1.0, packet_size: Bytes = 1000, **options: Any) -> Protocol:
    """IIAD: inverse-increase additive-decrease binomial."""
    return Protocol.of("iiad", b=float(b), packet_size=int(packet_size), **options)


def rap(gamma: float = 2.0, packet_size: Bytes = 1000, **options: Any) -> Protocol:
    """RAP(1/gamma): rate-based AIMD, no self-clocking."""
    return Protocol.of("rap", gamma=float(gamma), packet_size=int(packet_size), **options)


def tfrc(
    k: int = 6, conservative: bool = False, history_discounting: bool = True,
    packet_size: Bytes = 1000, **options: Any,
) -> Protocol:
    """TFRC(k), optionally with the paper's self-clocking (conservative_)."""
    return Protocol.of(
        "tfrc", k=int(k), conservative=bool(conservative),
        history_discounting=bool(history_discounting), packet_size=int(packet_size), **options,
    )


def tear(epochs: int = 8, packet_size: Bytes = 1000, **options: Any) -> Protocol:
    """TEAR: receiver-based TCP emulation (extension; not in the figures)."""
    return Protocol.of("tear", epochs=int(epochs), packet_size=int(packet_size), **options)
