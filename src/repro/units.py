"""Units of measure: the vocabulary the repository's quantities live in.

The paper's results hinge on quantities that differ only by a unit
factor — bandwidth in bits/s vs bytes/s, stabilization *time* (seconds)
vs stabilization *cost* (a dimensionless loss ratio), loss fractions vs
drop counts.  A silent bits/bytes or time/rate mix-up corrupts every
figure table while still looking plausible, which is the classic failure
mode of ns-2 comparative studies.  This module gives those quantities
names:

* :class:`Unit` — a dimension vector over the base symbols ``s`` (time),
  ``bit``, ``byte`` (data), ``pkt`` (packets);
* ``Annotated`` aliases (:data:`Seconds`, :data:`Bits`, :data:`Bytes`,
  :data:`BitsPerSecond`, :data:`Packets`, :data:`Ratio`, ...) used to
  annotate public signatures across ``net/``, ``cc/``, ``metrics/`` and
  ``telemetry/``;
* a conversion whitelist (:data:`CONVERSIONS`) plus the matching helper
  functions, the only sanctioned ways to move between ``bit`` and
  ``byte``.

The aliases are plain ``float`` at runtime (``Annotated`` metadata is
erased), so annotating a signature can never change behavior.  Their
value is static: mypy sees ``float``, while simlint's U-rules (see
``docs/units.md`` and ``docs/linting.md``) read the :class:`Unit`
metadata — together with the repository's pervasive ``_s`` / ``_bps`` /
``_bytes`` / ``_pkts`` name-suffix convention — to infer the unit of
expressions and flag mixed-unit arithmetic before it reaches a table.

Convention notes
----------------
* ``pkt`` is a *counting* unit: a packet count is dimensionally a pure
  number, so ``Packets`` and :data:`Ratio` are deliberately compatible
  (``bdp = bandwidth_bps * rtt_s / (8 * packet_size)`` yields a
  dimensionless value that *is* a packet count).  Mixing packets with
  seconds or bytes is still an error.
* The only blessed bit/byte conversion factor is the literal ``8``
  (or ``8.0``), which the U-rules treat as carrying the unit
  ``bit/byte``: ``bytes * 8 -> bits``, ``bits / 8 -> bytes``,
  ``8.0 / bandwidth_bps -> seconds/byte``.  Any other mixing of ``bit``
  and ``byte`` in one product is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Final

__all__ = [
    "BITS_PER_BYTE",
    "CONVERSIONS",
    "SUFFIX_UNITS",
    "Bits",
    "BitsPerSecond",
    "Bytes",
    "BytesPerSecond",
    "PacketsPerSecond",
    "Packets",
    "PerSecond",
    "Ratio",
    "Seconds",
    "SecondsPerByte",
    "Unit",
    "bits_to_bytes",
    "bytes_to_bits",
]


@dataclass(frozen=True)
class Unit:
    """A unit as a dimension vector: ``dims`` maps base symbol -> exponent.

    Stored as a sorted tuple of ``(symbol, exponent)`` pairs with zero
    exponents elided, so equal units compare (and hash) equal.  The
    algebra (:meth:`mul`, :meth:`div`, :meth:`inverse`) is what lets the
    lint analysis push units through arithmetic: ``bit / s`` times ``s``
    is ``bit``, ``byte / byte`` is dimensionless.
    """

    dims: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, **dims: int) -> "Unit":
        return cls(tuple(sorted((k, v) for k, v in dims.items() if v != 0)))

    def exponent(self, symbol: str) -> int:
        for sym, exp in self.dims:
            if sym == symbol:
                return exp
        return 0

    def mul(self, other: "Unit") -> "Unit":
        merged = {sym: exp for sym, exp in self.dims}
        for sym, exp in other.dims:
            merged[sym] = merged.get(sym, 0) + exp
        return Unit.of(**merged)

    def div(self, other: "Unit") -> "Unit":
        return self.mul(other.inverse())

    __mul__ = mul
    __truediv__ = div

    def inverse(self) -> "Unit":
        return Unit(tuple((sym, -exp) for sym, exp in self.dims))

    @property
    def dimensionless(self) -> bool:
        return not self.dims

    @property
    def mixes_bits_and_bytes(self) -> bool:
        """True when both ``bit`` and ``byte`` appear: a missing factor 8."""
        return self.exponent("bit") != 0 and self.exponent("byte") != 0

    def counting_erased(self) -> "Unit":
        """This unit with the ``pkt`` axis dropped.

        Packet counts are dimensionally pure numbers; compatibility
        checks compare pkt-erased vectors so ``Packets`` and ``Ratio``
        interoperate while ``Packets`` vs ``Seconds`` still conflicts.
        """
        return Unit(tuple((s, e) for s, e in self.dims if s != "pkt"))

    def compatible(self, other: "Unit") -> bool:
        return self.counting_erased() == other.counting_erased()

    def __str__(self) -> str:
        if not self.dims:
            return "ratio"
        num = [
            sym if exp == 1 else f"{sym}^{exp}"
            for sym, exp in self.dims
            if exp > 0
        ]
        den = [
            sym if exp == -1 else f"{sym}^{-exp}"
            for sym, exp in self.dims
            if exp < 0
        ]
        if not num:
            return "1/" + "/".join(den)
        text = "*".join(num)
        if den:
            text += "/" + "/".join(den)
        return text


# -- The base units ---------------------------------------------------------

SECOND: Final = Unit.of(s=1)
BIT: Final = Unit.of(bit=1)
BYTE: Final = Unit.of(byte=1)
PACKET: Final = Unit.of(pkt=1)
RATIO: Final = Unit.of()
BIT_PER_SECOND: Final = Unit.of(bit=1, s=-1)
BYTE_PER_SECOND: Final = Unit.of(byte=1, s=-1)
PACKET_PER_SECOND: Final = Unit.of(pkt=1, s=-1)
PER_SECOND: Final = Unit.of(s=-1)
SECOND_PER_BYTE: Final = Unit.of(s=1, byte=-1)
#: The unit the literal ``8`` carries in a bit/byte conversion.
BITS_PER_BYTE: Final = Unit.of(bit=1, byte=-1)

# -- The Annotated aliases used on public signatures ------------------------
#
# All aliases are float-based: mypy accepts ints wherever a float is
# expected, so integer byte and packet counts annotate cleanly.

Seconds = Annotated[float, SECOND]
Bits = Annotated[float, BIT]
Bytes = Annotated[float, BYTE]
Packets = Annotated[float, PACKET]
Ratio = Annotated[float, RATIO]
BitsPerSecond = Annotated[float, BIT_PER_SECOND]
BytesPerSecond = Annotated[float, BYTE_PER_SECOND]
PacketsPerSecond = Annotated[float, PACKET_PER_SECOND]
PerSecond = Annotated[float, PER_SECOND]
SecondsPerByte = Annotated[float, SECOND_PER_BYTE]

#: The name-suffix convention: a trailing ``_s`` / ``_bps`` / ... on a
#: parameter, attribute, variable or function name declares its unit.
#: The lint analysis seeds inference from these exactly as it does from
#: the ``Annotated`` aliases above.
SUFFIX_UNITS: Final[dict[str, Unit]] = {
    "_s": SECOND,
    "_bits": BIT,
    "_bytes": BYTE,
    "_pkts": PACKET,
    "_bps": BIT_PER_SECOND,
    "_per_s": PER_SECOND,
    "_ratio": RATIO,
    "_fraction": RATIO,
}

#: The conversion whitelist: the only sanctioned unit-changing factors.
#: Each entry maps (from-unit, to-unit) -> the multiplicative factor.
#: Everything else must move through the helper functions below (or the
#: literal ``8``, which the analysis reads as ``bit/byte``).
CONVERSIONS: Final[dict[tuple[Unit, Unit], float]] = {
    (BYTE, BIT): 8.0,
    (BIT, BYTE): 1.0 / 8.0,
    (BYTE_PER_SECOND, BIT_PER_SECOND): 8.0,
    (BIT_PER_SECOND, BYTE_PER_SECOND): 1.0 / 8.0,
}


def bytes_to_bits(value: Bytes) -> Bits:
    """``bytes * 8``: the one direction of the blessed conversion."""
    return value * 8.0


def bits_to_bytes(value: Bits) -> Bytes:
    """``bits / 8``: the other direction."""
    return value / 8.0

