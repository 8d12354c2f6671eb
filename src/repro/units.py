"""Units of measure: the vocabulary the repository's quantities live in.

The paper's results hinge on quantities that differ only by a unit
factor — bandwidth in bits/s vs bytes/s, stabilization *time* (seconds)
vs stabilization *cost* (a dimensionless loss ratio), loss fractions vs
drop counts.  This module gives those quantities names: ``Annotated``
aliases (:data:`Seconds`, :data:`Bits`, :data:`Bytes`,
:data:`BitsPerSecond`, :data:`Packets`, :data:`Ratio`, ...) on public
signatures across ``net/``, ``cc/``, ``metrics/`` and ``telemetry/``,
each carrying a :class:`Unit` label.

The aliases are plain ``float`` at runtime (``Annotated`` metadata is
erased), so annotating a signature can never change behavior.  They,
and the ``_s`` / ``_bps`` / ``_bytes`` / ``_pkts`` name suffixes, are
for readers; nothing infers units from them.  A bits/bytes or s/ms slip
is caught where it shows: in the golden tables, and on the wire by
``tests/test_invariants.py``'s pacing check (``docs/units.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Final

__all__ = [
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
]


@dataclass(frozen=True)
class Unit:
    """The label an alias carries: a dimension vector over the base
    symbols ``s`` (time), ``bit``, ``byte`` (data) and ``pkt`` (packets),
    stored as sorted ``(symbol, exponent)`` pairs with zeros elided."""

    dims: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, **dims: int) -> "Unit":
        return cls(tuple(sorted((k, v) for k, v in dims.items() if v != 0)))


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
