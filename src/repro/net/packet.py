"""Packet model.

A single packet class serves every protocol in the library.  Protocol
agents stash their control information (ACK numbers, TFRC feedback reports,
timestamps) in dedicated optional fields rather than a free-form dict, which
keeps the per-packet cost low — the simulator creates millions of these.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.units import Bytes, Seconds

__all__ = ["Packet", "DATA", "ACK", "FEEDBACK"]

DATA = "data"
ACK = "ack"
FEEDBACK = "feedback"


class Packet:
    """A simulated packet.

    Attributes
    ----------
    flow_id:
        Identifier of the end-to-end flow the packet belongs to.
    kind:
        One of ``DATA``, ``ACK``, ``FEEDBACK``.
    seq:
        Sequence number, in packets (the library simulates packet-granular
        protocols, as ns-2's abstract agents do).
    size:
        Size in bytes, used for link serialization time and byte counting.
    src, dst:
        Node addresses used for forwarding.
    sent_at:
        Time the sender injected the packet (for RTT sampling).
    ack_seq:
        For ACK packets: cumulative acknowledgment (TCP) or echoed sequence
        number (RAP).
    echo:
        Timestamp echoed back by the receiver, for sender RTT estimation.
    info:
        Protocol-specific payload (e.g. a TFRC feedback report object).
    """

    __slots__ = (
        "flow_id",
        "kind",
        "seq",
        "size",
        "src",
        "dst",
        "sent_at",
        "ack_seq",
        "echo",
        "info",
        "ect",
        "ce",
        "ece",
    )

    def __init__(
        self,
        flow_id: int,
        kind: str,
        seq: int,
        size: Bytes,
        src: int,
        dst: int,
        sent_at: Seconds = 0.0,
        ack_seq: int = -1,
        echo: Seconds = -1.0,
        info: Optional[Any] = None,
        ect: bool = False,
    ):
        self.flow_id = flow_id
        self.kind = kind
        self.seq = seq
        self.size = size
        self.src = src
        self.dst = dst
        self.sent_at = sent_at
        self.ack_seq = ack_seq
        self.echo = echo
        self.info = info
        # Explicit Congestion Notification (RFC 2481) codepoints:
        # ect  - sender is ECN-capable (ECT set on data packets);
        # ce   - Congestion Experienced, set by an ECN-marking queue;
        # ece  - ECN-Echo, set on ACKs by the receiver to relay CE marks.
        self.ect = ect
        self.ce = False
        self.ece = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet flow={self.flow_id} {self.kind} seq={self.seq} "
            f"{self.src}->{self.dst} {self.size}B>"
        )
