"""Network substrate: packets, queues, RED, links, nodes, dumbbell, taps."""

from repro.net.droppers import (
    BernoulliDropper,
    CountBasedDropper,
    Dropper,
    TimedDropper,
    PeriodicDropper,
    PhaseDropper,
    mild_bursty_pattern,
    severe_bursty_phases,
)
from repro.net.dumbbell import Dumbbell, HostPair
from repro.net.link import Link
from repro.net.monitor import FlowAccountant, LinkMonitor
from repro.net.node import Node
from repro.net.packet import ACK, DATA, FEEDBACK, Packet
from repro.net.paths import single_path
from repro.net.queue import DropTailQueue, QueueDiscipline, QueueProbes
from repro.net.red import REDQueue, red_for_bdp

__all__ = [
    "ACK",
    "DATA",
    "FEEDBACK",
    "BernoulliDropper",
    "CountBasedDropper",
    "DropTailQueue",
    "Dropper",
    "Dumbbell",
    "FlowAccountant",
    "HostPair",
    "Link",
    "LinkMonitor",
    "Node",
    "Packet",
    "PeriodicDropper",
    "PhaseDropper",
    "QueueDiscipline",
    "QueueProbes",
    "REDQueue",
    "TimedDropper",
    "mild_bursty_pattern",
    "red_for_bdp",
    "single_path",
    "severe_bursty_phases",
]
