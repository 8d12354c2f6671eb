"""Workload generators: CBR schedules, flash crowds, bulk-flow helpers."""

from repro.traffic.bulk import AgentFactory, Flow, add_flows
from repro.traffic.cbr import (
    CbrSink,
    CbrSource,
    on_off_schedule,
    square_wave,
)
from repro.traffic.flash_crowd import FlashCrowd

__all__ = [
    "AgentFactory",
    "CbrSink",
    "CbrSource",
    "FlashCrowd",
    "Flow",
    "add_flows",
    "on_off_schedule",
    "square_wave",
]
