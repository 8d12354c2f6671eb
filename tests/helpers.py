"""Shared test fixtures: a two-node loopback path with optional dropper,
a dropper that kills the path, a flow's recorded series, where a result
cache's pack and index sit, one job's cached payload, what a call leaves
allocated, and an executor built under a fault spec."""

from __future__ import annotations

import gc
import os
import pathlib
import tracemalloc
from typing import Any, Callable, Optional, Union

import pytest

from repro.cc.base import Receiver, Sender
from repro.experiments.cache import ResultCache, default_salt
from repro.experiments.executor import Executor
from repro.experiments.jobs import Job
from repro.net import DropTailQueue, Dropper, Link, Node, Packet
from repro.sim import Simulator
from repro.telemetry import Recorder, active_recorder


def loopback(
    sim: Simulator,
    sender: Sender,
    receiver: Receiver,
    rtt: float = 0.05,
    bandwidth_bps: float = 1e7,
    dropper: Optional[Dropper] = None,
    queue_pkts: int = 100_000,
    flow_id: int = 0,
) -> None:
    """Wire sender -> (dropper) -> receiver and the reverse ACK path.

    The forward path has ``bandwidth_bps`` and half the RTT of propagation;
    the return path is identical.  A dropper, when given, sits after the
    forward link, imposing its loss pattern regardless of queue state.
    Inside ``capture()`` the sender's channels land in the recorder as
    ``flow.<flow_id>.<key>``, as ``establish`` puts them there.
    """
    node_a = Node(sim, address=1, name="src")
    node_b = Node(sim, address=2, name="dst")
    forward = Link(sim, bandwidth_bps, rtt / 2.0, DropTailQueue(queue_pkts), name="fwd")
    backward = Link(sim, bandwidth_bps, rtt / 2.0, DropTailQueue(queue_pkts), name="bwd")
    if dropper is not None:
        dropper.connect(node_b.receive)
        forward.connect(dropper.receive)
    else:
        forward.connect(node_b.receive)
    backward.connect(node_a.receive)
    node_a.add_route(2, forward)
    node_b.add_route(1, backward)
    sender.attach(node_a, 2, flow_id)
    receiver.attach(node_b, 1, flow_id)
    recorder = active_recorder()
    if recorder is not None:
        for key, probe in sender.probes.items():
            recorder.adopt(f"flow.{flow_id}.{key}", probe)


def series(recorder: Recorder, key: str, flow_id: int = 0) -> list[tuple[float, float]]:
    """(time, value) samples of the flow's recorded ``cwnd`` or ``rate``."""
    return list(recorder.channels[f"flow.{flow_id}.{key}"])


class CutoffDropper(Dropper):
    """Pass the first ``after_packets`` data packets, then drop everything.

    Models a path that goes dead (route failure, total overload), to test
    timeout and self-clocking behaviour when ACKs stop entirely.
    """

    def __init__(self, after_packets: int):
        super().__init__()
        self.after_packets = after_packets
        self._seen = 0

    def should_drop(self, packet: Packet) -> bool:
        self._seen += 1
        return self._seen > self.after_packets


def cache_files(root: Union[str, os.PathLike]) -> tuple[pathlib.Path, pathlib.Path]:
    """``root/<salt>/results.pack`` and ``root/<salt>/results.idx``: the
    one pack and its index of the cache at ``root`` under the code-version
    salt."""
    salted = pathlib.Path(root) / default_salt()
    return salted / "results.pack", salted / "results.idx"


def cached(cache: ResultCache, jb: Job) -> Any:
    """``jb``'s cached payload, or ``MISS``: a ``lookup`` of one job."""
    (value,) = cache.lookup([jb])
    return value


def retained_bytes(fn: Callable[[], Any]) -> tuple[int, Any]:
    """(bytes tracemalloc still sees allocated after ``fn`` returned and a
    full collection ran, ``fn``'s result) — what ``fn`` leaves behind."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


def faulty_executor(spec: str, *args: Any, **kwargs: Any) -> Executor:
    """``Executor(*args, **kwargs)`` built under ``REPRO_FAULT_SPEC=spec``,
    the one route a fault spec takes into the executor; the variable is
    restored once the executor has read it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FAULT_SPEC", spec)
        return Executor(*args, **kwargs)
