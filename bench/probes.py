"""Host-side and simulated measurements taken around one benchmark round.

Two kinds of numbers come out of here and they are never mixed:

* **host** usage of the round's process tree — CPU seconds and peak
  resident memory, read from ``resource`` for this process and from
  ``/proc`` for the worker processes the parallel executor forks (they
  belong to the fork server, not to us, so ``RUSAGE_CHILDREN`` never sees
  them while they are alive);
* **simulated** counts — events fired, packets sent, packets dropped —
  read from the ``Simulator``/``Link``/``Dropper`` objects a
  :class:`SimCensus` registered while the jobs ran.  They are exact and
  repeat from run to run, which is what lets two commits be compared
  without host noise.
"""

from __future__ import annotations

import heapq
import os
import resource
import signal
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "REFERENCE_TICK_S",
    "SimCensus",
    "SpeedSampler",
    "Usage",
    "group_is_live",
    "scrub_environment",
    "usage",
]

#: Every environment variable with this prefix configures the product
#: (executor modes, cache and run-log locations, fault injection, runtime
#: contracts); a benchmark run must not inherit any of them.
ENV_PREFIX = "REPRO_"

#: CPU seconds one sampler tick takes on the reference machine.  Every
#: reported time is scaled by ``REFERENCE_TICK_S / measured tick`` (see
#: :class:`SpeedSampler`); the value is the tick's typical cost on the
#: sandbox the benchmark was sized on, so scaled and raw seconds agree there.
REFERENCE_TICK_S = 0.0024

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def scrub_environment(environ: dict) -> list[str]:
    """Remove every ``REPRO_*`` variable from ``environ``; returns their names."""
    names = sorted(name for name in environ if name.startswith(ENV_PREFIX))
    for name in names:
        del environ[name]
    return names


class _TickNode:
    __slots__ = ("count", "busy_s", "queue")

    def __init__(self) -> None:
        self.count = 0
        self.busy_s = 0.0
        self.queue: deque = deque()

    def receive(self, now: float, size: int) -> None:
        self.count += 1
        self.busy_s += size * 8.0 / 1e7
        self.queue.append(size)
        if len(self.queue) > 4:
            self.queue.popleft()


class SpeedSampler:
    """Measures how fast this machine is *while* a timed region runs.

    The sandbox's speed wanders by +-30 % from one half-second to the
    next and drifts over minutes (CPU time tracks wall time through all
    of it, so it is the host, not preemption); medians over a few rounds
    cannot average that out, and a calibration run before and after a
    4 s region misses most of it.  So an interval timer interrupts the
    main thread every ``PERIOD_S`` and the handler runs a fixed loop - a
    miniature of what the simulator does per event: pop a tuple off a
    heap, call a bound method that updates slots and a deque, push the
    next event - and records the thread CPU time it took.  The loop uses
    the standard library only and never changes with the product, so a
    region's time divided by its mean tick is a property of the code
    under test rather than of the moment it ran (measured here: the
    spread of a 4 s region falls from 0.21 to 0.04, slope 1.0 between
    the logs of the two).  Ticks cost about 5 % of the region; their own
    wall and CPU time are reported so the caller can take them out.

    Interval timers are not inherited across ``fork``, so pool workers
    are never interrupted; interrupted system calls in this process are
    retried by Python itself (PEP 475).
    """

    PERIOD_S = 0.05
    EVENTS = 3000

    def __init__(self) -> None:
        self.ticks = 0
        self.wall_s = 0.0  # wall time spent inside the handler
        self.cpu_s = 0.0  # thread CPU time spent inside the handler
        self._heap: list = []
        self._seq = 0
        node = _TickNode()
        for self._seq in range(64):
            heapq.heappush(self._heap, (self._seq * 0.001, self._seq, node.receive, (0.0, 1000)))

    def _tick(self, signum, frame) -> None:
        wall_started = time.perf_counter()
        cpu_started = time.thread_time()
        heap, seq = self._heap, self._seq
        push, pop = heapq.heappush, heapq.heappop
        for _ in range(self.EVENTS):
            now, _seq, fn, args = pop(heap)
            fn(*args)
            seq += 1
            push(heap, (now + 0.05 + (seq % 7) * 0.001, seq, fn, (now, 1000)))
        self._seq = seq
        self.ticks += 1
        self.cpu_s += time.thread_time() - cpu_started
        self.wall_s += time.perf_counter() - wall_started

    @property
    def tick_s(self) -> float:
        """Mean CPU seconds per tick (one tick is forced if none fired)."""
        if not self.ticks:
            self._tick(None, None)
        return self.cpu_s / self.ticks

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass(frozen=True)
class Usage:
    """Cumulative usage of this process's tree at one instant."""

    cpu_s: float
    peak_rss_mb: float

    def cpu_since(self, earlier: "Usage") -> float:
        return self.cpu_s - earlier.cpu_s


def _group_stats(group: int) -> Iterator[tuple[int, list[str]]]:
    """(pid, ``/proc/<pid>/stat`` fields after the command name) of every
    process in ``group``: state, ppid, pgrp, ... with utime, stime, cutime
    and cstime at offsets 11-14.  Yields nothing where there is no procfs.
    """
    try:
        entries = os.listdir("/proc")
    except OSError:
        return
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rpartition(")")[2].split()
            if int(fields[2]) == group:
                yield int(entry), fields
        except (OSError, ValueError, IndexError):
            continue  # exited between the listing and the read


def group_is_live(group: int) -> bool:
    """Whether any process of ``group`` is still running.

    A zombie has ended and only waits for its parent (init, for the
    orphaned fork server and resource tracker) to collect it, so it does
    not count; ``killpg(group, 0)`` would still see it.
    """
    if not os.path.isdir("/proc"):
        try:
            os.killpg(group, 0)
        except (ProcessLookupError, PermissionError):
            return False
        return True
    return any(fields[0] != "Z" for _, fields in _group_stats(group))


def _group_members() -> tuple[float, float]:
    """(CPU seconds, peak RSS in MB) of the *other* processes in this
    process group: the fork server and its workers.

    The harness starts every round as the leader of a fresh process
    group, so the group is exactly this round's tree.  A worker that was
    already collected by the fork server shows up in the server's
    reaped-children fields instead, which are summed in too.
    """
    me = os.getpid()
    ticks = 0
    peak_kib = 0
    for pid, fields in _group_stats(os.getpgrp()):
        if pid == me:
            continue
        ticks += sum(int(value) for value in fields[11:15])
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kib = max(peak_kib, int(line.split()[1]))
                        break
        except OSError:
            continue
    return ticks / _CLOCK_TICKS, peak_kib / 1024.0


def usage() -> Usage:
    """CPU seconds and peak RSS of this process, its reaped children and
    the live members of its process group."""
    mine = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    group_cpu_s, group_peak_mb = _group_members()
    return Usage(
        cpu_s=(
            time.process_time()
            + reaped.ru_utime
            + reaped.ru_stime
            + group_cpu_s
        ),
        peak_rss_mb=max(
            mine.ru_maxrss / 1024.0, reaped.ru_maxrss / 1024.0, group_peak_mb
        ),
    )


class SimCensus:
    """Registers every simulator, link and dropper built while installed.

    Installed from the benchmark (the product is not edited): the three
    constructors are wrapped on entry and restored on exit, so the cost
    is one list append per *object*, never per packet — and the timed
    rounds run without it anyway.  Keeping the objects alive until
    :meth:`counts` is read is deliberate: the counters live on them.
    """

    def __init__(self) -> None:
        self.simulators: list[Any] = []
        self.links: list[Any] = []
        self.droppers: list[Any] = []
        self._restore: list[tuple[type, Any]] = []

    def __enter__(self) -> "SimCensus":
        from repro.net.droppers import Dropper
        from repro.net.link import Link
        from repro.sim.engine import Simulator

        for cls, bucket in (
            (Simulator, self.simulators),
            (Link, self.links),
            (Dropper, self.droppers),
        ):
            original = cls.__init__

            def registering(obj, *args, _original=original, _bucket=bucket, **kwargs):
                _original(obj, *args, **kwargs)
                _bucket.append(obj)

            cls.__init__ = registering
            self._restore.append((cls, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, original in self._restore:
            cls.__init__ = original
        self._restore.clear()

    def counts(self) -> dict[str, int]:
        """Exact simulated totals over everything registered so far."""
        return {
            "simulators": len(self.simulators),
            "links": len(self.links),
            "events_fired": sum(sim.events_fired for sim in self.simulators),
            "pkts_sent": sum(link.packets_sent for link in self.links),
            # Packets still queued or being serialized when the run ended;
            # with link_sends this closes the per-link conservation sum.
            "pkts_resident": sum(
                len(link.queue) + (link.in_service is not None) for link in self.links
            ),
            "dropper_drops": sum(int(dropper.drops) for dropper in self.droppers),
        }
