"""The time-based link delivers, drops, records and counts like the old one.

``Link`` ends a serialization at a *time* (``_busy_until``) and spends a
calendar event there only for a waiting packet; the frozen
``tests/reference_link.py`` spends one on every packet.  That is pure
performance work: for any arrival program the two must agree on every
delivery ``(time, packet)``, every drop, every departure, RED's average
and the public counters.  A departure is ``(time, bytes departed since
recording began)``: what ``Link.record_departures`` writes, and what the
reference link's tap firings add up to.

One case is outside the contract: two or more packets offered in the very
instant a serialization ends.  The reference link still holds the finished
packet until its event fires, so whether the second arrival finds a full
queue depends on event sequence numbers; the time-based link has already
freed the transmitter for the first.  Recording only writes — telemetry
is pay-for-use, and what a run pays for must not change what it simulates —
so a recording link frees the transmitter at that instant too.

Ties are forced rather than hoped for.  One byte serializes in one tick
of 2**-20 s and every gap is a whole number of ticks, so all times are
exact binary fractions and "arrives at the very instant the previous
serialization ends" happens whenever the integers say so — the case the
ACK clock makes common in real runs.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.packet import DATA, Packet
from repro.net.queue import DropTailQueue, QueueProbes
from repro.net.red import REDQueue
from repro.sim.engine import Simulator
from repro.telemetry.probes import CounterProbe, SeriesProbe
from tests.reference_link import ReferenceLink

TICK = 2.0**-20
BANDWIDTH_BPS = 8 * 2**20  # one byte per tick, exactly

_SIZES = st.sampled_from([40, 576, 1000, 1500])
#: A gap to the next arrival, in units chosen when the program is read:
#: ("ticks", n) is n ticks, ("tx", k) is k serialization times of the
#: packet just offered — zero and exact multiples force the ties.
_GAPS = st.one_of(
    st.tuples(st.just("ticks"), st.integers(0, 4000)),
    st.tuples(st.just("tx"), st.integers(0, 3)),
)
_PROGRAMS = st.lists(st.tuples(_SIZES, _GAPS), min_size=1, max_size=40)
_QUEUES = st.one_of(
    st.tuples(st.just("droptail"), st.integers(1, 5)),
    st.tuples(st.just("red"), st.integers(0, 2**16)),
)


def _make_queue(spec):
    kind, arg = spec
    if kind == "droptail":
        return DropTailQueue(arg)
    queue = REDQueue(
        capacity_pkts=6,
        min_thresh=1.0,
        max_thresh=3.0,
        rng=random.Random(arg),
        mean_packet_size=1000,
        bandwidth_bps=BANDWIDTH_BPS,
    )
    queue.weight = 0.25  # an estimator that moves within a few packets
    return queue


def _arrival_ticks(program):
    ticks, at = [], 0
    for size, (unit, n) in program:
        ticks.append(at)
        at += n * size if unit == "tx" else n
    return ticks


def _record_departures(link, probe):
    """Record ``link``'s departures into ``probe`` from now on.

    The live link writes them itself; the frozen reference link has only
    a tap, whose firings add up to the same ``(time, bytes)`` samples.
    """
    if isinstance(link, Link):
        link.record_departures(probe)
        return
    departed = 0

    def tap(packet):
        nonlocal departed
        departed += packet.size
        probe.record(link.sim.now, departed)

    link.add_tap(tap)


def _run(link_cls, program, queue_spec, delay_s, chained, record_at, probes, samples):
    """Interpret ``program`` against one link class; returns its transcript.

    ``chained`` arrivals are scheduled one by the other (offer, then
    schedule the next), the way an upstream hop would, so their sequence
    numbers interleave with the link's own events; otherwise they are all
    in the calendar before the first one fires.  ``record_at`` is None, or
    the time departures start being recorded (0.0: right away, by a call
    and not a calendar entry, so the run fires only its own events).
    ``samples`` are instants at which the public counters are read, after
    every event that was already in the calendar for that instant.
    """
    sim = Simulator()
    queue = _make_queue(queue_spec)
    link = link_cls(sim, BANDWIDTH_BPS, delay_s, queue)
    delivered, sampled = [], []
    departures = SeriesProbe()
    link.connect(lambda p: delivered.append((sim.now, p.seq)))
    if probes:
        queue.telemetry = QueueProbes(arrivals=CounterProbe(), drops=CounterProbe())
    if record_at == 0.0:
        _record_departures(link, departures)
    elif record_at is not None:
        sim.at(record_at, _record_departures, link, departures)

    def sample():
        in_service = link.in_service
        sampled.append(
            (
                sim.now,
                link.packets_sent,
                None if in_service is None else in_service.seq,
                len(link.queue),
            )
        )

    for instant in samples:
        sim.at(instant, sim.at, instant, sample)

    packets = [Packet(0, DATA, i, size, 0, 1) for i, (size, _) in enumerate(program)]
    times = [ticks * TICK for ticks in _arrival_ticks(program)]
    if chained:

        def arrive(i):
            link.send(packets[i])
            if i + 1 < len(packets):
                sim.at(times[i + 1], arrive, i + 1)

        sim.at(times[0], arrive, 0)
    else:
        for when, packet in zip(times, packets):
            sim.at(when, link.send, packet)
    sim.run()
    dropped = sorted(set(range(len(packets))) - {seq for _, seq in delivered})
    transcript = {
        "delivered": delivered,
        "dropped": dropped,
        "departed": list(departures),
        "sampled": sampled,
        "final": (link.packets_sent, link.in_service is None, len(queue)),
        "end": sim.now,
        "events": sim.events_fired,
    }
    if isinstance(queue, REDQueue):
        transcript["red_avg"] = queue.avg
    if probes:
        telemetry = queue.telemetry
        transcript["arrival_times"] = list(telemetry.arrivals.times)
        transcript["drop_times"] = list(telemetry.drops.times)
    return transcript


class TestLinkOracle:
    @given(
        program=_PROGRAMS,
        queue_spec=_QUEUES,
        delay_s=st.sampled_from([0.0, 2.0**-9, 0.003]),
        chained=st.booleans(),
        recorded=st.sampled_from(["no", "before", "during"]),
        probes=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_transcripts_match_reference_link(
        self, program, queue_spec, delay_s, chained, recorded, probes, data
    ):
        # A first reference pass says when serializations end, so that
        # the counters can be sampled at exactly those instants.
        scout = _run(ReferenceLink, program, queue_spec, delay_s, chained, 0.0, probes, [])
        ends = [when for when, _ in scout["departed"]]
        offered = [ticks * TICK for ticks in _arrival_ticks(program)]
        assume(all(offered.count(when) < 2 for when in set(ends)))
        horizon_ticks = int(scout["end"] / TICK) + 1
        samples = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from(ends),
                    st.integers(0, horizon_ticks).map(lambda n: n * TICK),
                ),
                max_size=8,
            )
        )
        # Recording begun mid-run begins between ticks: at a tick that ends
        # a serialization, whether that packet counts as departed already
        # depends on whether its departure event has fired, which is the
        # one thing the two models do not share.
        record_at = {
            "no": None,
            "before": 0.0,
            "during": (data.draw(st.integers(0, horizon_ticks)) + 0.5) * TICK,
        }[recorded]
        live = _run(Link, program, queue_spec, delay_s, chained, record_at, probes, samples)
        ref = _run(ReferenceLink, program, queue_spec, delay_s, chained, record_at, probes, samples)
        # The reference link spends an event on every serialization's end.
        assert live.pop("events") <= ref.pop("events")
        assert live == ref

    @given(
        program=_PROGRAMS,
        queue_spec=_QUEUES,
        delay_s=st.sampled_from([0.0, 2.0**-9, 0.003]),
        chained=st.booleans(),
        probes=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_recorder_only_writes(self, program, queue_spec, delay_s, chained, probes):
        # Ties included: a recording link (a recorder's, or one whose departures
        # were requested) delivers, drops and averages exactly like a bare one,
        # and fires exactly its calendar: recording schedules nothing.
        bare = _run(Link, program, queue_spec, delay_s, chained, None, probes, [])
        recorded = _run(Link, program, queue_spec, delay_s, chained, 0.0, probes, [])
        departed = recorded.pop("departed")
        assert bare.pop("departed") == []
        assert recorded == bare  # "events" included
        # One departure per delivered packet, a propagation delay before it,
        # counting that packet's bytes.
        delivered = recorded["delivered"]
        assert [when + delay_s for when, _ in departed] == [when for when, _ in delivered]
        sizes = [program[seq][0] for _, seq in delivered]
        assert [total for _, total in departed] == list(itertools.accumulate(sizes))

    @pytest.mark.parametrize("link_cls", [Link, ReferenceLink])
    def test_arrival_at_the_instant_a_serialization_ends_starts_right_then(self, link_cls):
        # 1000 bytes take 1000 ticks; the second packet arrives on the tick
        # the first one ends and goes on the wire at that tick.
        sim = Simulator()
        link = link_cls(sim, BANDWIDTH_BPS, 0.0, DropTailQueue(1))
        arrived = []
        link.connect(lambda p: arrived.append((sim.now, p.seq)))
        sim.at(0.0, link.send, Packet(0, DATA, 0, 1000, 0, 1))
        sim.at(1000 * TICK, link.send, Packet(0, DATA, 1, 1000, 0, 1))
        sim.run()
        assert arrived == [(1000 * TICK, 0), (2000 * TICK, 1)]

    @pytest.mark.parametrize("recorded", [False, True])
    def test_two_arrivals_at_the_instant_a_serialization_ends(self, recorded):
        # The case outside the oracle: capacity 1, two packets on the tick
        # the first serialization ends.  The transmitter is free by then
        # (one starts, one waits), recorded or not: recording only writes.
        # In the reference link both queue behind the first packet's
        # departure event and the second is dropped.
        def drive(link_cls):
            sim = Simulator()
            link = link_cls(sim, BANDWIDTH_BPS, 0.0, DropTailQueue(1))
            arrived, departures = [], SeriesProbe()
            link.connect(lambda p: arrived.append(p.seq))
            if recorded:
                _record_departures(link, departures)
            sim.at(0.0, link.send, Packet(0, DATA, 0, 1000, 0, 1))
            sim.at(1000 * TICK, link.send, Packet(0, DATA, 1, 1000, 0, 1))
            sim.at(1000 * TICK, link.send, Packet(0, DATA, 2, 1000, 0, 1))
            sim.run()
            return arrived, [(when / TICK, total) for when, total in departures]

        assert drive(ReferenceLink)[0] == [0, 1]
        arrived, departed = drive(Link)
        assert arrived == [0, 1, 2]
        # Every packet is recorded once, stamped with the tick its own
        # serialization ends.
        assert departed == ([(1000, 1000), (2000, 2000), (3000, 3000)] if recorded else [])


class TestTimeBasedCounters:
    def _link(self, **kwargs):
        sim = Simulator()
        link = Link(sim, 8000.0, 0.25, **kwargs)  # 1000 bytes take 1 s
        link.connect(lambda p: None)
        return sim, link

    def test_counters_follow_the_clock_without_a_departure_event(self):
        sim, link = self._link()
        first = Packet(0, DATA, 0, 1000, 0, 1)
        link.send(first)
        assert len(sim._heap) == 1  # the delivery; nothing at the end of serialization
        assert (link.packets_sent, link.in_service) == (0, first)
        sim.run(until=0.5)
        assert (link.packets_sent, link.in_service) == (0, first)
        sim.run(until=1.0)
        assert (link.packets_sent, link.in_service) == (1, None)

    def test_recording_mid_serialization_writes_it_now(self):
        sim, link = self._link()
        departures = SeriesProbe()
        link.send(Packet(0, DATA, 0, 1000, 0, 1))
        sim.run(until=0.5)
        link.record_departures(departures)
        assert list(departures) == [(1.0, 1000.0)]  # at once, stamped with its end
        assert len(sim._heap) == 1  # and nothing scheduled for it
        link.send(Packet(0, DATA, 1, 1000, 0, 1))
        sim.run()
        assert list(departures) == [(1.0, 1000.0), (2.0, 2000.0)]
        assert link.packets_sent == 2

    def test_recording_beside_a_wake_up_writes_once(self):
        sim, link = self._link()
        first, second = SeriesProbe(), SeriesProbe()
        link.send(Packet(0, DATA, 0, 1000, 0, 1))
        sim.run(until=0.25)
        link.record_departures(first)
        link.send(Packet(0, DATA, 1, 1000, 0, 1))  # waits: a wake-up is pending too
        sim.run(until=0.5)
        # A second request restarts the count from the packet on the wire.
        link.record_departures(second)
        sim.run()
        assert list(first) == [(1.0, 1000.0)]
        assert list(second) == [(1.0, 1000.0), (2.0, 2000.0)]

    def test_a_run_stopped_mid_serialization_holds_it_after_the_horizon(self):
        sim, link = self._link()
        departures = SeriesProbe()
        link.record_departures(departures)
        link.send(Packet(0, DATA, 0, 1000, 0, 1))
        link.send(Packet(0, DATA, 1, 500, 0, 1))
        sim.run(until=1.25)
        assert list(departures) == [(1.0, 1000.0), (1.5, 1500.0)]
        assert link.packets_sent == 1  # the counter keeps time

    def test_monitor_attached_mid_serialization_counts_departures_from_then_on(self):
        from repro.net.monitor import LinkMonitor

        sim, link = self._link()
        link.send(Packet(0, DATA, 0, 1000, 0, 1))
        sim.run(until=0.5)
        monitor = LinkMonitor(sim, "late")
        monitor.attach(link)
        monitor.record_departures()
        link.send(Packet(0, DATA, 1, 500, 0, 1))
        sim.run()
        assert list(monitor.departures) == [(1.0, 1000.0), (1.5, 1500.0)]
        assert monitor.arrivals.count == 1  # only the packet offered after attach

    def test_unconnected_link_still_raises(self):
        sim = Simulator()
        with pytest.raises(RuntimeError):
            Link(sim, 8000.0, 0.0).send(Packet(0, DATA, 0, 1000, 0, 1))
