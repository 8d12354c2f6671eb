"""Tests for the telemetry subsystem (``repro.telemetry``).

Covers the typed probes, the recorder's channel namespace, capture
contexts, probe emission ordering under the event loop, and the JSONL
trace export / :class:`TraceReader` round trip.
"""

import gc
import json
import math
import struct
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Dumbbell
from repro.sim import Simulator
from repro.telemetry import (
    TRACE_SCHEMA_VERSION,
    CounterProbe,
    LinkMetrics,
    Recorder,
    SeriesProbe,
    TraceReader,
    active_recorder,
    capture,
    probes,
)
from repro.telemetry.probes import check_time_ordered, pack_column, unpack_column


def _packed(*values):
    return pack_column(array("d", values))


def _line_record(probe):
    """The trace record ``Recorder`` writes for ``probe``, as a dict: kind,
    sample count and packed columns (the channel name aside)."""
    record = {"kind": probe.kind, "n": len(probe)}
    for column in probe.columns:
        record[column] = pack_column(getattr(probe, column))
    return record


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


class TestCounterProbe:
    def test_count_and_event_times(self):
        probe = CounterProbe("drops")
        for t in (1.0, 2.0, 2.0, 5.0):
            probe.increment(t)
        assert probe.count == 4
        assert list(probe.times) == [1.0, 2.0, 2.0, 5.0]
        assert list(probe.values) == [1.0, 2.0, 3.0, 4.0]

    def test_count_in_is_half_open(self):
        probe = CounterProbe()
        for t in (1.0, 2.0, 3.0):
            probe.increment(t)
        assert probe.count_in(1.0, 3.0) == 2  # start included, end excluded
        assert probe.count_in(1.0, 3.5) == 3
        # adjacent windows tile without double counting
        assert probe.count_in(0.0, 2.0) + probe.count_in(2.0, 4.0) == 3

    def test_rejects_time_regression(self):
        probe = CounterProbe()
        probe.increment(2.0)
        with pytest.raises(ValueError):
            probe.increment(1.0)

    def test_load_round_trip(self):
        probe = CounterProbe("drops")
        probe.increment(1.0)
        probe.increment(4.0)
        probe.increment(4.0)
        rec = Recorder()
        rec.adopt("drops", probe)
        snap = json.loads(rec.export_text().splitlines()[1])
        assert sorted(snap) == ["channel", "kind", "n", "times"]  # one column on disk
        clone = CounterProbe("drops")
        clone.load(unpack_column(snap["times"], snap["n"]))
        assert clone.count == probe.count == snap["n"]
        assert clone.count_in(0.0, 2.0) == probe.count_in(0.0, 2.0)
        assert list(clone.values) == [1.0, 2.0, 3.0]
        clone.increment(4.0)
        with pytest.raises(ValueError):
            clone.increment(3.0)  # the loaded tail still guards the order

    @pytest.mark.parametrize(
        "totals",
        [
            # (the line's total n, the event times its column packs)
            (2, [0.5, 1.0, 1.0]),
            (4, [0.5, 1.0, 1.0]),
            (3, [1.0, 0.5, 1.0]),
            (3, [0.5, 1.0, 0.75]),
        ],
    )
    def test_load_rejects_totals_that_are_not_one_per_event(self, totals):
        # The totals are not stored, only their last value n: a column that
        # does not hold exactly one time per event, in event order, must not
        # be re-read as a counter (count_in bisects it).
        n, times = totals
        with pytest.raises(ValueError, match="bytes, n = |time-ordered"):
            CounterProbe("drops").load(unpack_column(pack_column(array("d", times)), n))


class TestSeriesProbe:
    def test_record_and_iterate(self):
        probe = SeriesProbe("cwnd")
        probe.record(0.0, 1.0)
        probe.record(1.0, 2.0)
        assert list(probe) == [(0.0, 1.0), (1.0, 2.0)]
        assert len(probe) == 2

    def test_rejects_decreasing_times(self):
        probe = SeriesProbe()
        probe.record(1.0, 0.0)
        with pytest.raises(ValueError):
            probe.record(0.5, 0.0)


class TestWindowConventions:
    def test_counters_count_start_to_end_and_bytes_grow_after_start_to_end(self):
        """A counter counts [start, end); a cumulative channel is read as of
        a time, so its growth covers (start, end]: a byte recorded when its
        serialization ends belongs to the window that ends then."""
        link = LinkMetrics("link", bandwidth_bps=8000.0)
        link.departures = SeriesProbe("departed_bytes")
        link.arrivals.increment(1.0)
        link.arrivals.increment(2.0)  # at exactly end: outside
        link.departures.record(1.0, 100.0)  # at exactly start: outside
        link.departures.record(2.0, 300.0)  # at exactly end: inside
        assert link.arrivals_in(1.0, 2.0) == 1
        assert link.departed_bytes_in(1.0, 2.0) == 200.0
        assert link.utilization(1.0, 2.0) == 0.2  # 200 of the 1000 bytes a second


# ---------------------------------------------------------------------------
# Recorder and capture contexts
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_adopt_is_idempotent_for_the_same_probe(self):
        rec = Recorder()
        probe = CounterProbe("drops")
        assert rec.adopt("link.b.drops", probe) is probe
        assert rec.adopt("link.b.drops", probe) is probe

    def test_adopting_a_different_probe_is_an_error(self):
        rec = Recorder()
        rec.adopt("link.b.drops", CounterProbe())
        with pytest.raises(ValueError):
            rec.adopt("link.b.drops", CounterProbe())

    def test_annotate(self):
        rec = Recorder()
        rec.annotate("flows", [1, 2])
        assert rec.meta["flows"] == [1, 2]


class TestCapture:
    def test_stack_discipline(self):
        assert active_recorder() is None
        with capture() as outer:
            assert active_recorder() is outer
            with capture() as inner:
                assert active_recorder() is inner
            assert active_recorder() is outer
        assert active_recorder() is None

    def test_stack_unwinds_on_error(self):
        with pytest.raises(RuntimeError):
            with capture():
                raise RuntimeError("boom")
        assert active_recorder() is None


# ---------------------------------------------------------------------------
# Emission ordering under the event loop
# ---------------------------------------------------------------------------


def _run_traffic():
    """A small dumbbell run with one TCP flow, captured; (sim, net, recorder)."""
    from repro.cc.tcp import new_tcp_flow

    with capture() as recorder:
        sim = Simulator()
        net = Dumbbell(sim, bandwidth_bps=1e6, rtt_s=0.05)
        sender, receiver = new_tcp_flow(sim)
        from repro.cc.base import establish

        establish(net, sender, receiver)
        net.monitor.sample_queue(0.05)
        sender.start()
        sim.run(until=4.0)
    return sim, net, recorder


class TestEventLoopEmission:
    def test_channels_are_adopted_and_time_ordered(self):
        sim, net, rec = _run_traffic()
        for expected in (
            "link.bottleneck.arrivals",
            "link.bottleneck.drops",
            "link.bottleneck.departed_bytes",
            "link.bottleneck.queue_pkts",
            "flow.0.bytes",
            "flow.0.cwnd",
            "flow.0.timeouts",
        ):
            assert expected in rec.channels, expected
        for name, probe in rec.channels.items():
            times = list(probe.times)
            assert times == sorted(times), name
        assert rec.meta["link.bottleneck.bandwidth_bps"] == 1e6

    def test_channel_data_matches_the_live_monitor(self):
        sim, net, rec = _run_traffic()
        arrivals = rec.channels["link.bottleneck.arrivals"]
        assert arrivals is net.monitor.arrivals  # adopted, not copied
        assert arrivals.count == net.monitor.arrivals_in(0.0, sim.now + 1.0)
        assert arrivals.count > 0

    def test_a_link_is_sampled_at_one_period(self):
        sim = Simulator()
        net = Dumbbell(sim, bandwidth_bps=1e6, rtt_s=0.05)
        series = net.monitor.sample_queue(0.5)
        with pytest.raises(RuntimeError, match="already sampled"):
            net.monitor.sample_queue(0.25)
        sim.run(until=2.0)
        assert list(series.times) == [0.5, 1.0, 1.5, 2.0]  # one sampler, one channel

    def test_queue_samples_fall_on_the_period(self):
        sim = Simulator()
        net = Dumbbell(sim, bandwidth_bps=1e6, rtt_s=0.05)
        series = net.monitor.sample_queue(0.5)
        sim.run(until=2.0)
        assert list(series.times) == [0.5, 1.0, 1.5, 2.0]

    def test_sample_queue_requires_attachment(self):
        from repro.net.monitor import LinkMonitor

        monitor = LinkMonitor(Simulator())
        with pytest.raises(RuntimeError):
            monitor.sample_queue(0.1)

    def test_sample_queue_needs_a_positive_period(self):
        sim = Simulator()
        net = Dumbbell(sim, bandwidth_bps=1e6, rtt_s=0.05)
        with pytest.raises(ValueError):
            net.monitor.sample_queue(0.0)


# ---------------------------------------------------------------------------
# Pay-for-use: a channel is written for a recorder or a request, never idly
# ---------------------------------------------------------------------------


def _census_run(request_departures=False):
    """TCP and TFRC forward, TCP reverse, 12 s on a 500 kbps dumbbell."""
    from repro.cc import establish, new_tcp_flow, new_tfrc_flow
    from repro.sim import RngRegistry

    sim = Simulator()
    net = Dumbbell(sim, bandwidth_bps=5e5, rtt_s=0.05, rng=RngRegistry(7))
    senders = []
    for make, forward in (
        (new_tcp_flow, True),
        (lambda s: new_tfrc_flow(s, n_intervals=6), True),
        (new_tcp_flow, False),
    ):
        sender, receiver = make(sim)
        establish(net, sender, receiver, forward=forward)
        sender.start_at(0.01 * len(senders))
        senders.append(sender)
    if request_departures:
        net.monitor.record_departures()
        probe = net.monitor.departures
        net.monitor.record_departures()  # idempotent: one probe, one channel
        assert net.monitor.departures is probe and net.bottleneck._record is probe
    sim.run(until=12.0)
    return net, senders


class TestPayForUse:
    #: Every channel of ``_census_run`` and its length, as the commit before
    #: pay-for-use wrote them under a recorder.  A recorder still gets all.
    #: The two ``departed_bytes`` lengths are one more than that commit's
    #: (955, 958): each link now writes a serialization when it starts, so
    #: the packet still on the wire at the 12 s horizon is recorded too.
    RECORDED = {
        "link.bottleneck.arrivals": 1042,
        "link.bottleneck.drops": 81,
        "link.bottleneck.marks": 0,
        "link.bottleneck.departed_bytes": 956,
        "link.bottleneck_rev.arrivals": 1035,
        "link.bottleneck_rev.drops": 72,
        "link.bottleneck_rev.marks": 0,
        "link.bottleneck_rev.departed_bytes": 959,
        "flow.0.cwnd": 293,
        "flow.0.timeouts": 6,
        "flow.1.rate": 9,
        "flow.2.cwnd": 212,
        "flow.2.timeouts": 4,
        "flow.0.bytes": 490,
        "flow.1.bytes": 7,
        "flow.2.bytes": 403,
    }
    #: What something reads after every dumbbell run: the always-on channels.
    ALWAYS_ON = (
        "link.bottleneck.arrivals",
        "link.bottleneck.drops",
        "flow.0.timeouts",
        "flow.2.timeouts",
        "flow.0.bytes",
        "flow.1.bytes",
        "flow.2.bytes",
    )

    def test_a_recorder_gets_every_channel_as_before(self):
        with capture() as rec:
            net, _ = _census_run()
        assert {name: len(probe) for name, probe in rec.channels.items()} == self.RECORDED
        assert list(rec.channels) == list(self.RECORDED)  # export order too
        # Both bottlenecks recorded, and the calendar of the bare run below.
        assert net.sim.events_fired == 8090

    def test_without_a_recorder_only_the_read_channels_are_written(self):
        net, senders = _census_run()
        assert net.monitor.departures is None
        written = {
            "link.bottleneck.arrivals": net.monitor.arrivals,
            "link.bottleneck.drops": net.monitor.drops,
            "link.bottleneck.marks": net.monitor.marks,
        }
        for flow_id, sender in enumerate(senders):
            for key, probe in sender.probes.items():
                written[f"flow.{flow_id}.{key}"] = probe
            written[f"flow.{flow_id}.bytes"] = net.accountant._probes[flow_id]
        lengths = {name: len(probe) for name, probe in written.items() if len(probe)}
        assert lengths == {name: self.RECORDED[name] for name in self.ALWAYS_ON}
        # The commit before pay-for-use, which tapped both bottlenecks for
        # every run, fired 8681.  8064 of these call something; the other 26
        # are retired timer entries (pulled forward or cancelled), which pop,
        # count and return at once.  A recorder adds none.
        assert net.sim.events_fired == 8090

    def test_no_reverse_monitor_without_a_recorder_and_the_link_still_delivers(self):
        net, senders = _census_run()
        assert net.reverse_monitor is None
        assert net.reverse_bottleneck.queue.telemetry is None
        assert net.reverse_bottleneck.packets_sent > 900  # flow 2's data, the others' ACKs
        assert senders[0].packets_sent > 400  # its ACKs came back over it
        with capture():
            traced = Dumbbell(Simulator(), bandwidth_bps=5e5, rtt_s=0.05)
        assert traced.reverse_monitor is not None
        assert traced.reverse_monitor.departures is not None

    def test_reading_unrecorded_departures_raises_and_names_the_request(self):
        net, _ = _census_run()
        for read in (net.monitor.utilization, net.monitor.departed_bytes_in):
            with pytest.raises(RuntimeError, match=r"record_departures\(\).*capture\(\)"):
                read(0.0, 12.0)

    def test_requested_departures_equal_the_recorded_ones(self):
        # 955 departures by the horizon, plus the packet on the wire there.
        with capture():
            recorded, _ = _census_run()
        requested, _ = _census_run(request_departures=True)
        assert len(requested.monitor.departures) == 956
        assert list(requested.monitor.departures) == list(recorded.monitor.departures)
        assert requested.monitor.utilization(2.0, 12.0) == recorded.monitor.utilization(2.0, 12.0)
        assert requested.reverse_monitor is None  # a request is for one channel

    def test_a_run_stopped_mid_serialization_records_it_after_the_horizon(self):
        with capture():
            net, _ = _census_run()
        # Pinned: what the windows ending at the horizon read when each
        # departure was written at its end, with nothing after 12 s.
        pinned = {
            "bottleneck": ((0.71552, 447200.0), (0.0, 0.0), 545080.0),
            "bottleneck_rev": ((0.619008, 386880.0), (1.600000000000034, 1000.0), 471280.0),
        }
        for monitor in (net.monitor, net.reverse_monitor):
            series = monitor.departures
            assert sum(when > 12.0 for when in series.times) == 1
            assert series.times[-1] > 12.0
            assert series.values[-1] - series.values[-2] == 1000.0  # that one packet
            window, tail, total = pinned[monitor.name]
            for start, (utilization, departed) in ((2.0, window), (11.99, tail)):
                assert monitor.utilization(start, 12.0) == utilization
                assert monitor.departed_bytes_in(start, 12.0) == departed
            assert monitor.departed_bytes_in(0.0, 12.0) == total

    def test_record_departures_requires_attachment(self):
        from repro.net.monitor import LinkMonitor

        with pytest.raises(RuntimeError, match="not attached"):
            LinkMonitor(Simulator()).record_departures()

    def test_an_unrecorded_sender_writes_no_series(self):
        _, senders = _census_run()
        assert len(senders[0].probes["cwnd"]) == 0
        assert len(senders[1].probes["rate"]) == 0
        assert senders[0].timeouts == 6  # the counter is always on


class TestTraceIsAWrite:
    """A traced job fires exactly the calendar of its untraced twin.

    The jobs are the ones the ``trace_roundtrip`` benchmark records: fig03
    shortened (TCP and TFRC) and fig07's first point at the sweep's length.
    Recording departures is a probe write, so it schedules nothing.
    """

    FIG03_SHORT = {"cbr_stop": 20.0, "cbr_restart": 28.0, "end": 40.0}
    FIG07_SWEEP = {
        "periods": (0.4, 4.0),
        "min_duration_s": 12.0,
        "max_duration_s": 12.0,
        "warmup_s": 4.0,
    }

    @staticmethod
    def _fired(jb):
        from repro.experiments.jobs import run_job
        from repro.sim import fired_in_process

        before = fired_in_process()
        value, trace = run_job(jb)
        return fired_in_process() - before, value, trace

    @pytest.mark.parametrize("figure, index", [("fig03", 0), ("fig03", 2), ("fig07", 0)])
    def test_a_traced_job_fires_its_untraced_twins_calendar(self, figure, index):
        import dataclasses

        from repro.experiments import ALL_FIGURES

        overrides = self.FIG03_SHORT if figure == "fig03" else self.FIG07_SWEEP
        jb = ALL_FIGURES[figure].jobs("fast", **overrides)[index]
        fired, value, trace = self._fired(dataclasses.replace(jb, trace=False))
        traced = self._fired(dataclasses.replace(jb, trace=True))
        assert trace is None and traced[2] is not None
        assert traced[:2] == (fired, value)
        assert fired > 100_000


# ---------------------------------------------------------------------------
# Trace export -> TraceReader round trip
# ---------------------------------------------------------------------------


class TestTraceRoundTrip:
    def _recorder(self):
        rec = Recorder()
        drops = rec.adopt("link.b.drops", CounterProbe())
        drops.increment(0.5)
        drops.increment(1.25)
        drops.increment(1.25)
        rate = rec.adopt("flow.0.rate", SeriesProbe())
        rate.record(0.0, 10.0)
        rate.record(1.0, 12.5)
        queue = rec.adopt("link.b.queue_pkts", SeriesProbe())
        queue.record(0.75, 4.0)
        rec.annotate("link.b.bandwidth_bps", 1e6)
        return rec

    def test_loads_rebuilds_every_channel(self):
        rec = self._recorder()
        reader = TraceReader.loads(rec.export_text())
        assert set(reader.channels) == set(rec.channels)
        for name, probe in rec.channels.items():
            clone = reader.channel(name)
            assert clone.kind == probe.kind, name
            assert _line_record(clone) == _line_record(probe), name
        assert reader.meta == rec.meta

    def test_export_file_round_trip(self, tmp_path):
        # On disk a trace is the result cache's: stored beside the job's record.
        from repro.experiments.cache import ResultCache
        from repro.experiments.jobs import job

        cache, jb = ResultCache(tmp_path), job("trace", "timeout_models")
        cache.store_trace(jb, self._recorder().export_text())
        reader = TraceReader.loads(cache.load_trace(jb))
        assert reader.channel("link.b.drops").count == 3

    def test_export_is_deterministic(self):
        assert self._recorder().export_text() == self._recorder().export_text()

    def test_link_layout(self):
        rec = self._recorder()
        reader = TraceReader.loads(rec.export_text())
        link = reader.link("b")
        assert link.drops_in(0.0, 1.0) == 1
        assert link.drops_in(0.0, 2.0) == 3
        assert link.bandwidth_bps == 1e6
        with pytest.raises(KeyError):
            reader.link("nope")

    def test_flows_layout(self):
        rec = Recorder()
        probe = rec.adopt("flow.3.bytes", SeriesProbe())
        probe.record(1.0, 1000.0)
        probe.record(2.0, 3000.0)
        reader = TraceReader.loads(rec.export_text())
        flows = reader.flows()
        assert flows.flows == [3]
        assert flows.delivered_bytes(3, 0.0, 2.5) == 3000
        # delivery windows include samples at t == end (accountant convention)
        assert flows.throughput_bps(3, 0.0, 2.0) == pytest.approx(
            3000 * 8 / 2.0
        )

    def test_unknown_channel_names_the_alternatives(self):
        reader = TraceReader.loads(self._recorder().export_text())
        with pytest.raises(KeyError, match="available"):
            reader.channel("link.b.ghost")

    def test_rejects_non_trace_text(self):
        with pytest.raises(ValueError):
            TraceReader.loads("")
        with pytest.raises(ValueError):
            TraceReader.loads('{"not": "a trace"}\n')

    @pytest.mark.parametrize("version", [1, 99, "2", None])
    def test_another_schema_says_found_expected_and_how_to_re_record(self, version):
        text = self._recorder().export_text().replace(
            f'"__telemetry__": {TRACE_SCHEMA_VERSION}',
            f'"__telemetry__": {json.dumps(version)}',
        )
        with pytest.raises(
            ValueError,
            match=rf"schema {version!r} found, {TRACE_SCHEMA_VERSION} expected"
            r".*repro run FIG --trace",
        ):
            TraceReader.loads(text)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"channel": "flow.0.rate", ', "", r"line 3: not a channel record"),
            (
                '"flow.0.rate", "kind": "series", ',
                '"flow.0.rate", ',
                r"line 3: channel 'flow.0.rate': unknown channel kind None",
            ),
            (
                '"flow.0.rate", "kind": "series"',
                '"flow.0.rate", "kind": "gauge"',
                r"line 3: channel 'flow.0.rate': unknown channel kind 'gauge'",
            ),
            (
                '"flow.0.rate", "kind": "series"',
                '"flow.0.rate", "kind": ["series"]',
                r"line 3: channel 'flow.0.rate': unknown",
            ),
            ('"n": 2, "times"', '"n": 2, "time"', r"line 3: channel 'flow.0.rate'.*keys"),
            ('"n": 2, ', "", r"line 3: channel 'flow.0.rate'.*keys"),
            ('"n": 2', '"n": 2.0', r"line 3: channel 'flow.0.rate': n must be"),
            ('"n": 2', '"n": true', r"line 3: channel 'flow.0.rate': n must be"),
            ('"n": 1', '"n": -1', r"line 4: channel 'link.b.queue_pkts': n must be"),
            ('"n": 1, "times"', '"n": 1}{"times"', r"line 4: "),
            ("flow.0.rate", "link.b.drops", r"line 3: channel 'link.b.drops': an earlier line"),
        ],
    )
    def test_a_malformed_or_duplicate_line_is_a_value_error_with_its_line_number(
        self, old, new, message
    ):
        text = self._recorder().export_text()
        assert text.count(old) == 1
        with pytest.raises(ValueError, match=message):
            TraceReader.loads(text.replace(old, new))

    def test_a_counter_that_is_not_unit_steps_names_its_channel(self):
        # Schema 1 carried the totals as a second column; a counter line
        # that still has one (weighted steps or not) is refused by name.
        text = self._recorder().export_text().replace(
            '"kind": "counter", "n": 3,',
            f'"kind": "counter", "n": 3, "values": "{_packed(1.0, 2.0, 5.0)}",',
        )
        with pytest.raises(ValueError, match="line 2: channel 'link.b.drops'.*keys"):
            TraceReader.loads(text)


# ---------------------------------------------------------------------------
# The packed column: base64 of little-endian float64, the doubles themselves
# ---------------------------------------------------------------------------


def _bits(column):
    """The IEEE-754 bit patterns of ``column`` (NaN payloads compare)."""
    return struct.pack(f"<{len(column)}d", *column)


_PATTERNS = st.integers(0, 2**64 - 1).map(
    lambda word: struct.unpack("<d", struct.pack("<Q", word))[0]
)
_TIMES = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), max_size=30
).map(sorted)


class TestPackedColumns:
    @given(times=_TIMES, patterns=st.lists(_PATTERNS, min_size=30, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_every_bit_pattern_survives_export_and_load(self, times, patterns):
        rec = Recorder()
        # Adopted up front, so present when empty.
        counter = rec.adopt("c", CounterProbe())
        series = rec.adopt("s", SeriesProbe())
        for t, v in zip(times, patterns):
            counter.increment(t)
            series.record(t, v)
        text = rec.export_text()
        assert rec.export_text() == text  # two exports of one run
        reader = TraceReader.loads(text)
        for name, probe in rec.channels.items():
            clone = reader.channel(name)
            assert type(clone) is type(probe)
            assert _bits(clone.times) == _bits(probe.times) == _bits(times)
            assert _bits(clone.values) == _bits(probe.values)
        assert _bits(reader.channel("s").values) == _bits(patterns[: len(times)])

    def _trace(self):
        return TestTraceRoundTrip()._recorder().export_text()

    @pytest.mark.parametrize(
        "channel, old, new, message",
        [
            # truncated base64: a character short, then a whole quantum short
            ("flow.0.rate", _packed(10.0, 12.5), _packed(10.0, 12.5)[:-1], "padding"),
            ("flow.0.rate", _packed(10.0, 12.5), _packed(10.0, 12.5)[:-4], "bytes, n = 2"),
            # a flipped character: outside the alphabet, or a valid one that
            # moves a time behind its predecessor
            ("link.b.drops", _packed(0.5, 1.25, 1.25), "*" + _packed(0.5, 1.25, 1.25)[1:], "base64"),
            ("flow.0.rate", _packed(0.0, 1.0), _packed(0.0, -1.0), "time-ordered"),
            ("flow.0.rate", '"times": "AAAA', '"times": "AA\\nAA', "base64"),
            ("flow.0.rate", '"times": "AAAA', '"times": "\\u00e9AAA', "ASCII"),
            ("flow.0.rate", f'"times": "{_packed(0.0, 1.0)}"', '"times": [0.0, 1.0]', "not list"),
            # n off by one, either way, on either kind
            ("link.b.drops", '"n": 3', '"n": 2', "bytes, n = 2"),
            ("link.b.drops", '"n": 3', '"n": 4', "bytes, n = 4"),
            ("flow.0.rate", '"n": 2', '"n": 3', "bytes, n = 3"),
            # unordered counter times (schema 1 never checked; count_in bisects)
            ("link.b.drops", _packed(0.5, 1.25, 1.25), _packed(0.5, 1.25, 1.0), "time-ordered"),
            # a counter has one column, a series two
            ("link.b.drops", '"n": 3,', f'"n": 3, "values": "{_packed(1.0, 2.0, 3.0)}",', "keys"),
            ("flow.0.rate", f', "values": "{_packed(10.0, 12.5)}"', "", "keys"),
        ],
    )
    def test_a_corrupt_column_is_a_value_error_naming_its_channel(
        self, channel, old, new, message
    ):
        text = self._trace()
        line = next(ln for ln in text.splitlines() if f'"{channel}"' in ln)
        assert line.count(old) == 1
        with pytest.raises(ValueError, match=f"channel '{channel}': .*{message}"):
            TraceReader.loads(text.replace(line, line.replace(old, new)))

    def test_a_big_endian_host_writes_and_reads_the_same_text(self, monkeypatch):
        little = self._trace()
        # What a big-endian host holds in memory for the same doubles.
        host = TraceReader.loads(little)
        for probe in host.channels.values():
            for column in probe.columns:
                getattr(probe, column).byteswap()
        monkeypatch.setattr(probes, "_SWAP", not probes._SWAP)
        rec = Recorder()
        rec.meta = host.meta
        for name, probe in host.channels.items():
            rec.adopt(name, probe)
        assert rec.export_text() == little
        # ... and reads back from it (column by column: the order check
        # would read the swapped doubles with this host's eyes).
        for line in little.splitlines()[1:]:
            record = json.loads(line)
            probe = host.channel(record["channel"])
            for column in probe.columns:
                got = unpack_column(record[column], record["n"])
                assert got.tobytes() == getattr(probe, column).tobytes()

    def test_bytes_per_value_are_packed_not_printed(self):
        # Per number a reader gets back (a sample is a time and a value):
        # 4/3 x 8 bytes for a packed double plus the line's names, and a
        # counter's totals cost nothing.  Printed floats are ~18 bytes each,
        # so a regression fails here without a stopwatch.
        n = 3000
        rec = Recorder()
        arrivals = rec.adopt("link.bottleneck.arrivals", CounterProbe())
        cwnd = rec.adopt("flow.12.cwnd", SeriesProbe())
        for i in range(n):
            arrivals.increment(i / 7)
            cwnd.record(i / 7, 1e6 / (i + 1))
        counter, series = rec.export_text().splitlines()[1:]
        assert len(series) / (2 * n) <= 11.5
        assert len(counter) / (2 * n) <= 6


class TestSimulationTraceRoundTrip:
    def test_replayed_metrics_match_live(self):
        sim, net, rec = _run_traffic()
        reader = TraceReader.loads(rec.export_text())
        live, replayed = net.monitor, reader.link("bottleneck")
        for start, end in ((0.0, 1.0), (1.0, 2.5), (0.0, 4.0)):
            assert replayed.arrivals_in(start, end) == live.arrivals_in(start, end)
            assert replayed.drops_in(start, end) == live.drops_in(start, end)
            live_loss = live.loss_rate(start, end)
            replay_loss = replayed.loss_rate(start, end)
            assert (math.isnan(live_loss) and math.isnan(replay_loss)) or (
                replay_loss == live_loss
            )
        flows = reader.flows()
        assert flows.flows == net.accountant.flows
        for fid in flows.flows:
            assert flows.throughput_bps(fid, 0.0, 4.0) == (
                net.accountant.throughput_bps(fid, 0.0, 4.0)
            )


# ---------------------------------------------------------------------------
# Windowed-count correctness: property tests against a brute-force oracle
# ---------------------------------------------------------------------------


class TestCountInProperties:
    @given(
        times=st.lists(st.floats(0.0, 100.0, allow_nan=False), max_size=50),
        window=st.tuples(
            st.floats(-10.0, 110.0, allow_nan=False),
            st.floats(-10.0, 110.0, allow_nan=False),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_counts_match_brute_force(self, times, window):
        counter = CounterProbe()
        for t in sorted(times):
            counter.increment(t)
        start, end = min(window), max(window)
        got = counter.count_in(start, end)
        assert isinstance(got, int)
        assert got == sum(1 for t in times if start <= t < end)
        # The totals column is synthesised on read, not stored: 1.0 .. n.
        assert list(counter.values) == [float(i + 1) for i in range(len(times))]
        rec = Recorder()
        rec.adopt("c", counter)
        assert '"values"' not in rec.export_text()


# ---------------------------------------------------------------------------
# SeriesProbe.load: a loaded series keeps the decoded arrays
# ---------------------------------------------------------------------------


class TestSeriesProbeLoad:
    def test_load_matches_repeated_record(self):
        loaded, recorded = SeriesProbe("s"), SeriesProbe("s")
        times = [0.0, 1.0, 1.0, 2.5]
        values = [1.0, 2.0, 3.0, 4.0]
        loaded.load(array("d", times), array("d", values))
        for t, v in zip(times, values):
            recorded.record(t, v)
        assert list(loaded) == list(recorded)

    def test_load_keeps_the_arrays_it_is_handed(self):
        probe = SeriesProbe("q")
        times, values = array("d", [0.0, 1.0]), array("d", [5.0, 6.0])
        probe.load(times, values)
        assert probe.times is times and probe.values is values
        probe.record(1.0, 7.0)  # the loaded tail still guards the order
        with pytest.raises(ValueError):
            probe.record(0.5, 8.0)

    def test_unordered_input_raises_and_leaves_probe_untouched(self):
        probe = SeriesProbe("s")
        probe.record(0.0, 1.0)
        with pytest.raises(ValueError, match="time-ordered: 0.5 < 1.0"):
            probe.load(array("d", [1.0, 0.5]), array("d", [1.0, 2.0]))
        assert list(probe) == [(0.0, 1.0)]  # nothing was partially loaded

    def test_load_rejects_columns_of_unequal_length(self):
        probe = SeriesProbe("s")
        with pytest.raises(ValueError, match="3 times but 2 values"):
            probe.load(array("d", [0.0, 1.0, 2.0]), array("d", [1.0, 2.0]))
        assert len(probe) == 0

    def test_load_empty_is_empty(self):
        probe = SeriesProbe("s")
        probe.record(0.0, 1.0)
        probe.load(array("d"), array("d"))
        assert len(probe) == 0

    def test_trace_reader_round_trips_loaded_series(self):
        recorder = Recorder()
        probe = recorder.adopt("flow.1.bytes", SeriesProbe())
        for t in range(5):
            probe.record(float(t), float(t * 100))
        reader = TraceReader.loads(recorder.export_text())
        clone = reader.channel("flow.1.bytes")
        assert list(clone.times) == list(probe.times)
        assert list(clone.values) == list(probe.values)


class TestCheckTimeOrdered:
    N = 3 * 4096 + 5  # three chunks of 4096 samples and a short fourth

    @pytest.mark.parametrize(
        "at", [1, 2, 4095, 4096, 4097, 8192, 8193, 3 * 4096 + 2]
    )
    def test_a_regression_anywhere_names_the_first_pair(self, at):
        times = array("d", range(self.N))
        times[at] = at - 1.5  # behind its predecessor
        times[at + 2] = -1.0  # a later one, not named
        with pytest.raises(ValueError) as caught:
            check_time_ordered(times)
        assert str(caught.value) == (
            f"samples must be time-ordered: {at - 1.5} < {float(at - 1)}"
        )

    @pytest.mark.parametrize("n", [0, 1, 4096, 4097, 8193])
    def test_ordered_columns_with_ties_pass(self, n):
        check_time_ordered(array("d", (float(i // 3) for i in range(n))))


# ---------------------------------------------------------------------------
# Export and load: the bytes, the line numbers, and what each one holds
# ---------------------------------------------------------------------------

#: Channel names a line must escape: a quote, a backslash, a control
#: character, non-ASCII text.
_AWKWARD_NAMES = [
    'flow."q".bytes',
    "link.a\\b.drops",
    "flow.\t\x01.cwnd",
    "link.débit→.queue_pkts",
]


def _awkward_recorder():
    rec = Recorder()
    rec.annotate("link.é.bandwidth_bps", 1e6)
    for index, name in enumerate(_AWKWARD_NAMES):
        for kind in (CounterProbe, SeriesProbe):
            probe = rec.adopt(f"{name}.{kind.kind}", kind())
            for i in range(index + 2):
                if kind is CounterProbe:
                    probe.increment(i / 3)
                else:
                    probe.record(i / 3, -0.0 if i == 0 else i * 1e300)
    rec.adopt("empty", SeriesProbe())
    return rec


def _big_recorder(channels=10, samples=10_000):
    """About 100 000 samples per channel kind, over ten channels each."""
    rec = Recorder()
    for c in range(channels):
        counter = rec.adopt(f"link.{c}.drops", CounterProbe())
        series = rec.adopt(f"flow.{c}.bytes", SeriesProbe())
        queue = rec.adopt(f"link.{c}.queue_pkts", SeriesProbe())
        for i in range(samples):
            t = i / 7
            counter.increment(t)
            series.record(t, 1000.0 * i)
            queue.record(t, float(i % 50))
    return rec


def _traced_peak(fn):
    """(fn's result, the most tracemalloc saw allocated during fn)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestExportBytes:
    def test_every_line_is_the_sorted_dump_of_its_record(self):
        rec = _awkward_recorder()
        lines = rec.export_text().split("\n")
        assert lines.pop() == ""  # the text ends with a newline
        header = {"__telemetry__": TRACE_SCHEMA_VERSION, "meta": rec.meta}
        assert lines[0] == json.dumps(header, sort_keys=True)
        assert len(lines) == 1 + len(rec.channels)
        for line, (name, probe) in zip(lines[1:], rec.channels.items()):
            assert line == json.dumps({"channel": name, **_line_record(probe)}, sort_keys=True)
        assert {json.loads(line)["channel"] for line in lines[1:]} == set(rec.channels)

    def test_export_writes_the_bytes_of_export_text(self, tmp_path):
        from repro.experiments.cache import ResultCache
        from repro.experiments.jobs import job

        rec = _awkward_recorder()
        cache, jb = ResultCache(tmp_path), job("trace", "timeout_models")
        cache.store_trace(jb, rec.export_text())
        assert cache.trace_path(jb).read_bytes() == rec.export_text().encode("utf-8")
        loaded = TraceReader.loads(cache.load_trace(jb))
        assert loaded.meta == rec.meta
        assert list(loaded.channels) == list(rec.channels)
        for name, probe in rec.channels.items():
            clone = loaded.channel(name)
            assert type(clone) is type(probe)
            assert _line_record(clone) == _line_record(probe)


class TestReaderLineNumbers:
    """A trace edited by hand or by another tool still names the line that
    ``str.splitlines()`` numbers."""

    def _lines(self):
        return TestTraceRoundTrip()._recorder().export_text().splitlines()

    @pytest.mark.parametrize(
        "layout, line",
        [
            # (how the four lines are joined, the line number of a corrupt
            # third line: "flow.0.rate" with its kind cut out)
            (lambda ls: "\r\n".join(ls) + "\r\n", 3),
            (lambda ls: "\n".join(ls), 3),
            (lambda ls: "\r\n".join(ls), 3),
            (lambda ls: "\n\n".join(ls) + "\n\n", 5),
            (lambda ls: "\n \t\n".join(ls) + "\n", 5),
            (lambda ls: "\n" + "\r\n\r\n".join(ls), 6),
            (lambda ls: "\r".join(ls) + "\r", 3),
            (lambda ls: "\r\r\n".join(ls) + "\n", 5),
            (lambda ls: "\x0c\n".join(ls), 5),
            (lambda ls: "\u2028".join(ls), 3),
        ],
    )
    def test_a_corrupt_line_keeps_its_splitlines_number(self, layout, line):
        lines = self._lines()
        good = layout(lines)
        lines[2] = lines[2].replace('"kind": "series", ', "")
        bad = layout(lines)
        assert bad.splitlines()[line - 1] == lines[2]  # the layout's own count
        message = rf"^trace line {line}: channel 'flow.0.rate': unknown channel kind None$"
        with pytest.raises(ValueError, match=message):
            TraceReader.loads(bad)
        reader = TraceReader.loads(good)
        assert list(reader.channels) == ["link.b.drops", "flow.0.rate", "link.b.queue_pkts"]

    def test_a_json_error_reads_as_it_did_on_the_bare_line(self):
        lines = self._lines()
        cut = lines[1][:-20]
        lines[1] = cut
        try:
            json.loads(cut)
        except ValueError as exc:
            expected = f"trace line 2: {exc}"
        with pytest.raises(ValueError) as caught:
            TraceReader.loads("\r\n".join(lines) + "\r\n")
        assert str(caught.value) == expected


class TestTraceMemory:
    """A trace costs its size about once at each end (tracemalloc, so the
    bounds are the same on every host)."""

    def test_export_holds_the_text_about_twice(self):
        rec = _big_recorder()
        text, peak = _traced_peak(rec.export_text)
        assert len(text) > 5_000_000
        assert peak <= 2.5 * len(text), peak / len(text)

    def test_loads_holds_little_beyond_the_arrays_it_keeps(self):
        text = _big_recorder().export_text()
        reader, peak = _traced_peak(lambda: TraceReader.loads(text))
        assert len(reader.channels) == 30
        assert peak <= 1.5 * len(text), peak / len(text)
