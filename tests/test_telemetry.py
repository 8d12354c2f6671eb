"""Tests for the telemetry subsystem (``repro.telemetry``).

Covers the typed probes, the recorder's channel namespace, capture
contexts, probe emission ordering under the event loop, and the JSONL
trace export / :class:`TraceReader` round trip.
"""

import json
import math
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Dumbbell
from repro.sim import Simulator
from repro.telemetry import (
    TRACE_SCHEMA_VERSION,
    CounterProbe,
    GaugeProbe,
    Recorder,
    SeriesProbe,
    TraceReader,
    active_recorder,
    capture,
    probes,
)
from repro.telemetry.probes import pack_column, unpack_column


def _packed(*values):
    return pack_column(array("d", values))


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
        snap = probe.snapshot()
        assert sorted(snap) == ["kind", "n", "times"]  # one column on disk
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

    def test_wraps_an_existing_series(self):
        from repro.telemetry import TimeSeries

        ts = TimeSeries("legacy")
        ts.append(0.0, 7.0)
        probe = SeriesProbe("legacy", series=ts)
        probe.record(1.0, 8.0)
        assert list(ts) == [(0.0, 7.0), (1.0, 8.0)]


class TestGaugeProbe:
    def test_sample_reads_the_callable(self):
        depth = [0]
        gauge = GaugeProbe("queue", read=lambda: depth[0])
        gauge.sample(0.0)
        depth[0] = 3
        gauge.sample(1.0)
        assert list(gauge) == [(0.0, 0.0), (1.0, 3.0)]

    def test_sample_without_read_raises(self):
        with pytest.raises(RuntimeError):
            GaugeProbe("queue").sample(0.0)


# ---------------------------------------------------------------------------
# Recorder and capture contexts
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_create_or_get_returns_the_same_probe(self):
        rec = Recorder()
        assert rec.counter("a.drops") is rec.counter("a.drops")
        assert rec.series("a.rate") is rec.series("a.rate")

    def test_kind_mismatch_raises(self):
        rec = Recorder()
        rec.counter("x")
        with pytest.raises(TypeError):
            rec.series("x")

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
            with capture(Recorder()) as inner:
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


def _run_traffic(recorder):
    """A small dumbbell run with one TCP flow, captured into ``recorder``."""
    from repro.cc.tcp import new_tcp_flow

    with capture(recorder):
        sim = Simulator()
        net = Dumbbell(sim, bandwidth_bps=1e6, rtt_s=0.05)
        sender, receiver = new_tcp_flow(sim)
        from repro.cc.base import establish

        establish(net, sender, receiver)
        net.monitor.sample_queue(0.05)
        sender.start()
        sim.run(until=4.0)
    return sim, net


class TestEventLoopEmission:
    def test_channels_are_adopted_and_time_ordered(self):
        rec = Recorder()
        sim, net = _run_traffic(rec)
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
        rec = Recorder()
        sim, net = _run_traffic(rec)
        arrivals = rec.channels["link.bottleneck.arrivals"]
        assert arrivals is net.monitor.arrivals  # adopted, not copied
        assert arrivals.count == net.monitor.arrivals_in(0.0, sim.now + 1.0)
        assert arrivals.count > 0

    def test_queue_sampler_lifecycle(self):
        sim = Simulator()
        net = Dumbbell(sim, bandwidth_bps=1e6, rtt_s=0.05)
        series = net.monitor.sample_queue(0.5)
        sim.run(until=2.0)
        n_running = len(series)
        assert n_running >= 3  # sampled at the requested cadence
        net.monitor.stop()
        sim.run(until=4.0)
        assert len(series) == n_running  # stop() really stops the task
        # restarting reuses the same gauge channel rather than shadowing
        assert net.monitor.sample_queue(0.5) is series

    def test_sample_queue_requires_attachment(self):
        from repro.net.monitor import LinkMonitor

        monitor = LinkMonitor(Simulator())
        with pytest.raises(RuntimeError):
            monitor.sample_queue(0.1)

    def test_sample_queue_default_period_needs_a_cadence(self):
        sim = Simulator()
        net = Dumbbell(sim, bandwidth_bps=1e6, rtt_s=0.05)
        with pytest.raises(ValueError):
            net.monitor.sample_queue()  # no recorder to take a cadence from


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
        net.monitor.record_departures()  # idempotent: one tap, one channel
        assert len(net.bottleneck._taps) == 1
    sim.run(until=12.0)
    return net, senders


class TestPayForUse:
    #: Every channel of ``_census_run`` and its length, as the commit before
    #: pay-for-use wrote them under a recorder.  A recorder still gets all.
    RECORDED = {
        "link.bottleneck.arrivals": 1042,
        "link.bottleneck.drops": 81,
        "link.bottleneck.marks": 0,
        "link.bottleneck.departed_bytes": 955,
        "link.bottleneck_rev.arrivals": 1035,
        "link.bottleneck_rev.drops": 72,
        "link.bottleneck_rev.marks": 0,
        "link.bottleneck_rev.departed_bytes": 958,
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
        # The same simulation without the taps' events: that commit, which
        # tapped both bottlenecks for every run, fired 8681.
        assert net.sim.events_fired == 8064

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
        with capture():
            recorded, _ = _census_run()
        requested, _ = _census_run(request_departures=True)
        assert len(requested.monitor.departures) == 955
        assert list(requested.monitor.departures) == list(recorded.monitor.departures)
        assert requested.monitor.utilization(2.0, 12.0) == recorded.monitor.utilization(2.0, 12.0)
        assert requested.reverse_monitor is None  # a request is for one channel

    def test_record_departures_requires_attachment(self):
        from repro.net.monitor import LinkMonitor

        with pytest.raises(RuntimeError, match="not attached"):
            LinkMonitor(Simulator()).record_departures()

    def test_reading_an_unrecorded_sender_series_raises(self):
        _, senders = _census_run()
        with pytest.raises(RuntimeError, match=r"cwnd was not recorded.*capture\(\)"):
            senders[0].cwnd_trace
        with pytest.raises(RuntimeError, match=r"rate was not recorded.*capture\(\)"):
            senders[1].rate_trace
        assert senders[0].timeouts == 6  # the counter is always on


# ---------------------------------------------------------------------------
# Trace export -> TraceReader round trip
# ---------------------------------------------------------------------------


class TestTraceRoundTrip:
    def _recorder(self):
        rec = Recorder()
        drops = rec.counter("link.b.drops")
        drops.increment(0.5)
        drops.increment(1.25)
        drops.increment(1.25)
        rate = rec.series("flow.0.rate")
        rate.record(0.0, 10.0)
        rate.record(1.0, 12.5)
        gauge = rec.gauge("link.b.queue_pkts", read=lambda: 4.0)
        gauge.sample(0.75)
        rec.annotate("link.b.bandwidth_bps", 1e6)
        return rec

    def test_loads_rebuilds_every_channel(self):
        rec = self._recorder()
        reader = TraceReader.loads(rec.export_text())
        assert set(reader.channels) == set(rec.channels)
        for name, probe in rec.channels.items():
            clone = reader.channel(name)
            assert clone.kind == probe.kind, name
            assert clone.snapshot() == probe.snapshot(), name
        assert reader.meta == rec.meta

    def test_export_file_round_trip(self, tmp_path):
        rec = self._recorder()
        path = rec.export(tmp_path / "trace.jsonl")
        reader = TraceReader.from_file(path)
        assert reader.counter("link.b.drops").count == 3

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
        probe = rec.series("flow.3.bytes")
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
            ('"kind": "series", ', "", r"line 3: channel 'flow.0.rate': unknown channel kind None"),
            ('"kind": "series"', '"kind": "histogram"', r"line 3: channel 'flow.0.rate': unknown"),
            ('"kind": "series"', '"kind": ["series"]', r"line 3: channel 'flow.0.rate': unknown"),
            ('"n": 2, "times"', '"n": 2, "time"', r"line 3: channel 'flow.0.rate'.*keys"),
            ('"n": 2, ', "", r"line 3: channel 'flow.0.rate'.*keys"),
            ('"n": 2', '"n": 2.0', r"line 3: channel 'flow.0.rate': n must be"),
            ('"n": 2', '"n": true', r"line 3: channel 'flow.0.rate': n must be"),
            ('"n": 1', '"n": -1', r"line 4: channel 'link.b.queue_pkts': n must be"),
            ('"kind": "gauge"', '"kind": "gauge"}{', r"line 4: "),
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

    def test_kind_accessors_check_types(self):
        reader = TraceReader.loads(self._recorder().export_text())
        with pytest.raises(TypeError):
            reader.counter("flow.0.rate")
        with pytest.raises(TypeError):
            reader.series("link.b.drops")


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
        for t, v in zip(times, patterns):
            rec.counter("c").increment(t)
            rec.series("s").record(t, v)
            rec.gauge("g", read=lambda v=v: v).sample(t)
        rec.counter("c"), rec.series("s"), rec.gauge("g")  # present when empty
        text = rec.export_text()
        assert rec.export_text() == text  # two exports of one run
        reader = TraceReader.loads(text)
        for name, probe in rec.channels.items():
            clone = reader.channel(name)
            assert type(clone) is type(probe)
            assert _bits(clone.times) == _bits(probe.times) == _bits(times)
            assert _bits(clone.values) == _bits(probe.values)
        assert _bits(reader.series("s").values) == _bits(patterns[: len(times)])

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
        for i in range(n):
            rec.counter("link.bottleneck.arrivals").increment(i / 7)
            rec.series("flow.12.cwnd").record(i / 7, 1e6 / (i + 1))
        counter, series = rec.export_text().splitlines()[1:]
        assert len(series) / (2 * n) <= 11.5
        assert len(counter) / (2 * n) <= 6


class TestSimulationTraceRoundTrip:
    def test_replayed_metrics_match_live(self):
        rec = Recorder()
        sim, net = _run_traffic(rec)
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
        assert "values" not in counter.snapshot()


# ---------------------------------------------------------------------------
# TimeSeries.extend: bulk loading
# ---------------------------------------------------------------------------


class TestTimeSeriesExtend:
    def _series(self):
        from repro.telemetry.series import TimeSeries

        return TimeSeries("s")

    def test_extend_matches_repeated_append(self):
        a, b = self._series(), self._series()
        times = [0.0, 1.0, 1.0, 2.5]
        values = [1.0, 2.0, 3.0, 4.0]
        a.extend(times, values)
        for t, v in zip(times, values):
            b.append(t, v)
        assert list(a.times) == list(b.times)
        assert list(a.values) == list(b.values)

    def test_unordered_input_raises_and_leaves_series_untouched(self):
        series = self._series()
        series.append(0.0, 1.0)
        with pytest.raises(ValueError):
            series.extend([1.0, 0.5], [1.0, 2.0])
        assert len(series) == 1  # nothing was partially appended

    def test_extend_must_not_regress_behind_existing_samples(self):
        series = self._series()
        series.append(5.0, 1.0)
        with pytest.raises(ValueError):
            series.extend([4.0], [1.0])

    def test_extend_truncates_to_shorter_input(self):
        series = self._series()
        series.extend([0.0, 1.0, 2.0], [1.0, 2.0])  # zip semantics
        assert list(series.times) == [0.0, 1.0]

    def test_extend_empty_is_a_noop(self):
        series = self._series()
        series.extend([], [])
        assert len(series) == 0

    def test_trace_reader_round_trips_extend_loaded_series(self):
        # SeriesProbe.load goes through extend(); a recorded trace must
        # come back sample-for-sample.
        recorder = Recorder()
        probe = recorder.series("flow.1.bytes")
        for t in range(5):
            probe.record(float(t), float(t * 100))
        text = recorder.export_text()
        reader = TraceReader.loads(text)
        clone = reader.channel("flow.1.bytes")
        assert list(clone.times) == list(probe.times)
        assert list(clone.values) == list(probe.values)
