"""The simulated scenarios behind the paper's figures.

Six scenario families cover all sixteen simulated figures.  Each is a
function of one :class:`~repro.experiments.jobs.Job` that returns the
job's JSON-native payload, registered under its name right here:

* :func:`cbr_restart`      — Figures 3, 4, 5 (stabilization after a CBR
  source restarts into a quiet network);
* :func:`flash_crowd`     — Figure 6;
* :func:`oscillation`     — Figures 7, 8, 9 (mixed flows) and 14, 15,
  16 (identical flows) under square-wave available bandwidth;
* :func:`convergence`     — Figures 10, 12 (δ-fair convergence);
* :func:`doubling`        — Figure 13 (f(k) after a bandwidth doubling);
* :func:`loss_pattern`    — Figures 17, 18, 19 (crafted loss patterns).

To run one point outside a figure, build the job and execute it — the
road ``repro run`` takes: ``execute_job(job("adhoc", "oscillation",
config=cfg, protocol=tcp(2), params={"period_s": 2.0, "protocol_b":
tfrc(6)}))["mean_a"]``.

Every config dataclass carries the paper's parameters as defaults and a
``fast()`` alternative tuned for CI: smaller bandwidth and shorter runs
with all dimensionless ratios (CBR fraction, queue in BDPs, durations in
RTTs per phase) preserved, so the qualitative shape of every result
survives the scaling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Sequence

from repro.cc.base import establish
from repro.cc.tcp import new_tcp_flow
from repro.experiments.jobs import Job, scenario
from repro.experiments.protocols import PACKET_BYTES, Protocol
from repro.metrics.fairness import delta_fair_convergence_time
from repro.metrics.smoothness import rate_bins, smoothness
from repro.metrics.stabilization import measure_stabilization
from repro.metrics.utilization import flows_f_of_k
from repro.net.dumbbell import Dumbbell
from repro.net.monitor import FlowAccountant
from repro.net.paths import single_path
from repro.net.queue import DropTailQueue
from repro.net.red import queue_depth
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry import active_recorder
from repro.telemetry.measures import FlowMetrics, LinkMetrics
from repro.traffic.bulk import Flow, add_flows
from repro.traffic.cbr import CbrSink, CbrSource, on_off_schedule, square_wave
from repro.traffic.flash_crowd import FlashCrowd
from repro.units import BitsPerSecond, Seconds

__all__ = [
    "CONVERGENCE_SEEDS",
    "CbrRestartConfig",
    "ConvergenceConfig",
    "DoublingConfig",
    "FlashCrowdConfig",
    "LossPatternConfig",
    "OscillationConfig",
    "build_net",
    "cbr_restart",
    "converge",
    "convergence",
    "doubling",
    "flash_crowd",
    "loss_pattern",
    "measure_cbr_restart",
    "measure_oscillation",
    "oscillation",
    "percentile_band",
]


def build_net(
    bandwidth_bps: BitsPerSecond,
    rtt_s: Seconds,
    seed: int,
    reverse_flows: int,
    aqm: str = "red",
) -> tuple[Simulator, Dumbbell]:
    """Dumbbell plus the paper's bidirectional background TCP traffic, in
    :data:`~repro.experiments.protocols.PACKET_BYTES` packets.

    ``aqm`` is the bottleneck queue: the paper's ``"red"``, the same RED
    marking ECN-capable packets (``"red+ecn"``), or a ``"droptail"`` of the
    same depth, ``queue_depth``'s 2.5 x BDP.
    """
    depth = queue_depth(bandwidth_bps, rtt_s, PACKET_BYTES)
    bottlenecks: dict[str, dict] = {
        "red": {},  # Dumbbell's default
        "red+ecn": {"ecn_marking": True},
        "droptail": {"queue_factory": lambda: DropTailQueue(depth)},
    }
    if aqm not in bottlenecks:
        raise ValueError(f"unknown AQM {aqm!r}; use {' or '.join(bottlenecks)}")
    sim = Simulator()
    net = Dumbbell(
        sim,
        bandwidth_bps=bandwidth_bps,
        rtt_s=rtt_s,
        packet_size=PACKET_BYTES,
        rng=RngRegistry(seed),
        **bottlenecks[aqm],
    )
    if reverse_flows > 0:
        add_flows(
            sim,
            net,
            lambda s: new_tcp_flow(s, packet_size=PACKET_BYTES),
            count=reverse_flows,
            start_at=0.0,
            start_jitter_s=rtt_s * 4,
            forward=False,
            rng=random.Random(seed + 1),
        )
    return sim, net


def _attach_cbr(sim: Simulator, net: Dumbbell, rate_bps: BitsPerSecond) -> CbrSource:
    source = CbrSource(sim, rate_bps=rate_bps)
    establish(net, source, CbrSink(sim))
    return source


# ---------------------------------------------------------------------------
# CBR restart (Figures 3-5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CbrRestartConfig:
    """Section 4.1.1: ON/OFF CBR at half the bottleneck rate.

    Timeline (paper): CBR on at 0 s, off at 150 s, back on at 180 s; the
    steady-state loss rate is the drop rate over the first ON period.
    """

    bandwidth_bps: float = 10e6
    rtt_s: float = 0.05
    n_flows: int = 20
    cbr_fraction: float = 0.5
    warmup_s: float = 10.0
    cbr_stop: float = 150.0
    cbr_restart: float = 180.0
    end: float = 240.0
    reverse_flows: int = 1
    seed: int = 1

    @classmethod
    def fast(cls, **overrides) -> "CbrRestartConfig":
        """6 flows on 5 Mbps (the paper: 20 on 10), shorter phases.  The
        per-flow share is *not* kept: while the CBR is on, each flow's
        share of the bandwidth it leaves is 2.60 packets/RTT, against the
        paper's 1.56 (1000-byte packets).  The idle period stays ~28 s:
        it must be long enough for TFRC's history discounting to let flows
        grow into the freed bandwidth, which is what creates the
        post-restart shedding problem the experiment measures."""
        base = cls(
            bandwidth_bps=5e6,
            n_flows=6,
            warmup_s=10.0,
            cbr_stop=45.0,
            cbr_restart=73.0,
            end=125.0,
        )
        return replace(base, **overrides)


def measure_cbr_restart(jb: Job, monitor: LinkMetrics) -> dict:
    """The CBR-restart payload from the bottleneck's channels.

    Runs over any :class:`LinkMetrics` — the live monitor right after the
    simulation, or one rebuilt from a trace by
    :class:`~repro.telemetry.trace.TraceReader` — producing bit-identical
    payloads either way.
    """
    cfg = jb.config
    steady = monitor.loss_rate(cfg.warmup_s, cfg.cbr_stop)
    steady = 0.0 if math.isnan(steady) else steady
    stabilization = measure_stabilization(
        monitor,
        congestion_start=cfg.cbr_restart,
        steady_loss_rate=steady,
        rtt_s=cfg.rtt_s,
        end=cfg.end,
    )
    window = 10 * cfg.rtt_s
    series = monitor.loss_rate_series(
        window_s=window, start=0.0, end=cfg.end, stride_s=window / 2
    )
    spike = monitor.loss_rate(cfg.cbr_restart, cfg.cbr_restart + window)
    return {
        "protocol": jb.protocol.name,
        "steady_loss_rate": steady,  # drop rate over the first ON period
        "spike_loss_rate": 0.0 if math.isnan(spike) else spike,  # first 10 RTTs after the restart
        "time_rtts": stabilization.time_rtts,
        "time_s": stabilization.time_s,
        "cost": stabilization.cost,
        "stabilized": stabilization.stabilized,
        "series": [[t, v] for t, v in series],  # loss rate averaged over 10-RTT windows
    }


@scenario("cbr_restart")
def cbr_restart(jb: Job) -> dict:
    """Figures 3-5 and three ablations: stabilization after a CBR restart,
    behind the bottleneck queue the ``aqm`` param names (RED if absent).

    Fig 3 reads ``series``, Fig 4 ``time_rtts``, Fig 5 ``cost``; the
    conservative-C, RAP packet-conservation and RED-vs-DropTail ablations
    read ``time_rtts`` and ``cost``.
    """
    protocol, cfg = jb.protocol, jb.config
    sim, net = build_net(
        cfg.bandwidth_bps, cfg.rtt_s, cfg.seed, cfg.reverse_flows,
        aqm=jb.param("aqm", "red"),
    )
    cbr = _attach_cbr(sim, net, cfg.cbr_fraction * cfg.bandwidth_bps)
    on_off_schedule(
        sim, cbr, [(0.0, True), (cfg.cbr_stop, False), (cfg.cbr_restart, True)]
    )
    add_flows(
        sim,
        net,
        protocol.make,
        count=cfg.n_flows,
        start_at=0.0,
        start_jitter_s=2.0,
        rng=random.Random(cfg.seed),
    )
    sim.run(until=cfg.end)
    return measure_cbr_restart(jb, net.monitor)


# ---------------------------------------------------------------------------
# Flash crowd (Figure 6)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlashCrowdConfig:
    """Section 4.1.2: 10-packet TCP transfers at 200 flows/s for 5 s."""

    bandwidth_bps: float = 10e6
    rtt_s: float = 0.05
    n_background: int = 8
    crowd_rate_per_s: float = 200.0
    crowd_duration_s: float = 5.0
    crowd_start: float = 25.0
    transfer_packets: int = 10
    end: float = 60.0
    bin_s: float = 1.0
    reverse_flows: int = 1
    seed: int = 1

    @classmethod
    def fast(cls, **overrides) -> "FlashCrowdConfig":
        base = cls(
            bandwidth_bps=5e6,
            n_background=5,
            crowd_rate_per_s=100.0,
            crowd_duration_s=3.0,
            crowd_start=10.0,
            end=30.0,
        )
        return replace(base, **overrides)


@scenario("flash_crowd")
def flash_crowd(jb: Job) -> dict:
    """Figure 6: a web flash crowd against SlowCC background traffic.
    Fig 6 reads ``background`` and ``crowd``, bin by bin."""
    protocol, cfg = jb.protocol, jb.config
    sim, net = build_net(cfg.bandwidth_bps, cfg.rtt_s, cfg.seed, cfg.reverse_flows)
    background = add_flows(
        sim,
        net,
        protocol.make,
        count=cfg.n_background,
        start_at=0.0,
        start_jitter_s=2.0,
        rng=random.Random(cfg.seed),
    )
    crowd = FlashCrowd(
        sim,
        net,
        rate_per_s=cfg.crowd_rate_per_s,
        duration_s=cfg.crowd_duration_s,
        transfer_packets=cfg.transfer_packets,
        start_time=cfg.crowd_start,
        rng=random.Random(cfg.seed + 7),
    )
    sim.run(until=cfg.end)

    def aggregate_bps(flow_ids: Sequence[int]) -> list[list[float]]:
        """``[bin end, the flows' aggregate throughput over the bin]`` per
        ``bin_s``; bin ``k`` ends at ``bin_s + k * bin_s``, by integer index."""
        pairs = []
        k = 0
        while (t := cfg.bin_s + k * cfg.bin_s) <= cfg.end:
            rates = (net.accountant.throughput_bps(fid, t - cfg.bin_s, t) for fid in flow_ids)
            pairs.append([t, sum(rates, 0.0)])
            k += 1
        return pairs

    active_end = cfg.crowd_start + cfg.crowd_duration_s
    crowd_share = crowd.aggregate_throughput_bps(cfg.crowd_start, active_end) / (
        cfg.bandwidth_bps
    )
    return {
        "protocol": protocol.name,
        "background": aggregate_bps([f.flow_id for f in background]),
        "crowd": aggregate_bps(crowd.flow_ids),
        "crowd_completed": crowd.completed,
        "crowd_spawned": crowd.spawned,
        "crowd_share_during": crowd_share,  # crowd fraction of the link while active
    }


# ---------------------------------------------------------------------------
# Oscillating available bandwidth (Figures 7-9 and 14-16)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OscillationConfig:
    """Square-wave CBR competing with long-lived flows (Section 4.2.1/4.2.4).

    ``cbr_fraction`` is the CBR rate as a fraction of the bottleneck when
    ON; 2/3 gives the paper's 3:1 available-bandwidth oscillation, 0.9 the
    10:1 one.
    """

    bandwidth_bps: float = 15e6
    rtt_s: float = 0.05
    cbr_fraction: float = 2.0 / 3.0
    n_flows_a: int = 5
    n_flows_b: int = 5
    min_duration_s: float = 60.0
    periods_to_run: int = 20
    max_duration_s: float = 300.0
    warmup_s: float = 10.0
    reverse_flows: int = 1
    seed: int = 1

    @classmethod
    def fast(cls, **overrides) -> "OscillationConfig":
        """2+2 flows on 8 Mbps (the paper: 5+5 on 15): a mean per-flow
        share of 8.33 packets/RTT against the paper's 6.25, 1.33× (the
        bandwidth per flow goes from 15/10 to 8/4 Mbps).  The window size
        decides who wins under oscillation — at much smaller windows the
        sharper-decrease algorithm is instead penalized by timeouts."""
        base = cls(
            bandwidth_bps=8e6,
            n_flows_a=2,
            n_flows_b=2,
            min_duration_s=40.0,
            periods_to_run=10,
            max_duration_s=120.0,
            warmup_s=8.0,
        )
        return replace(base, **overrides)

    def duration(self, period_s: float) -> float:
        return min(
            max(self.min_duration_s, self.periods_to_run * period_s),
            self.max_duration_s,
        )

    @property
    def mean_available_bps(self) -> float:
        """Average bandwidth left for the flows (CBR duty cycle 50%)."""
        return self.bandwidth_bps * (1.0 - self.cbr_fraction / 2.0)


def measure_oscillation(
    jb: Job,
    monitor: LinkMetrics,
    accountant: FlowMetrics,
    flow_ids_a: Sequence[int],
    flow_ids_b: Sequence[int],
) -> dict:
    """The oscillation payload from link + flow channels.

    Shared by the live path and trace replay (the flow-id groupings are
    stored as trace metadata), so both produce bit-identical payloads.
    """
    cfg, period_s, protocol_b = jb.config, jb.param("period_s"), jb.param("protocol_b")
    end = cfg.duration(period_s)
    n_total = len(flow_ids_a) + len(flow_ids_b)
    fair_share = cfg.mean_available_bps / n_total

    def shares(flow_ids: Sequence[int]) -> list[float]:
        return [
            accountant.throughput_bps(fid, cfg.warmup_s, end) / fair_share
            for fid in flow_ids
        ]

    shares_a = shares(flow_ids_a)
    shares_b = shares(flow_ids_b)
    aggregate = sum(
        accountant.throughput_bps(fid, cfg.warmup_s, end)
        for fid in list(flow_ids_a) + list(flow_ids_b)
    )
    drop = monitor.loss_rate(cfg.warmup_s, end)
    return {
        "protocol_a": jb.protocol.name,
        "protocol_b": protocol_b.name if protocol_b is not None else None,
        "period_s": period_s,
        "shares_a": shares_a,  # per-flow throughput normalized by fair share
        "shares_b": shares_b,
        "mean_a": sum(shares_a) / len(shares_a),
        "mean_b": sum(shares_b) / len(shares_b) if shares_b else math.nan,
        "utilization": aggregate / cfg.mean_available_bps,  # aggregate flow throughput / mean available
        "drop_rate": 0.0 if math.isnan(drop) else drop,
    }


@scenario("oscillation")
def oscillation(jb: Job) -> dict:
    """Figures 7-9 and 14-16: one square-wave period point.

    Without a ``protocol_b`` param the scenario has ``n_flows_a`` identical
    flows (the Section 4.2.4 utilization experiments: Figs 14 and 16 read
    ``utilization``, Fig 15 ``drop_rate``); otherwise it mixes ``n_flows_a``
    of A against ``n_flows_b`` of B (Section 4.2.1 fairness: Figs 7-9 read
    the two means beside ``utilization`` and ``drop_rate``).
    """
    protocol_a, protocol_b = jb.protocol, jb.param("protocol_b")
    period_s, cfg = jb.param("period_s"), jb.config
    if period_s <= 0:
        raise ValueError("period must be positive")
    sim, net = build_net(cfg.bandwidth_bps, cfg.rtt_s, cfg.seed, cfg.reverse_flows)
    cbr = _attach_cbr(sim, net, cfg.cbr_fraction * cfg.bandwidth_bps)
    end = cfg.duration(period_s)
    square_wave(sim, cbr, on_s=period_s / 2.0, off_s=period_s / 2.0, until=end)

    flows_a = add_flows(
        sim, net, protocol_a.make, count=cfg.n_flows_a,
        start_at=0.0, start_jitter_s=2.0, rng=random.Random(cfg.seed),
    )
    flows_b: list[Flow] = []
    if protocol_b is not None:
        flows_b = add_flows(
            sim, net, protocol_b.make, count=cfg.n_flows_b,
            start_at=0.0, start_jitter_s=2.0, rng=random.Random(cfg.seed + 3),
        )
    ids_a = [f.flow_id for f in flows_a]
    ids_b = [f.flow_id for f in flows_b]
    recorder = active_recorder()
    if recorder is not None:
        # Replay needs to know which flows belong to which protocol group.
        recorder.annotate("oscillation.flows_a", ids_a)
        recorder.annotate("oscillation.flows_b", ids_b)
    sim.run(until=end)
    return measure_oscillation(jb, net.monitor, net.accountant, ids_a, ids_b)


# ---------------------------------------------------------------------------
# Two-flow convergence (Figures 10 and 12)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceConfig:
    """Section 4.2.2: second flow starts against an entrenched first flow.

    The paper's initial allocation is (B - b0, b0) with b0 one packet per
    RTT: the entrant probes from nothing under the *congestion-avoidance*
    rules.  ``disable_slow_start`` therefore starts window-based senders in
    congestion avoidance (ssthresh = 1), so the measurement captures the
    AIMD transient the paper analyses rather than a slow-start overshoot.
    """

    bandwidth_bps: float = 10e6
    rtt_s: float = 0.05
    first_start: float = 0.0
    second_start: float = 30.0
    end: float = 600.0
    delta: float = 0.1
    window_s: float = 0.25
    sustain_windows: int = 2
    disable_slow_start: bool = True
    reverse_flows: int = 1
    seed: int = 1

    @classmethod
    def fast(cls, **overrides) -> "ConvergenceConfig":
        base = cls(bandwidth_bps=2e6, second_start=15.0, end=300.0)
        return replace(base, **overrides)


#: Scale -> the seeds Figures 10 and 12 run each point with, one job per
#: seed; their tables average the seeds' convergence times.
CONVERGENCE_SEEDS = {"fast": (1, 2), "paper": (1, 2, 3)}


def converge(
    protocol: Protocol, cfg: ConvergenceConfig, aqm: str = "red"
) -> tuple[float, Dumbbell, tuple[int, int]]:
    """The config's seed: δ-fair convergence time (seconds), the network,
    the flow ids.

    A run that never converges reports the full observation window, so a
    protocol that cannot converge saturates rather than biasing a mean low.
    """
    sim, net = build_net(cfg.bandwidth_bps, cfg.rtt_s, cfg.seed, cfg.reverse_flows, aqm=aqm)
    sender_a, receiver_a = protocol.make(sim)
    flow_a = establish(net, sender_a, receiver_a)
    sender_b, receiver_b = protocol.make(sim)
    flow_b = establish(net, sender_b, receiver_b)
    if cfg.disable_slow_start:
        for sender in (sender_a, sender_b):
            if hasattr(sender, "ssthresh"):
                sender.ssthresh = 1.0
    sender_a.start_at(cfg.first_start)
    sender_b.start_at(cfg.second_start)
    sim.run(until=cfg.end)
    t = delta_fair_convergence_time(
        net.accountant,
        flow_a,
        flow_b,
        start=cfg.second_start,
        end=cfg.end,
        delta=cfg.delta,
        window_s=cfg.window_s,
        sustain_windows=cfg.sustain_windows,
    )
    return (t if t is not None else cfg.end - cfg.second_start), net, (flow_a, flow_b)


@scenario("convergence")
def convergence(jb: Job) -> float:
    """Figures 10 and 12: δ-fair convergence time in seconds for the
    config's seed.  A figure's ``jobs()`` fans :data:`CONVERGENCE_SEEDS`
    out into one job per seed, and its ``reduce`` averages them."""
    return converge(jb.protocol, jb.config)[0]


# ---------------------------------------------------------------------------
# Bandwidth doubling (Figure 13)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoublingConfig:
    """Section 4.2.3: five of ten flows stop; measure f(20) and f(200)."""

    bandwidth_bps: float = 10e6
    rtt_s: float = 0.05
    n_flows: int = 10
    n_stopped: int = 5
    stop_at: float = 500.0
    ks: tuple[int, ...] = (20, 200)
    reverse_flows: int = 0  # paper measures pure utilization here
    seed: int = 1

    @classmethod
    def fast(cls, **overrides) -> "DoublingConfig":
        """Keeps the paper's 10 Mbps (f(k) depends on the absolute window
        deficit in packets); only the warmup before the doubling shrinks."""
        base = cls(stop_at=80.0)
        return replace(base, **overrides)


@scenario("doubling")
def doubling(jb: Job) -> dict:
    """Figure 13 and the history-discounting ablation: ``f_of_k`` holds
    ``[k, f(k)]`` for each of the config's ``ks`` — the utilization k RTTs
    after the available bandwidth doubles."""
    protocol, cfg = jb.protocol, jb.config
    sim, net = build_net(cfg.bandwidth_bps, cfg.rtt_s, cfg.seed, cfg.reverse_flows)
    flows = add_flows(
        sim, net, protocol.make, count=cfg.n_flows,
        start_at=0.0, start_jitter_s=2.0, rng=random.Random(cfg.seed),
    )
    for flow in flows[: cfg.n_stopped]:
        flow.sender.stop_at(cfg.stop_at)
    end = cfg.stop_at + max(cfg.ks) * cfg.rtt_s + 1.0
    sim.run(until=end)
    survivors = [f.flow_id for f in flows[cfg.n_stopped :]]

    def f(k: int) -> float:
        return flows_f_of_k(
            net.accountant,
            survivors,
            available_bps=cfg.bandwidth_bps,
            event_time=cfg.stop_at,
            k=k,
            rtt_s=cfg.rtt_s,
        )

    return {"protocol": protocol.name, "f_of_k": [[k, f(k)] for k in cfg.ks]}


# ---------------------------------------------------------------------------
# Crafted loss patterns (Figures 17-19)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossPatternConfig:
    """Section 4.3: single flow under an imposed loss pattern."""

    bandwidth_bps: float = 10e6
    rtt_s: float = 0.05
    duration_s: float = 60.0
    warmup_s: float = 10.0
    fine_bin_s: float = 0.2
    coarse_bin_s: float = 1.0

    @classmethod
    def fast(cls, **overrides) -> "LossPatternConfig":
        base = cls(duration_s=60.0, warmup_s=10.0)
        return replace(base, **overrides)


def percentile_band(rates: list[float]) -> float:
    """5th-to-95th percentile ratio of a rate series: a smoothness
    measure robust to a single timeout dip, unlike the worst-case
    consecutive ratio."""
    if not rates:
        return 0.0
    ordered = sorted(rates)
    p5 = ordered[int(0.05 * (len(ordered) - 1))]
    p95 = ordered[int(0.95 * (len(ordered) - 1))]
    return p5 / p95 if p95 > 0 else 0.0


@scenario("loss_pattern")
def loss_pattern(jb: Job) -> dict:
    """Figures 17-19 and the Figure 20 validation: a single flow under the
    loss pattern the ``dropper`` param (a
    :class:`~repro.experiments.jobs.DropperSpec`) describes.  Figs 17-19
    read every key; the validation reads ``throughput_bps``."""
    protocol, cfg = jb.protocol, jb.config
    sim = Simulator()
    accountant = FlowAccountant(sim)
    sender, receiver = protocol.make(sim)
    receiver.on_data.append(accountant.on_deliver)
    dropper = jb.param("dropper").build(sim)
    single_path(
        sim,
        sender,
        receiver,
        rtt_s=cfg.rtt_s,
        bandwidth_bps=cfg.bandwidth_bps,
        dropper=dropper,
    )
    sender.start()
    sim.run(until=cfg.duration_s)
    # 0.2 s bins (the figures' solid line) and 1 s bins (the dashed line).
    fine = rate_bins(accountant, 0, cfg.fine_bin_s, cfg.warmup_s, cfg.duration_s)
    coarse = rate_bins(accountant, 0, cfg.coarse_bin_s, cfg.warmup_s, cfg.duration_s)
    # Smoothness judged on RTT-scale bins per the paper's metric; the fine
    # bins are several RTTs, a reasonable stand-in for plotting.
    smooth = smoothness(coarse)
    return {
        "protocol": protocol.name,
        "throughput_bps": accountant.throughput_bps(0, cfg.warmup_s, cfg.duration_s),
        "smoothness_cov": smooth.cov,
        "worst_ratio": smooth.min_ratio,
        "rate_band": percentile_band(fine),  # p5/p95 of the fine rates (1 = perfectly steady)
        "drops": dropper.drops,
    }
