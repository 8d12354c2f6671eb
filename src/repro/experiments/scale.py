"""The scale ledger: what a ``fast`` preset keeps of the paper's setting.

Each scenario config's ``fast()`` preset is a hand-tuned parameter set
(``pick_config`` builds the paper's from the class defaults).  One
function per config returns the dimensionless numbers its scenario's
dynamics depend on, computed from the config alone — no simulation:

* **per-flow packets per RTT** in each phase: a flow's equal share of
  what the bottleneck leaves it, in the 1000-byte packets ``build_net``
  sends (window size decides timeouts against fast recovery);
* the bottleneck **queue in BDPs**: ``queue_depth``, the depth of every
  bottleneck queue (2.5 × BDP, rounded to a whole packet);
* **phase lengths in RTTs**;
* the **CBR fraction** and a flash crowd's **load per BDP**.

Each docstring says which numbers the preset keeps and why the others
differ; ``tests/test_scale_ledger.py`` pins ``fast`` against ``paper``
number by number (equal where kept, the ratio otherwise), and DESIGN.md
§2 prints the table.  A figure's own overrides (fig04's flow counts,
the oscillation sweeps' ``n_flows``) are not the preset's and are not
in the ledger.
"""

from __future__ import annotations

from repro.experiments.scenarios import (
    CbrRestartConfig,
    ConvergenceConfig,
    DoublingConfig,
    FlashCrowdConfig,
    LossPatternConfig,
    OscillationConfig,
)
from repro.net.red import bdp_packets, queue_depth

__all__ = [
    "cbr_restart_ledger",
    "convergence_ledger",
    "doubling_ledger",
    "flash_crowd_ledger",
    "loss_pattern_ledger",
    "oscillation_ledger",
]

#: ``build_net``'s packet size, which every scenario sends.
PACKET_BYTES = 1000


def _pkts_per_rtt(bps: float, rtt_s: float) -> float:
    return bdp_packets(bps, rtt_s, PACKET_BYTES)


def _queue_bdp(bandwidth_bps: float, rtt_s: float) -> float:
    return queue_depth(bandwidth_bps, rtt_s, PACKET_BYTES) / _pkts_per_rtt(bandwidth_bps, rtt_s)


def cbr_restart_ledger(cfg: CbrRestartConfig) -> dict[str, float]:
    """Figures 3-5.  ``fast`` keeps the CBR fraction, the queue in BDPs and
    the warmup in RTTs.

    * Per-flow packets per RTT, CBR on and off: 1.67× the paper's.  The
      preset halves the bandwidth (half the events) and cuts 20 flows to
      6, so each flow's window is larger: 2.60 against 1.56 packets/RTT
      while the CBR is on.
    * The first ON period: 0.3× (900 against 3000 RTTs).  It only has to
      outlast the warmup and give the steady loss rate a window.
    * The OFF period: 0.93× (560 against 600 RTTs), kept near the paper's
      so TFRC's history discounting lets flows grow into the freed
      bandwidth, which is what the restart then punishes.
    * After the restart: 0.87× (1040 against 1200 RTTs), the horizon the
      stabilization scan may use.
    """
    on_bps = cfg.bandwidth_bps * (1.0 - cfg.cbr_fraction)
    return {
        "flow_pkts_per_rtt_cbr_on": _pkts_per_rtt(on_bps / cfg.n_flows, cfg.rtt_s),
        "flow_pkts_per_rtt_cbr_off": _pkts_per_rtt(cfg.bandwidth_bps / cfg.n_flows, cfg.rtt_s),
        "queue_bdp": _queue_bdp(cfg.bandwidth_bps, cfg.rtt_s),
        "cbr_fraction": cfg.cbr_fraction,
        "warmup_rtts": cfg.warmup_s / cfg.rtt_s,
        "cbr_on_rtts": cfg.cbr_stop / cfg.rtt_s,
        "cbr_off_rtts": (cfg.cbr_restart - cfg.cbr_stop) / cfg.rtt_s,
        "after_restart_rtts": (cfg.end - cfg.cbr_restart) / cfg.rtt_s,
    }


def flash_crowd_ledger(cfg: FlashCrowdConfig) -> dict[str, float]:
    """Figure 6.  ``fast`` keeps the queue in BDPs, the transfer size and
    the crowd's load per BDP: its offered packets per RTT over the BDP,
    1.6 at both scales (half the arrival rate on half the bandwidth).

    * Background packets per RTT: 0.8× (5 flows on 5 Mbps against 8 on
      10): windows a fifth smaller than the paper's.
    * The phases are shorter, to keep a job short: 0.4× before the
      crowd, 0.6× during it (3 s against 5 s) and 0.57× after it.  Fig 6
      reads them bin by bin, so the table is shorter, not rescaled.
    """
    return {
        "flow_pkts_per_rtt": _pkts_per_rtt(cfg.bandwidth_bps / cfg.n_background, cfg.rtt_s),
        "queue_bdp": _queue_bdp(cfg.bandwidth_bps, cfg.rtt_s),
        "crowd_load_per_bdp": (
            cfg.crowd_rate_per_s * cfg.transfer_packets * cfg.rtt_s
            / _pkts_per_rtt(cfg.bandwidth_bps, cfg.rtt_s)
        ),
        "transfer_pkts": float(cfg.transfer_packets),
        "before_crowd_rtts": cfg.crowd_start / cfg.rtt_s,
        "crowd_rtts": cfg.crowd_duration_s / cfg.rtt_s,
        "after_crowd_rtts": (cfg.end - cfg.crowd_start - cfg.crowd_duration_s) / cfg.rtt_s,
    }


def oscillation_ledger(cfg: OscillationConfig) -> dict[str, float]:
    """Figures 7-9 and 14-16.  ``fast`` keeps the CBR fraction (the 3:1
    oscillation of the available bandwidth); a phase is a job's
    ``period_s`` / 2, the same number at both scales.

    * Per-flow packets per RTT, CBR on, off and on average: 1.33× (2+2
      flows on 8 Mbps against 5+5 on 15).  The window decides who wins
      under oscillation, and at much smaller windows timeouts, not the
      decrease rule, would decide it.
    * The queue: 1.0016× (125 packets is 2.5 BDPs exactly; the paper's
      234 rounds 234.4 down).
    * The run: 0.8× the warmup, half the periods (10 against 20), and a
      floor and cap of 0.67× and 0.4× (40-120 s against 60-300 s).
    """
    n = cfg.n_flows_a + cfg.n_flows_b
    return {
        "flow_pkts_per_rtt_cbr_on": _pkts_per_rtt(
            cfg.bandwidth_bps * (1.0 - cfg.cbr_fraction) / n, cfg.rtt_s
        ),
        "flow_pkts_per_rtt_cbr_off": _pkts_per_rtt(cfg.bandwidth_bps / n, cfg.rtt_s),
        "flow_pkts_per_rtt_mean": _pkts_per_rtt(cfg.mean_available_bps / n, cfg.rtt_s),
        "queue_bdp": _queue_bdp(cfg.bandwidth_bps, cfg.rtt_s),
        "cbr_fraction": cfg.cbr_fraction,
        "warmup_rtts": cfg.warmup_s / cfg.rtt_s,
        "periods_to_run": float(cfg.periods_to_run),
        "min_duration_rtts": cfg.min_duration_s / cfg.rtt_s,
        "max_duration_rtts": cfg.max_duration_s / cfg.rtt_s,
    }


def convergence_ledger(cfg: ConvergenceConfig) -> dict[str, float]:
    """Figures 10 and 12.  ``fast`` keeps the measurement window in RTTs
    and δ.

    * Per-flow packets per RTT: 0.2× (2 Mbps against 10 for the same two
      flows), 6.25 against 31.25.  A convergence time counts the RTTs a
      window needs to close the gap, so it is read against windows 5×
      smaller than the paper's; no other preset moves this far.
    * The queue: 0.994× (31 packets for a 12.5-packet BDP).
    * Head start and observed run: half (300 and 5700 RTTs against 600
      and 11 400).  A run that never converges reports the whole observed
      run, so a saturated time halves with it.
    """
    return {
        "flow_pkts_per_rtt": _pkts_per_rtt(cfg.bandwidth_bps / 2.0, cfg.rtt_s),
        "queue_bdp": _queue_bdp(cfg.bandwidth_bps, cfg.rtt_s),
        "delta": cfg.delta,
        "window_rtts": cfg.window_s / cfg.rtt_s,
        "head_start_rtts": (cfg.second_start - cfg.first_start) / cfg.rtt_s,
        "observed_rtts": (cfg.end - cfg.second_start) / cfg.rtt_s,
    }


def doubling_ledger(cfg: DoublingConfig) -> dict[str, float]:
    """Figure 13.  ``fast`` keeps the paper's 10 Mbps and flows, so every
    share, the queue and the k RTTs f(k) reads are equal: f(k) depends on
    the window deficit in packets.

    * Only the warmup before the doubling shrinks: 0.16× (1600 against
      10 000 RTTs), long past the flows' start-up.
    """
    survivors = cfg.n_flows - cfg.n_stopped
    return {
        "flow_pkts_per_rtt_before": _pkts_per_rtt(cfg.bandwidth_bps / cfg.n_flows, cfg.rtt_s),
        "flow_pkts_per_rtt_after": _pkts_per_rtt(cfg.bandwidth_bps / survivors, cfg.rtt_s),
        "queue_bdp": _queue_bdp(cfg.bandwidth_bps, cfg.rtt_s),
        "warmup_rtts": cfg.stop_at / cfg.rtt_s,
        "max_k_rtts": float(max(cfg.ks)),
    }


def loss_pattern_ledger(cfg: LossPatternConfig) -> dict[str, float]:
    """Figures 17-19 and the Figure 20 validation: one flow on a path with
    no shared queue.  ``fast`` is the paper's setting: every number is
    equal.
    """
    return {
        "flow_pkts_per_rtt": _pkts_per_rtt(cfg.bandwidth_bps, cfg.rtt_s),
        "warmup_rtts": cfg.warmup_s / cfg.rtt_s,
        "duration_rtts": cfg.duration_s / cfg.rtt_s,
        "fine_bin_rtts": cfg.fine_bin_s / cfg.rtt_s,
        "coarse_bin_rtts": cfg.coarse_bin_s / cfg.rtt_s,
    }
