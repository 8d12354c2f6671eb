#!/usr/bin/env python3
"""Quickstart: two congestion-controlled flows sharing a bottleneck.

Builds the paper's dumbbell (RED queue, 50 ms RTT), runs one standard TCP
flow against one TFRC flow for a simulated minute, and prints throughput,
fairness and link statistics.  Runs in a few seconds.
"""

from repro.cc import establish, new_tcp_flow, new_tfrc_flow
from repro.metrics import jain_index
from repro.net import Dumbbell
from repro.sim import Simulator


def main() -> None:
    sim = Simulator()
    net = Dumbbell(sim, bandwidth_bps=2e6, rtt_s=0.05)

    tcp_sender, tcp_sink = new_tcp_flow(sim)
    tcp_flow = establish(net, tcp_sender, tcp_sink)
    tfrc_sender, tfrc_receiver = new_tfrc_flow(sim, n_intervals=6)
    tfrc_flow = establish(net, tfrc_sender, tfrc_receiver)

    # Telemetry is pay-for-use: utilization reads the link's departures,
    # which are recorded only on request (or under telemetry.capture()).
    net.monitor.record_departures()
    tcp_sender.start_at(0.0)
    tfrc_sender.start_at(0.1)
    sim.run(until=60.0)

    measure = (20.0, 60.0)  # skip start-up transients
    tcp_bps = net.accountant.throughput_bps(tcp_flow, *measure)
    tfrc_bps = net.accountant.throughput_bps(tfrc_flow, *measure)

    print("Two flows on a 2 Mbps / 50 ms RTT dumbbell, measured over 40 s:")
    print(f"  TCP  throughput: {tcp_bps / 1e6:6.3f} Mbps")
    print(f"  TFRC throughput: {tfrc_bps / 1e6:6.3f} Mbps")
    print(f"  Jain fairness index: {jain_index([tcp_bps, tfrc_bps]):.3f}")
    print(f"  link utilization:    {net.monitor.utilization(*measure):.3f}")
    print(f"  bottleneck loss rate: {net.monitor.loss_rate(*measure):.4f}")
    print(f"  TFRC loss-event rate estimate: {tfrc_sender.p:.4f}")


if __name__ == "__main__":
    main()
