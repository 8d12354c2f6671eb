"""repro: reproduction of "Dynamic Behavior of Slowly-Responsive Congestion
Control Algorithms" (Bansal, Balakrishnan, Floyd & Shenker, SIGCOMM 2001).

The library has five layers:

* :mod:`repro.sim` — a discrete-event simulation kernel;
* :mod:`repro.net` — the network substrate: links, DropTail/RED queues,
  nodes, the single-bottleneck dumbbell, droppers, monitors;
* :mod:`repro.cc` — the congestion control algorithms under study: TCP(b),
  binomial (SQRT/IIAD), RAP, TFRC(k) (with the paper's self-clocking
  option), TEAR, and the TCP response functions;
* :mod:`repro.traffic` / :mod:`repro.metrics` / :mod:`repro.analysis` —
  workloads, measurement machinery and closed-form models;
* :mod:`repro.experiments` — one module per paper figure
  (``fig03`` ... ``fig20``), all reached through ``run_figures(names, scale)``.

Quickstart::

    from repro.sim import Simulator
    from repro.net import Dumbbell
    from repro.cc import establish, new_tcp_flow, new_tfrc_flow

    sim = Simulator()
    net = Dumbbell(sim, bandwidth_bps=1e6, rtt_s=0.05)
    tcp_sender, tcp_sink = new_tcp_flow(sim)
    tcp_flow = establish(net, tcp_sender, tcp_sink)
    tfrc_sender, tfrc_recv = new_tfrc_flow(sim, n_intervals=6)
    tfrc_flow = establish(net, tfrc_sender, tfrc_recv)
    tcp_sender.start_at(0.0)
    tfrc_sender.start_at(0.1)
    sim.run(until=60.0)
    print(net.accountant.throughput_bps(tcp_flow, 20, 60))
    print(net.accountant.throughput_bps(tfrc_flow, 20, 60))
"""

__version__ = "1.1.0"

from repro.sim import Simulator
from repro.net import Dumbbell
from repro.cc import establish, new_rap_flow, new_tcp_flow, new_tear_flow, new_tfrc_flow

__all__ = [
    "Dumbbell",
    "Simulator",
    "__version__",
    "establish",
    "new_rap_flow",
    "new_tcp_flow",
    "new_tear_flow",
    "new_tfrc_flow",
]
