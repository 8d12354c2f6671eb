#!/usr/bin/env python3
"""Fairness study: slowly-responsive transports in a dynamic network.

Reproduces the paper's two fairness findings in one script:

1. *Long-term*: under square-wave available bandwidth, TCP out-competes a
   TCP-compatible SlowCC — the price of smoothness (Section 4.2.1).
2. *Transient*: two identical TCP(b) flows starting from a skewed
   allocation take dramatically longer to converge as b shrinks, matching
   the analytical log_{1-bp}(delta) ACK count (Section 4.2.2).
"""

from repro.analysis import acks_to_fairness
from repro.experiments import execute_job, job
from repro.experiments.protocols import tcp, tcp_b, tfrc
from repro.experiments.scenarios import ConvergenceConfig, OscillationConfig


def long_term() -> None:
    cfg = OscillationConfig.fast()
    print("Long-term fairness: 3 TCP vs 3 TFRC(6) flows, 3:1 square-wave CBR")
    print(f"{'period (s)':>10} {'TCP share':>10} {'TFRC share':>11}")
    for period in (0.4, 2.0, 8.0):
        point = job(
            "fairness_study",
            "oscillation",
            config=cfg,
            protocol=tcp(2),
            params={"period_s": period, "protocol_b": tfrc(6)},
        )
        payload = execute_job(point)
        print(f"{period:10.1f} {payload['mean_a']:10.2f} {payload['mean_b']:11.2f}")
    print("(1.0 = the flow's equitable share of the mean available bandwidth)\n")


def transient() -> None:
    cfg = ConvergenceConfig.fast()
    print("Transient fairness: 0.1-fair convergence of two TCP(b) flows")
    print(f"{'b':>8} {'simulated (s)':>14} {'analytic E[ACKs] (p=0.1)':>26}")
    for b in (0.5, 0.125, 1 / 64):
        seconds = execute_job(
            job("fairness_study", "convergence", config=cfg, protocol=tcp_b(b))
        )
        acks = acks_to_fairness(b, p=0.1, delta=0.1)
        print(f"{b:8.4f} {seconds:14.1f} {acks:26.0f}")
    print("(smaller b = slower response = longer convergence, both ways)\n")


def main() -> None:
    long_term()
    transient()


if __name__ == "__main__":
    main()
