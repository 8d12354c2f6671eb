#!/usr/bin/env python3
"""Deployment-safety scenario: does a SlowCC yield to a flash crowd?

Section 4.1's question in miniature: a burst of short web transfers (a
flash crowd) arrives at a bottleneck occupied by long-lived flows.  A safe
transport lets the crowd through quickly; an unsafe one keeps the link in
overload.  We compare a TCP background against the extreme TFRC(256), with
and without the paper's self-clocking (conservative_) option, and print how
much of the link the crowd obtains while it is active.
"""

from repro.experiments import execute_job, job
from repro.experiments.protocols import tcp, tfrc
from repro.experiments.scenarios import FlashCrowdConfig


def main() -> None:
    cfg = FlashCrowdConfig.fast()
    print(
        f"Flash crowd: {cfg.crowd_rate_per_s:g} short TCP transfers/s for "
        f"{cfg.crowd_duration_s:g} s at t={cfg.crowd_start:g} s, against "
        f"{cfg.n_background} long-lived background flows.\n"
    )
    print(f"{'background':<14} {'crowd share':>12} {'crowd done':>11}")
    for protocol in (tcp(2), tfrc(256), tfrc(256, conservative=True)):
        payload = execute_job(
            job("flash_crowd_safety", "flash_crowd", config=cfg, protocol=protocol)
        )
        print(
            f"{payload['protocol']:<14} {payload['crowd_share_during']:12.2f} "
            f"{payload['crowd_completed']:6d}/{payload['crowd_spawned']}"
        )
    print()
    print("The crowd's slow-starting flows grab bandwidth against any")
    print("self-clocked background; packet conservation is what makes even")
    print("TFRC(256) safe to deploy.")


if __name__ == "__main__":
    main()
