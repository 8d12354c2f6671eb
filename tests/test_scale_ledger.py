"""The scale ledger: ``fast`` against ``paper``, number by number.

Each scenario config's ledger function (``repro.experiments.scale``)
returns the dimensionless numbers its dynamics depend on.  Where the
function's docstring says the ``fast`` preset keeps a number, it must be
equal at both scales; every other number's ``fast`` / ``paper`` ratio is
pinned here, and the docstring says why it differs.  A preset edit that
moves any of them fails here and says which.  DESIGN.md §2 prints the
table; ``python -m tests.test_scale_ledger`` prints it again.
"""

import pathlib

import pytest

from repro.experiments import scale, scenarios
from repro.experiments.runner import pick_config
from repro.experiments.scenarios import (
    CbrRestartConfig,
    ConvergenceConfig,
    DoublingConfig,
    FlashCrowdConfig,
    LossPatternConfig,
    OscillationConfig,
)

KEPT = 1.0

#: config class -> (its ledger function, {number: fast / paper}); KEPT
#: means equal, bit for bit.
LEDGER = {
    CbrRestartConfig: (
        scale.cbr_restart_ledger,
        {
            "flow_pkts_per_rtt_cbr_on": 5 / 3,
            "flow_pkts_per_rtt_cbr_off": 5 / 3,
            "queue_bdp": KEPT,
            "cbr_fraction": KEPT,
            "warmup_rtts": KEPT,
            "cbr_on_rtts": 0.3,
            "cbr_off_rtts": 28 / 30,
            "after_restart_rtts": 52 / 60,
        },
    ),
    FlashCrowdConfig: (
        scale.flash_crowd_ledger,
        {
            "flow_pkts_per_rtt": 0.8,
            "queue_bdp": KEPT,
            "crowd_load_per_bdp": KEPT,
            "transfer_pkts": KEPT,
            "before_crowd_rtts": 0.4,
            "crowd_rtts": 0.6,
            "after_crowd_rtts": 17 / 30,
        },
    ),
    OscillationConfig: (
        scale.oscillation_ledger,
        {
            "flow_pkts_per_rtt_cbr_on": 4 / 3,
            "flow_pkts_per_rtt_cbr_off": 4 / 3,
            "flow_pkts_per_rtt_mean": 4 / 3,
            "queue_bdp": 2.5 / (234 / 93.75),
            "cbr_fraction": KEPT,
            "warmup_rtts": 0.8,
            "periods_to_run": 0.5,
            "min_duration_rtts": 2 / 3,
            "max_duration_rtts": 0.4,
        },
    ),
    ConvergenceConfig: (
        scale.convergence_ledger,
        {
            "flow_pkts_per_rtt": 0.2,
            "queue_bdp": (31 / 12.5) / (156 / 62.5),
            "delta": KEPT,
            "window_rtts": KEPT,
            "head_start_rtts": 0.5,
            "observed_rtts": 0.5,
        },
    ),
    DoublingConfig: (
        scale.doubling_ledger,
        {
            "flow_pkts_per_rtt_before": KEPT,
            "flow_pkts_per_rtt_after": KEPT,
            "queue_bdp": KEPT,
            "warmup_rtts": 0.16,
            "max_k_rtts": KEPT,
        },
    ),
    LossPatternConfig: (
        scale.loss_pattern_ledger,
        {
            "flow_pkts_per_rtt": KEPT,
            "warmup_rtts": KEPT,
            "duration_rtts": KEPT,
            "fine_bin_rtts": KEPT,
            "coarse_bin_rtts": KEPT,
        },
    ),
}


def _both(config_cls):
    ledger, _ = LEDGER[config_cls]
    return ledger(pick_config(config_cls, "paper")), ledger(pick_config(config_cls, "fast"))


@pytest.mark.parametrize("config_cls", list(LEDGER), ids=lambda cls: cls.__name__)
def test_fast_keeps_what_its_docstring_says_and_pins_the_rest(config_cls):
    paper, fast = _both(config_cls)
    ledger, ratios = LEDGER[config_cls]
    assert set(paper) == set(fast) == set(ratios), "pin every number the ledger returns"
    for name, ratio in ratios.items():
        if ratio == KEPT:
            assert fast[name] == paper[name], name
        else:
            assert fast[name] != paper[name], f"{name} is kept now: pin it as KEPT"
            assert fast[name] / paper[name] == pytest.approx(ratio, rel=1e-12), name


def test_every_scenario_config_has_a_ledger():
    configs = {name for name in dir(scenarios) if name.endswith("Config")}
    assert configs == {cls.__name__ for cls in LEDGER}
    assert sorted(scale.__all__) == sorted(ledger.__name__ for ledger, _ in LEDGER.values())


def table_rows():
    """DESIGN.md §2's ledger table, a row per number."""
    rows = []
    for config_cls in LEDGER:
        paper, fast = _both(config_cls)
        for name in paper:
            kept = fast[name] == paper[name]
            ratio = "kept" if kept else f"{fast[name] / paper[name]:.4g}×"
            rows.append(
                f"| `{config_cls.__name__}` | {name} | {paper[name]:.6g} "
                f"| {fast[name]:.6g} | {ratio} |"
            )
    return rows


def test_design_md_prints_the_ledger():
    design = pathlib.Path(__file__).resolve().parent.parent / "DESIGN.md"
    lines = design.read_text(encoding="utf-8").splitlines()
    missing = [row for row in table_rows() if row not in lines]
    assert not missing, (
        "DESIGN.md §2 is stale; `python -m tests.test_scale_ledger` prints:\n"
        + "\n".join(missing)
    )


if __name__ == "__main__":
    print("| config | number | paper | `fast` | `fast` / paper |")
    print("|---|---|---|---|---|")
    print("\n".join(table_rows()))
