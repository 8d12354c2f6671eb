"""Runtime-contract sweep: figures run clean under ``REPRO_CONTRACTS=1``.

Two layers:

* an always-on smoke test that drives a miniature fig04-style sweep and a
  miniature fig14-style run in a fresh interpreter with enforcement
  armed — the ``@checked`` gate is evaluated at decoration (import) time,
  so flipping the env var in-process would be a no-op;
* full-figure byte-identity tests for fig04, fig06 and fig14 (plain vs
  enforced, and plain vs the committed ``results/`` table), gated behind
  ``REPRO_SWEEP_TESTS=1`` because each figure runs twice (~3 minutes
  total).  fig06, the flash crowd, is the figure whose timers retire the
  most calendar entries.  CI's ``contracts-sweep`` job sets the gate while it runs the
  whole suite under ``REPRO_CONTRACTS=1``; see ``.github/workflows/ci.yml``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments import ALL_FIGURES

REPO = pathlib.Path(__file__).parent.parent

TINY_SWEEP = """
from repro.contracts import contracts_enabled
assert contracts_enabled(), "harness must arm REPRO_CONTRACTS=1"

from repro.experiments import Executor
from repro.experiments import fig04_stabilization_time as fig04
from repro.experiments import fig14_oscillation_utilization as fig14

jobs = fig04.jobs(
    "fast", bandwidth_bps=1e6, n_flows=2, warmup_s=2.0, cbr_stop=8.0,
    cbr_restart=10.0, end=14.0,
)
t4 = fig04.reduce(Executor().map(jobs[:1]))  # TCP(1/2)
assert t4.rows

jobs = fig14.jobs(
    "fast", bandwidth_bps=1.5e6,
    min_duration_s=10.0, periods_to_run=3, max_duration_s=12.0, warmup_s=2.0,
)
t14 = fig14.reduce(Executor().map(jobs[4:8]))  # TCP(1/2) at every ON time
assert t14.rows
print("SWEEP OK")
"""


def _run(args, extra_env=None):
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_CONTRACTS", None)
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        args, capture_output=True, text=True, env=env, cwd=REPO
    )


def test_tiny_sweep_has_zero_violations_under_enforcement():
    proc = _run([sys.executable, "-c", TINY_SWEEP], {"REPRO_CONTRACTS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "SWEEP OK"


@pytest.mark.skipif(
    os.environ.get("REPRO_SWEEP_TESTS") != "1",
    reason="full-figure sweep (minutes); CI sets REPRO_SWEEP_TESTS=1",
)
@pytest.mark.parametrize("figure", ["fig04", "fig06", "fig14"])
def test_full_figure_byte_identical_under_enforcement(figure, tmp_path):
    plain_dir = tmp_path / "plain"
    checked_dir = tmp_path / "checked"
    cmd = [sys.executable, "-m", "repro", "run", figure, "--no-cache"]
    plain = _run(cmd + ["--out", str(plain_dir)])
    assert plain.returncode == 0, plain.stderr
    enforced = _run(
        cmd + ["--out", str(checked_dir)], {"REPRO_CONTRACTS": "1"}
    )
    assert enforced.returncode == 0, enforced.stderr

    # --out writes the committed name, results/<module>.txt.
    table = ALL_FIGURES[figure].__name__.rsplit(".", 1)[-1] + ".txt"
    plain_bytes = (plain_dir / table).read_bytes()
    checked_bytes = (checked_dir / table).read_bytes()
    assert plain_bytes == checked_bytes, (
        f"{table} differs under REPRO_CONTRACTS=1 — contracts must be "
        "observation-only"
    )

    committed = REPO / "results" / table
    assert plain_bytes == committed.read_bytes(), (
        f"{committed.name} is stale: regenerate it with "
        f"'repro run {figure} --no-cache --out DIR'"
    )
