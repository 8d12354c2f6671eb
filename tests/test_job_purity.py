"""Cache purity, run rather than approximated.

The content-addressed result cache replays a stored payload for any job
with the same hash, which is sound only if a job's payload is a function
of the :class:`~repro.experiments.jobs.Job` alone — not of what the
process ran before, nor of its environment, cwd, argv or hash seed.
simlint's F001/F002 call graph approximated that statically and could
not follow a single ``fn(*args)`` popped off the event calendar; this
test executes it instead, for one tiny job of every registered scenario:

* **in-process** — every job is computed twice, the second pass in
  reverse order, so each pair of scenarios runs in both orders (mutable
  module or class state that leaks between jobs changes a payload);
* **fresh process** — the pickled jobs go to a new interpreter with a
  different cwd, ``PYTHONHASHSEED``, ``argv``, ``HOME``, ``TZ`` and decoy
  ``REPRO_SCALE`` / ``REPRO_CACHE_DIR`` in an otherwise empty
  environment (anything read from process state changes a payload).
  The child also arms ``REPRO_CONTRACTS=1``, so one job of every
  scenario runs with all its ``Range`` contracts enforced.

``tests/purity_controls.py`` holds the child entry point and the two
negative controls that prove each comparison has teeth.
"""

import json
import os
import pathlib
import pickle
import subprocess
import sys

import repro
from repro.experiments.jobs import SCENARIOS, Job, job
from tests import purity_controls
from tests.test_experiments_figures import RUNNABLE, TINY

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = pathlib.Path(repro.__file__).resolve().parent.parent

IN_PROCESS = "differs when recomputed in this process in reverse order"
FRESH_PROCESS = "differs when recomputed in a fresh process"


def one_tiny_job_per_scenario() -> "list[Job]":
    picked: "dict[str, Job]" = {}
    for name, overrides in TINY.items():
        for jb in RUNNABLE[name].jobs("fast", **overrides):
            picked.setdefault(jb.scenario, jb)
    return list(picked.values())


def fresh_process_texts(jobs: "list[Job]", tmp_path: pathlib.Path) -> "list[str]":
    """Payload texts from an interpreter that shares only the jobs.

    It runs them with ``REPRO_CONTRACTS=1``, so equality with the
    unenforced payloads computed here also proves that contracts are
    observation-only on every scenario — and that none is violated.
    """
    home = tmp_path / "home"
    home.mkdir()
    env = {
        "PYTHONPATH": os.pathsep.join([str(SRC), str(REPO)]),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "4242",
        "HOME": str(home),
        "TZ": "Pacific/Kiritimati",
        "REPRO_SCALE": "paper",
        "REPRO_CACHE_DIR": str(tmp_path / "decoy-cache"),
        "REPRO_CONTRACTS": "1",
    }
    done = subprocess.run(
        [sys.executable, "-m", "tests.purity_controls", "--scale", "paper"],
        input=pickle.dumps(jobs),
        cwd=home,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout)


def impurities(jobs: "list[Job]", tmp_path: pathlib.Path) -> "list[str]":
    """``"<scenario> <which comparison differed>"`` for each impure job."""
    first = purity_controls.payload_texts(jobs)
    reverse = purity_controls.payload_texts(jobs[::-1])[::-1]
    fresh = fresh_process_texts(jobs, tmp_path)
    found = []
    for jb, here, again, elsewhere in zip(jobs, first, reverse, fresh):
        if again != here:
            found.append(f"{jb.scenario} {IN_PROCESS}")
        if elsewhere != here:
            found.append(f"{jb.scenario} {FRESH_PROCESS}")
    return found


def test_every_scenario_payload_is_a_function_of_the_job_alone(tmp_path):
    jobs = one_tiny_job_per_scenario()
    # The runtime analogue of "rooted at every @scenario": a scenario
    # registered without a tiny job in TINY fails here.
    assert {jb.scenario for jb in jobs} == set(SCENARIOS)
    found = impurities(jobs, tmp_path)
    assert not found, "\n".join(found)


def test_the_checker_reports_each_negative_control(tmp_path, monkeypatch):
    monkeypatch.setattr(purity_controls, "_CALLS", [])
    for name, runner in purity_controls.CONTROLS.items():
        monkeypatch.setitem(SCENARIOS, name, runner)
    jobs = [job("purity", name) for name in purity_controls.CONTROLS]
    # Each control slips past one comparison and is caught by the other.
    assert impurities(jobs, tmp_path) == [
        f"reads_process_state {FRESH_PROCESS}",
        f"counts_its_calls {IN_PROCESS}",
    ]
