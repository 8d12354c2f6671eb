"""Negative controls and the fresh-process half of ``test_job_purity``.

Test-only, and inert on import: ``CONTROLS`` holds two deliberately
impure scenario runners that the purity checker must report, but nothing
is registered until a caller puts them into ``SCENARIOS`` (the test does
so through ``monkeypatch``, so the real registry is restored).

Run as ``python -m tests.purity_controls`` this module *is* the fresh
process: pickled ``Job`` objects arrive on stdin, a JSON list of their
payload texts leaves on stdout.
"""

import json
import os
import pickle
import sys

from repro.experiments.jobs import SCENARIOS, Job, execute_job

_CALLS: list[int] = []


def reads_process_state(jb: Job) -> dict:
    """Impure: the payload depends on the environment and the cwd."""
    return {"scale": os.environ.get("REPRO_SCALE", "fast"), "cwd": os.getcwd()}


def counts_its_calls(jb: Job) -> int:
    """Impure: the payload depends on what this process ran before."""
    _CALLS.append(jb.index)
    return len(_CALLS)


CONTROLS = {
    "reads_process_state": reads_process_state,
    "counts_its_calls": counts_its_calls,
}


def payload_texts(jobs: "list[Job]") -> "list[str]":
    """Each job's payload as the canonical JSON text the cache stores."""
    return [
        json.dumps(execute_job(jb), allow_nan=True, sort_keys=True) for jb in jobs
    ]


if __name__ == "__main__":
    SCENARIOS.update(CONTROLS)  # a process of our own: nothing to restore
    json.dump(payload_texts(pickle.loads(sys.stdin.buffer.read())), sys.stdout)
