"""Structured JSONL run telemetry for the execution layer.

Every executed batch can append provenance records to a run log — one
JSON object per line, written and flushed as events happen, so a crashed
run still leaves a complete record of everything that finished.  The log
is the executor's flight recorder: it answers "what ran, where, how many
times, and how long did it take" without re-running anything.

Record schema (``event="job"``, one per submitted job)::

    {"ts": 1722945600.123, "event": "job",
     "figure": "fig04", "index": 3, "hash": "3fa2…",   # full content hash
     "status": "computed",      # computed | cached | deduplicated | failed
     "attempts": 2,             # executions performed (0 for cached/dedup)
     "retried": true,           # attempts > 1
     "timed_out": false,        # a per-job timeout fired for this job
     "degraded": false,         # computed in-process after pool degradation
     "worker_pid": 4242,        # pid that produced the payload (null if none)
     "wall_s": 1.234,           # wall-clock of the successful attempt
     "worker_exit": -9}         # only on a job that lost a worker: exit status
                                # of the last one lost (70 injected crash,
                                # -9 --job-timeout kill or an outside SIGKILL)

Plus one summary record per ``Executor.map`` call (``event="map"``) with
the full :class:`~repro.experiments.executor.ExecutionReport` accounting
(jobs / computed / cache_hits / deduplicated / retries / failures /
timeouts / salvaged / pool_rebuilds / degraded, the per-stage wall-clock
including scheduler phases — startup_s / dispatch_s / transport_s /
compute_s — the inline-fast-path count, and ``load_balance``: the
busiest worker slot's busy time over the mean, 1.0 meaning a perfectly
balanced map).

Point the CLI at a log with ``--run-log PATH`` or set ``REPRO_RUN_LOG``
for the benchmark harness; records append, so one log can span a whole
sweep study.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Optional, Union

__all__ = ["RunLog"]


class RunLog:
    """Append-only JSONL event log (one JSON object per line).

    Only the coordinating process writes; every record is flushed
    immediately so partial runs still leave complete provenance for the
    jobs that finished.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[Any] = None

    def record(self, **fields: Any) -> None:
        """Append one event; a ``ts`` wall-clock field is added first."""
        if self._handle is None:
            self._handle = self.path.open("a")
        line = json.dumps(
            {"ts": round(time.time(), 3), **fields},
            allow_nan=True,
            sort_keys=True,
        )
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RunLog {self.path}>"
