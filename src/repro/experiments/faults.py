"""Deterministic fault injection for the execution layer.

Production schedulers are only trustworthy if their failure paths are
exercised; this module gives tests (and CI smoke jobs) a way to kill,
stall or fail a *specific* job on a *specific* attempt, deterministically,
so the executor's retry / rebuild / degrade machinery can be proven to
yield byte-identical results to a clean run.

A fault is described by a compact spec string, usually supplied through
the ``REPRO_FAULT_SPEC`` environment variable::

    <action>[=seconds]:<selector>[:<when>]

``action``
    * ``crash`` — hard-kill the worker process (``os._exit`` with
      :data:`CRASH_EXIT_STATUS`), which the coordinator observes as EOF on
      the worker's pipe and records as ``"worker_exit": 70``;
    * ``error`` — raise :class:`InjectedFault` (an ordinary exception,
      exercising the plain retry path);
    * ``hang[=S]`` — sleep ``S`` seconds (default 30), exercising the
      per-job timeout path.

``selector``
    * ``index=N`` — the job at position ``N`` of the deduplicated batch
      (submission order);
    * ``hash=PREFIX`` — any job whose content hash starts with ``PREFIX``;
    * ``*`` — every job.

``when`` (optional, default ``first``)
    * ``first`` — fire only on a job's first attempt (the retry must
      then succeed, proving recovery);
    * ``always`` — fire on every attempt (forcing degradation or
      failure);
    * ``attempt=N`` — fire only on attempt ``N``.

Examples::

    REPRO_FAULT_SPEC="crash:index=0"          # kill the worker running job 0, once
    REPRO_FAULT_SPEC="error:hash=3fa2:always" # job 3fa2… always errors
    REPRO_FAULT_SPEC="hang=5:index=1"         # job 1 stalls 5s on attempt 1
    REPRO_FAULT_SPEC="crash:*:always"         # every worker dies: degrade path

Faults are injected **only inside pool worker processes** (via the
``fault`` callable passed to :func:`repro.experiments.jobs.execute_job`);
in-process execution — serial runs and the degraded fallback — never
fires them, so a ``crash`` spec can never take down the parent process.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["FaultSpec", "InjectedFault"]

#: Exit status used by ``crash`` faults; chosen from sysexits (EX_SOFTWARE)
#: so that in the run log's ``worker_exit`` an injected crash (70) reads
#: apart from a ``--job-timeout`` or out-of-memory kill (-9).
CRASH_EXIT_STATUS = 70


class InjectedFault(RuntimeError):
    """The exception raised by an ``error`` fault."""


@dataclass(frozen=True)
class FaultSpec:
    """A parsed fault description (see the module docstring for grammar)."""

    action: str  # "crash" | "error" | "hang"
    seconds: float = 30.0  # hang duration
    index: Optional[int] = None  # deduplicated-batch position selector
    hash_prefix: Optional[str] = None  # content-hash prefix selector
    when: str = "first"  # "first" | "always" | "attempt"
    attempt_n: int = 1  # used when ``when == "attempt"``

    @classmethod
    def parse(cls, text: Optional[str]) -> Optional["FaultSpec"]:
        """Parse a spec string; ``None``/empty gives ``None`` (no fault)."""
        text = (text or "").strip()
        if not text:
            return None
        parts = text.split(":")
        action, _, secs = parts[0].partition("=")
        if action not in ("crash", "error", "hang"):
            raise ValueError(
                f"unknown fault action {action!r}; expected crash, error or hang"
            )
        seconds = float(secs) if secs else 30.0
        index: Optional[int] = None
        hash_prefix: Optional[str] = None
        when = "first"
        attempt_n = 1
        for token in parts[1:]:
            if token == "*":
                continue  # explicit "match every job"
            if token.startswith("index="):
                index = int(token[len("index="):])
            elif token.startswith("hash="):
                hash_prefix = token[len("hash="):]
            elif token in ("first", "always"):
                when = token
            elif token.startswith("attempt="):
                when = "attempt"
                attempt_n = int(token[len("attempt="):])
            else:
                raise ValueError(
                    f"unknown fault spec token {token!r}; expected '*', "
                    "'index=N', 'hash=PREFIX', 'first', 'always' or 'attempt=N'"
                )
        return cls(
            action=action,
            seconds=seconds,
            index=index,
            hash_prefix=hash_prefix,
            when=when,
            attempt_n=attempt_n,
        )

    # -- matching and firing ------------------------------------------------

    def matches(self, jb, position: int, attempt: int) -> bool:
        """Does this fault apply to ``jb`` at ``position`` on ``attempt``?"""
        if self.when == "first" and attempt != 1:
            return False
        if self.when == "attempt" and attempt != self.attempt_n:
            return False
        if self.index is not None and position != self.index:
            return False
        if self.hash_prefix is not None and not jb.content_hash.startswith(
            self.hash_prefix
        ):
            return False
        return True

    def fire(self, jb) -> None:
        """Execute the fault action (kill / stall / raise)."""
        if self.action == "crash":
            os._exit(CRASH_EXIT_STATUS)
        if self.action == "hang":
            time.sleep(self.seconds)
            return
        raise InjectedFault(f"injected fault for job {jb!r}")

    def bind(self, position: int, attempt: int) -> Callable:
        """A ``fault(job)`` callable for :func:`execute_job`, bound to one
        (position, attempt) so workers need no shared state."""

        def fault(jb) -> None:
            if self.matches(jb, position, attempt):
                self.fire(jb)

        return fault
