"""Ambient recorder context.

Simulation components shouldn't thread a recorder argument through every
constructor; instead the experiment layer activates a recorder around
one run and components look it up at build time:

    with capture() as recorder:
        result = run_scenario(cfg)
    text = recorder.export_text()

``active_recorder()`` returns ``None`` outside any ``capture`` block, in
which case components simply keep their probes private (measurement
still works, nothing is exported).  The stack nests, matching nested
scenario runs in tests.  Executor workers are separate processes, so a
module-level stack is safe: within one process scenario runs are
strictly sequential.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.telemetry.recorder import Recorder

__all__ = ["capture", "active_recorder"]

_STACK: list[Recorder] = []


def active_recorder() -> Optional[Recorder]:
    """The innermost active recorder, or None when not capturing."""
    return _STACK[-1] if _STACK else None


@contextlib.contextmanager
def capture() -> Iterator[Recorder]:
    """Activate a fresh recorder for the block."""
    rec = Recorder()
    _STACK.append(rec)
    try:
        yield rec
    finally:
        _STACK.pop()
