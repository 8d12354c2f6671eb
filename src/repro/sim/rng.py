"""Deterministic named random streams.

An :class:`RngRegistry` derives named streams from one master seed: the
same (seed, name) pair always yields the same sequence, and a component
drawing more numbers from its stream perturbs no other stream.  Only RED
draws from one today — the dumbbell's registry hands both bottleneck
queues its one ``"red"`` stream.  Start jitter, reverse flows, the second
flow group and the flash crowd draw from ``random.Random(seed + k)``
streams their scenario builds (k = 0, 1, 3, 7).

Registries pickle with explicit per-stream state, mid-sequence positions
included.  No job carries one, though: a job carries its seed, and every
process builds its streams from that.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["RngRegistry", "deterministic_default_rng"]


def deterministic_default_rng() -> random.Random:
    """A LOUD fixed-seed (0) fallback stream for standalone component use.

    Components that accept an optional ``rng`` (RED queues, droppers,
    start-jitter helpers) use this when the caller passes none, so a
    bare ``REDQueue(...)`` in a unit test or example stays reproducible.

    It is deliberately *not* suitable for real experiments: every
    component falling back to it shares the **same, correlated**
    sequence, and no experiment seed controls it.  Simulations must
    pass a named stream — ``registry.stream("red.bottleneck")`` — from
    the run's :class:`RngRegistry` instead.  The loud name exists so a
    grep (and ``tests/test_source_rules.py``, which exempts this module
    alone) can keep the silent
    ``random.Random(0)`` pattern from creeping back in.
    """
    # The one sanctioned bare-Random construction site outside the
    # registry itself; seed 0 preserves the historical fallback streams.
    return random.Random(0)


class RngRegistry:
    """A factory of independent, reproducible ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0):
        self._master_seed = int(master_seed)
        self._streams: dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The same (master_seed, name) pair always yields the same sequence.
        """
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(
                f"{self._master_seed}:{name}".encode()
            ).digest()
            seed = int.from_bytes(digest[:8], "big")
            rng = random.Random(seed)  # the registry is where streams are born
            self._streams[name] = rng
        return rng

    def __getstate__(self) -> dict:
        """Pickle as (master seed, per-stream generator state).

        Explicit state keeps the pickled form independent of attribute
        layout and preserves mid-sequence positions, so an unpickled
        registry continues every stream exactly where it left off.
        """
        return {
            "master_seed": self._master_seed,
            "streams": {
                name: rng.getstate() for name, rng in self._streams.items()
            },
        }

    def __setstate__(self, state: dict) -> None:
        self._master_seed = int(state["master_seed"])
        self._streams = {}
        for name, rng_state in state["streams"].items():
            rng = random.Random()  # unpickling restores an existing stream's state
            rng.setstate(rng_state)
            self._streams[name] = rng

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RngRegistry):
            return NotImplemented
        return (
            self._master_seed == other._master_seed
            and {n: r.getstate() for n, r in self._streams.items()}
            == {n: r.getstate() for n, r in other._streams.items()}
        )
