"""The BENCH JSON schema: one deterministic shape, validated by hand.

``python -m repro bench`` emits two documents — ``BENCH_kernel.json``
(micro/macro kernel benchmarks) and ``BENCH_figures.json`` (per-figure
job timings).  The *values* are wall-clock measurements and vary run to
run; the *schema* is deterministic: a fixed top-level key set, a fixed
per-benchmark key set, benchmarks sorted by name, and ``sort_keys=True``
serialization, so two BENCH files always diff structurally clean and
``bench --compare`` can align entries by name.

Validation is hand-rolled (no jsonschema dependency in the container);
:func:`validate_bench` raises :class:`BenchSchemaError` naming the first
offending path.
"""

from __future__ import annotations

import json
import math
import platform
from typing import Any

__all__ = [
    "BENCH_SCHEMA",
    "BenchSchemaError",
    "new_document",
    "dump_document",
    "validate_bench",
]

#: Version tag; bump on any structural change so --compare refuses to
#: diff incompatible files.
BENCH_SCHEMA = "repro-bench/1"

#: Exact top-level key set of a BENCH document.
_DOC_KEYS = {"schema", "kind", "quick", "python", "machine", "benchmarks"}
#: Required keys of each benchmark entry.
_ENTRY_KEYS = {"name", "group", "unit", "ops", "repeats", "best_s", "per_op_ns", "rate"}
#: Optional keys of each benchmark entry.
_ENTRY_OPTIONAL = {"baseline", "speedup", "meta"}
#: Required keys of a baseline sub-object.
_BASELINE_KEYS = {"best_s", "per_op_ns", "rate"}

_KINDS = ("kernel", "figures")
_GROUPS = ("micro", "macro", "figure")


class BenchSchemaError(ValueError):
    """A BENCH document does not conform to :data:`BENCH_SCHEMA`."""


def new_document(kind: str, quick: bool, benchmarks: list[dict]) -> dict:
    """Assemble a schema-conforming document (benchmarks sorted by name)."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, not {kind!r}")
    return {
        "schema": BENCH_SCHEMA,
        "kind": kind,
        "quick": bool(quick),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": sorted(benchmarks, key=lambda b: b["name"]),
    }


def dump_document(doc: dict) -> str:
    """Serialize with sorted keys and a trailing newline (diff-friendly)."""
    validate_bench(doc)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _require_number(value: Any, path: str, allow_inf: bool = False) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BenchSchemaError(f"{path}: expected a number, got {value!r}")
    if math.isnan(value):
        raise BenchSchemaError(f"{path}: NaN is not a valid measurement")
    if not allow_inf and math.isinf(value):
        raise BenchSchemaError(f"{path}: infinite measurement")
    if value < 0:
        raise BenchSchemaError(f"{path}: negative measurement {value!r}")


def validate_bench(doc: Any) -> None:
    """Raise :class:`BenchSchemaError` unless ``doc`` conforms."""
    if not isinstance(doc, dict):
        raise BenchSchemaError(f"document must be an object, got {type(doc).__name__}")
    keys = set(doc)
    if keys != _DOC_KEYS:
        missing = sorted(_DOC_KEYS - keys)
        extra = sorted(keys - _DOC_KEYS)
        raise BenchSchemaError(
            f"top-level keys mismatch: missing {missing}, unexpected {extra}"
        )
    if doc["schema"] != BENCH_SCHEMA:
        raise BenchSchemaError(
            f"schema: expected {BENCH_SCHEMA!r}, got {doc['schema']!r}"
        )
    if doc["kind"] not in _KINDS:
        raise BenchSchemaError(f"kind: expected one of {_KINDS}, got {doc['kind']!r}")
    if not isinstance(doc["quick"], bool):
        raise BenchSchemaError(f"quick: expected a bool, got {doc['quick']!r}")
    for field in ("python", "machine"):
        if not isinstance(doc[field], str):
            raise BenchSchemaError(f"{field}: expected a string")
    benches = doc["benchmarks"]
    if not isinstance(benches, list) or not benches:
        raise BenchSchemaError("benchmarks: expected a non-empty list")
    names = [entry.get("name") for entry in benches if isinstance(entry, dict)]
    if names != sorted(names):
        raise BenchSchemaError("benchmarks: entries must be sorted by name")
    if len(set(names)) != len(names):
        raise BenchSchemaError("benchmarks: duplicate names")
    for entry in benches:
        _validate_entry(entry)


def _validate_entry(entry: Any) -> None:
    if not isinstance(entry, dict):
        raise BenchSchemaError(f"benchmark entry must be an object, got {entry!r}")
    name = entry.get("name", "<unnamed>")
    keys = set(entry)
    missing = sorted(_ENTRY_KEYS - keys)
    extra = sorted(keys - _ENTRY_KEYS - _ENTRY_OPTIONAL)
    if missing or extra:
        raise BenchSchemaError(
            f"benchmarks[{name}]: missing {missing}, unexpected {extra}"
        )
    for field in ("name", "group", "unit"):
        if not isinstance(entry[field], str) or not entry[field]:
            raise BenchSchemaError(
                f"benchmarks[{name}].{field}: expected a non-empty string"
            )
    if entry["group"] not in _GROUPS:
        raise BenchSchemaError(
            f"benchmarks[{name}].group: expected one of {_GROUPS}, "
            f"got {entry['group']!r}"
        )
    for field in ("ops", "repeats"):
        value = entry[field]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise BenchSchemaError(
                f"benchmarks[{name}].{field}: expected a positive int, got {value!r}"
            )
    for field in ("best_s", "per_op_ns", "rate"):
        _require_number(entry[field], f"benchmarks[{name}].{field}")
    if "baseline" in entry:
        baseline = entry["baseline"]
        if not isinstance(baseline, dict) or set(baseline) != _BASELINE_KEYS:
            raise BenchSchemaError(
                f"benchmarks[{name}].baseline: expected keys {sorted(_BASELINE_KEYS)}"
            )
        for field in sorted(_BASELINE_KEYS):
            _require_number(baseline[field], f"benchmarks[{name}].baseline.{field}")
        if "speedup" not in entry:
            raise BenchSchemaError(
                f"benchmarks[{name}]: baseline present but no speedup"
            )
    if "speedup" in entry:
        _require_number(entry["speedup"], f"benchmarks[{name}].speedup")
    if "meta" in entry and not isinstance(entry["meta"], dict):
        raise BenchSchemaError(f"benchmarks[{name}].meta: expected an object")
