"""Rule modules: importing this package registers every simlint rule."""

from repro.lint.rules import (  # noqa: F401  (import-for-registration)
    determinism,
    exceptions,
    hashing,
    picklability,
    registry_consistency,
    telemetry,
)

__all__ = [
    "determinism",
    "exceptions",
    "hashing",
    "picklability",
    "registry_consistency",
    "telemetry",
]
