"""simlint: simulator-aware static analysis for the reproduction.

Generic linters cannot see this codebase's real invariants — that every
stochastic draw flows through :class:`~repro.sim.rng.RngRegistry` named
streams, that jobs pickle and content-hash stably across processes, and
that the experiment registry, the modules on disk and the scenario names
agree.  ``repro.lint`` machine-checks them on every change:

====  ====================================================================
D001  no direct ``random.Random()`` / module-level ``random.*`` draws in
      simulation packages (``sim``/``net``/``cc``/``traffic``)
D002  no wall-clock reads in simulation-domain packages (sim time only)
D003  no iteration over sets where the order can escape into scheduling,
      job lists or hashed payloads
P001  ``@scenario`` runners and Job field values must be module-level
      (jobs cross process boundaries by pickle)
H001  content-hash stability: canonical JSON, no builtin ``hash()``,
      Job fields are identity or explicitly display-only
R001  experiment-registry consistency (modules ↔ tables ↔ scenarios)
E001  no blind ``except`` on worker execution paths without a
      ``# simlint: disable=E001(reason)`` justification
T001  measurements kept in bare lists instead of telemetry probes
====  ====================================================================

Every rule is a single-pass AST pattern rule.  Three properties are
run rather than linted: cache purity — a job's payload is a function of
the :class:`~repro.experiments.jobs.Job` alone
(``tests/test_job_purity.py``); the ``Range`` contracts of
:mod:`repro.contracts`, which ``@checked`` enforces on the floats
themselves under ``REPRO_CONTRACTS=1`` (``docs/contracts.md``); and
units, which the golden tables and ``tests/test_invariants.py``'s
pacing check catch on the wire.

Run ``python -m repro.lint src tests``; ``--json`` prints the
machine-readable report.  See ``docs/linting.md`` and
``docs/contracts.md``.
"""

import repro.lint.rules  # noqa: F401  (importing registers every rule)
from repro.lint.cli import main
from repro.lint.engine import (
    LintReport,
    SourceFile,
    lint_paths,
    lint_sources,
    walk_paths,
)
from repro.lint.findings import JSON_SCHEMA_VERSION, Finding
from repro.lint.registry import RULES, all_codes, resolve_codes
from repro.lint.suppress import Suppression, SuppressionIndex, parse_suppressions

__all__ = [
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintReport",
    "RULES",
    "SourceFile",
    "Suppression",
    "SuppressionIndex",
    "all_codes",
    "lint_paths",
    "lint_sources",
    "main",
    "parse_suppressions",
    "resolve_codes",
    "walk_paths",
]
