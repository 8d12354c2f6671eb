"""Whole-program analysis layer behind simlint's U-rule family.

PR 3's rules are single-pass AST pattern matchers: they look at one node
at a time and need no idea what a name refers to.  The units-of-measure
rules (U001-U004) cannot work that way — "this expression is in bits/s"
is a *whole-program* fact.  This package supplies the machinery:

* :mod:`repro.lint.analysis.symbols` — per-module symbol tables (imports,
  functions, classes, module-level bindings) plus cross-module name
  resolution over the set of files being linted;
* :mod:`repro.lint.analysis.walker` — the one flow-sensitive walker,
  which executes a scope over :class:`repro.units.Unit` units;
* :mod:`repro.lint.analysis.contracts` — the alias table, the
  whole-program signature index and the driver that turns one walk
  into the events behind the four U-rules.

Analyses are built once per lint run and shared between rules through
the engine's :class:`repro.lint.engine.LintContext`.
"""

from repro.lint.analysis.contracts import analyze_contracts
from repro.lint.analysis.walker import Event
from repro.lint.analysis.symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleTable,
    Program,
    build_program,
)

__all__ = [
    "ClassInfo",
    "Event",
    "FunctionInfo",
    "ModuleTable",
    "Program",
    "analyze_contracts",
    "build_program",
]
