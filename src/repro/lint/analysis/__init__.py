"""Whole-program analysis layer behind simlint's U- and I-rule families.

PR 3's rules are single-pass AST pattern matchers: they look at one node
at a time and need no idea what a name refers to.  The units-of-measure
rules (U001-U004) and the interval rules (I001-I004) cannot work that
way — "this expression is in bits/s" and "this divisor may be zero" are
*whole-program* facts.  This package supplies the shared machinery:

* :mod:`repro.lint.analysis.symbols` — per-module symbol tables (imports,
  functions, classes, module-level bindings) plus cross-module name
  resolution over the set of files being linted;
* :mod:`repro.lint.analysis.intervals` — the interval domain and the one
  flow-sensitive abstract interpreter, which executes a scope over the
  product of value ranges and :class:`repro.units.Unit` units;
* :mod:`repro.lint.analysis.contracts` — the alias table, the
  whole-program signature index and the driver that turns one
  interpretation pass into the events behind all eight U/I rules.

Analyses are built once per lint run and shared between rules through
the engine's :class:`repro.lint.engine.LintContext`.
"""

from repro.lint.analysis.contracts import analyze_contracts
from repro.lint.analysis.intervals import Event
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
