"""R001: the experiment registry, modules and scenario names must agree.

The CLI dispatches figures through ``ALL_FIGURES`` / ``EXTENSIONS`` in
``repro/experiments/__init__.py``, and workers resolve each job's
scenario name against the ``@scenario`` registry.  Drift between those
tables and the modules on disk fails at *runtime*, usually deep inside
a sweep.  R001 checks, across the whole tree at once:

* every ``figNN_*.py`` / ``ext_*.py`` module exposes the declarative
  pair ``jobs`` / ``reduce`` that ``run_figure`` drives;
* every ``ALL_FIGURES`` entry ``figNN`` maps to a module named
  ``figNN_...`` that exists, and every figure module on disk has an
  entry (same for ``EXTENSIONS`` and ``ext_*`` modules);
* every scenario name used by a ``job(...)`` call is registered by
  exactly one ``@scenario("name")`` decorator somewhere in the package.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Sequence

from repro.lint.astutil import call_name, str_const
from repro.lint.engine import SourceFile
from repro.lint.findings import Finding
from repro.lint.registry import Rule, in_package, rule

__all__ = ["RegistryConsistencyRule"]

_FIGURE_MODULE = re.compile(r"^(fig\d+)_\w+$")
_EXT_MODULE = re.compile(r"^ext_(\w+)$")
_REQUIRED_API = ("jobs", "reduce")


def _module_level_names(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for stmt in getattr(tree, "body", []):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                names.add((alias.asname or alias.name).split(".")[0])
    return names


def _dict_assignment(tree: ast.AST, name: str) -> Optional[ast.Dict]:
    for stmt in getattr(tree, "body", []):
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt.value
    return None


@rule
class RegistryConsistencyRule(Rule):
    """R001: figure modules, registry tables and scenario names agree."""

    code = "R001"
    summary = (
        "experiment registry consistency: figure modules expose "
        "jobs/reduce, ALL_FIGURES/EXTENSIONS match the modules on "
        "disk, and every used scenario name is registered"
    )
    project = True

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        package = [
            src for src in files if in_package(src.path, "repro/experiments")
        ]
        if not package:
            return
        figure_modules = {
            src.module_name: src
            for src in package
            if _FIGURE_MODULE.match(src.module_name)
            or _EXT_MODULE.match(src.module_name)
        }
        yield from self._check_module_api(figure_modules)
        init = next((s for s in package if s.module_name == "__init__"), None)
        if init is not None and init.tree is not None:
            yield from self._check_tables(init, figure_modules)
        yield from self._check_scenarios(package)

    # -- jobs / reduce -------------------------------------------------------

    def _check_module_api(
        self, figure_modules: "dict[str, SourceFile]"
    ) -> Iterator[Finding]:
        for name in sorted(figure_modules):
            src = figure_modules[name]
            assert src.tree is not None
            defined = _module_level_names(src.tree)
            missing = [api for api in _REQUIRED_API if api not in defined]
            if missing:
                yield Finding(
                    self.code,
                    src.path,
                    1,
                    1,
                    f"experiment module {name!r} does not define "
                    f"{', '.join(missing)} at module level; every figure "
                    "module must expose the declarative jobs/reduce pair",
                )

    # -- ALL_FIGURES / EXTENSIONS tables -------------------------------------

    def _check_tables(
        self, init: SourceFile, figure_modules: "dict[str, SourceFile]"
    ) -> Iterator[Finding]:
        assert init.tree is not None
        listed: set[str] = set()
        for table, pattern in (("ALL_FIGURES", _FIGURE_MODULE), ("EXTENSIONS", _EXT_MODULE)):
            mapping = _dict_assignment(init.tree, table)
            if mapping is None:
                yield Finding(
                    self.code,
                    init.path,
                    1,
                    1,
                    f"experiments/__init__.py defines no literal {table} "
                    "dict; the CLI figure table cannot be checked",
                )
                continue
            for key_node, value_node in zip(mapping.keys, mapping.values):
                key = str_const(key_node)
                module = (
                    value_node.id if isinstance(value_node, ast.Name) else None
                )
                where = key_node if key_node is not None else mapping
                if key is None or module is None:
                    yield Finding(
                        self.code,
                        init.path,
                        getattr(where, "lineno", 1),
                        getattr(where, "col_offset", 0) + 1,
                        f"{table} entries must be literal "
                        "'name': module_name pairs so the CLI table is "
                        "statically checkable",
                    )
                    continue
                listed.add(module)
                expected_prefix = key if table == "ALL_FIGURES" else f"ext_{key}"
                if not (
                    module == expected_prefix
                    or module.startswith(expected_prefix + "_")
                ):
                    yield Finding(
                        self.code,
                        init.path,
                        where.lineno,
                        where.col_offset + 1,
                        f"{table}[{key!r}] maps to module {module!r}, which "
                        f"does not match the expected {expected_prefix}* "
                        "naming; the CLI name and module name disagree",
                    )
                if figure_modules and module not in figure_modules:
                    yield Finding(
                        self.code,
                        init.path,
                        where.lineno,
                        where.col_offset + 1,
                        f"{table}[{key!r}] maps to module {module!r}, but "
                        "no such module exists in repro/experiments",
                    )
        for name in sorted(figure_modules):
            if name not in listed:
                yield Finding(
                    self.code,
                    figure_modules[name].path,
                    1,
                    1,
                    f"experiment module {name!r} is not listed in "
                    "ALL_FIGURES/EXTENSIONS; the CLI cannot run it",
                )

    # -- scenario names ------------------------------------------------------

    def _check_scenarios(self, package: Sequence[SourceFile]) -> Iterator[Finding]:
        registered: dict[str, tuple[str, int]] = {}
        duplicates: list[tuple[SourceFile, ast.expr, str]] = []
        for src in package:
            assert src.tree is not None
            for node in ast.walk(src.tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                for dec in node.decorator_list:
                    if not isinstance(dec, ast.Call):
                        continue
                    name = call_name(dec)
                    if name is None or name.split(".")[-1] != "scenario":
                        continue
                    label = str_const(dec.args[0]) if dec.args else None
                    if label is None:
                        continue
                    if label in registered:
                        duplicates.append((src, dec, label))
                    else:
                        registered[label] = (src.path, dec.lineno)
        for src, dec, label in duplicates:
            first_path, first_line = registered[label]
            yield self.finding(
                src,
                dec,
                f"scenario {label!r} is registered more than once (first "
                f"at {first_path}:{first_line}); the later registration "
                "silently wins in workers",
            )
        if not registered:
            return  # registry not in view (partial lint run)
        for src in package:
            assert src.tree is not None
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                used: Optional[str] = None
                where: ast.AST = node
                if name is not None and name.split(".")[-1] == "job":
                    if len(node.args) >= 2:
                        used = str_const(node.args[1])
                elif name is not None and name.split(".")[-1] == "Job":
                    for kw in node.keywords:
                        if kw.arg == "scenario":
                            used = str_const(kw.value)
                            where = kw.value
                if used is not None and used not in registered:
                    yield self.finding(
                        src,
                        where,
                        f"job uses scenario {used!r}, which no "
                        "@scenario(...) decorator registers; available: "
                        f"{', '.join(sorted(registered))}",
                    )
