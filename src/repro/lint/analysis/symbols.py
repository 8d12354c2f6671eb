"""Module symbol tables and cross-module name resolution.

A :class:`Program` is built from every parseable file in one lint run.
Each file gets a :class:`ModuleTable` recording what the module *binds*:
imports (with aliases), top-level functions and classes with their
methods.  Resolution then answers the question the pattern rules never
had to ask — "the name ``measure_cbr_restart`` used in this module: which
function is that, in which file?" — across the whole set of linted
files, without importing anything.

Paths are mapped to dotted module names structurally (the ``repro``
package root is located inside the path), so the same resolution works
for real files (``src/repro/net/link.py``) and for the virtual paths the
fixture tests lint under (``repro/net/example.py``).
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import SourceFile

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleTable",
    "Program",
    "build_program",
    "module_dotted_name",
]

#: AST node types that bind a callable scope.
FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def module_dotted_name(path: str) -> Optional[str]:
    """``repro.net.link`` for any path containing a ``repro/`` package root.

    Returns None for paths outside an importable package (test modules,
    scripts): such modules still get a table but cannot be the target of
    a cross-module import.
    """
    parts = pathlib.PurePosixPath(pathlib.PurePath(path).as_posix()).parts
    if "repro" not in parts:
        return None
    start = parts.index("repro")
    names = list(parts[start:])
    if not names[-1].endswith(".py"):
        return None
    names[-1] = names[-1][:-3]
    if names[-1] == "__init__":
        names.pop()
    return ".".join(names)


@dataclass
class FunctionInfo:
    """One function or method definition and where it lives."""

    module: "ModuleTable"
    qualname: str  # ``f`` or ``Class.f``
    node: FunctionNode
    cls: Optional["ClassInfo"] = None

    @property
    def name(self) -> str:
        return self.node.name

    def decorator_names(self) -> list[str]:
        """Dotted names of this function's decorators (call or bare)."""
        from repro.lint.astutil import dotted_name

        names = []
        for dec in self.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = dotted_name(target)
            if name is not None:
                names.append(name)
        return names


@dataclass(eq=False)
class ClassInfo:
    """One class definition: methods plus base-class names as written.

    Compared by identity: two infos are the same class only when they
    are the same object.
    """

    module: "ModuleTable"
    name: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    base_names: list[str] = field(default_factory=list)


@dataclass
class ModuleTable:
    """Everything one module binds, for name resolution."""

    path: str
    tree: ast.AST
    dotted: Optional[str]
    #: local alias -> absolute dotted target.  ``from a.b import f as g``
    #: yields ``g -> a.b.f``; ``import a.b.c as m`` yields ``m -> a.b.c``;
    #: plain ``import a.b.c`` yields ``a -> a`` (the root binding).
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    def all_functions(self) -> list[FunctionInfo]:
        out = list(self.functions.values())
        for cls in self.classes.values():
            out.extend(cls.methods.values())
        return out


def _collect_imports(table: ModuleTable) -> None:
    """Index every import in the module, including function-level ones.

    Scenario runners import their scenario functions lazily inside the
    function body (to keep worker imports cheap), so resolution must see
    those too.  A rebound alias keeps the *first* binding: good enough
    for this codebase, where aliases are never reused for two targets.
    """
    for node in ast.walk(table.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    table.imports.setdefault(alias.asname, alias.name)
                else:
                    root = alias.name.split(".")[0]
                    table.imports.setdefault(root, root)
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports are not used in this repo
            for alias in node.names:
                local = alias.asname or alias.name
                table.imports.setdefault(local, f"{node.module}.{alias.name}")


def _build_table(path: str, tree: ast.AST) -> ModuleTable:
    table = ModuleTable(path=path, tree=tree, dotted=module_dotted_name(path))
    _collect_imports(table)
    body = tree.body if isinstance(tree, ast.Module) else []
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            table.functions[stmt.name] = FunctionInfo(table, stmt.name, stmt)
        elif isinstance(stmt, ast.ClassDef):
            from repro.lint.astutil import dotted_name

            cls = ClassInfo(table, stmt.name, stmt)
            cls.base_names = [
                name
                for base in stmt.bases
                if (name := dotted_name(base)) is not None
            ]
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[sub.name] = FunctionInfo(
                        table, f"{stmt.name}.{sub.name}", sub, cls=cls
                    )
            table.classes[stmt.name] = cls
    return table


@dataclass
class Program:
    """All module tables of one lint run, with cross-module resolution."""

    modules: dict[str, ModuleTable] = field(default_factory=dict)  # by path
    by_dotted: dict[str, ModuleTable] = field(default_factory=dict)

    def table(self, path: str) -> Optional[ModuleTable]:
        return self.modules.get(path)

    def _split_dotted(
        self, dotted: str
    ) -> Optional[tuple[ModuleTable, list[str]]]:
        """Longest-prefix match of ``dotted`` against known module names."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            table = self.by_dotted.get(".".join(parts[:cut]))
            if table is not None:
                return table, parts[cut:]
        return None

    def resolve(
        self, module: ModuleTable, name: str
    ) -> "FunctionInfo | ClassInfo | ModuleTable | None":
        """Resolve a (possibly dotted) name used inside ``module``.

        Handles local functions/classes, ``from m import f`` aliases and
        ``import m`` attribute chains — for targets that are themselves
        part of the linted file set.  Anything else (stdlib, third-party,
        dynamic) resolves to None and analyses treat it conservatively.
        """
        head, _, rest = name.partition(".")
        if not rest:
            if head in module.functions:
                return module.functions[head]
            if head in module.classes:
                return module.classes[head]
        elif head in module.classes:
            return module.classes[head].methods.get(rest)
        target = module.imports.get(head)
        if target is None:
            return None
        dotted = target + ("." + rest if rest else "")
        split = self._split_dotted(dotted)
        if split is None:
            return None
        table, remainder = split
        if not remainder:
            return table
        if len(remainder) == 1:
            sym = remainder[0]
            if sym in table.functions:
                return table.functions[sym]
            if sym in table.classes:
                return table.classes[sym]
            # Re-exported name (e.g. via an __init__): follow one level of
            # the target module's own imports.
            onward = table.imports.get(sym)
            if onward is not None and onward != dotted:
                inner = self._split_dotted(onward)
                if inner is not None and len(inner[1]) <= 1:
                    t2, r2 = inner
                    if not r2:
                        return t2
                    return t2.functions.get(r2[0]) or t2.classes.get(r2[0])
        if len(remainder) == 2:
            cls = table.classes.get(remainder[0])
            if cls is not None:
                return cls.methods.get(remainder[1])
        return None

    def resolve_class(
        self, module: ModuleTable, name: str
    ) -> Optional[ClassInfo]:
        resolved = self.resolve(module, name)
        return resolved if isinstance(resolved, ClassInfo) else None

    def mro(self, cls: ClassInfo) -> list[ClassInfo]:
        """The class plus its resolvable project bases, nearest first."""
        out: list[ClassInfo] = []
        seen: set[int] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if id(current) in seen:
                continue
            seen.add(id(current))
            out.append(current)
            for base_name in current.base_names:
                base = self.resolve_class(current.module, base_name)
                if base is not None:
                    stack.append(base)
        return out

    def find_method(
        self, cls: ClassInfo, method: str
    ) -> Optional[FunctionInfo]:
        for candidate in self.mro(cls):
            if method in candidate.methods:
                return candidate.methods[method]
        return None


def build_program(files: Sequence["SourceFile"]) -> Program:
    """Build the whole-program symbol index for one lint run."""
    program = Program()
    for src in files:
        if src.tree is None:
            continue
        table = _build_table(src.path, src.tree)
        program.modules[src.path] = table
        if table.dotted is not None:
            # First table wins on dotted-name collisions (virtual fixture
            # paths shadowing real modules never co-occur in one run).
            program.by_dotted.setdefault(table.dotted, table)
    return program
