"""Determinism rules: D001 (rng discipline), D002 (wall clock), D003 (sets).

The reproduction's acceptance bar is byte-identical output across runs,
processes and ``PYTHONHASHSEED`` values.  These rules pin the three ways
that bar historically breaks: ad-hoc ``random`` draws that bypass the
named :class:`~repro.sim.rng.RngRegistry` streams, wall-clock reads
inside the simulation domain, and iteration over unordered containers
whose order can leak into event scheduling or hashed payloads.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Sequence

from repro.lint.astutil import call_name
from repro.lint.engine import SourceFile
from repro.lint.findings import Finding
from repro.lint.registry import Rule, rule

__all__ = ["DirectRandomRule", "WallClockRule", "UnorderedIterationRule"]

#: Packages whose code runs *inside* a simulation (sim time only).
SIM_PACKAGES = ("repro/sim", "repro/net", "repro/cc", "repro/traffic")
#: The wider determinism domain: everything that feeds figure output.
DOMAIN_PACKAGES = SIM_PACKAGES + (
    "repro/metrics",
    "repro/analysis",
    "repro/experiments",
)

#: Wall-clock callables, by dotted name as written at the call site.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
}
#: Wall-clock call-name *suffixes* (``datetime.datetime.now`` et al.).
_WALL_CLOCK_SUFFIXES = (
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)
#: Names that, imported from :mod:`time`, smuggle a wall clock in.
_WALL_CLOCK_IMPORTS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
}


@rule
class DirectRandomRule(Rule):
    """D001: all randomness must flow through ``RngRegistry.stream``.

    Direct ``random.Random(...)`` construction (most notoriously the
    silent ``random.Random(0)`` fallbacks) and module-level ``random.*``
    draws create streams no experiment seed controls: two components
    sharing seed 0 are correlated, and a module-level draw perturbs
    every later consumer of the global generator.
    """

    code = "D001"
    summary = (
        "no direct random.Random() / module-level random.* draws in "
        "simulation packages; use RngRegistry streams"
    )
    scope = SIM_PACKAGES

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        assert src.tree is not None
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name is not None and name.split(".")[0] == "random" and "." in name:
                    what = (
                        "constructs a private random.Random"
                        if name == "random.Random"
                        else f"draws from the module-level generator ({name})"
                    )
                    yield self.finding(
                        src,
                        node,
                        f"{what}; route randomness through a named "
                        "RngRegistry.stream (or accept an explicit rng)",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.finding(
                    src,
                    node,
                    "imports names directly from 'random'; simulation code "
                    "must draw from RngRegistry streams, not ambient "
                    "generators",
                )


@rule
class WallClockRule(Rule):
    """D002: simulation-domain code reads sim time, never the wall clock.

    A ``time.time()`` (or ``perf_counter`` / ``datetime.now``) inside the
    domain makes output depend on host speed and scheduling.  The
    executor and run log are allowlisted: telemetry about *how long the
    run took* is wall-clock by definition and never feeds a table.
    """

    code = "D002"
    summary = (
        "no wall-clock reads (time.time / perf_counter / datetime.now) "
        "in simulation-domain packages"
    )
    scope = DOMAIN_PACKAGES
    allowlist = (
        "repro/experiments/executor.py",
        "repro/experiments/runlog.py",
    )

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        assert src.tree is not None
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name is None:
                    continue
                if name in _WALL_CLOCK_CALLS or any(
                    name == s or name.endswith("." + s) for s in _WALL_CLOCK_SUFFIXES
                ):
                    yield self.finding(
                        src,
                        node,
                        f"reads the wall clock ({name}); simulation-domain "
                        "code must use the Simulator's sim-time clock",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = sorted(
                    a.name for a in node.names if a.name in _WALL_CLOCK_IMPORTS
                )
                if bad:
                    yield self.finding(
                        src,
                        node,
                        f"imports wall-clock function(s) {', '.join(bad)} "
                        "from 'time' into simulation-domain code",
                    )


def _is_set_expr(node: Optional[ast.expr], set_names: "set[str]") -> bool:
    """Conservatively recognize expressions that yield unordered sets."""
    if node is None:
        return False
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("set", "frozenset"):
            return True
        # set-algebra methods on a known-set (or literal-set) receiver
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return _is_set_expr(node.func.value, set_names)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _shallow_statements(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements of a scope, not descending into nested scopes."""
    stack = list(body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            else:
                # statements nested under non-stmt nodes (e.g. in
                # comprehensions) don't exist; expressions are handled
                # by the iteration scan, not the binding scan.
                stack.extend(
                    grand for grand in ast.walk(child) if isinstance(grand, ast.stmt)
                )


@rule
class UnorderedIterationRule(Rule):
    """D003: don't iterate sets where order can escape.

    Set iteration order depends on ``PYTHONHASHSEED`` for strings and on
    insertion history for integers.  If such an order reaches event
    scheduling, job lists or hashed payloads, two identical runs produce
    different bytes.  Iterate ``sorted(the_set)`` instead (dicts are
    insertion-ordered and are fine).
    """

    code = "D003"
    summary = (
        "no iteration over sets (order escapes into scheduling or "
        "payloads); iterate sorted(...) instead"
    )
    scope = DOMAIN_PACKAGES

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        assert src.tree is not None
        from repro.lint.astutil import scopes

        for scope_node, body in scopes(src.tree):
            set_names: set[str] = set()
            for stmt in _shallow_statements(body):
                targets: list[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                    value: Optional[ast.expr] = stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                    value = stmt.value
                else:
                    continue
                if _is_set_expr(value, set_names):
                    for target in targets:
                        if isinstance(target, ast.Name):
                            set_names.add(target.id)
            yield from self._scan_iterations(src, scope_node, body, set_names)

    def _scan_iterations(
        self,
        src: SourceFile,
        scope_node: ast.AST,
        body: Sequence[ast.stmt],
        set_names: "set[str]",
    ) -> Iterator[Finding]:
        own_scopes = {
            id(n)
            for n in ast.walk(scope_node)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and n is not scope_node
        }

        def walk_scope(node: ast.AST) -> Iterator[ast.AST]:
            for child in ast.iter_child_nodes(node):
                if id(child) in own_scopes:
                    continue
                yield child
                yield from walk_scope(child)

        for node in walk_scope(scope_node):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and call_name(node) in (
                "list",
                "tuple",
            ):
                if len(node.args) == 1:
                    iters.append(node.args[0])
            for it in iters:
                if _is_set_expr(it, set_names):
                    yield self.finding(
                        src,
                        it,
                        "iterates a set; the order is PYTHONHASHSEED- and "
                        "history-dependent and can escape into scheduling "
                        "or payloads — iterate sorted(...) instead",
                    )
