"""P001: jobs and scenario runners must survive a process boundary.

An ``Executor`` with workers pickles every
:class:`~repro.experiments.jobs.Job` into a worker, and workers resolve the job's scenario name against the
module-level ``SCENARIOS`` registry.  Both legs break quietly if a
scenario runner is registered from inside a function (the worker's
import never executes it) or a job field smuggles a lambda / local
function (pickle refuses, or worse, resolves differently).  P001 pins
both at the AST level.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.astutil import call_name
from repro.lint.engine import SourceFile
from repro.lint.findings import Finding
from repro.lint.registry import Rule, rule

__all__ = ["PicklabilityRule"]

#: Call names that build job descriptions (fields must pickle).
_JOB_BUILDERS = {"job", "Job", "jobs.job", "jobs.Job"}


def _is_scenario_decorator(dec: ast.expr) -> bool:
    """Recognize ``@scenario("name")`` (bare or attribute-qualified)."""
    if not isinstance(dec, ast.Call):
        return False
    name = call_name(dec)
    return name is not None and name.split(".")[-1] == "scenario"


@rule
class PicklabilityRule(Rule):
    """P001: scenario runners and Job field values must be module-level."""

    code = "P001"
    summary = (
        "@scenario runners must be module-level and Job fields must not "
        "carry lambdas/closures (jobs cross process boundaries by pickle)"
    )
    scope = ("repro/experiments",)

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        assert src.tree is not None
        tree = src.tree
        yield from self._nested_scenarios(src, tree)
        yield from self._lambda_fields(src, tree)

    # -- @scenario registration depth ----------------------------------------

    def _nested_scenarios(self, src: SourceFile, tree: ast.AST) -> Iterator[Finding]:
        module_level = {
            id(stmt)
            for stmt in getattr(tree, "body", [])
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(_is_scenario_decorator(d) for d in node.decorator_list):
                continue
            if id(node) not in module_level:
                yield self.finding(
                    src,
                    node,
                    f"@scenario runner {node.name!r} is not a module-level "
                    "function; worker processes re-import the module and "
                    "will never execute this registration",
                )

    # -- lambdas flowing into job descriptions -------------------------------

    def _lambda_fields(self, src: SourceFile, tree: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None or name not in _JOB_BUILDERS:
                continue
            for argument in [*node.args, *(kw.value for kw in node.keywords)]:
                for sub in ast.walk(argument):
                    if isinstance(sub, ast.Lambda):
                        yield self.finding(
                            src,
                            sub,
                            "lambda passed into a Job description; job "
                            "fields cross process boundaries by pickle and "
                            "must be module-level values (use a DropperSpec/"
                            "Protocol value or a named module-level function)",
                        )
