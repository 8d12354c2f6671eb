"""Two source rules that no run can check, read off the product's AST.

Every other invariant of the figure pipeline is a property a test runs:
purity (``test_job_purity.py``), ranges (``@checked``), units
(``TestPacing``), the payloads (``test_one_road.py``) and the 28 tables.
These two defects do not show up in a run on one machine with one hash
seed, so they are read from the source instead:

* **ambient randomness** in ``repro/{sim,net,cc,traffic}``: a
  ``random.Random(...)``, a module-level ``random.*`` draw or a ``from
  random import``.  Every stream comes from ``RngRegistry``; two
  components falling back to ``random.Random(0)`` draw the same,
  correlated sequence and still pass every test.  ``sim/rng.py``, where
  the streams are born, is exempt.
* **set iteration** in the domain packages: a set's order follows
  ``PYTHONHASHSEED``, so an order that reaches a payload changes its bytes
  from one process to the next.  Iterate ``sorted(...)``; a dict is
  insertion-ordered and fine.

Each rule keeps the slip that sized it as a mutation case: the real
module with that one line changed must be flagged (``docs/linting.md``).
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
SIM_PACKAGES = ("sim", "net", "cc", "traffic")
DOMAIN_PACKAGES = SIM_PACKAGES + ("metrics", "analysis", "experiments")
RNG_HOME = "sim/rng.py"

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def modules(packages) -> list[str]:
    """Every module in ``packages``, relative to ``src/repro``."""
    return [
        path.relative_to(SRC).as_posix()
        for package in packages
        for path in sorted((SRC / package).rglob("*.py"))
    ]


def read(path: str) -> str:
    return (SRC / path).read_text(encoding="utf-8")


def root_name(node: ast.expr):
    """``random`` for ``random.Random``; None unless a name heads the chain."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def ambient_random(text: str) -> list[int]:
    """Lines that draw randomness outside ``RngRegistry``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(text))
        if (isinstance(node, ast.ImportFrom) and node.module == "random")
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and root_name(node.func) == "random"
        )
    ]


def own_nodes(scope: ast.AST):
    """The nodes of one scope, not descending into the scopes it defines."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if not isinstance(node, SCOPES):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def is_set(node, names: set[str]) -> bool:
    """Whether ``node`` evaluates to a set, as far as one scope shows."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in SET_METHODS and is_set(node.func.value, names)
    if isinstance(node, ast.BinOp) and isinstance(node.op, SET_OPERATORS):
        return is_set(node.left, names) or is_set(node.right, names)
    return False


def iterated(node: ast.AST) -> list[ast.expr]:
    """What ``node`` iterates: a loop's, a comprehension's, ``list(x)``'s."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        return [generator.iter for generator in node.generators]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "tuple")
        and len(node.args) == 1
    ):
        return [node.args[0]]
    return []


def set_iterations(text: str) -> list[int]:
    """Lines that iterate a set: a literal, a comprehension, ``set(...)``,
    set algebra, or a name this scope bound to one of those."""
    tree = ast.parse(text)
    lines = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, SCOPES))]:
        nodes = list(own_nodes(scope))
        names: set[str] = set()
        bindings = [node for node in nodes if isinstance(node, (ast.Assign, ast.AnnAssign))]
        for node in sorted(bindings, key=lambda node: node.lineno):
            if is_set(node.value, names):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        lines += [
            it.lineno for node in nodes for it in iterated(node) if is_set(it, names)
        ]
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in modules(SIM_PACKAGES) if p != RNG_HOME])
def test_no_ambient_randomness_in_the_simulator(path):
    lines = ambient_random(read(path))
    assert not lines, f"{path}:{lines}: draw from an RngRegistry stream instead"


def test_the_exemption_is_where_streams_are_born():
    assert ambient_random(read(RNG_HOME))


@pytest.mark.parametrize("path", modules(DOMAIN_PACKAGES))
def test_no_set_iteration_in_the_domain(path):
    lines = set_iterations(read(path))
    assert not lines, f"{path}:{lines}: iterate sorted(...) instead"


def mutate(path: str, old: str, new: str) -> str:
    text = read(path)
    assert text.count(old) == 1, f"{path} no longer holds {old!r}: re-point the case"
    return text.replace(old, new)


@pytest.mark.parametrize(
    "old, new",
    [
        # The sizing slip: two REDQueues without an rng would share seed 0.
        ("else deterministic_default_rng()", "else random.Random(0)"),
        ("if self._rng.random() < p_a:", "if random.random() < p_a:"),
        ("import random\n", "from random import Random\n"),
    ],
    ids=["private Random(0)", "module-level draw", "from random import"],
)
def test_ambient_randomness_is_flagged(old, new):
    assert ambient_random(mutate("net/red.py", old, new))


@pytest.mark.parametrize(
    "new",
    [
        # The sizing slip: the payload's share order follows the hash seed.
        "flow_ids_a = [int(f) for f in {str(f) for f in flow_ids_a}]",
        "flow_ids_a = list(set(flow_ids_a))",
        "seen = set(flow_ids_a) | set(flow_ids_b)\n    for fid in seen:\n        pass",
    ],
    ids=["comprehension over a set", "list(set)", "loop over a bound set"],
)
def test_set_iteration_is_flagged(new):
    old = "    end = cfg.duration(period_s)\n    n_total"
    text = mutate("experiments/scenarios.py", old, f"    {new}\n{old}")
    assert set_iterations(text)
