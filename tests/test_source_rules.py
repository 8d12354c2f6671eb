"""Five source rules that no run can check, read off the product's AST.

Every other invariant of the figure pipeline is a property a test runs:
purity (``test_job_purity.py``), ranges (``@checked``), units
(``TestPacing``), the payloads (``test_one_road.py``) and the 28 tables.
These five defects do not show up in a run on one machine with one hash
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
* **an option nothing sets**: a defaulted parameter of a public function,
  method or ``__init__`` in ``repro/{sim,net,cc,traffic,metrics,telemetry,
  analysis,experiments}`` or ``repro/viz.py`` that no call in
  ``src/repro``, ``examples``, ``bench`` or ``benchmarks`` (the
  paper-claims suite, whose ``test_*`` modules count) reaches.  A call
  reaches it by keyword, by position, by a key of a dict literal it
  passes as ``**``, through ``super().__init__``, through a ``**kwargs``
  it forwards, or through a protocol helper (``tcp(2, ecn=True)`` reaches
  ``new_tcp_flow`` through ``Protocol.of`` and ``FAMILIES``, then
  ``TcpSender`` through ``**sender_kwargs``).  A test setting it is no
  reason: the paper ran one configuration, and an alternative that no
  measurement reads is a second code path to keep right; a figure's
  sweep axes are its module's constants, and a test shrinks a figure by
  cutting its job list.  ``OPTION_ALLOWLIST`` names each exception and
  the reader it waits for.  ``python -m tests.test_source_rules options``
  prints the census.
* **a public name nothing reads**: a public top-level function or class, or
  a public method or property of one, in the same packages that no module
  in ``src/repro``, ``examples``, ``bench`` or ``benchmarks`` spells as a
  name, an attribute or a string.  An import, an ``__all__`` entry (a
  package re-export) and the definition's own body do not count, and
  neither do tests: an accessor only a test reads is a second way to look
  at state the product reads one way.  ``experiments/scale.py`` is exempt:
  DESIGN.md §2's table and its test read its ledger functions.
  ``READER_ALLOWLIST`` names each exception and the ROADMAP item bringing
  its reader; ``python -m tests.test_source_rules readers`` prints the
  census.
* **the collector touched outside the job layer**: an ``import gc`` or a
  ``gc.*`` call anywhere in ``src/repro`` but ``experiments/jobs.py``
  (one collection when a simulated job returns) and
  ``experiments/executor.py`` (a worker freezes the heap it inherits).
  Object lifetimes are decided in one place; a scenario or a component
  that collects, freezes or disables the collector itself changes what
  every job costs, and no table shows it.

Each rule keeps the slip that sized it as a mutation case: the real
module with that one line changed must be flagged (``docs/linting.md``).
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import NamedTuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SIM_PACKAGES = ("sim", "net", "cc", "traffic")
DOMAIN_PACKAGES = SIM_PACKAGES + ("metrics", "analysis", "experiments")
RNG_HOME = "sim/rng.py"

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def modules(packages) -> list[str]:
    """Every module in ``packages`` (a package directory or one module
    file), relative to ``src/repro``."""
    found = []
    for package in packages:
        top = SRC / package
        paths = [top] if top.is_file() else sorted(top.rglob("*.py"))
        found += [path.relative_to(SRC).as_posix() for path in paths]
    return found


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


# The collector ----------------------------------------------------------------

#: The two modules that decide object lifetimes.
GC_HOMES = ("experiments/jobs.py", "experiments/executor.py")


def collector_uses(text: str) -> list[int]:
    """Lines that import the ``gc`` module or reach into it."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(text))
        if (isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "gc")
        or (isinstance(node, ast.Attribute) and root_name(node) == "gc")
    ]


@pytest.mark.parametrize(
    "path",
    [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() not in GC_HOMES
    ],
)
def test_only_the_job_layer_touches_the_collector(path):
    lines = collector_uses(read(path))
    assert not lines, f"{path}:{lines}: object lifetimes are {' and '.join(GC_HOMES)}'s"


def test_the_job_layer_does_touch_it():
    assert all(collector_uses(read(path)) for path in GC_HOMES)


@pytest.mark.parametrize(
    "path, old, new",
    [
        # The sizing slip: a scenario freeing its own network.
        (
            "experiments/scenarios.py",
            "    end = cfg.duration(period_s)\n    n_total",
            "    end = cfg.duration(period_s)\n    gc.collect()\n    n_total",
        ),
        ("sim/engine.py", "import heapq\n", "import gc\nimport heapq\n"),
        ("sim/engine.py", "import heapq\n", "from gc import disable\nimport heapq\n"),
    ],
    ids=["a scenario collecting", "import gc", "from gc import"],
)
def test_the_collector_outside_the_job_layer_is_flagged(path, old, new):
    assert collector_uses(mutate(path, old, new))


# Simulator options ------------------------------------------------------------

OPTION_PACKAGES = (
    "sim", "net", "cc", "traffic", "metrics", "telemetry", "analysis", "experiments", "viz.py",
)
CALLER_DIRS = ("src/repro", "examples", "bench", "benchmarks")
#: Caller directories whose ``test_*`` modules are product too: the
#: paper-claims suite regenerates ``results/`` through ``run_figure``.
PRODUCT_TESTS = ("benchmarks",)
PROTOCOLS = "experiments/protocols.py"

#: Options no call reaches, kept because a named reader is on its way.
OPTION_ALLOWLIST = {
    "TcpSender.limited_transmit": "ROADMAP item 3's ablation arm, measured in EXPERIMENTS.md",
    "fairness_jobs.periods": "bench's SWEEP_FIGURES cuts fig07 to two periods through **",
}


class Option(NamedTuple):
    name: str  # "TcpSender.ecn", "padhye_rate_pps.rto_s"
    callee: str  # what a call spells: the class for __init__, else the function
    param: str
    position: int  # among the arguments a call passes; -1 for keyword-only


class Call(NamedTuple):
    callee: str
    keywords: frozenset
    positional: int


def signatures(tree: ast.Module):
    """(name, callee, def, leading implicit arguments) of each public signature."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node, 0
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    yield node.name, node.name, item, 1
                elif not item.name.startswith("_"):
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    yield f"{node.name}.{item.name}", item.name, item, 0 if static else 1


def declared_options(text: str) -> list[Option]:
    """Every defaulted parameter of the module's public signatures."""
    found = []
    for name, callee, fn, implicit in signatures(ast.parse(text)):
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        found += [
            Option(f"{name}.{arg.arg}", callee, arg.arg, index - implicit)
            for index, arg in enumerate(args[first:], first)
        ]
        found += [
            Option(f"{name}.{arg.arg}", callee, arg.arg, -1)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None
        ]
    return found


def families() -> dict[str, ast.Call]:
    """Protocol family -> its ``_Family(key, flow_arg, convert, flow, ...)``."""
    for node in ast.parse(read(PROTOCOLS)).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "FAMILIES":
            return {key.value: value for key, value in zip(node.value.keys, node.value.values)}
    raise AssertionError(f"{PROTOCOLS} no longer defines FAMILIES: re-point the rule")


def callers() -> dict[str, str]:
    """Every non-test module that may call into the product, by path."""
    return {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for directory in CALLER_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
        if directory in PRODUCT_TESTS
        or not (path.name.startswith("test_") or path.name == "conftest.py")
    }


def test_every_caller_directory_contributes_a_module():
    sources = callers()
    empty = [d for d in CALLER_DIRS if not any(path.startswith(f"{d}/") for path in sources)]
    assert not empty, f"{empty}: no module counted; the rules do not read these directories"


def scan_calls(tree: ast.Module, family_flows: dict, inits: dict):
    """The module's calls, and its ``**kwargs`` forwarding edges.

    An edge ``(g, named, f)`` says that a keyword reaching ``g`` that is
    not one of its ``named`` parameters reaches ``f``.
    """
    calls: list[Call] = []
    edges: list[tuple[str, frozenset, str]] = []

    def callee_of(call: ast.Call, cls) -> tuple[str | None, set[str]]:
        """The name a call reaches, and the keywords it passes implicitly."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "of"
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and call.args[0].value in family_flows
        ):
            # Protocol.of("tcp_b", ...): make() passes the keywords to the
            # family's new_*_flow, with the slowness parameter converted.
            family = family_flows[call.args[0].value]
            return family.args[3].id, {family.args[1].value}
        if isinstance(func, ast.Name):
            name = func.id
        elif not isinstance(func, ast.Attribute):
            return None, set()
        elif func.attr == "__init__" and getattr(getattr(func.value, "func", None), "id", "") == "super":
            name = cls.bases[0].id
        else:
            name = func.attr
        while inits.get(name, (True, None))[0] is False and inits[name][1]:
            name = inits[name][1]  # a class without __init__ runs its base's
        return name, set()

    def bindings(fn) -> dict[str, ast.expr]:
        """What each name in ``fn`` is assigned (for ``**name[key]``)."""
        bound = {}
        for node in ast.walk(fn) if fn is not None else ():
            if isinstance(node, ast.Assign):
                bound.update((t.id, node.value) for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bound[node.target.id] = node.value
        return bound

    def dict_keys(node: ast.AST) -> set[str]:
        return {
            key.value
            for dct in ast.walk(node)
            if isinstance(dct, ast.Dict)
            for key in dct.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }

    def visit(node: ast.AST, cls, fn) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, fn)
                continue
            if isinstance(child, ast.FunctionDef):
                visit(child, cls, child)
                continue
            if isinstance(child, ast.Call):
                record(child, cls, fn)
            visit(child, cls, fn)

    def record(call: ast.Call, cls, fn) -> None:
        callee, keywords = callee_of(call, cls)
        if callee is None:
            return
        for kw in call.keywords:
            if kw.arg is not None:
                keywords.add(kw.arg)
                continue
            keywords |= dict_keys(kw.value)
            head = kw.value
            while isinstance(head, ast.Subscript):  # **table[key]
                head = head.value
            if isinstance(head, ast.Name):
                keywords |= dict_keys(bindings(fn).get(head.id, ast.Dict([], [])))
            if fn is not None and fn.args.kwarg and getattr(kw.value, "id", "") == fn.args.kwarg.arg:
                source = cls.name if cls is not None and fn.name == "__init__" else fn.name
                named = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
                edges.append((source, frozenset(named), callee))
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        calls.append(Call(callee, frozenset(keywords), 10**6 if starred else len(call.args)))

    visit(tree, None, None)
    return calls, edges


def option_census(overrides: dict[str, str] = {}) -> tuple[list[Option], list[str]]:
    """(every simulator option, the names no call reaches).

    ``overrides`` maps a module under ``src/repro`` to replacement text.
    """
    texts = {path: overrides.get(path) or read(path) for path in modules(OPTION_PACKAGES)}
    declared = [option for text in texts.values() for option in declared_options(text)]
    sources = callers()
    sources.update({f"src/repro/{path}": text for path, text in overrides.items()})
    trees = [ast.parse(text) for text in sources.values()]
    inits = {
        node.name: (
            any(isinstance(i, ast.FunctionDef) and i.name == "__init__" for i in node.body),
            next((b.id for b in node.bases if isinstance(b, ast.Name)), None),
        )
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    family_flows = families()
    # make() calls each family's converter with the slowness parameter.
    calls = [
        Call(family.args[2].id, frozenset(), 1)
        for family in family_flows.values()
        if isinstance(family.args[2], ast.Name)
    ]
    edges = []
    for tree in trees:
        found, forwarded = scan_calls(tree, family_flows, inits)
        calls += found
        edges += forwarded
    keywords: dict[str, set] = {}
    positional: dict[str, int] = {}
    for call in calls:
        keywords.setdefault(call.callee, set()).update(call.keywords)
        positional[call.callee] = max(positional.get(call.callee, 0), call.positional)
    changed = True
    while changed:
        changed = False
        for source, named, target in edges:
            passed = keywords.get(source, set()) - named
            if not passed <= keywords.setdefault(target, set()):
                keywords[target] |= passed
                changed = True
    unreached = [
        option.name
        for option in declared
        if option.param not in keywords.get(option.callee, ())
        and not 0 <= option.position < positional.get(option.callee, 0)
    ]
    return declared, unreached


def test_every_simulator_option_is_set_by_a_caller():
    _, unreached = option_census()
    unexplained = [name for name in unreached if name not in OPTION_ALLOWLIST]
    assert not unexplained, (
        f"{unexplained}: nothing outside the tests sets these; delete each with the "
        "mechanism only it selects, or name its reader in OPTION_ALLOWLIST"
    )


def test_the_option_allowlist_is_short_and_live():
    declared, unreached = option_census()
    assert len(OPTION_ALLOWLIST) <= 6
    assert set(OPTION_ALLOWLIST) <= {option.name for option in declared}
    assert set(OPTION_ALLOWLIST) <= set(unreached), "a caller appeared: drop the entry"


@pytest.mark.parametrize(
    "path, old, new, flagged",
    [
        # The sizing slip: a knob added "for later" that nothing sets.
        (
            "cc/tcp.py",
            "        limited_transmit: bool = False,\n",
            "        limited_transmit: bool = False,\n        foo: int = 0,\n",
            "TcpSender.foo",
        ),
        (
            "net/red.py",
            "    ecn_marking: bool = False,\n) -> REDQueue:",
            "    ecn_marking: bool = False,\n    gentle: bool = True,\n) -> REDQueue:",
            "red_for_bdp.gentle",
        ),
        # A figure's sweep axis put back as a knob only a test would set.
        (
            "experiments/fig17_mild_bursty.py",
            'def jobs(scale: str = "fast", **overrides) -> list[Job]:\n'
            '    return loss_pattern_jobs("fig17", PROTOCOLS,',
            'def jobs(scale: str = "fast", protocols=None, **overrides) -> list[Job]:\n'
            '    return loss_pattern_jobs("fig17", protocols or PROTOCOLS,',
            "jobs.protocols",
        ),
    ],
    ids=["TcpSender keyword", "function keyword", "a figure knob"],
)
def test_an_option_nothing_sets_is_flagged(path, old, new, flagged):
    _, unreached = option_census({path: mutate(path, old, new)})
    assert flagged in unreached


def test_forwarding_reaches_the_sender():
    # tcp(...) -> tcp_b -> Protocol.of -> new_tcp_flow -> **sender_kwargs -> TcpSender,
    # and super().__init__ reaches a base class's option.
    _, unreached = option_census()
    assert "TcpSender.ecn" not in unreached
    assert "Dropper.clock" not in unreached
    assert "new_tcp_flow.rule" not in unreached


# Public names -----------------------------------------------------------------

#: The module the readers rule skips: the scale ledger's functions are read
#: by DESIGN.md §2's table and ``tests/test_scale_ledger.py``, and ROADMAP
#: item 14 moves its numbers.
SCALE_LEDGER = "experiments/scale.py"

#: Public names nothing outside the tests reads, kept because a named reader
#: is on its way (at most eight).
READER_ALLOWLIST = {
    "f_of_k_aimd_approx": "ROADMAP items 15 and 16: Fig 13's model column and the fluid oracle",
    "aimd_responsiveness_rtts": "ROADMAP items 15 and 16: ext_responsiveness's model column",
    "tfrc_responsiveness_rtts": "ROADMAP items 15 and 16: ext_responsiveness's model column",
    "aimd_aggressiveness_pps": "ROADMAP items 15 and 16: ext_aggressiveness's model column",
    "iterate_expected_windows": "ROADMAP item 16's oracle: the two-flow transient's contraction",
    "aimd_response_rate": "ROADMAP item 16's oracle: the fluid share without oscillation",
    "replicate": "ROADMAP item 4: seeds as a job axis, reduced to mean ± half-width",
    "Summary.overlaps": "ROADMAP item 4: an ordering claim read off two intervals",
}


def public_names(tree: ast.Module):
    """(name, what a reader spells, def) of each public top-level function
    and class, and each public method and property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def spellings(tree: ast.Module) -> dict[str, list[int]]:
    """Name, attribute and string constant -> the lines that read it.

    An import is not a read, and neither is an ``__all__`` entry: a
    package re-exporting a name reads nothing.
    """
    exported = {
        id(node)
        for statement in tree.body
        if isinstance(statement, ast.Assign)
        and any(getattr(target, "id", "") == "__all__" for target in statement.targets)
        for node in ast.walk(statement.value)
    }
    found: dict[str, list[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            spelled = node.id
        elif isinstance(node, ast.Attribute):
            spelled = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            spelled = node.value
        else:
            continue
        if id(node) not in exported:
            found.setdefault(spelled, []).append(node.lineno)
    return found


def reader_census(
    overrides: dict[str, str] = {}, exempt: tuple[str, ...] = (SCALE_LEDGER,)
) -> tuple[list[str], list[str]]:
    """(every public product name, the names no non-test module reads).

    ``overrides`` maps a module under ``src/repro`` to replacement text; the
    ``exempt`` modules are not scanned.  A read inside the name's own
    definition (a recursion, a class naming itself) does not count.
    """
    sources = callers()
    sources.update({f"src/repro/{path}": text for path, text in overrides.items()})
    reads = {path: spellings(ast.parse(text)) for path, text in sources.items()}
    declared, unread = [], []
    for path in [p for p in modules(OPTION_PACKAGES) if p not in exempt]:
        home = f"src/repro/{path}"
        for name, spelled, node in public_names(ast.parse(sources[home])):
            declared.append(name)
            if not any(
                not (where == home and node.lineno <= line <= node.end_lineno)
                for where, found in reads.items()
                for line in found.get(spelled, ())
            ):
                unread.append(name)
    return declared, unread


def test_every_public_simulator_name_has_a_reader():
    _, unread = reader_census()
    unexplained = [name for name in unread if name not in READER_ALLOWLIST]
    assert not unexplained, (
        f"{unexplained}: nothing outside the tests reads these; delete each with its "
        "tests, or name its reader in READER_ALLOWLIST"
    )


def test_the_reader_allowlist_is_short_and_live():
    declared, unread = reader_census()
    assert len(READER_ALLOWLIST) <= 8
    assert set(READER_ALLOWLIST) <= set(declared)
    assert set(READER_ALLOWLIST) <= set(unread), "a reader appeared: drop the entry"


def test_the_exemption_has_names_only_its_ledger_reads():
    ledger = {name for name, _, _ in public_names(ast.parse(read(SCALE_LEDGER)))}
    _, unread = reader_census(exempt=())
    assert ledger & set(unread), f"a product module reads {SCALE_LEDGER}: drop the exemption"


@pytest.mark.parametrize(
    "edits, flagged",
    [
        # The sizing slip: an accessor added so that a test can look inside.
        (
            [
                (
                    "cc/tcp.py",
                    "    def _sample_rtt(",
                    "    def peek_window(self) -> float:\n"
                    "        return self.cwnd\n\n"
                    "    def _sample_rtt(",
                ),
            ],
            "TcpSender.peek_window",
        ),
        (
            [
                (
                    "cc/tcp.py",
                    "\nclass TcpSender(",
                    "\ndef window_of(sender) -> float:\n"
                    "    return sender.cwnd\n\n\nclass TcpSender(",
                ),
                (
                    "cc/__init__.py",
                    "from repro.cc.tcp import TcpSender, TcpSink, new_tcp_flow\n",
                    "from repro.cc.tcp import TcpSender, TcpSink, new_tcp_flow, window_of\n",
                ),
                ("cc/__init__.py", "__all__ = [\n", '__all__ = [\n    "window_of",\n'),
            ],
            "window_of",
        ),
        (
            [
                (
                    "experiments/fig17_mild_bursty.py",
                    "\ndef jobs(",
                    "\ndef mild_gaps() -> list[int]:\n"
                    "    return mild_bursty_pattern()\n\n\ndef jobs(",
                ),
                (
                    "experiments/__init__.py",
                    "from repro.experiments.faults import FaultSpec, InjectedFault\n",
                    "from repro.experiments.faults import FaultSpec, InjectedFault\n"
                    "from repro.experiments.fig17_mild_bursty import mild_gaps\n",
                ),
                ("experiments/__init__.py", "__all__ = [\n", '__all__ = [\n    "mild_gaps",\n'),
            ],
            "mild_gaps",
        ),
    ],
    ids=["TcpSender method", "an __init__ re-export", "an experiments re-export"],
)
def test_a_name_nothing_reads_is_flagged(edits, flagged):
    texts: dict[str, str] = {}
    for path, old, new in edits:
        text = texts.get(path) or read(path)
        assert text.count(old) == 1, f"{path} no longer holds {old!r}: re-point the case"
        texts[path] = text.replace(old, new)
    _, unread = reader_census(texts)
    assert flagged in unread


CENSUSES = {"options": option_census, "readers": reader_census}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CENSUSES:
        raise SystemExit(f"usage: python -m tests.test_source_rules {{{'|'.join(CENSUSES)}}}")
    if sys.argv[1] == "options":
        declared, unreached = option_census()
        print(f"options: {len(declared)}")
        print(f"reached by no caller: {len(unreached)}")
        for name in unreached:
            print(f"  {name}: {OPTION_ALLOWLIST.get(name, 'NOT ALLOWLISTED')}")
    else:
        declared, unread = reader_census()
        print(f"public names: {len(declared)}")
        print(f"read by no caller: {len(unread)}")
        for name in unread:
            print(f"  {name}: {READER_ALLOWLIST.get(name, 'NOT ALLOWLISTED')}")
