"""Flow-sensitive unit inference over one function body.

This is the core of simlint's U-rules: the one intraprocedural walker
that executes a function body statement by statement — branches join,
loops run to a fixpoint, code after an unconditional ``return``/
``raise`` is dead — with the :class:`repro.units.Unit` algebra riding
the walk.

The algebra follows :class:`repro.units.Unit`; the one special case is
the literal ``8`` / ``8.0``, which in a product or quotient against a
bit- or byte-carrying operand is read as the conversion factor
``bit/byte`` (so ``bytes * 8`` is bits, ``bits / 8`` is bytes and
``8.0 / bandwidth_bps`` is seconds-per-byte).  Any other product mixing
``bit`` and ``byte`` is reported.  Names anchor their unit by the
repository's suffix convention (``_s``, ``_bps``, ``_bytes``, ...).

Being flow-sensitive has two visible consequences: code after an
unconditional ``return``/``raise`` is never examined, and a name
rebound with different units on two branch arms has *no* unit after the
join (rather than whichever assignment came last in the source).

The walker knows Python control flow and the unit algebra, and defers
everything that needs whole-program context (call resolution,
annotation aliases, attribute units) to overridable hooks, which
:mod:`repro.lint.analysis.contracts` implements.

Soundness conventions:

* unknowns propagate silently — a ``None`` unit never fires anything,
  so unannotated code cannot produce noise;
* joins over-approximate: a unit (or receiver class) survives only when
  both sides agree.  That lattice is flat, so a loop head can only lose
  facts from one pass to the next and the fixpoint needs no widening.

Value *ranges* are not inferred here.  The ``Range`` half of the
``repro.contracts`` aliases is enforced where the floats are, by
``@checked`` under ``REPRO_CONTRACTS=1`` (see ``docs/contracts.md``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Final, Iterable, Optional, Sequence

from repro.units import BIT, BITS_PER_BYTE, BYTE, SUFFIX_UNITS, Unit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.analysis.symbols import ClassInfo

__all__ = [
    "Env",
    "Event",
    "Interpreter",
    "UNKNOWN",
    "Value",
    "conversion_hint",
    "suffix_unit",
]

# ---------------------------------------------------------------------------
# The abstract value and environment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Value:
    """Everything the walker knows about one expression.

    Two independent flat facts: the unit of measure (a known
    :class:`~repro.units.Unit`, or ``None`` for unknown) and, for
    receivers, the project class the value is an instance of.  ``join``
    keeps each only where both sides agree.
    """

    unit: Optional[Unit] = None
    cls: Optional["ClassInfo"] = None

    @property
    def is_unknown(self) -> bool:
        return self.unit is None and self.cls is None

    def join(self, other: "Value") -> "Value":
        return Value(
            self.unit if self.unit == other.unit else None,
            self.cls if self.cls is other.cls else None,
        )


UNKNOWN: Final = Value()


class Env:
    """Name -> :class:`Value`; absent names are :data:`UNKNOWN`."""

    __slots__ = ("vars",)

    def __init__(self, vars: "Optional[dict[str, Value]]" = None):
        self.vars: dict[str, Value] = dict(vars or {})

    def get(self, name: str) -> Value:
        return self.vars.get(name, UNKNOWN)

    def set(self, name: str, value: Value) -> None:
        if value.is_unknown:
            self.vars.pop(name, None)
        else:
            self.vars[name] = value

    def copy(self) -> "Env":
        return Env(self.vars)

    def join(self, other: "Env") -> "Env":
        out = Env()
        for name in self.vars.keys() & other.vars.keys():
            out.set(name, self.vars[name].join(other.vars[name]))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Env) and self.vars == other.vars

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}: {v}" for k, v in sorted(self.vars.items()))
        return f"Env({{{inner}}})"


def _join_envs(*envs: "Optional[Env]") -> "Optional[Env]":
    live = [e for e in envs if e is not None]
    if not live:
        return None
    out = live[0]
    for e in live[1:]:
        out = out.join(e)
    return out


def _assigned_names(node: ast.AST) -> set[str]:
    """Every Name bound by assignment/for/with anywhere under ``node``,
    not descending into nested function/class scopes."""
    out: set[str] = set()
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(child, ast.Name) and isinstance(
            child.ctx, (ast.Store, ast.Del)
        ):
            out.add(child.id)
        stack.extend(ast.iter_child_nodes(child))
    return out


# ---------------------------------------------------------------------------
# Unit anchors that need no whole-program context
# ---------------------------------------------------------------------------

#: Longest suffixes first, so ``_per_s`` wins over ``_s``.
_SUFFIXES = sorted(SUFFIX_UNITS, key=len, reverse=True)

#: Builtins through which a unit passes unchanged.
_PASSTHROUGH_CALLS = {"abs", "float", "int", "round", "min", "max"}


def suffix_unit(name: Optional[str]) -> Optional[Unit]:
    """The unit a name's suffix declares, if any."""
    if not name:
        return None
    for suffix in _SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return SUFFIX_UNITS[suffix]
    return None


def _literal(node: ast.expr) -> Optional[float]:
    """The value of a bare (possibly signed) numeric literal, else None.

    Literals are transparent scalars for the unit algebra — ``rtt_s *
    0.5`` is still seconds — and the literal ``8`` is the bit/byte
    conversion factor.  Both readings are keyed on the *syntax*: a name
    bound to ``8`` elsewhere carries no such licence.
    """
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _literal(node.operand)
    if isinstance(node, ast.Constant) and not isinstance(node.value, bool):
        if isinstance(node.value, (int, float)):
            return float(node.value)
    return None


def _eight_unit(node: ast.expr, other: Unit) -> Optional[Unit]:
    """``bit/byte`` when ``node`` is the literal 8 and can cancel against
    a bit- or byte-carrying ``other``; else None."""
    if _literal(node) != 8:
        return None
    if other.exponent("bit") == 0 and other.exponent("byte") == 0:
        return None
    return BITS_PER_BYTE


def conversion_hint(a: Unit, b: Unit) -> str:
    if {a, b} == {BIT, BYTE}:
        return " (convert with repro.units.bytes_to_bits / bits_to_bytes)"
    return ""


# ---------------------------------------------------------------------------
# The walker
# ---------------------------------------------------------------------------

_COMPARABLE = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


@dataclass(frozen=True)
class Event:
    """One U-rule finding, before rule-code assignment."""

    kind: str  # arith | mix | arg | suffix
    path: str
    node: ast.AST
    message: str


class Interpreter:
    """Flow-sensitive abstract execution of one function or module body.

    The one statement walker behind the four U-rules.  It knows Python
    control flow and the unit algebra, and reports what it can decide
    from an expression alone: ``arith`` for mixed-unit ``+``/``-``/
    comparison (U001) and ``mix`` (U002).  Everything that needs
    whole-program context — what a call resolves to, what an attribute
    or annotation declares — is deferred to the ``handle_*``/
    ``attribute_value`` hooks, which
    :mod:`repro.lint.analysis.contracts` implements.
    """

    def __init__(self, path: str, events: list[Event]) -> None:
        self.path = path
        self.events = events
        self._seen: set[tuple[int, str]] = set()
        self._break_envs: list[list[Env]] = []
        self._continue_envs: list[list[Env]] = []

    def emit(self, kind: str, node: ast.AST, message: str) -> None:
        """Record one event; loop passes revisit nodes, so deduplicate."""
        key = (id(node), kind)
        if key not in self._seen:
            self._seen.add(key)
            self.events.append(Event(kind, self.path, node, message))

    # -- whole-program hooks -------------------------------------------------

    def handle_return(self, stmt: ast.Return, value: Value) -> None:
        """Every ``return expr`` with the returned value."""

    def handle_call(
        self, call: ast.Call, arguments: "dict[ast.expr, Value]", env: Env
    ) -> Value:
        """Every call expression, with its evaluated positional and
        keyword arguments; returns what the callee declares it returns."""
        return UNKNOWN

    def attribute_value(self, node: ast.Attribute, env: Env) -> Value:
        """Value of an attribute read."""
        return UNKNOWN

    def handle_assign(
        self, target: ast.expr, value: Value, stmt: ast.stmt, env: Env
    ) -> Value:
        """Every Name/Attribute binding; returns the value to store."""
        return value

    # -- driving -------------------------------------------------------------

    def run(self, body: Sequence[ast.stmt], env: Env) -> Optional[Env]:
        """Execute a scope body; None means the exit is unreachable."""
        return self._exec_block(body, env)

    def _exec_block(
        self, stmts: Iterable[ast.stmt], env: Optional[Env]
    ) -> Optional[Env]:
        for stmt in stmts:
            if env is None:
                return None
            env = self._exec_stmt(stmt, env)
        return env

    # -- statements ----------------------------------------------------------

    def _exec_stmt(self, stmt: ast.stmt, env: Env) -> Optional[Env]:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, value, stmt, env)
            return env
        if isinstance(stmt, ast.AnnAssign):
            # A bare ``x: Seconds`` still declares: bind it as unknown.
            self._bind(stmt.target, self.eval(stmt.value, env), stmt, env)
            return env
        if isinstance(stmt, ast.AugAssign):
            current = self.eval(stmt.target, env)
            operand = self.eval(stmt.value, env)
            result = self._binop(
                stmt, stmt.op, stmt.target, current.unit, stmt.value, operand.unit
            )
            self._bind(stmt.target, Value(result), stmt, env)
            return env
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.handle_return(stmt, self.eval(stmt.value, env))
            return None
        if isinstance(stmt, ast.Raise):
            self.eval(stmt.exc, env)
            self.eval(stmt.cause, env)
            return None
        if isinstance(stmt, ast.If):
            self.eval(stmt.test, env)
            return _join_envs(
                self._exec_block(stmt.body, env.copy()),
                self._exec_block(stmt.orelse, env.copy()),
            )
        if isinstance(stmt, (ast.While, ast.For)):
            return self._exec_loop(stmt, env)
        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, env)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, UNKNOWN, stmt, env)
            return self._exec_block(stmt.body, env)
        if isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env)
            return env
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
            return env
        if isinstance(stmt, ast.Break):
            if self._break_envs:
                self._break_envs[-1].append(env.copy())
            return None
        if isinstance(stmt, ast.Continue):
            if self._continue_envs:
                self._continue_envs[-1].append(env.copy())
            return None
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # The body is its own scope, but decorators and defaults run
            # here, in the enclosing one.
            for decorator in stmt.decorator_list:
                self.eval(decorator, env)
            if not isinstance(stmt, ast.ClassDef):
                for default in (*stmt.args.defaults, *stmt.args.kw_defaults):
                    self.eval(default, env)
            env.set(stmt.name, UNKNOWN)
            return env
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.set(target.id, UNKNOWN)
            return env
        if isinstance(stmt, ast.Match):
            self.eval(stmt.subject, env)
            havoc = env.copy()
            for name in _assigned_names(stmt):
                havoc.set(name, UNKNOWN)
            outs = [
                self._exec_block(case.body, havoc.copy()) for case in stmt.cases
            ]
            return _join_envs(env, *outs)
        # Import/Global/Nonlocal/Pass and anything exotic: no effect.
        return env

    def _exec_loop(self, stmt: "ast.While | ast.For", env: Env) -> Optional[Env]:
        """Run a loop body until its head environment is stable.

        The head can only lose facts from one pass to the next (a join
        keeps a unit or class only where both sides agree), so the
        chain is finite and settles within a pass or two: no widening.
        """
        if isinstance(stmt, ast.For):
            self.eval(stmt.iter, env)
        self._break_envs.append([])
        self._continue_envs.append([])
        head = env.copy()
        try:
            while True:
                body_in = head.copy()
                if isinstance(stmt, ast.For):
                    self._bind(stmt.target, UNKNOWN, stmt, body_in)
                else:
                    self.eval(stmt.test, body_in)
                self._continue_envs[-1] = []
                body_out = self._exec_block(stmt.body, body_in)
                new_head = _join_envs(head, body_out, *self._continue_envs[-1])
                assert new_head is not None  # head is always live
                if new_head == head:
                    break
                head = new_head
            exit_env: Optional[Env] = head
            if stmt.orelse:
                exit_env = self._exec_block(stmt.orelse, exit_env)
            return _join_envs(exit_env, *self._break_envs[-1])
        finally:
            self._break_envs.pop()
            self._continue_envs.pop()

    def _exec_try(self, stmt: ast.Try, env: Env) -> Optional[Env]:
        havoc = env.copy()
        for name in _assigned_names(stmt):
            havoc.set(name, UNKNOWN)
        body_out = self._exec_block(stmt.body, env.copy())
        if stmt.orelse and body_out is not None:
            body_out = self._exec_block(stmt.orelse, body_out)
        handler_outs = [
            self._exec_block(handler.body, havoc.copy())
            for handler in stmt.handlers
        ]
        merged = _join_envs(body_out, *handler_outs)
        if stmt.finalbody:
            if merged is None:
                self._exec_block(stmt.finalbody, havoc.copy())
                return None
            merged = self._exec_block(stmt.finalbody, merged)
        return merged

    # -- binding -------------------------------------------------------------

    def _bind(
        self, target: ast.expr, value: Value, stmt: ast.stmt, env: Env
    ) -> None:
        if isinstance(target, ast.Name):
            env.set(target.id, self.handle_assign(target, value, stmt, env))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, UNKNOWN, stmt, env)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, UNKNOWN, stmt, env)
        elif isinstance(target, ast.Attribute):
            self.handle_assign(target, value, stmt, env)
        # Subscript targets carry no name-level information.

    # -- expressions ---------------------------------------------------------

    def eval(self, node: Optional[ast.expr], env: Env) -> Value:
        if node is None:
            return UNKNOWN
        if isinstance(node, ast.Name):
            value = env.get(node.id)
            if value.unit is None:
                declared = suffix_unit(node.id)
                if declared is not None:
                    return replace(value, unit=declared)
            return value
        if isinstance(node, ast.Attribute):
            if not isinstance(node.value, ast.Name):
                self.eval(node.value, env)  # calls/arithmetic inside the receiver
            return self.attribute_value(node, env)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand, env)
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                return Value(operand.unit)
            return UNKNOWN
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left, env).unit
            right = self.eval(node.right, env).unit
            return Value(self._binop(node, node.op, node.left, left, node.right, right))
        if isinstance(node, ast.BoolOp):
            return _alternatives([self.eval(v, env) for v in node.values])
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            units = [self.eval(operand, env).unit for operand in operands]
            for op, left, right in zip(node.ops, units, units[1:]):
                if (
                    isinstance(op, _COMPARABLE)
                    and left is not None
                    and right is not None
                    and not left.compatible(right)
                ):
                    self.emit(
                        "arith",
                        node,
                        f"compares incompatible units: {left} vs {right}"
                        + conversion_hint(left, right),
                    )
            return UNKNOWN
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            return _alternatives(
                [self.eval(node.body, env), self.eval(node.orelse, env)]
            )
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        # Constants, subscripts, containers, comprehensions, f-strings...:
        # walk child expressions so nested operations are still seen.
        if not isinstance(node, ast.Lambda):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child, env)
                elif isinstance(child, ast.comprehension):
                    self.eval(child.iter, env)
                    for condition in child.ifs:
                        self.eval(condition, env)
        return UNKNOWN

    # -- arithmetic ----------------------------------------------------------

    def _binop(
        self,
        node: ast.AST,
        op: ast.operator,
        left_node: ast.expr,
        left: Optional[Unit],
        right_node: ast.expr,
        right: Optional[Unit],
    ) -> Optional[Unit]:
        """The unit of ``left op right``; ``node`` is the BinOp or
        AugAssign the events are pinned to.  Unknown operands propagate
        silently: only two *known* units can disagree, so partial
        annotation coverage never manufactures a mismatch."""
        if isinstance(op, (ast.Add, ast.Sub)):
            if left is not None and right is not None:
                if left.compatible(right):
                    return left
                verb = "adds" if isinstance(op, ast.Add) else "subtracts"
                if isinstance(node, ast.AugAssign):
                    message = f"{verb} {right} in place to a {left} quantity"
                else:
                    message = f"{verb} incompatible units: {left} and {right}"
                self.emit("arith", node, message + conversion_hint(left, right))
                return None
            if left is not None and _literal(right_node) is not None:
                return left
            if right is not None and _literal(left_node) is not None:
                return right
            return None
        if isinstance(op, ast.Mod):
            return left
        if not isinstance(op, (ast.Mult, ast.Div, ast.FloorDiv)):
            return None
        dividing = not isinstance(op, ast.Mult)
        # A literal is a transparent scalar — except the factor-8
        # conversion: a literal 8 against a bit/byte-carrying operand is
        # the unit bit/byte, oriented so the product cancels.
        if right is not None and _literal(left_node) is not None:
            left = _eight_unit(left_node, right)
            if left is None:
                return right.inverse() if dividing else right
        elif left is not None and _literal(right_node) is not None:
            right = _eight_unit(right_node, left)
            if right is None:
                return left
        if left is None or right is None:
            return None
        result = left.div(right) if dividing else left.mul(right)
        if result.mixes_bits_and_bytes:
            self.emit(
                "mix",
                node,
                f"{'divides' if dividing else 'multiplies'} {left} "
                f"{'by' if dividing else 'and'} {right} leaving "
                f"{result}: bits and bytes mixed without the "
                "factor-8 conversion (see repro.units.CONVERSIONS)",
            )
            return None
        return result

    # -- calls ---------------------------------------------------------------

    def _eval_call(self, call: ast.Call, env: Env) -> Value:
        func = call.func
        if isinstance(func, ast.Attribute) and not isinstance(func.value, ast.Name):
            self.eval(func.value, env)  # a.b(x).c(y): the inner call
        arguments: dict[ast.expr, Value] = {}
        for a in call.args:
            if isinstance(a, ast.Starred):
                self.eval(a.value, env)
            else:
                arguments[a] = self.eval(a, env)
        args = list(arguments.values())
        for kw in call.keywords:
            arguments[kw.value] = self.eval(kw.value, env)
        declared = self.handle_call(call, arguments, env)
        if isinstance(func, ast.Name) and func.id in _PASSTHROUGH_CALLS and args:
            return Value(_agreed_unit(args))
        return declared


def _agreed_unit(values: Sequence[Value]) -> Optional[Unit]:
    """The unit of ``min(a, b)`` / ``a if c else b`` / ``a or b``.

    The operands of one such expression are meant as the same quantity,
    so those of unknown unit (a literal, an untyped name) adopt the unit
    the known ones agree on.  This is deliberately more generous than
    the statement-level join, where a unit survives only if *every*
    path carries it.
    """
    units = [value.unit for value in values if value.unit is not None]
    if units and all(units[0].compatible(unit) for unit in units[1:]):
        return units[0]
    return None


def _alternatives(values: Sequence[Value]) -> Value:
    """One of several values: the agreed unit, the common class."""
    out = values[0]
    for value in values[1:]:
        out = out.join(value)
    return replace(out, unit=_agreed_unit(values))
