"""Abstract interpretation of one function body over ranges and units.

This is the core of simlint's U- and I-rules: a classic interval domain
(value ranges over floats with optionally *open* endpoints) and the one
flow-sensitive intraprocedural abstract interpreter that executes a
function body over the product of that domain with units of measure —
branch refinement on comparisons, widening at loop heads, transfer
functions for arithmetic including division, and the
:class:`repro.units.Unit` algebra riding the same walk.

Open endpoints are what make the interval domain strong enough for the
paper's equations: after ``if not 0.0 < p <= 1.0: raise ValueError`` the
loss-event rate ``p`` is known to lie in ``(0, 1]``, which *excludes*
zero, so ``math.sqrt(1.5 / p)`` is provably safe — while an unguarded
``1.0 / p`` under a ``Probability`` contract (``[0, 1]``) is provably
dangerous as ``p -> 0`` (Bansal et al., SIGCOMM 2001, Section 5).

The unit half follows :class:`repro.units.Unit`; the one special case is
the literal ``8`` / ``8.0``, which in a product or quotient against a
bit- or byte-carrying operand is read as the conversion factor
``bit/byte`` (so ``bytes * 8`` is bits, ``bits / 8`` is bytes and
``8.0 / bandwidth_bps`` is seconds-per-byte).  Any other product mixing
``bit`` and ``byte`` is reported.  Names anchor their unit by the
repository's suffix convention (``_s``, ``_bps``, ``_bytes``, ...).

Being flow-sensitive has two visible consequences for units: code after
an unconditional ``return``/``raise`` is never examined, and a name
rebound with different units on two branch arms has *no* unit after the
join (rather than whichever assignment came last in the source).

The interpreter knows Python control flow and the two algebras, and
defers everything that needs whole-program context (call resolution,
annotation contracts, attribute units) to overridable hooks, which
:mod:`repro.lint.analysis.contracts` implements; the lattice-law
property tests exercise the domains directly.

Soundness conventions:

* unknowns propagate silently — ``TOP`` (the unconstrained interval)
  and a ``None`` unit never fire anything, so unannotated code cannot
  produce noise;
* joins over-approximate (interval hull; unit kept only when both sides
  agree), ``int``/``round``/``//`` round outward to closed endpoints,
  and widening jumps to the nearest of a small threshold set (−1, 0, 1)
  before giving up to infinity, so loop analysis terminates in a handful
  of iterations.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Final, Iterable, Optional, Sequence

from repro.units import BIT, BITS_PER_BYTE, BYTE, SUFFIX_UNITS, Unit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.analysis.symbols import ClassInfo

__all__ = [
    "EMPTY",
    "Env",
    "Event",
    "Interpreter",
    "Interval",
    "TOP",
    "UNKNOWN",
    "Value",
    "conversion_hint",
    "suffix_unit",
]

_INF = math.inf

#: Widening thresholds: the landmarks protocol invariants live at.
WIDEN_THRESHOLDS: Final = (-1.0, 0.0, 1.0)

#: Fixpoint iterations before the loop analysis forces convergence.
MAX_LOOP_PASSES: Final = 16


@dataclass(frozen=True)
class Interval:
    """A set of reals ``{x | lo <? x <? hi}`` with open/closed endpoints.

    Infinite endpoints are always open (infinity is a limit, not a
    value) — except that for *contract* comparisons ``math.inf`` itself
    is treated as satisfying ``hi == inf``; the constructor via
    :meth:`make` normalizes.  The empty interval is the singleton
    :data:`EMPTY`; the unconstrained one is :data:`TOP`.
    """

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    # -- constructors --------------------------------------------------------

    @staticmethod
    def make(
        lo: float, hi: float, lo_open: bool = False, hi_open: bool = False
    ) -> "Interval":
        if math.isnan(lo) or math.isnan(hi):
            return TOP
        if lo > hi:
            return EMPTY
        if lo == hi and lo_open != hi_open and math.isfinite(lo):
            return EMPTY
        if lo == -_INF:
            lo_open = True
        if hi == _INF:
            hi_open = True
        if lo == hi and lo_open and hi_open and math.isfinite(lo):
            return EMPTY
        return Interval(lo, hi, lo_open, hi_open)

    @staticmethod
    def point(value: float) -> "Interval":
        if math.isnan(value):
            return TOP
        return Interval(value, value, False, False)

    # -- predicates ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def is_top(self) -> bool:
        return self.lo == -_INF and self.hi == _INF

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi and not self.lo_open and not self.hi_open

    @property
    def is_known(self) -> bool:
        """At least one bound is informative (finite endpoint)."""
        return not self.is_empty and (
            math.isfinite(self.lo) or math.isfinite(self.hi)
        )

    def contains(self, value: float) -> bool:
        if self.is_empty or math.isnan(value):
            return False
        if value < self.lo or (value == self.lo and self.lo_open):
            return False
        if value > self.hi or (value == self.hi and self.hi_open):
            return False
        return True

    @property
    def contains_zero(self) -> bool:
        return self.contains(0.0)

    def subset_of(self, other: "Interval") -> bool:
        """Lattice order: every value of ``self`` lies in ``other``."""
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        if self.lo < other.lo:
            return False
        if self.lo == other.lo and other.lo_open and not self.lo_open:
            return False
        if self.hi > other.hi:
            return False
        if self.hi == other.hi and other.hi_open and not self.hi_open:
            return False
        return True

    def disjoint(self, other: "Interval") -> bool:
        return self.meet(other).is_empty

    # -- lattice -------------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        """Least upper bound: the interval hull."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        if self.lo < other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo < self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open and other.lo_open
        if self.hi > other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi > self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open and other.hi_open
        return Interval.make(lo, hi, lo_open, hi_open)

    def meet(self, other: "Interval") -> "Interval":
        """Greatest lower bound: the intersection."""
        if self.is_empty or other.is_empty:
            return EMPTY
        if self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo > self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi < self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        return Interval.make(lo, hi, lo_open, hi_open)

    def widen(self, newer: "Interval") -> "Interval":
        """Classic threshold widening: jump unstable bounds outward.

        A lower bound still descending drops to the nearest threshold
        below the new value (then to −inf); an upper bound still
        climbing jumps to the nearest threshold above (then to +inf).
        Guarantees termination: each application strictly enlarges a
        bound through the finite threshold ladder.
        """
        if self.is_empty:
            return newer
        if newer.is_empty:
            return self
        merged = self.join(newer)
        lo, lo_open = merged.lo, merged.lo_open
        hi, hi_open = merged.hi, merged.hi_open
        if merged.lo < self.lo or (
            merged.lo == self.lo and self.lo_open and not merged.lo_open
        ):
            below = [t for t in WIDEN_THRESHOLDS if t <= merged.lo]
            lo, lo_open = (max(below), False) if below else (-_INF, True)
        if merged.hi > self.hi or (
            merged.hi == self.hi and self.hi_open and not merged.hi_open
        ):
            above = [t for t in WIDEN_THRESHOLDS if t >= merged.hi]
            hi, hi_open = (min(above), False) if above else (_INF, True)
        return Interval.make(lo, hi, lo_open, hi_open)

    # -- transfer functions --------------------------------------------------

    def neg(self) -> "Interval":
        if self.is_empty:
            return EMPTY
        return Interval.make(-self.hi, -self.lo, self.hi_open, self.lo_open)

    def add(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        lo = _add_values(self.lo, other.lo, -_INF)
        hi = _add_values(self.hi, other.hi, _INF)
        return Interval.make(
            lo, hi, self.lo_open or other.lo_open, self.hi_open or other.hi_open
        )

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def mul(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        corners = [
            _mul_corner(a, ao, b, bo)
            for a, ao in ((self.lo, self.lo_open), (self.hi, self.hi_open))
            for b, bo in ((other.lo, other.lo_open), (other.hi, other.hi_open))
        ]
        # Ties between corners with equal value must keep the hull sound:
        # a closed (attained) corner beats an open one at both ends.
        lo, lo_open = min(corners, key=lambda c: (c[0], c[1]))
        hi, hi_open = max(corners, key=lambda c: (c[0], not c[1]))
        return Interval.make(lo, hi, lo_open, hi_open)

    def inverse(self) -> "Interval":
        """``1/x`` for an interval that does NOT contain zero."""
        if self.is_empty:
            return EMPTY
        if self.contains_zero:
            return TOP
        negative = self.hi < 0 or (self.hi == 0 and self.hi_open)
        sign = -1.0 if negative else 1.0
        lo, lo_open = _inv_endpoint(self.hi, self.hi_open, sign)
        hi, hi_open = _inv_endpoint(self.lo, self.lo_open, sign)
        return Interval.make(lo, hi, lo_open, hi_open)

    def div(self, other: "Interval") -> "Interval":
        """``x / y``; TOP when the divisor may be zero (the client is
        expected to have reported that division separately).

        Corners are divided directly rather than via ``mul(inverse())``:
        the two-step form rounds twice, and the doubly-rounded endpoint
        can land strictly inside the true hull (``2.5 * (1/-1.5)`` !=
        ``2.5 / -1.5``).  A single correctly-rounded quotient per corner
        is monotone, so every concrete quotient stays inside the hull.
        """
        if self.is_empty or other.is_empty:
            return EMPTY
        if other.contains_zero:
            return TOP
        negative = other.hi < 0 or (other.hi == 0 and other.hi_open)
        sign = -1.0 if negative else 1.0
        corners = [
            _div_corner(a, ao, b, bo, sign)
            for a, ao in ((self.lo, self.lo_open), (self.hi, self.hi_open))
            for b, bo in ((other.lo, other.lo_open), (other.hi, other.hi_open))
        ]
        lo, lo_open = min(corners, key=lambda c: (c[0], c[1]))
        hi, hi_open = max(corners, key=lambda c: (c[0], not c[1]))
        return Interval.make(lo, hi, lo_open, hi_open)

    def absolute(self) -> "Interval":
        if self.is_empty:
            return EMPTY
        if self.is_top:
            # |x| >= 0, but manufacturing a known lower bound out of a
            # fully unknown operand lets guarded divisions false-fire
            # (see _check_division's known-lower-bound criterion).
            return TOP
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return self.neg()
        # When |lo| == |hi| the upper bound is attained from whichever
        # side is closed: open only if both endpoints are open.
        if -self.lo > self.hi:
            hi, hi_open = -self.lo, self.lo_open
        elif self.hi > -self.lo:
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = self.hi, self.lo_open and self.hi_open
        return Interval.make(0.0, hi, False, hi_open)

    def outward_int(self) -> "Interval":
        """Sound hull after int()/round()///: closed integer bounds."""
        if self.is_empty:
            return EMPTY
        lo = math.floor(self.lo) if math.isfinite(self.lo) else -_INF
        hi = math.ceil(self.hi) if math.isfinite(self.hi) else _INF
        return Interval.make(lo, hi, False, False)

    def monotone(self, fn, domain: "Interval") -> "Interval":
        """Image under an increasing ``fn``, clipped to ``fn``'s domain.

        Used for sqrt/log/exp: endpoints map through ``fn``; openness
        is preserved (a strictly increasing map keeps strict bounds).
        Values outside ``domain`` would raise at runtime — the abstract
        result only describes the non-raising executions.
        """
        if self.is_top:
            # Domain clipping a fully unknown input would invent a known
            # bound (sqrt(TOP) -> [0, inf)); stay silent instead, matching
            # absolute() — derived bounds only when the operand is known.
            return TOP
        clipped = self.meet(domain)
        if clipped.is_empty:
            return EMPTY
        lo = fn(clipped.lo)
        hi = fn(clipped.hi)
        return Interval.make(lo, hi, clipped.lo_open, clipped.hi_open)

    # -- refinement helpers --------------------------------------------------

    def assume_lt(self, bound: "Interval") -> "Interval":
        return self.meet(Interval.make(-_INF, bound.hi, True, True))

    def assume_le(self, bound: "Interval") -> "Interval":
        return self.meet(Interval.make(-_INF, bound.hi, True, bound.hi_open))

    def assume_gt(self, bound: "Interval") -> "Interval":
        return self.meet(Interval.make(bound.lo, _INF, True, True))

    def assume_ge(self, bound: "Interval") -> "Interval":
        return self.meet(Interval.make(bound.lo, _INF, bound.lo_open, True))

    def assume_ne(self, bound: "Interval") -> "Interval":
        """Refine ``x != c``: only endpoint exclusion is expressible."""
        if not bound.is_point or self.is_empty:
            return self
        c = bound.lo
        lo_open, hi_open = self.lo_open, self.hi_open
        if self.lo == c:
            lo_open = True
        if self.hi == c:
            hi_open = True
        return Interval.make(self.lo, self.hi, lo_open, hi_open)

    def __str__(self) -> str:
        if self.is_empty:
            return "(empty)"
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


TOP: Final = Interval(-_INF, _INF, True, True)
EMPTY: Final = Interval(_INF, -_INF, True, True)


def _add_values(a: float, b: float, infinity_wins: float) -> float:
    """Endpoint addition; opposite infinities resolve to the sound side."""
    if math.isinf(a) and math.isinf(b) and a != b:
        return infinity_wins
    return a + b


def _mul_corner(
    a: float, a_open: bool, b: float, b_open: bool
) -> tuple[float, bool]:
    """One corner product with openness: attained iff both ends attained.

    An attained zero is special: ``0 * y == 0`` for any ``y`` in the
    other (non-empty) interval, so a closed zero endpoint yields an
    attained zero regardless of the partner endpoint.
    """
    if (a == 0 and not a_open) or (b == 0 and not b_open):
        return (0.0, False)
    if a == 0 or b == 0:
        return (0.0, True)
    return (a * b, a_open or b_open)


def _div_corner(
    a: float, a_open: bool, b: float, b_open: bool, divisor_sign: float
) -> tuple[float, bool]:
    """One corner quotient of a zero-free divisor, with openness.

    ``divisor_sign`` is the sign of the (zero-free) divisor interval; a
    zero divisor endpoint is necessarily open and sends the quotient to
    infinity on that side.  The ``inf/inf`` corner is path-dependent —
    its ratios span everything between the adjacent corners — so it
    contributes an (over-approximate, hence sound) open zero.
    """
    if a == 0:
        # 0/y == 0 for every y in the divisor; attained iff a is.
        return (0.0, a_open)
    if b == 0:
        return (math.copysign(1.0, a) * divisor_sign * _INF, True)
    if math.isinf(a) and math.isinf(b):
        return (0.0, True)
    if math.isinf(b):
        return (0.0, True)
    if math.isinf(a):
        return (a if b > 0 else -a, True)
    return (a / b, a_open or b_open)


def _inv_endpoint(value: float, is_open: bool, sign: float) -> tuple[float, bool]:
    if value == 0:
        # Only reachable with an open zero endpoint (no zero inside);
        # it inverts to the signed infinity of the interval's side
        # (1/0- = -inf for an all-negative interval).
        return (sign * _INF, True)
    if math.isinf(value):
        return (0.0, True)
    return (1.0 / value, is_open)


# ---------------------------------------------------------------------------
# The product value and the abstract environment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Value:
    """Everything the interpreter knows about one expression.

    A product of independent facts: the numeric range (an
    :class:`Interval`), the unit of measure (a flat lattice — a known
    :class:`~repro.units.Unit`, or ``None`` for unknown) and, for
    receivers, the project class the value is an instance of.  ``join``
    is the interval hull with unit and class kept only where both sides
    agree; the flat components have height two, so widening — which
    only has to act on the interval — still terminates.
    """

    interval: Interval = TOP
    unit: Optional[Unit] = None
    cls: Optional["ClassInfo"] = None

    @property
    def is_unknown(self) -> bool:
        return self.interval.is_top and self.unit is None and self.cls is None

    def join(self, other: "Value") -> "Value":
        return self._merged(other, self.interval.join(other.interval))

    def widen(self, newer: "Value") -> "Value":
        return self._merged(newer, self.interval.widen(newer.interval))

    def _merged(self, other: "Value", interval: Interval) -> "Value":
        return Value(
            interval,
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

    def widen(self, newer: "Env") -> "Env":
        out = Env()
        for name in self.vars.keys() & newer.vars.keys():
            out.set(name, self.vars[name].widen(newer.vars[name]))
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


def _describe(node: Optional[ast.AST]) -> str:
    if node is None:
        return "<expr>"
    try:
        text = ast.unparse(node)
    except Exception:
        return "<expr>"
    return text if len(text) <= 40 else text[:37] + "..."


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------

#: Math-module functions with a monotone-increasing transfer function:
#: name -> (callable, domain interval).
_MONOTONE_MATH: Final = {
    "sqrt": (math.sqrt, Interval(0.0, _INF, False, True)),
    "log": (lambda x: math.log(x) if x > 0 else -_INF, Interval(0.0, _INF, True, True)),
    "log2": (lambda x: math.log2(x) if x > 0 else -_INF, Interval(0.0, _INF, True, True)),
    "log10": (lambda x: math.log10(x) if x > 0 else -_INF, Interval(0.0, _INF, True, True)),
    "log1p": (lambda x: math.log1p(x) if x > -1 else -_INF, Interval(-1.0, _INF, True, True)),
    "exp": (lambda x: math.exp(x) if x < 700 else _INF, TOP),
}

_MATH_CONSTANTS: Final = {
    "inf": Interval(_INF, _INF, False, False),
    "pi": Interval.point(math.pi),
    "e": Interval.point(math.e),
    "tau": Interval.point(math.tau),
}

_BOOLEAN: Final = Value(Interval(0.0, 1.0))

_COMPARABLE = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


@dataclass(frozen=True)
class Event:
    """One U- or I-rule finding, before rule-code assignment."""

    kind: str  # arith | mix | arg | suffix | div | range | time | drift
    path: str
    node: ast.AST
    message: str


class Interpreter:
    """Flow-sensitive abstract execution of one function or module body.

    The one statement walker behind all eight U/I rules.  It knows
    Python control flow, the interval transfer functions and the unit
    algebra, and reports what it can decide from an expression alone:
    ``div`` (I001), ``arith`` for mixed-unit ``+``/``-``/comparison
    (U001) and ``mix`` (U002).  Everything that needs whole-program
    context — what a call resolves to, what an attribute or annotation
    declares — is deferred to the ``handle_*``/``attribute_value`` hooks, which
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
        keyword arguments; returns what the callee declares it returns
        (used where the interpreter has no transfer function)."""
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
                stmt, stmt.op, stmt.target, current, stmt.value, operand
            )
            self._bind(stmt.target, result, stmt, env)
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
            return self._exec_if(stmt, env)
        if isinstance(stmt, ast.While):
            return self._exec_while(stmt, env)
        if isinstance(stmt, ast.For):
            return self._exec_for(stmt, env)
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
            return self.refine(env, stmt.test, True)
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

    def _exec_if(self, stmt: ast.If, env: Env) -> Optional[Env]:
        self.eval(stmt.test, env)
        then_env = self.refine(env.copy(), stmt.test, True)
        else_env = self.refine(env.copy(), stmt.test, False)
        out_then = self._exec_block(stmt.body, then_env)
        out_else = self._exec_block(stmt.orelse, else_env)
        return _join_envs(out_then, out_else)

    def _exec_while(self, stmt: ast.While, env: Env) -> Optional[Env]:
        self._break_envs.append([])
        self._continue_envs.append([])
        head = env.copy()
        try:
            for iteration in range(MAX_LOOP_PASSES):
                self.eval(stmt.test, head)
                body_in = self.refine(head.copy(), stmt.test, True)
                self._continue_envs[-1] = []
                body_out = self._exec_block(stmt.body, body_in)
                body_out = _join_envs(body_out, *self._continue_envs[-1])
                new_head = _join_envs(head, body_out)
                assert new_head is not None  # head is always live
                if new_head == head:
                    break
                head = head.widen(new_head) if iteration >= 2 else new_head
            exit_env = self.refine(head.copy(), stmt.test, False)
            if stmt.orelse and exit_env is not None:
                exit_env = self._exec_block(stmt.orelse, exit_env)
            return _join_envs(exit_env, *self._break_envs[-1])
        finally:
            self._break_envs.pop()
            self._continue_envs.pop()

    def _exec_for(self, stmt: ast.For, env: Env) -> Optional[Env]:
        element = Value(self._iterable_element_interval(stmt.iter, env))
        self.eval(stmt.iter, env)
        self._break_envs.append([])
        self._continue_envs.append([])
        head = env.copy()
        try:
            for iteration in range(MAX_LOOP_PASSES):
                body_in = head.copy()
                self._bind(stmt.target, element, stmt, body_in)
                self._continue_envs[-1] = []
                body_out = self._exec_block(stmt.body, body_in)
                body_out = _join_envs(body_out, *self._continue_envs[-1])
                new_head = _join_envs(head, body_out)
                assert new_head is not None
                if new_head == head:
                    break
                head = head.widen(new_head) if iteration >= 2 else new_head
            exit_env: Optional[Env] = head
            if stmt.orelse:
                exit_env = self._exec_block(stmt.orelse, exit_env)
            return _join_envs(exit_env, *self._break_envs[-1])
        finally:
            self._break_envs.pop()
            self._continue_envs.pop()

    def _iterable_element_interval(self, node: ast.expr, env: Env) -> Interval:
        """Element interval of a ``for`` iterable: only range() is modeled."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "range"
            and not node.keywords
            and 1 <= len(node.args) <= 3
        ):
            args = [self.eval(a, env).interval for a in node.args]
            if len(args) == 1:
                start, stop = Interval.point(0.0), args[0]
            else:
                start, stop = args[0], args[1]
            if start.is_empty or stop.is_empty:
                return TOP
            return Interval.make(start.lo, stop.hi, start.lo_open, True)
        return TOP

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
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (bool, int, float)):
                return Value(Interval.point(float(node.value)))
            return UNKNOWN
        if isinstance(node, ast.Name):
            value = env.get(node.id)
            if value.unit is None:
                declared = suffix_unit(node.id)
                if declared is not None:
                    return replace(value, unit=declared)
            return value
        if isinstance(node, ast.Attribute):
            root = node.value
            if isinstance(root, ast.Name):
                if root.id == "math" and node.attr in _MATH_CONSTANTS:
                    return Value(_MATH_CONSTANTS[node.attr])
            else:
                self.eval(root, env)  # calls/divisions inside the receiver
            return self.attribute_value(node, env)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand, env)
            if isinstance(node.op, ast.USub):
                return Value(operand.interval.neg(), operand.unit)
            if isinstance(node.op, ast.UAdd):
                return operand
            if isinstance(node.op, ast.Not):
                return _BOOLEAN
            return UNKNOWN
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left, env)
            right = self.eval(node.right, env)
            return self._binop(node, node.op, node.left, left, node.right, right)
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
            return _BOOLEAN
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            then_env = self.refine(env.copy(), node.test, True)
            else_env = self.refine(env.copy(), node.test, False)
            branches = []
            if then_env is not None:
                branches.append(self.eval(node.body, then_env))
            if else_env is not None:
                branches.append(self.eval(node.orelse, else_env))
            if not branches:
                return Value(EMPTY)
            return _alternatives(branches)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        # Subscripts, containers, comprehensions, f-strings, lambdas...:
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
        left: Value,
        right_node: ast.expr,
        right: Value,
    ) -> Value:
        """``left op right`` in both domains; ``node`` is the BinOp or
        AugAssign the events are pinned to."""
        return Value(
            self._binop_interval(node, op, left.interval, right.interval),
            self._binop_unit(node, op, left_node, left.unit, right_node, right.unit),
        )

    def _binop_interval(
        self, node: ast.AST, op: ast.operator, left: Interval, right: Interval
    ) -> Interval:
        if isinstance(op, ast.Add):
            return left.add(right)
        if isinstance(op, ast.Sub):
            return left.sub(right)
        if isinstance(op, ast.Mult):
            return left.mul(right)
        if isinstance(op, (ast.Div, ast.FloorDiv, ast.Mod)):
            self._check_division(node, right)
            if isinstance(op, ast.Div):
                return left.div(right)
            if isinstance(op, ast.FloorDiv):
                return left.div(right).outward_int()
            # x % y for y > 0 lies in [0, y.hi); otherwise unknown.
            if not right.is_empty and right.lo >= 0 and not right.contains_zero:
                return Interval.make(0.0, right.hi, False, True)
            return TOP
        if isinstance(op, ast.Pow):
            return self._pow_interval(left, right)
        return TOP

    def _check_division(self, node: ast.AST, divisor: Interval) -> None:
        if divisor.is_empty or not divisor.contains_zero:
            return
        # Only speak when the lower bound is *known*: an unconstrained
        # or half-refined divisor (TOP, (-inf, c]) stays silent, so
        # unannotated code can never produce noise.
        if divisor.lo == -_INF:
            return
        divisor_expr: Optional[ast.AST] = None
        if isinstance(node, ast.BinOp):
            divisor_expr = node.right
        elif isinstance(node, ast.AugAssign):
            divisor_expr = node.value
        self.emit(
            "div",
            node,
            f"divides by {_describe(divisor_expr)!r} whose interval {divisor} "
            "includes 0 with no dominating guard (raise, clamp, or test the "
            "divisor before dividing)",
        )

    def _binop_unit(
        self,
        node: ast.AST,
        op: ast.operator,
        left_node: ast.expr,
        left: Optional[Unit],
        right_node: ast.expr,
        right: Optional[Unit],
    ) -> Optional[Unit]:
        """The unit algebra.  Unknown operands propagate silently: only
        two *known* units can disagree, so partial annotation coverage
        never manufactures a mismatch."""
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

    def _pow_interval(self, base: Interval, exponent: Interval) -> Interval:
        if base.is_empty or exponent.is_empty:
            return EMPTY
        # b ** x for a constant b > 1: monotone-increasing exponential.
        if base.is_point and base.lo > 1:
            b = base.lo

            def expb(x: float) -> float:
                try:
                    return b**x
                except OverflowError:
                    return _INF

            return exponent.monotone(expb, TOP)
        # x ** n for a constant non-negative even integer: non-negative —
        # but only when x itself is at least partially known, so a fully
        # unknown base cannot fabricate a provable lower bound.
        if (
            base.is_known
            and exponent.is_point
            and float(exponent.lo).is_integer()
            and exponent.lo >= 0
            and int(exponent.lo) % 2 == 0
        ):
            return Interval.make(0.0, _INF, False, True)
        if base.is_known and base.lo >= 0 and exponent.lo >= 0:
            return Interval.make(0.0, _INF, False, True)
        return TOP

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
        interval = self._builtin_interval(call, [a.interval for a in args])
        if isinstance(func, ast.Name) and func.id in _PASSTHROUGH_CALLS and args:
            return Value(
                interval if interval is not None else TOP, _agreed_unit(args)
            )
        return Value(interval) if interval is not None else declared

    def _builtin_interval(
        self, call: ast.Call, args: list[Interval]
    ) -> Optional[Interval]:
        """Transfer functions of the numeric builtins and ``math.*``;
        None for every other callee."""
        func = call.func
        if isinstance(func, ast.Attribute):
            if not (isinstance(func.value, ast.Name) and func.value.id == "math"):
                return None
            name = func.attr
            if name in _MONOTONE_MATH and len(args) == 1:
                fn, domain = _MONOTONE_MATH[name]
                return args[0].monotone(fn, domain)
            if name == "fabs" and len(args) == 1:
                return args[0].absolute()
            if name in ("floor", "ceil", "trunc") and len(args) == 1:
                return args[0].outward_int()
            if name == "pow" and len(args) == 2:
                return self._pow_interval(args[0], args[1])
            return None
        if not isinstance(func, ast.Name):
            return None
        name = func.id
        if name in ("min", "max") and len(args) >= 2 and not call.keywords:
            out = args[0]
            for other in args[1:]:
                out = _interval_min(out, other) if name == "min" else _interval_max(
                    out, other
                )
            return out
        if name == "abs" and len(args) == 1:
            return args[0].absolute()
        if name == "float" and len(args) == 1:
            return args[0]
        if name in ("int", "round") and args:
            return args[0].outward_int()
        if name == "len":
            # len() >= 0 is true but useless here: the emptiness guards
            # that protect divisions by len(xs) are container-truthiness
            # tests this numeric analysis cannot see, so a known lower
            # bound of 0 only produces false I001 findings.
            return TOP
        return None

    # -- branch refinement ---------------------------------------------------

    def refine(
        self, env: Optional[Env], test: ast.expr, assume: bool
    ) -> Optional[Env]:
        """Assume ``test`` evaluates to ``assume``; None if contradictory."""
        if env is None:
            return None
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self.refine(env, test.operand, not assume)
        if isinstance(test, ast.BoolOp):
            conjunctive = isinstance(test.op, ast.And) == assume
            if conjunctive:
                # and/True, or/False: every refinement applies.
                for value in test.values:
                    env = self.refine(env, value, assume)
                    if env is None:
                        return None
                return env
            # and/False, or/True: one alternative holds — join them.
            branches = [
                self.refine(env.copy(), value, assume) for value in test.values
            ]
            return _join_envs(*branches)
        if isinstance(test, ast.Compare):
            return self._refine_compare(env, test, assume)
        if isinstance(test, ast.Name):
            current = env.get(test.id)
            if current.interval.is_top:
                return env  # could be None/str/...; numeric truthiness unsafe
            zero = Interval.point(0.0)
            return self._narrow(
                env,
                test.id,
                current.interval.assume_ne(zero)
                if assume
                else current.interval.meet(zero),
            )
        if isinstance(test, ast.Constant):
            truthy = bool(test.value)
            return env if truthy == assume else None
        return env

    @staticmethod
    def _narrow(env: Env, name: str, interval: Interval) -> Optional[Env]:
        """Refine one name's range in place; None when it became empty."""
        if interval.is_empty:
            return None
        env.set(name, replace(env.get(name), interval=interval))
        return env

    def _refine_compare(
        self, env: Env, test: ast.Compare, assume: bool
    ) -> Optional[Env]:
        operands = [test.left, *test.comparators]
        pairs = list(zip(test.ops, zip(operands, operands[1:])))
        if not assume and len(pairs) > 1:
            # Negating a chain is a disjunction; stay conservative.
            return env
        out: Optional[Env] = env
        for op, (lhs, rhs) in pairs:
            if out is None:
                return None
            out = self._refine_pair(out, op, lhs, rhs, assume)
        return out

    _FLIPPED = {
        ast.Lt: ast.Gt,
        ast.LtE: ast.GtE,
        ast.Gt: ast.Lt,
        ast.GtE: ast.LtE,
        ast.Eq: ast.Eq,
        ast.NotEq: ast.NotEq,
    }
    _NEGATED = {
        ast.Lt: ast.GtE,
        ast.LtE: ast.Gt,
        ast.Gt: ast.LtE,
        ast.GtE: ast.Lt,
        ast.Eq: ast.NotEq,
        ast.NotEq: ast.Eq,
    }

    def _refine_pair(
        self,
        env: Env,
        op: ast.cmpop,
        lhs: ast.expr,
        rhs: ast.expr,
        assume: bool,
    ) -> Optional[Env]:
        kind = type(op)
        if kind not in self._FLIPPED:
            return env
        if not assume:
            kind = self._NEGATED[kind]
        env2 = self._refine_one_side(env, kind, lhs, rhs)
        if env2 is None:
            return None
        return self._refine_one_side(env2, self._FLIPPED[kind], rhs, lhs)

    def _refine_one_side(
        self, env: Env, kind: type, name_side: ast.expr, bound_side: ast.expr
    ) -> Optional[Env]:
        if not isinstance(name_side, ast.Name):
            return env
        bound = self.eval(bound_side, env).interval
        if bound.is_empty:
            return None
        current = env.get(name_side.id).interval
        if kind is ast.Lt:
            refined = current.assume_lt(bound)
        elif kind is ast.LtE:
            refined = current.assume_le(bound)
        elif kind is ast.Gt:
            refined = current.assume_gt(bound)
        elif kind is ast.GtE:
            refined = current.assume_ge(bound)
        elif kind is ast.Eq:
            refined = current.meet(bound)
        elif kind is ast.NotEq:
            refined = current.assume_ne(bound)
        else:
            return env
        return self._narrow(env, name_side.id, refined)


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
    """One of several values: the hull of the ranges, the agreed unit."""
    out = values[0]
    for value in values[1:]:
        out = out.join(value)
    return replace(out, unit=_agreed_unit(values))


def _interval_min(a: Interval, b: Interval) -> Interval:
    if a.is_empty or b.is_empty:
        return EMPTY
    if a.lo < b.lo:
        lo, lo_open = a.lo, a.lo_open
    elif b.lo < a.lo:
        lo, lo_open = b.lo, b.lo_open
    else:
        lo, lo_open = a.lo, a.lo_open and b.lo_open
    if a.hi < b.hi:
        hi, hi_open = a.hi, a.hi_open
    elif b.hi < a.hi:
        hi, hi_open = b.hi, b.hi_open
    else:
        hi, hi_open = a.hi, a.hi_open or b.hi_open
    return Interval.make(lo, hi, lo_open, hi_open)


def _interval_max(a: Interval, b: Interval) -> Interval:
    return _interval_min(a.neg(), b.neg()).neg()
