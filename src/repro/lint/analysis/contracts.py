"""Unit declarations: the bridge from annotations to U-rule events.

An ``Annotated[float, Unit, ...]`` alias on a signature declares the
unit of measure of a quantity, and this module turns those declarations
into findings in one pass.  It layers :mod:`repro.lint.analysis.walker`
(the flow-sensitive unit walker) onto the whole-program symbol tables:

* the alias table is read off :mod:`repro.units` and
  :mod:`repro.contracts` themselves (``typing.get_args``), and an alias
  is honoured only when the annotation's name resolves to its defining
  module through the importing module's import table — a homonymous
  user-defined ``Seconds`` stays uninterpreted;
* :class:`World` indexes every function's declared parameter/return
  units, plus attribute and return units by name;
* :func:`analyze_contracts` walks every scope of the in-scope files
  once, seeding parameters from the signature, and collects one
  :class:`~repro.lint.analysis.walker.Event` per finding.

Four event kinds come out, one per rule:

* ``arith`` (U001) — incompatible units added, subtracted, compared,
  assigned or returned;
* ``mix`` (U002) — bit/byte mixing without the factor-8 conversion;
* ``arg`` (U003) — argument unit conflicts with the parameter's;
* ``suffix`` (U004) — a name's suffix conflicts with its annotation.

Inference is intraprocedural (one scope at a time) but the *anchors* are
whole-program: a call's arguments are checked against the callee's
declaration wherever the callee resolves inside the linted file set —
by name, through ``self``, or through a receiver typed by a parameter
annotation or a constructor call — and an attribute like ``cfg.rtt_s``
carries its unit into any module that touches it.

False-positive discipline: an unknown (``None``) unit never fires
anything, and a mismatch needs *both* sides known.  The ``Range`` half
of the ``repro.contracts`` aliases is not read here: ranges are enforced
at run time by ``@checked`` (``docs/contracts.md``).
"""

from __future__ import annotations

import ast
import typing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Final, NamedTuple, Optional, Sequence

import repro.contracts
import repro.units
from repro.lint.analysis.walker import (
    UNKNOWN,
    Env,
    Event,
    Interpreter,
    Value,
    conversion_hint,
    suffix_unit,
)
from repro.lint.analysis.symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleTable,
    Program,
)
from repro.lint.astutil import dotted_name
from repro.units import Unit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import SourceFile

__all__ = ["ALIASES", "Alias", "analyze_contracts"]

#: Method names that collide with builtin container methods; attribute
#: calls on *untyped* receivers never resolve through these (a bare
#: ``some_list.append(x)`` must not borrow TimeSeries.append's units).
_AMBIGUOUS_METHOD_NAMES = {
    "append", "add", "extend", "insert", "pop", "popleft", "update", "get",
    "items", "keys", "values", "clear", "remove", "sort", "index", "count",
    "copy", "join", "split", "open", "read", "write", "load", "send",
    "record", "sample", "increment", "start", "stop", "run", "build",
}


class Alias(NamedTuple):
    """One ``Annotated`` alias: the unit it declares and its defining module."""

    unit: Optional[Unit]
    module: str


def _alias_table() -> dict[str, Alias]:
    """Alias name -> unit, read off the alias definitions themselves."""
    table: dict[str, Alias] = {}
    for module in (repro.units, repro.contracts):
        for name, alias in vars(module).items():
            if typing.get_origin(alias) is not typing.Annotated:
                continue
            metadata = typing.get_args(alias)[1:]
            unit = next((m for m in metadata if isinstance(m, Unit)), None)
            table.setdefault(name, Alias(unit, module.__name__))
    return table


#: Every alias simlint interprets, by the name it is defined under.
ALIASES: Final = _alias_table()


@dataclass
class Signature:
    """Declared units of one function's parameters and return."""

    info: FunctionInfo
    #: Positional parameters in order (what call arguments bind to).
    param_names: list[str]
    #: Every named parameter, keyword-only ones included.
    params: dict[str, Optional[Unit]]
    returns: Optional[Unit]


class World:
    """Whole-program anchors: signatures, attribute and return units."""

    def __init__(self, program: Program):
        self.program = program
        self.signatures: dict[int, Signature] = {}  # id(FunctionInfo)
        self.class_attrs: dict[int, dict[str, Optional[Unit]]] = {}  # id(ClassInfo)
        #: attribute name -> unit, when every declaration in the program
        #: agrees; conflicting names are mapped to None and never used.
        self.attr_units: dict[str, Optional[Unit]] = {}
        #: function/method name -> return unit, when unambiguous.
        self.return_units: dict[str, Optional[Unit]] = {}
        for table in program.modules.values():
            for info in table.all_functions():
                self._index_function(info)
            for cls in table.classes.values():
                self._index_class_attrs(cls)
        self._merge_global_indexes()

    # -- construction --------------------------------------------------------

    def annotation(
        self, module: ModuleTable, annotation: Optional[ast.expr]
    ) -> Optional[Unit]:
        """The unit an annotation expression declares, if any.

        Aliases are honoured only when the name resolves to the alias's
        defining module through ``module``'s import table (or is used
        inside that module itself).
        """
        if annotation is None:
            return None
        if isinstance(annotation, ast.Subscript):
            # Optional[Seconds] / Annotated[Seconds, ...] wrappers: look
            # through one level when the head is a typing construct.
            head = dotted_name(annotation.value)
            if head is not None and head.split(".")[-1] in ("Optional", "Annotated"):
                inner = annotation.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[0]
                return self.annotation(module, inner)
            return None
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            left = self.annotation(module, annotation.left)
            return left if left is not None else self.annotation(
                module, annotation.right
            )
        name = dotted_name(annotation)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        alias = ALIASES.get(name.rsplit(".", 1)[-1])
        if alias is None:
            return None
        target = module.imports.get(head)
        if target is None:
            resolved = module.dotted == alias.module
        else:
            resolved = (target + ("." + rest if rest else "")).startswith(alias.module)
        return alias.unit if resolved else None

    def declared(
        self, module: ModuleTable, name: Optional[str], annotation: Optional[ast.expr]
    ) -> Optional[Unit]:
        """The annotation's unit, defaulting to the name-suffix unit."""
        unit = self.annotation(module, annotation)
        return unit if unit is not None else suffix_unit(name)

    def _index_function(self, info: FunctionInfo) -> None:
        args = info.node.args
        positional = [*args.posonlyargs, *args.args]
        self.signatures[id(info)] = Signature(
            info=info,
            param_names=[a.arg for a in positional],
            params={
                a.arg: self.declared(info.module, a.arg, a.annotation)
                for a in (*positional, *args.kwonlyargs)
            },
            returns=self.declared(info.module, info.node.name, info.node.returns),
        )

    def _index_class_attrs(self, cls: ClassInfo) -> None:
        attrs: dict[str, Optional[Unit]] = {}

        def record(name: str, unit: Optional[Unit]) -> None:
            if unit is None:
                return
            if name in attrs and attrs[name] is not None and attrs[name] != unit:
                attrs[name] = None  # conflicting declarations: unusable
            else:
                attrs.setdefault(name, unit)

        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                record(
                    stmt.target.id,
                    self.declared(cls.module, stmt.target.id, stmt.annotation),
                )
        for method in cls.methods.values():
            sig = self.signatures[id(method)]
            for node in ast.walk(method.node):
                target: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, annotation, value = node.target, node.annotation, node.value
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    unit = self.declared(cls.module, target.attr, annotation)
                    if unit is None and isinstance(value, ast.Name):
                        unit = sig.params.get(value.id)
                    record(target.attr, unit)
        self.class_attrs[id(cls)] = attrs

    def _merge_global_indexes(self) -> None:
        def merge(index: dict[str, Optional[Unit]], name: str, unit: Unit) -> None:
            if name in index and index[name] != unit:
                index[name] = None
            else:
                index.setdefault(name, unit)

        for attrs in self.class_attrs.values():
            for name, unit in attrs.items():
                if unit is not None:
                    merge(self.attr_units, name, unit)
        for sig in self.signatures.values():
            if sig.returns is not None:
                merge(self.return_units, sig.info.name, sig.returns)

    # -- queries -------------------------------------------------------------

    def class_attr_unit(self, cls: ClassInfo, attr: str) -> Optional[Unit]:
        for candidate in self.program.mro(cls):
            attrs = self.class_attrs.get(id(candidate), {})
            if attr in attrs:
                return attrs[attr]
        return None

    def annotation_class(
        self, module: ModuleTable, annotation: Optional[ast.expr]
    ) -> Optional[ClassInfo]:
        """The project class a (possibly quoted) annotation names."""
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        name = dotted_name(annotation) if annotation is not None else None
        if name is None:
            return None
        return self.program.resolve_class(module, name)


class _ScopeAnalyzer(Interpreter):
    """Interprets one scope, supplying the whole-program knowledge."""

    def __init__(
        self,
        world: World,
        path: str,
        module: ModuleTable,
        events: list[Event],
        signature: Optional[Signature] = None,
    ):
        super().__init__(path, events)
        self.world = world
        self.module = module
        self.signature = signature

    # -- declarations (U004) -------------------------------------------------

    def check_declaration(
        self, node: ast.AST, name: str, annotation: Optional[ast.expr]
    ) -> None:
        from_suffix = suffix_unit(name)
        from_annotation = self.world.annotation(self.module, annotation)
        if (
            from_suffix is not None
            and from_annotation is not None
            and not from_suffix.compatible(from_annotation)
        ):
            self.emit(
                "suffix",
                node,
                f"name {name!r} says {from_suffix} but its annotation "
                f"says {from_annotation}; rename or fix the annotation",
            )

    # -- walker hooks --------------------------------------------------------

    def attribute_value(self, node: ast.Attribute, env: Env) -> Value:
        unit = suffix_unit(node.attr)
        if unit is None:
            cls = self._receiver_class(node.value, env)
            if cls is not None:
                unit = self.world.class_attr_unit(cls, node.attr)
            else:
                unit = self.world.attr_units.get(node.attr)
        return Value(unit=unit)

    def handle_assign(
        self, target: ast.expr, value: Value, stmt: ast.stmt, env: Env
    ) -> Value:
        annotation = stmt.annotation if isinstance(stmt, ast.AnnAssign) else None
        unit = self.world.annotation(self.module, annotation)
        if isinstance(target, ast.Attribute):
            if unit is None:
                unit = self.attribute_value(target, env).unit
            label = f"attribute {target.attr!r}"
        else:
            assert isinstance(target, ast.Name)
            self.check_declaration(target, target.id, annotation)
            if unit is None:
                unit = suffix_unit(target.id)
            label = repr(target.id)
        if (
            unit is not None
            and value.unit is not None
            and not value.unit.compatible(unit)
        ):
            self.emit(
                "arith",
                target,
                f"assigns {value.unit} to {label}, which is declared {unit}"
                + conversion_hint(value.unit, unit),
            )
        return Value(unit if unit is not None else value.unit, value.cls)

    def handle_return(self, stmt: ast.Return, value: Value) -> None:
        if self.signature is None:
            return
        declared = self.signature.returns
        if (
            declared is not None
            and value.unit is not None
            and not value.unit.compatible(declared)
        ):
            self.emit(
                "arith",
                stmt,
                f"returns {value.unit} from {self.signature.info.qualname}(), "
                f"which is declared to return {declared}"
                + conversion_hint(value.unit, declared),
            )

    def handle_call(
        self, call: ast.Call, arguments: "dict[ast.expr, Value]", env: Env
    ) -> Value:
        target = self._resolve_call(call, env)
        # The call itself supplies the first parameter of a constructor
        # and of an instance or class method — not of a @staticmethod.
        if isinstance(target, ClassInfo):
            callee = self.world.program.find_method(target, "__init__")
            bound = True
        else:
            callee = target
            bound = (
                callee is not None
                and callee.cls is not None
                and "staticmethod" not in callee.decorator_names()
            )
        if callee is not None:
            self._check_arguments(call, arguments, callee, bound)
        if isinstance(target, FunctionInfo):
            return Value(self.world.signatures[id(target)].returns)
        if isinstance(target, ClassInfo):
            return Value(cls=target)
        # Unresolved: fall back to the callee name's own suffix, then to
        # the unambiguous global return-unit index.
        func = call.func
        if isinstance(func, ast.Name):
            return Value(unit=suffix_unit(func.id))
        if isinstance(func, ast.Attribute):
            unit = suffix_unit(func.attr)
            if unit is None and func.attr not in _AMBIGUOUS_METHOD_NAMES:
                unit = self.world.return_units.get(func.attr)
            return Value(unit=unit)
        return UNKNOWN

    # -- call resolution -----------------------------------------------------

    @staticmethod
    def _receiver_class(receiver: ast.expr, env: Env) -> Optional[ClassInfo]:
        """The class of ``self``, of a parameter annotated with a project
        class, or of a local bound to a constructor call."""
        if isinstance(receiver, ast.Name):
            return env.get(receiver.id).cls
        return None

    def _resolve_call(
        self, call: ast.Call, env: Env
    ) -> "FunctionInfo | ClassInfo | None":
        """The callee, resolved as far as the symbol tables allow."""
        func = call.func
        if isinstance(func, ast.Attribute):
            cls = self._receiver_class(func.value, env)
            if cls is not None:
                return self.world.program.find_method(cls, func.attr)
        name = dotted_name(func)
        if name is None:
            return None
        resolved = self.world.program.resolve(self.module, name)
        return resolved if isinstance(resolved, (FunctionInfo, ClassInfo)) else None

    # -- argument checks (U003) ----------------------------------------------

    def _check_arguments(
        self,
        call: ast.Call,
        arguments: "dict[ast.expr, Value]",
        callee: FunctionInfo,
        bound: bool,
    ) -> None:
        sig = self.world.signatures[id(callee)]
        params = sig.param_names[1:] if bound else sig.param_names
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or position >= len(params):
                break  # varargs or miscounted: stop, don't guess
            self._check_argument(sig, params[position], arg, arguments[arg])
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in sig.params:
                self._check_argument(sig, kw.arg, kw.value, arguments[kw.value])

    def _check_argument(
        self, sig: Signature, param: str, arg: ast.expr, actual: Value
    ) -> None:
        declared = sig.params[param]
        if (
            declared is not None
            and actual.unit is not None
            and not actual.unit.compatible(declared)
        ):
            self.emit(
                "arg",
                arg,
                f"passes {actual.unit} where parameter {param!r} of "
                f"{sig.info.qualname}() expects {declared}"
                + conversion_hint(actual.unit, declared),
            )


def _analyze_function(
    world: World, path: str, info: FunctionInfo, events: list[Event]
) -> None:
    sig = world.signatures[id(info)]
    scope = _ScopeAnalyzer(world, path, info.module, events, sig)
    env = Env()
    args = info.node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        scope.check_declaration(arg, arg.arg, arg.annotation)
        cls = world.annotation_class(info.module, arg.annotation)
        env.set(arg.arg, Value(sig.params[arg.arg], cls))
    if info.cls is not None:
        env.set("self", Value(cls=info.cls))
    scope.check_declaration(info.node, info.name, info.node.returns)
    scope.run(info.node.body, env)


def analyze_contracts(
    program: Program,
    files: Sequence["SourceFile"],
    scope_paths: Sequence[str],
) -> list[Event]:
    """Run the unit analysis over the in-scope files.

    Anchors (signatures, attribute units) come from the whole program;
    bodies are walked — and events reported — only for files whose
    paths sit inside ``scope_paths``.
    """
    from repro.lint.registry import in_package

    world = World(program)
    events: list[Event] = []
    for src in files:
        if src.tree is None or not in_package(src.path, *scope_paths):
            continue
        table = program.table(src.path)
        if table is None:
            continue
        module_scope = _ScopeAnalyzer(world, src.path, table, events)
        if isinstance(table.tree, ast.Module):
            module_scope.run(table.tree.body, Env())
        for cls in table.classes.values():
            for stmt in cls.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    module_scope.check_declaration(
                        stmt.target, stmt.target.id, stmt.annotation
                    )
        for info in table.all_functions():
            _analyze_function(world, src.path, info, events)
    events.sort(
        key=lambda e: (
            e.path,
            getattr(e.node, "lineno", 0),
            getattr(e.node, "col_offset", 0),
        )
    )
    return events
