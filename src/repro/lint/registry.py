"""The rule registry: every simlint rule declares itself here.

A rule is a class with a ``code`` (``D001``), a one-line ``summary``, a
path ``scope`` restricting which packages it examines, and either a
per-file ``check_file`` hook or a whole-tree ``check_project`` hook
(``project = True``) for cross-module invariants like the experiment
registry.  Rules register via the :func:`rule` decorator; the CLI's
``--select`` / ``--ignore`` work on the registered codes.
"""

from __future__ import annotations

import pathlib
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import SourceFile

__all__ = ["Rule", "RULES", "all_codes", "in_package", "resolve_codes", "rule"]


def in_package(path: str, *packages: str) -> bool:
    """True when ``path`` sits inside any of the ``pkg/subpkg`` packages.

    Matching is on consecutive path components, so ``repro/net`` matches
    ``src/repro/net/red.py`` (and a test's virtual path
    ``repro/net/example.py``) but not ``tests/repro_net_helpers.py``.
    """
    parts = pathlib.PurePosixPath(pathlib.PurePath(path).as_posix()).parts
    for package in packages:
        want = tuple(package.split("/"))
        n = len(want)
        if any(parts[i : i + n] == want for i in range(len(parts) - n + 1)):
            return True
    return False


class Rule:
    """Base class for simlint rules.  Subclass and register with @rule."""

    #: Unique code, e.g. ``D001``.
    code: str = ""
    #: One-line description shown by ``--list-rules`` and the docs.
    summary: str = ""
    #: ``pkg/subpkg`` prefixes the rule examines; empty means every file.
    scope: Sequence[str] = ()
    #: Files inside ``scope`` that are exempt (matched with in_package-style
    #: component matching against the full relative path).
    allowlist: Sequence[str] = ()
    #: When True, an inline suppression must carry a ``(reason)``.
    requires_reason: bool = False
    #: Project rules see every file at once instead of one at a time.
    project: bool = False

    def applies(self, path: str) -> bool:
        if self.allowlist and in_package(path, *self.allowlist):
            return False
        if not self.scope:
            return True
        return in_package(path, *self.scope)

    def check_file(self, src: "SourceFile") -> Iterable[Finding]:
        """Per-file hook; yield findings.  Default: nothing."""
        return ()

    def check_project(self, files: "Sequence[SourceFile]") -> Iterable[Finding]:
        """Whole-tree hook for ``project = True`` rules; yield findings."""
        return ()

    def finding(self, src: "SourceFile", node: object, message: str) -> Finding:
        """Build a finding at an AST node's location in ``src``."""
        line = int(getattr(node, "lineno", 1) or 1)
        col = int(getattr(node, "col_offset", 0) or 0) + 1
        return Finding(self.code, src.path, line, col, message)


#: Registered rules by code, in registration order.
RULES: dict[str, Rule] = {}


def rule(cls: type) -> type:
    """Class decorator: instantiate and register a :class:`Rule`."""
    instance = cls()
    if not instance.code:
        raise ValueError(f"rule {cls.__name__} declares no code")
    if instance.code in RULES:
        raise ValueError(f"duplicate rule code {instance.code}")
    RULES[instance.code] = instance
    return cls


def all_codes() -> list[str]:
    return sorted(RULES)


def resolve_codes(spec: "str | Iterable[str] | None") -> "set[str] | None":
    """Parse a ``--select``/``--ignore`` value into a set of known codes.

    Accepts comma-separated strings or iterables; unknown codes raise
    ``ValueError`` naming the valid ones, so typos fail loudly.
    """
    if spec is None:
        return None

    def _split(value: "str | Iterable[str]") -> Iterator[str]:
        items = value.split(",") if isinstance(value, str) else value
        for item in items:
            for part in item.split(","):
                part = part.strip()
                if part:
                    yield part

    codes = {code.upper() for code in _split(spec)}
    unknown = sorted(codes - set(RULES))
    if unknown:
        raise ValueError(
            f"unknown rule code(s): {', '.join(unknown)}; "
            f"available: {', '.join(all_codes())}"
        )
    return codes
