"""U001-U004: units-of-measure consistency.

The quantity packages (``net``, ``cc``, ``metrics``, ``telemetry``) mix
seconds, bits, bytes, packets and ratios in nearly every expression; a
silent bits/bytes or time/rate confusion produces plausible-looking but
wrong figure tables.  These rules read the flow-sensitive unit walk in
:mod:`repro.lint.analysis.contracts` — seeded from the :mod:`repro.units`
and :mod:`repro.contracts` ``Annotated`` aliases and the ``_s``/``_bps``/
``_bytes``/``_pkts`` suffix convention — over those packages:

====  ==================================================================
U001  incompatible units added, subtracted, compared, assigned or
      returned (``rtt_s + packet_bytes``)
U002  bits and bytes mixed in one product without the factor-8
      conversion (``payload_bytes / bandwidth_bps``)
U003  call argument whose unit conflicts with the parameter's declared
      unit (``link(delay_s=size_bytes)``)
U004  a name's unit suffix contradicts its annotation
      (``rtt_s: Bytes``)
====  ==================================================================

All four are project rules sharing one analysis build through the
engine's :class:`~repro.lint.engine.LintContext`.  Inference only
reports when *both* sides of an operation have known units, so
unannotated code stays silent rather than noisy.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.lint.engine import LintContext, SourceFile
from repro.lint.findings import Finding
from repro.lint.registry import Rule, rule

__all__ = [
    "UnitArithmeticRule",
    "UnitArgumentRule",
    "UnitBitsBytesRule",
    "UnitSuffixRule",
]

#: The packages whose quantities the U-rules police.
UNIT_SCOPE = (
    "repro/net",
    "repro/cc",
    "repro/metrics",
    "repro/telemetry",
)


class _UnitRule(Rule):
    """Each U-rule is one event kind of the single memoised unit walk."""

    kind = ""
    project = True
    scope = UNIT_SCOPE

    def check_project(
        self, files: Sequence[SourceFile], context: LintContext
    ) -> Iterator[Finding]:
        by_path = {src.path: src for src in files}
        for event in context.contract_events(UNIT_SCOPE):
            src = by_path.get(event.path)
            if event.kind == self.kind and src is not None:
                yield self.finding(src, event.node, event.message)


@rule
class UnitArithmeticRule(_UnitRule):
    """U001: incompatible units combined or bound."""

    code = "U001"
    kind = "arith"
    summary = (
        "units of measure: incompatible units added, subtracted, "
        "compared, assigned or returned"
    )


@rule
class UnitBitsBytesRule(_UnitRule):
    """U002: bit/byte mixing without the factor-8 conversion."""

    code = "U002"
    kind = "mix"
    summary = (
        "units of measure: bits and bytes mixed in one product without "
        "the whitelisted factor-8 conversion"
    )


@rule
class UnitArgumentRule(_UnitRule):
    """U003: argument unit conflicts with the parameter's."""

    code = "U003"
    kind = "arg"
    summary = (
        "units of measure: call argument unit conflicts with the "
        "callee parameter's declared unit"
    )


@rule
class UnitSuffixRule(_UnitRule):
    """U004: name suffix contradicts the annotation."""

    code = "U004"
    kind = "suffix"
    summary = (
        "units of measure: a name's unit suffix (_s, _bps, _bytes, "
        "_pkts, ...) contradicts its Annotated unit alias"
    )
