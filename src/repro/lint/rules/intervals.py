"""I001-I004: interval analysis proving the paper's numeric invariants.

The figure tables depend on quantities that must stay inside known
ranges — loss-event rates and drop probabilities in ``[0, 1]``, rates
non-negative, scheduling delays non-negative — and on divisions whose
denominators legitimately approach zero (the TCP response function
divides by ``p``; Bansal et al., SIGCOMM 2001).  These rules read the
interval half of the abstract interpretation in
:mod:`repro.lint.analysis.contracts`, seeded from the
:mod:`repro.contracts` ``Annotated`` range aliases, over the protocol
packages:

====  ==================================================================
I001  division by a value whose interval includes 0 without a
      dominating guard (``1.0 / p`` with ``p: Probability``)
I002  a value provably outside a ``Range`` contract flows into an
      annotated parameter, return or declaration (``f(1.5)`` into a
      ``Probability``)
I003  a provably negative time reaches ``schedule``/``call_in``/
      ``call_at``/``at``/``Timer.schedule``
I004  contract drift: a signature declares a range the body's clamps
      provably escape (``return min(x, 1.5)`` under ``Probability``)
====  ==================================================================

All four are project rules sharing one analysis build — the same one
the U-rules read — through the engine's
:class:`~repro.lint.engine.LintContext`.  Unknown intervals
stay silent — only *provable* facts are reported, so unannotated code
can never produce noise.
"""

from __future__ import annotations

from repro.lint.registry import rule
from repro.lint.rules.units import ContractRule

__all__ = [
    "INTERVAL_SCOPE",
    "DivisionByZeroIntervalRule",
    "RangeContractRule",
    "NegativeTimeRule",
    "ContractDriftRule",
]

#: The packages whose numeric invariants the I-rules police.
INTERVAL_SCOPE = (
    "repro/cc",
    "repro/net",
    "repro/sim",
    "repro/metrics",
    "repro/analysis",
)


class _IntervalRule(ContractRule):
    scope = INTERVAL_SCOPE


@rule
class DivisionByZeroIntervalRule(_IntervalRule):
    """I001: possible division by zero under a known interval."""

    code = "I001"
    kind = "div"
    summary = (
        "interval analysis: division by a value whose interval includes "
        "0 without a dominating guard"
    )


@rule
class RangeContractRule(_IntervalRule):
    """I002: a value provably escapes a Range contract."""

    code = "I002"
    kind = "range"
    summary = (
        "interval analysis: value provably outside a Range contract "
        "flows into an annotated parameter, return or declaration"
    )


@rule
class NegativeTimeRule(_IntervalRule):
    """I003: provably negative time into the scheduling APIs."""

    code = "I003"
    kind = "time"
    summary = (
        "interval analysis: provably negative time passed to "
        "schedule/call_in/call_at/at/Timer.schedule"
    )


@rule
class ContractDriftRule(_IntervalRule):
    """I004: body clamps drift outside the declared contract."""

    code = "I004"
    kind = "drift"
    summary = (
        "interval analysis: signature declares a Range contract the "
        "body's clamps or bounds provably drift outside"
    )
