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
    rationale = (
        "The TCP-friendly equations divide by the loss-event rate p, "
        "which legitimately approaches 0 as loss vanishes; elapsed-time "
        "denominators start at 0 at flow startup.  An unguarded division "
        "turns those edge cases into inf/nan that flow silently into "
        "figure tables.  The interval interpreter proves a divisor "
        "nonzero when a guard dominates the division (a raise, an early "
        "return, or a clamp like max(x, 1e-9)); it reports only when the "
        "divisor's interval is known and still contains zero."
    )
    bad_example = (
        "from repro.contracts import Probability\n"
        "\n"
        "def response_rate(p: Probability) -> float:\n"
        "    return 1.22 / p        # p in [0, 1]: may divide by zero\n"
    )
    good_example = (
        "from repro.contracts import Probability\n"
        "\n"
        "def response_rate(p: Probability) -> float:\n"
        "    if p <= 0.0:\n"
        "        raise ValueError(\"loss rate must be positive\")\n"
        "    return 1.22 / p        # p now provably in (0, 1]\n"
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
    rationale = (
        "Silent parameter-range violations in congestion-control code "
        "skew exactly the fairness and smoothness metrics the figures "
        "report.  When the interpreter can prove a value's interval is "
        "disjoint from the contract it flows into (a probability of "
        "1.5, a negative rate), the call is wrong at every execution "
        "that reaches it — no runtime test needed."
    )
    bad_example = (
        "from repro.contracts import Probability\n"
        "\n"
        "def drop(p: Probability) -> bool: ...\n"
        "\n"
        "drop(1.5)                  # [1.5, 1.5] is disjoint from [0, 1]\n"
    )
    good_example = (
        "from repro.contracts import Probability\n"
        "\n"
        "def drop(p: Probability) -> bool: ...\n"
        "\n"
        "drop(min(rate, 1.0))       # provably inside [0, 1]\n"
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
    rationale = (
        "The event kernel rejects negative delays with a SimulationError "
        "at runtime — mid-experiment, after minutes of simulation.  When "
        "the delay's interval is provably negative the crash is certain, "
        "so the analyzer reports it at lint time instead.  Zero delays "
        "are legal (same-timestamp scheduling) and never flagged."
    )
    bad_example = (
        "class Agent:\n"
        "    def start(self) -> None:\n"
        "        self.sim.call_in(-0.5, self.tick)   # certain crash\n"
    )
    good_example = (
        "class Agent:\n"
        "    def start(self) -> None:\n"
        "        self.sim.call_in(0.5, self.tick)\n"
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
    rationale = (
        "A signature that promises Probability while the body clamps to "
        "min(x, 1.5) is lying to every caller — and to the other "
        "I-rules, which seed intervals from that promise.  Drift is "
        "reported when a returned interval has a finite bound outside "
        "the declared range: the clamp admits values the contract "
        "forbids, even though some executions stay inside."
    )
    bad_example = (
        "from repro.contracts import Probability\n"
        "\n"
        "def clamp(x: float) -> Probability:\n"
        "    return min(x, 1.5)     # admits (1, 1.5]: outside [0, 1]\n"
    )
    good_example = (
        "from repro.contracts import Probability\n"
        "\n"
        "def clamp(x: float) -> Probability:\n"
        "    return min(max(x, 0.0), 1.0)\n"
    )
