"""Ascending-auction engine with pluggable price-update rules.

The engine owns the loop: it starts at the zero price vector, computes each
bidder's demand report, hands (instance, prices, reports) to the rule, and
enforces the contract - raises must name a nonempty item set with a positive
increment, and any certification is independently verified before it is
accepted.  Rules are untrusted plug-ins; a broken rule is an error, never a
silent outcome.

Stalled is a first-class outcome: a rule that can neither certify envy-
freeness nor justify another raise says so, which is exactly the behaviour
worth observing on submodular instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import RuleViolationError
from .itemsets import ItemSet
from .demand import DemandResult, PriceVector, demand_oracle, utility
from .equilibrium import (Allocation, envy_free_allocation,
                          unit_demand_envy_free)
from .rationals import format_rational
from .valuations import Additive


@dataclass(frozen=True)
class Raise:
    items: ItemSet
    increment: Fraction


@dataclass(frozen=True)
class Certify:
    allocation: Allocation


@dataclass(frozen=True)
class Stall:
    pass


Decision = Union[Raise, Certify, Stall]


@dataclass(frozen=True)
class AuctionStep:
    prices: PriceVector
    demands: tuple[DemandResult, ...]
    action: Decision


@dataclass(frozen=True)
class EnvyFreeOutcome:
    prices: PriceVector
    allocation: Allocation


@dataclass(frozen=True)
class StalledOutcome:
    prices: PriceVector


@dataclass(frozen=True)
class StepLimitOutcome:
    prices: PriceVector


Outcome = Union[EnvyFreeOutcome, StalledOutcome, StepLimitOutcome]


@dataclass(frozen=True)
class AuctionTrace:
    steps: tuple[AuctionStep, ...]
    outcome: Outcome


def _verify_certification(instance, prices: PriceVector,
                          demands: tuple[DemandResult, ...],
                          allocation: Allocation) -> None:
    if len(allocation.assigned) != len(instance.bidders):
        raise RuleViolationError("certified allocation has the wrong arity")
    for i, v in enumerate(instance.bidders):
        bundle = allocation.assigned[i]
        if bundle.max_item() > instance.num_items:
            raise RuleViolationError(
                f"certified allocation assigns items outside the ground set "
                f"to bidder {i}")
        if utility(v, prices, bundle) != demands[i].max_utility:
            raise RuleViolationError(
                f"certified allocation is not envy-free: bidder {i}'s set "
                f"misses its maximum utility")


def run_ascending(instance, rule, max_steps: int) -> AuctionTrace:
    """Iterate a price-update rule from the zero price vector.

    Terminates on a verified certification, on a stall, or at the step
    limit.  Prices are rebuilt by the engine from the rule's raise request,
    so componentwise monotonicity holds by construction.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    prices = PriceVector.zero(instance.num_items)
    steps: list[AuctionStep] = []
    for _ in range(max_steps):
        demands = tuple(demand_oracle(v, prices) for v in instance.bidders)
        action = rule(instance, prices, demands)
        steps.append(AuctionStep(prices, demands, action))
        if isinstance(action, Certify):
            _verify_certification(instance, prices, demands, action.allocation)
            return AuctionTrace(tuple(steps),
                                EnvyFreeOutcome(prices, action.allocation))
        if isinstance(action, Stall):
            return AuctionTrace(tuple(steps), StalledOutcome(prices))
        if isinstance(action, Raise):
            if len(action.items) == 0:
                raise RuleViolationError("rule raised an empty item set")
            if action.items.max_item() > instance.num_items:
                raise RuleViolationError("rule raised items outside the ground set")
            if action.increment <= 0:
                raise RuleViolationError("rule raised by a non-positive increment")
            prices = prices.raised(action.items, action.increment)
            continue
        raise RuleViolationError(f"rule returned {action!r}")
    return AuctionTrace(tuple(steps), StepLimitOutcome(prices))


class DgsRule:
    """Unit-demand auction: raise a minimal overdemanded set until a
    perfect matching of the demanders exists, then certify it."""

    def __init__(self, increment: Fraction):
        self.increment = Fraction(increment)
        if self.increment <= 0:
            raise ValueError("increment must be positive")
        self.name = f"dgs(increment={self.increment})"

    def __call__(self, instance, prices, demands) -> Decision:
        result = unit_demand_envy_free(instance, prices)
        if isinstance(result, Allocation):
            return Certify(result)
        return Raise(result.items, self.increment)


def dgs_rule(increment) -> DgsRule:
    return DgsRule(increment)


class EnglishAdditiveRule:
    """Per-item English auction for additive bidders: raise every item that
    at least two bidders strictly want; once each item has at most one
    strict demander, give it to that bidder and certify."""

    def __init__(self, increment: Fraction):
        self.increment = Fraction(increment)
        if self.increment <= 0:
            raise ValueError("increment must be positive")
        self.name = f"english(increment={self.increment})"

    def __call__(self, instance, prices, demands) -> Decision:
        for i, v in enumerate(instance.bidders):
            if not isinstance(v, Additive):
                raise TypeError(f"bidder {i} is not additive")
        contested = []
        for j in range(1, instance.num_items + 1):
            strict = sum(1 for v in instance.bidders
                         if v.values[j - 1] > prices.price_of(j))
            if strict >= 2:
                contested.append(j)
        if contested:
            return Raise(ItemSet(contested), self.increment)
        assigned = [
            ItemSet([j for j in range(1, instance.num_items + 1)
                     if v.values[j - 1] > prices.price_of(j)])
            for v in instance.bidders
        ]
        return Certify(Allocation(tuple(assigned)))


def english_additive_rule(increment) -> EnglishAdditiveRule:
    return EnglishAdditiveRule(increment)


class GreedySubmodularRule:
    """Demonstration rule for general bidders: certify when the demand-set
    search finds an envy-free allocation, otherwise raise everything that
    two or more canonical demand sets share; stall when they share nothing."""

    def __init__(self, increment: Fraction):
        self.increment = Fraction(increment)
        if self.increment <= 0:
            raise ValueError("increment must be positive")
        self.name = f"greedy(increment={self.increment})"

    def __call__(self, instance, prices, demands) -> Decision:
        report = envy_free_allocation(instance, prices)
        if report.envy_free:
            return Certify(report.allocation)
        counts = [0] * instance.num_items
        for result in demands:
            for j in result.witness_set:
                counts[j - 1] += 1
        hot = ItemSet([j for j in range(1, instance.num_items + 1)
                       if counts[j - 1] >= 2])
        if len(hot) == 0:
            return Stall()
        return Raise(hot, self.increment)


def greedy_submodular_rule(increment) -> GreedySubmodularRule:
    return GreedySubmodularRule(increment)


# ---------------------------------------------------------------------------
# Trace serialization (deterministic, exact)
# ---------------------------------------------------------------------------

def demand_payload(result: DemandResult) -> dict:
    """JSON form of a demand result, in traces and in the demand command."""
    return {
        "maxUtility": format_rational(result.max_utility),
        "set": list(result.witness_set),
        "count": result.argmax_count,
    }


def _action_payload(action: Decision) -> dict:
    if isinstance(action, Raise):
        return {"kind": "raise", "items": list(action.items),
                "increment": format_rational(action.increment)}
    if isinstance(action, Certify):
        return {"kind": "certify",
                "allocation": [list(s) for s in action.allocation.assigned]}
    return {"kind": "stall"}


def trace_payload(trace: AuctionTrace) -> dict:
    steps = [
        {
            "prices": [format_rational(p) for p in step.prices.prices],
            "demands": [demand_payload(d) for d in step.demands],
            "action": _action_payload(step.action),
        }
        for step in trace.steps
    ]
    outcome: dict
    if isinstance(trace.outcome, EnvyFreeOutcome):
        outcome = {
            "kind": "envy_free",
            "prices": [format_rational(p) for p in trace.outcome.prices.prices],
            "allocation": [list(s) for s in trace.outcome.allocation.assigned],
        }
    elif isinstance(trace.outcome, StalledOutcome):
        outcome = {"kind": "stalled",
                   "prices": [format_rational(p) for p in trace.outcome.prices.prices]}
    else:
        outcome = {"kind": "step_limit",
                   "prices": [format_rational(p) for p in trace.outcome.prices.prices]}
    return {"steps": steps, "outcome": outcome}


def serialize_trace(trace: AuctionTrace) -> bytes:
    """Deterministic byte encoding of a trace, for fixtures and reports."""
    return (json.dumps(trace_payload(trace), sort_keys=True, indent=2) + "\n").encode()
