"""Seeded instance generators, load-time validation, and the file format.

This module is the package's only JSON reader and writer: instance and price
documents, demand results and auction traces all go through `dumps` and
`_load_document`.  Documents are UTF-8, and a repeated object key is refused.

Instance documents are JSON with exactly the keys m / bidders / metadata.
Rationals are canonical "num/den" strings with bare integers as shorthand;
decoding rejects non-canonical forms like "2/4" unless asked to normalize.
Explicit tables are keyed by comma-joined item lists ("" is the empty set)
because JSON objects cannot key on arrays; a key must be canonical (decimal
items in ascending order, no signs, spaces or leading zeros) and each subset
appears exactly once.

Generators are deterministic functions of (parameters, seed), and every
generated instance carries its provenance in metadata, so any fixture can be
regenerated from its metadata alone.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional, Union

from .errors import (GroundSetTooLargeError, InfeasibleGenerationError,
                     SchemaError)
from .itemsets import ItemSet
from .auctions import (AuctionTrace, Certify, Decision, EnvyFreeOutcome, Raise,
                       StalledOutcome, StepLimitOutcome)
from .demand import DemandResult, PriceVector
from .equilibrium import Allocation
from .rationals import format_rational, parse_rational
from .valuations import (MAX_EXHAUSTIVE_ITEMS, Additive, BudgetAdditive,
                         Explicit, MultiPeak, SetSystem, UnitDemand, Valuation,
                         check_monotone, validate_set_system)

MAX_GENERATION_RETRIES = 10_000


@dataclass(frozen=True)
class Instance:
    """Ground set of num_items items plus one valuation per bidder."""

    num_items: int
    bidders: tuple[Valuation, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "bidders", tuple(self.bidders))
        if self.num_items < 1:
            raise ValueError("an instance needs at least one item")
        for i, v in enumerate(self.bidders):
            if v.num_items != self.num_items:
                raise ValueError(
                    f"bidder {i} is defined on {v.num_items} items, "
                    f"instance has {self.num_items}")


def _check_range(name: str, lo: int, hi: int) -> None:
    if lo < 0 or hi < lo:
        raise ValueError(f"{name} must satisfy 0 <= lo <= hi, got ({lo}, {hi})")


def gen_additive(n: int, m: int, value_range: tuple[int, int], seed: int) -> Instance:
    """n additive bidders over m items; values uniform integers in the range."""
    lo, hi = value_range
    _check_range("value_range", lo, hi)
    rng = random.Random(seed)
    bidders = tuple(
        Additive(tuple(Fraction(rng.randint(lo, hi)) for _ in range(m)))
        for _ in range(n))
    return Instance(m, bidders, metadata={
        "name": f"additive-n{n}-m{m}-seed{seed}",
        "seed": seed,
        "generator_params": {"family": "additive", "n": n, "m": m,
                             "value_range": [lo, hi]},
    })


def gen_unit_demand(n: int, m: int, value_range: tuple[int, int], seed: int) -> Instance:
    lo, hi = value_range
    _check_range("value_range", lo, hi)
    rng = random.Random(seed)
    bidders = tuple(
        UnitDemand(tuple(Fraction(rng.randint(lo, hi)) for _ in range(m)))
        for _ in range(n))
    return Instance(m, bidders, metadata={
        "name": f"unit-demand-n{n}-m{m}-seed{seed}",
        "seed": seed,
        "generator_params": {"family": "unit_demand", "n": n, "m": m,
                             "value_range": [lo, hi]},
    })


def gen_budget_additive(n: int, m: int, value_range: tuple[int, int],
                        budget_range: tuple[int, int], seed: int) -> Instance:
    lo, hi = value_range
    blo, bhi = budget_range
    _check_range("value_range", lo, hi)
    _check_range("budget_range", blo, bhi)
    rng = random.Random(seed)
    bidders = tuple(
        BudgetAdditive(tuple(Fraction(rng.randint(lo, hi)) for _ in range(m)),
                       Fraction(rng.randint(blo, bhi)))
        for _ in range(n))
    return Instance(m, bidders, metadata={
        "name": f"budget-additive-n{n}-m{m}-seed{seed}",
        "seed": seed,
        "generator_params": {"family": "budget_additive", "n": n, "m": m,
                             "value_range": [lo, hi],
                             "budget_range": [blo, bhi]},
    })


def _draw_system(rng: random.Random, m: int, s: int, k: int,
                 eps: Fraction, budget: list[int]) -> SetSystem:
    """Rejection-sample k peaks of size s with pairwise overlaps <= eps*s."""
    peaks: list[ItemSet] = []
    while len(peaks) < k:
        candidate = ItemSet(rng.sample(range(1, m + 1), s))
        if all(Fraction(len(candidate & p)) <= eps * s for p in peaks):
            peaks.append(candidate)
        else:
            budget[0] -= 1
            if budget[0] <= 0:
                raise InfeasibleGenerationError(
                    f"could not place {k} peaks of size {s} with overlap "
                    f"budget {eps * s} in {m} items within the retry budget")
    return SetSystem(tuple(peaks), s, eps)


def gen_multipeak(m: int, s: int, k: int, eps: Fraction, n: int, seed: int,
                  share_system: bool = True,
                  max_retries: int = MAX_GENERATION_RETRIES) -> Instance:
    """n multi-peak bidders; one shared peak system, or one drawn per bidder."""
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must lie strictly between 0 and 1")
    if not (1 <= s <= m):
        raise ValueError(f"need 1 <= s <= m, got s={s}, m={m}")
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    if m > 4 * s:
        raise ValueError(
            "m > 4*s drives the far-region formula negative; pick a larger s")
    # Inclusion-exclusion lower bound on the union of k peaks; a failed
    # check is certain infeasibility, a passed one still defers to sampling.
    overlap_cap = int(eps * s)
    if k * s - (k * (k - 1) // 2) * overlap_cap > m:
        raise InfeasibleGenerationError(
            f"{k} peaks of size {s} with pairwise overlap at most "
            f"{overlap_cap} cannot fit in {m} items")
    rng = random.Random(seed)
    budget = [max_retries]
    if share_system:
        system = _draw_system(rng, m, s, k, eps, budget)
        bidders = tuple(MultiPeak(system, m) for _ in range(n))
    else:
        bidders = tuple(MultiPeak(_draw_system(rng, m, s, k, eps, budget), m)
                        for _ in range(n))
    return Instance(m, bidders, metadata={
        "name": f"multipeak-m{m}-s{s}-k{k}-seed{seed}",
        "seed": seed,
        "generator_params": {"family": "multi_peak", "m": m, "s": s, "k": k,
                             "epsilon": str(format_rational(eps)), "n": n,
                             "share_system": share_system},
    })


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def dumps(doc: Any) -> str:
    """The one JSON writer: sorted keys, two-space indent, a final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise SchemaError("document: repeated key " + ", ".join(
            repr(key) for key, n in counts.items() if n > 1))
    return doc


def _load_document(data: Union[bytes, str]) -> Any:
    """The one JSON reader.  Bytes are decoded as UTF-8; anything that does
    not read as one JSON document with unique keys is a SchemaError."""
    try:
        text = data.decode() if isinstance(data, bytes) else data
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise SchemaError("document is nested too deeply to read") from exc
    except ValueError as exc:  # bad UTF-8, bad JSON, or an overlong integer
        raise SchemaError(f"document is not valid JSON: {exc}") from exc


def _subset_keys(m: int) -> list[str]:
    """keys[mask] is the canonical table key of mask, built by doubling: the
    masks with item j as their largest item repeat the smaller masks' keys
    with ",j" appended."""
    keys = [""]
    for j in range(1, m + 1):
        keys += [f"{key},{j}" if key else str(j) for key in keys]
    return keys


def _encode_bidder(v: Valuation) -> dict:
    if isinstance(v, Additive):
        return {"type": "additive",
                "values": [format_rational(x) for x in v.values]}
    if isinstance(v, UnitDemand):
        return {"type": "unit_demand",
                "values": [format_rational(x) for x in v.values]}
    if isinstance(v, BudgetAdditive):
        return {"type": "budget_additive",
                "values": [format_rational(x) for x in v.values],
                "budget": format_rational(v.budget)}
    if isinstance(v, MultiPeak):
        return {"type": "multi_peak",
                "s": v.system.peak_size,
                "k": len(v.system.peaks),
                "epsilon": format_rational(v.system.epsilon),
                "peaks": [list(p) for p in v.system.peaks]}
    if isinstance(v, Explicit):
        return {"type": "explicit",
                "table": dict(zip(_subset_keys(v.num_items),
                                  map(format_rational, v.table)))}
    raise TypeError(f"unknown valuation class {type(v).__name__}")


def encode_instance(instance: Instance) -> bytes:
    doc = {
        "m": instance.num_items,
        "bidders": [_encode_bidder(v) for v in instance.bidders],
        "metadata": instance.metadata,
    }
    return dumps(doc).encode()


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _parse_values(raw: Any, m: Optional[int], where: str,
                  canonicalize: bool) -> tuple[Fraction, ...]:
    """Nonnegative rationals, m of them unless m is None."""
    _expect(isinstance(raw, list), f"{where}: expected a list of rationals")
    _expect(m is None or len(raw) == m,
            f"{where}: expected {m} entries, got {len(raw)}")
    out = []
    for idx, entry in enumerate(raw):
        val = parse_rational(entry, canonicalize=canonicalize,
                             where=f"{where}[{idx}]")
        _expect(val >= 0, f"{where}[{idx}]: values must be nonnegative")
        out.append(val)
    return tuple(out)


def _read_table(table_raw: Any, m: int, where: str, canonicalize: bool,
                index: dict[str, int]) -> tuple[Fraction, ...]:
    """One explicit table as a tuple indexed by mask.  index maps canonical
    subset keys to masks; it is shared by the tables of one document and
    built on the first of them."""
    _expect(isinstance(table_raw, dict), f"{where}: expected an object")
    # Both refusals come before any per-entry work, so a document that
    # cannot be valid never makes 2**m of anything.
    if m > MAX_EXHAUSTIVE_ITEMS:
        raise GroundSetTooLargeError(
            f"{where}: explicit tables are limited to "
            f"{MAX_EXHAUSTIVE_ITEMS} items, got m={m}")
    _expect(len(table_raw) == 1 << m,
            f"{where}: expected {1 << m} subsets, got {len(table_raw)}")
    if not index:
        index.update((key, mask) for mask, key in enumerate(_subset_keys(m)))
    dense: list[Optional[Fraction]] = [None] * (1 << m)
    # With exactly 2**m distinct keys, each of them canonical, every subset
    # is filled exactly once.
    for key, entry in table_raw.items():
        mask = index.get(key)
        if mask is None:
            raise SchemaError(
                f"{where}[{key!r}]: not a canonical subset key (items "
                f"1..{m} in ascending decimal, comma-separated, with no "
                "signs, spaces or leading zeros)")
        val = parse_rational(entry, canonicalize=canonicalize,
                             where=f"{where}[{key!r}]")
        _expect(val.numerator >= 0,
                f"{where}[{key!r}]: values must be nonnegative")
        dense[mask] = val
    return tuple(dense)


def _decode_bidder(raw: Any, m: int, where: str, canonicalize: bool,
                   index: dict[str, int]) -> Valuation:
    _expect(isinstance(raw, dict), f"{where}: expected an object")
    kind = raw.get("type")
    try:
        if kind == "additive":
            _expect(set(raw) == {"type", "values"}, f"{where}: unexpected keys")
            return Additive(_parse_values(raw["values"], m, f"{where}.values",
                                          canonicalize))
        if kind == "unit_demand":
            _expect(set(raw) == {"type", "values"}, f"{where}: unexpected keys")
            return UnitDemand(_parse_values(raw["values"], m, f"{where}.values",
                                            canonicalize))
        if kind == "budget_additive":
            _expect(set(raw) == {"type", "values", "budget"},
                    f"{where}: unexpected keys")
            budget = parse_rational(raw["budget"], canonicalize=canonicalize,
                                    where=f"{where}.budget")
            _expect(budget >= 0, f"{where}.budget: must be nonnegative")
            return BudgetAdditive(
                _parse_values(raw["values"], m, f"{where}.values", canonicalize),
                budget)
        if kind == "multi_peak":
            _expect(set(raw) == {"type", "s", "k", "epsilon", "peaks"},
                    f"{where}: unexpected keys")
            s, k = raw["s"], raw["k"]
            _expect(isinstance(s, int) and s >= 1, f"{where}.s: positive int required")
            _expect(isinstance(k, int) and k >= 1, f"{where}.k: positive int required")
            eps = parse_rational(raw["epsilon"], canonicalize=canonicalize,
                                 where=f"{where}.epsilon")
            _expect(0 < eps < 1, f"{where}.epsilon: must lie strictly in (0, 1)")
            peaks_raw = raw["peaks"]
            _expect(isinstance(peaks_raw, list) and len(peaks_raw) == k,
                    f"{where}.peaks: expected {k} peaks")
            peaks = []
            for idx, entry in enumerate(peaks_raw):
                pwhere = f"{where}.peaks[{idx}]"
                _expect(isinstance(entry, list), f"{pwhere}: expected a list")
                _expect(entry == sorted(entry) and len(set(entry)) == len(entry),
                        f"{pwhere}: items must be sorted and distinct")
                _expect(all(isinstance(j, int) and 1 <= j <= m for j in entry),
                        f"{pwhere}: items must lie in 1..{m}")
                peaks.append(ItemSet(entry))
            system = SetSystem(tuple(peaks), s, eps)
            report = validate_set_system(system)
            _expect(report.ok,
                    f"{where}: invalid set system: " + "; ".join(report.violations))
            return MultiPeak(system, m)
        if kind == "explicit":
            _expect(set(raw) == {"type", "table"}, f"{where}: unexpected keys")
            valuation = Explicit(m, _read_table(raw["table"], m, f"{where}.table",
                                                canonicalize, index))
            report = check_monotone(valuation)
            if not report.holds:
                bad, extra = report.counterexample
                raise SchemaError(
                    f"{where}.table: not monotone: adding item {extra} to "
                    f"{sorted(bad)} lowers the value")
            return valuation
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(f"{where}.type: unknown valuation type {kind!r}")


def decode_instance(data: Union[bytes, str], *,
                    canonicalize_rationals: bool = False) -> Instance:
    """Parse and fully validate an instance document."""
    doc = _load_document(data)
    _expect(isinstance(doc, dict), "document: expected an object")
    _expect(set(doc) <= {"m", "bidders", "metadata"},
            f"document: unexpected keys {sorted(set(doc) - {'m', 'bidders', 'metadata'})}")
    _expect("m" in doc and "bidders" in doc, "document: keys m and bidders are required")
    m = doc["m"]
    _expect(isinstance(m, int) and m >= 1, "m: expected a positive integer")
    _expect(isinstance(doc["bidders"], list), "bidders: expected a list")
    index: dict[str, int] = {}
    bidders = tuple(
        _decode_bidder(raw, m, f"bidders[{i}]", canonicalize_rationals, index)
        for i, raw in enumerate(doc["bidders"]))
    metadata = doc.get("metadata", {})
    _expect(isinstance(metadata, dict), "metadata: expected an object")
    return Instance(m, bidders, metadata)


def prices_payload(prices: PriceVector) -> list:
    """JSON form of a price vector, one canonical rational per item."""
    return [format_rational(p) for p in prices.prices]


def allocation_payload(allocation: Allocation) -> list:
    """JSON form of an allocation, one item list per bidder."""
    return [list(bundle) for bundle in allocation.assigned]


def dump_prices(prices: PriceVector) -> bytes:
    return dumps({"prices": prices_payload(prices)}).encode()


def load_prices(data: Union[bytes, str], num_items: Optional[int] = None, *,
                canonicalize_rationals: bool = False) -> PriceVector:
    doc = _load_document(data)
    _expect(isinstance(doc, dict) and set(doc) == {"prices"},
            "document: expected exactly the key 'prices'")
    return PriceVector(_parse_values(doc["prices"], num_items, "prices",
                                     canonicalize_rationals))


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
                "allocation": allocation_payload(action.allocation)}
    return {"kind": "stall"}


_OUTCOME_KINDS = {EnvyFreeOutcome: "envy_free", StalledOutcome: "stalled",
                  StepLimitOutcome: "step_limit"}


def trace_payload(trace: AuctionTrace) -> dict:
    steps = [
        {
            "prices": prices_payload(step.prices),
            "demands": [demand_payload(d) for d in step.demands],
            "action": _action_payload(step.action),
        }
        for step in trace.steps
    ]
    end = trace.outcome
    outcome = {"kind": _OUTCOME_KINDS[type(end)],
               "prices": prices_payload(end.prices)}
    if isinstance(end, EnvyFreeOutcome):
        outcome["allocation"] = allocation_payload(end.allocation)
    return {"steps": steps, "outcome": outcome}


def serialize_trace(trace: AuctionTrace) -> bytes:
    """Deterministic byte encoding of a trace, for fixtures and reports."""
    return dumps(trace_payload(trace)).encode()
