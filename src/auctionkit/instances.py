"""Seeded instance generators, load-time validation, and the file format.

This module is the package's only JSON reader and writer: instance and price
documents, demand results and auction traces all go through `dumps` and
`_load_document`.  Documents are UTF-8, and a repeated object key is refused.

Instance documents are JSON with exactly the keys m / bidders / metadata,
and at least one bidder.
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
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Iterable, NoReturn, Optional, Union

from .errors import (GroundSetTooLargeError, InfeasibleGenerationError,
                     SchemaError)
from .itemsets import ItemSet
from .auctions import (AuctionTrace, Certify, Decision, EnvyFreeOutcome, Raise,
                       StalledOutcome, StepLimitOutcome)
from .demand import DemandResult, PriceVector
from .equilibrium import Allocation
from .rationals import (format_rational, format_scaled, parse_rational,
                        too_many_digits)
from .valuations import (LIMITS, Additive, BudgetAdditive, Explicit,
                         MultiPeak, SetSystem, UnitDemand, Valuation,
                         check_monotone, validate_set_system, value_table)


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


# The file tag of each class given by one value per item.  A budget is the
# only field any of them has beside its values.
_ITEM_VALUE_TAGS = {Additive: "additive", UnitDemand: "unit_demand",
                    BudgetAdditive: "budget_additive"}


def _gen_item_values(cls, n: int, m: int, seed: int,
                     **ranges: tuple[int, int]) -> Instance:
    """n bidders of an item-value class over m items.  Each draws m values
    uniform in value_range, then a budget uniform in budget_range if one is
    given."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    family = _ITEM_VALUE_TAGS[cls]
    params = {"family": family, "n": n, "m": m}
    for name, (lo, hi) in ranges.items():
        if lo < 0 or hi < lo:
            raise ValueError(f"{name} must satisfy 0 <= lo <= hi, got ({lo}, {hi})")
        params[name] = [lo, hi]
    lo, hi = params["value_range"]
    budgets = [params["budget_range"]] if "budget_range" in params else []
    rng = random.Random(seed)
    bidders = tuple(
        cls(tuple(Fraction(rng.randint(lo, hi)) for _ in range(m)),
            *[Fraction(rng.randint(*budget)) for budget in budgets])
        for _ in range(n))
    return Instance(m, bidders, metadata={
        "name": f"{family.replace('_', '-')}-n{n}-m{m}-seed{seed}",
        "seed": seed,
        "generator_params": params,
    })


def gen_additive(n: int, m: int, value_range: tuple[int, int], seed: int) -> Instance:
    """n additive bidders over m items; values uniform integers in the range."""
    return _gen_item_values(Additive, n, m, seed, value_range=value_range)


def gen_unit_demand(n: int, m: int, value_range: tuple[int, int], seed: int) -> Instance:
    return _gen_item_values(UnitDemand, n, m, seed, value_range=value_range)


def gen_budget_additive(n: int, m: int, value_range: tuple[int, int],
                        budget_range: tuple[int, int], seed: int) -> Instance:
    return _gen_item_values(BudgetAdditive, n, m, seed, value_range=value_range,
                            budget_range=budget_range)


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
                  share_system: bool = True) -> Instance:
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
    budget = [LIMITS["generation retries"]]
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

_INFINITY = float("inf")


def _write(value: Any, out: list[str], newline: str) -> None:
    """Append the JSON text of value to out.  newline is a line break plus
    the indent of the line value starts on; members go one indent deeper.

    value must lie in the data model `_load_document` returns: a dict with
    str keys, a list, str, int, finite float, bool or None, each of exactly
    that type.  Any other value or key is a TypeError, as in json, and NaN
    or an infinity is the ValueError json raises with allow_nan=False.  A
    container's str and int members are written inline, and every other
    member by one recursive call, so nesting costs one frame per level."""
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
        return
    if kind is int:
        out.append(int.__repr__(value))
        return
    if kind is not dict and kind is not list:
        if kind is float:
            if not math.isfinite(value):
                raise ValueError("Out of range float values are not JSON "
                                 f"compliant: {value!r}")
            out.append(float.__repr__(value))
        elif kind is bool:
            out.append("true" if value else "false")
        elif value is None:
            out.append("null")
        else:
            raise TypeError(f"Object of type {kind.__name__} "
                            f"is not JSON serializable")
        return
    if not value:
        out.append("{}" if kind is dict else "[]")
        return
    inner = newline + "  "
    separator = "," + inner
    first = len(out)
    if kind is dict:
        for key, member in sorted(value.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + _encode_str(key) + ": ")
            kind = type(member)
            if kind is int:
                out.append(int.__repr__(member))
            elif kind is str:
                out.append(_encode_str(member))
            else:
                _write(member, out, inner)
        opening, closing = "{", "}"
    else:
        for member in value:
            out.append(separator)
            kind = type(member)
            if kind is int:
                out.append(int.__repr__(member))
            elif kind is str:
                out.append(_encode_str(member))
            else:
                _write(member, out, inner)
        opening, closing = "[", "]"
    # Every member was written after the separator; the first one's comma
    # becomes the opening bracket.
    out[first] = opening + out[first][1:]
    out.append(newline + closing)


def dumps(doc: Any) -> str:
    """The one JSON writer: sorted keys, two-space indent, a final newline.

    It writes exactly the documents `_load_document` reads, and the text
    equals ``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    + "\\n"`` byte for byte; the tests hold dumps to that reference and to
    reading back equal.  The text is built in one pass into one list,
    because with an indent json runs its pure-Python encoder.  A document
    that contains itself ends in RecursionError, where json raises
    ValueError."""
    out: list[str] = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise SchemaError("document: repeated key " + ", ".join(
            repr(key) for key, n in counts.items() if n > 1))
    return doc


def _refuse_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if value in (_INFINITY, -_INFINITY):
        raise ValueError(f"{text} is too large for a float")
    return value


def _bounded_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise too_many_digits("document is not valid JSON",
                              len(text.lstrip("-"))) from None


def _parse(text: str, parse_int=None) -> Any:
    return json.loads(text, object_pairs_hook=_unique_keys,
                      parse_constant=_refuse_constant,
                      parse_float=_finite_float, parse_int=parse_int)


def _load_document(data: Union[bytes, str]) -> Any:
    """The one JSON reader.  Bytes are decoded as UTF-8; anything that does
    not read as one JSON document with unique keys is a SchemaError.  So
    are NaN, Infinity and -Infinity, which json reads but JSON lacks, and a
    number too large for a float, which json reads as inf: `dumps` refuses
    to write either.  So is an integer past Python's digit conversion
    limit, in parse_rational's words."""
    try:
        text = data.decode() if isinstance(data, bytes) else data
        return _parse(text)
    except RecursionError as exc:
        raise SchemaError("document is nested too deeply to read") from exc
    except ValueError as exc:  # bad UTF-8 or JSON, an overlong number, NaN
        if not isinstance(exc, UnicodeDecodeError):
            # json's own refusal of a long integer tells the user to call
            # sys.set_int_max_str_digits().  A second read, which fails at
            # the same place, lets _bounded_int raise the package's refusal
            # if that was the cause; an integer hook on the first read would
            # cost a call for every integer of every document.
            try:
                _parse(text, _bounded_int)
            except ValueError:
                pass
        raise SchemaError(f"document is not valid JSON: {exc}") from exc


def _subset_keys(m: int) -> list[str]:
    """keys[mask] is the canonical table key of mask, built by doubling: the
    masks with item j as their largest item repeat the smaller masks' keys
    with ",j" appended."""
    keys = [""]
    for j in range(1, m + 1):
        tail = f",{j}"
        keys += [str(j)] + [key + tail for key in keys[1:]]
    return keys


def _encode_bidder(v: Valuation) -> dict:
    for cls, tag in _ITEM_VALUE_TAGS.items():
        if isinstance(v, cls):
            doc = {"type": tag, "values": [format_rational(x) for x in v.values]}
            if cls is BudgetAdditive:
                doc["budget"] = format_rational(v.budget)
            return doc
    if isinstance(v, MultiPeak):
        return {"type": "multi_peak",
                "s": v.system.peak_size,
                "k": len(v.system.peaks),
                "epsilon": format_rational(v.system.epsilon),
                "peaks": [list(p) for p in v.system.peaks]}
    if isinstance(v, Explicit):
        table = value_table(v)
        return {"type": "explicit",
                "table": {key: format_scaled(n, table.denom) for key, n in
                          zip(_subset_keys(v.num_items), table.nums.tolist())}}
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


def _is_positive_int(raw: Any) -> bool:
    """A count read from a document: an integer >= 1, never a boolean."""
    return type(raw) is int and raw >= 1


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


def _scaled_entries(entries: Iterable[tuple[int, str, Any]], size: int,
                    where: str, canonicalize: bool) -> tuple[list[int], int]:
    """(nums, denom) of a table from its (mask, key, entry) triples, one per
    subset; refuses the first bad entry in the order given."""
    nums = [0] * size
    # (mask, value) of the entries that are not integers.
    fractional: list[tuple[int, Fraction]] = []
    for mask, key, entry in entries:
        # A bare nonnegative integer needs no parsing; any other entry goes
        # through the shared parser.
        if type(entry) is int and entry >= 0:
            nums[mask] = entry
            continue
        val = parse_rational(entry, canonicalize=canonicalize,
                             where=f"{where}[{key!r}]")
        if val.numerator < 0:
            raise SchemaError(f"{where}[{key!r}]: values must be nonnegative")
        if val.denominator == 1:
            nums[mask] = val.numerator
        else:
            fractional.append((mask, val))
    denom = math.lcm(*(val.denominator for _, val in fractional))
    if denom > 1:
        nums = [n * denom for n in nums]
        for mask, val in fractional:
            nums[mask] = val.numerator * (denom // val.denominator)
    return nums, denom


def _read_table(table_raw: Any, m: int, where: str, canonicalize: bool,
                keys: list[str]) -> tuple[list[int], int]:
    """One explicit table as (nums, denom): the value of mask is
    nums[mask] / denom, and denom is the LCM of the entries' reduced
    denominators.  keys is _subset_keys(m); it is shared by the tables of
    one document and built on the first of them."""
    _expect(isinstance(table_raw, dict), f"{where}: expected an object")
    # Both refusals come before any per-entry work, so a document that
    # cannot be valid never makes 2**m of anything.
    limit = LIMITS["an explicit table"]
    if m > limit:
        raise GroundSetTooLargeError(
            f"{where}: explicit tables are limited to {limit} items, got m={m}")
    _expect(len(table_raw) == 1 << m,
            f"{where}: expected {1 << m} subsets, got {len(table_raw)}")
    if not keys:
        keys += _subset_keys(m)
    # With 2**m distinct keys of which 2**m are canonical, there is no other
    # key, and the entries are read in mask order.  A table of bare
    # nonnegative integers, the common one, needs no more than that.
    try:
        values = list(map(table_raw.__getitem__, keys))
    except KeyError:
        values = None
    if values is not None:
        if set(map(type, values)) == {int} and min(values) >= 0:
            return values, 1
        try:
            return _scaled_entries(zip(range(1 << m), keys, values), 1 << m,
                                   where, canonicalize)
        except SchemaError:
            pass
    # A key that is not canonical or a bad entry refuses the document.  The
    # refusal names the first fault in document order, so the table is
    # read again in that order, which only a refused table pays for.
    index = dict(zip(keys, range(1 << m)))

    def located():
        for key, entry in table_raw.items():
            mask = index.get(key)
            if mask is None:
                raise SchemaError(
                    f"{where}[{key!r}]: not a canonical subset key (items "
                    f"1..{m} in ascending decimal, comma-separated, with no "
                    "signs, spaces or leading zeros)")
            yield mask, key, entry

    return _scaled_entries(located(), 1 << m, where, canonicalize)


def _decode_bidder(raw: Any, m: int, where: str, canonicalize: bool,
                   keys: list[str]) -> Valuation:
    _expect(isinstance(raw, dict), f"{where}: expected an object")
    kind = raw.get("type")
    try:
        for cls, tag in _ITEM_VALUE_TAGS.items():
            if kind != tag:
                continue
            budgeted = cls is BudgetAdditive
            keys = {"type", "values", "budget"} if budgeted else {"type", "values"}
            _expect(set(raw) == keys, f"{where}: unexpected keys")
            extra = []
            if budgeted:
                budget = parse_rational(raw["budget"], canonicalize=canonicalize,
                                        where=f"{where}.budget")
                _expect(budget >= 0, f"{where}.budget: must be nonnegative")
                extra.append(budget)
            return cls(_parse_values(raw["values"], m, f"{where}.values",
                                     canonicalize), *extra)
        if kind == "multi_peak":
            _expect(set(raw) == {"type", "s", "k", "epsilon", "peaks"},
                    f"{where}: unexpected keys")
            s, k = raw["s"], raw["k"]
            _expect(_is_positive_int(s), f"{where}.s: positive int required")
            _expect(_is_positive_int(k), f"{where}.k: positive int required")
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
            valuation = Explicit.from_scaled(
                m, *_read_table(raw["table"], m, f"{where}.table",
                                canonicalize, keys))
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


def _identical(a: Any, b: Any) -> bool:
    """a == b with equal types throughout, so that 1, 1.0 and true, which
    compare equal in Python but not as schema values, stay apart."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_identical(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_identical, a, b))
    return a == b


def decode_instance(data: Union[bytes, str], *,
                    canonicalize_rationals: bool = False) -> Instance:
    """Parse and fully validate an instance document."""
    doc = _load_document(data)
    _expect(isinstance(doc, dict), "document: expected an object")
    _expect(set(doc) <= {"m", "bidders", "metadata"},
            f"document: unexpected keys {sorted(set(doc) - {'m', 'bidders', 'metadata'})}")
    _expect("m" in doc and "bidders" in doc, "document: keys m and bidders are required")
    m = doc["m"]
    _expect(_is_positive_int(m), "m: expected a positive integer")
    _expect(isinstance(doc["bidders"], list), "bidders: expected a list")
    # Without bidders nothing in the document grows with m, so nothing
    # bounds it.
    _expect(len(doc["bidders"]) > 0, "bidders: expected at least one bidder")
    keys: list[str] = []
    # A bidder document identical to an earlier one decodes to the earlier
    # bidder's object, so the copies share one value table and demand query.
    decoded: list[tuple[Any, Valuation]] = []
    for i, raw in enumerate(doc["bidders"]):
        valuation = next((earlier for seen, earlier in decoded
                          if raw == seen and _identical(raw, seen)), None)
        if valuation is None:
            valuation = _decode_bidder(raw, m, f"bidders[{i}]",
                                       canonicalize_rationals, keys)
        decoded.append((raw, valuation))
    bidders = tuple(valuation for _, valuation in decoded)
    metadata = doc.get("metadata", {})
    _expect(isinstance(metadata, dict), "metadata: expected an object")
    return Instance(m, bidders, metadata)


def prices_payload(prices: PriceVector) -> list:
    """JSON form of a price vector, one canonical rational per item."""
    denom = prices.denom
    return [format_scaled(n, denom) for n in prices.nums]


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
