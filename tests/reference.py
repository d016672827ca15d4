"""Naive reference oracles used to validate the library's optimized paths.

Everything here but row_scan_submodular, itemset_envy_free_allocation
and entrywise_read_table is deliberately written the slow, obvious way:
plain Fractions, itertools over explicit subsets, no numpy, no bitmask
tricks.  These are the independent second routes that the fast
implementations are measured against on small ground sets.
row_scan_submodular is the earlier numpy form of a fast path, kept so
that the fast path's block edges can be checked on larger ground sets;
itemset_envy_free_allocation is the earlier ItemSet form of the envy-free
search, kept so that the mask search's whole report can be compared with
it; entrywise_read_table is the earlier entry-by-entry table decoder, kept
so that the bulk decoder's results and refusals can be compared with it.
FractionPrices stands in for PriceVector wherever only `.prices` is read.
"""

import math
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

import numpy as np

from auctionkit import (EMPTY_SET, Additive, Allocation, Certify,
                        DemandResult, EnvyFreeReport, ItemSet, MultiPeak,
                        PriceVector, Raise, Witness, demand_sets,
                        eval_valuation, utility)
from auctionkit.errors import SchemaError
from auctionkit.itemsets import all_masks
from auctionkit.rationals import parse_rational
from auctionkit.valuations import (LIMITS, SubmodularReport, _guard_items,
                                   value_table)


def all_subsets(num_items):
    for r in range(num_items + 1):
        for combo in combinations(range(1, num_items + 1), r):
            yield ItemSet(combo)


def naive_utility(valuation, prices, bundle):
    total = sum((prices.prices[j - 1] for j in bundle), Fraction(0))
    return eval_valuation(valuation, bundle) - total


def naive_demand(valuation, prices):
    """(max utility, canonical witness, count) by scanning every subset."""
    best = None
    count = 0
    witness = None
    for bundle in all_subsets(valuation.num_items):
        gain = naive_utility(valuation, prices, bundle)
        key = (len(bundle), bundle.items())
        if best is None or gain > best:
            best, count, witness, witness_key = gain, 1, bundle, key
        elif gain == best:
            count += 1
            if key < witness_key:
                witness, witness_key = bundle, key
    return best, witness, count


def naive_demand_sets(valuation, prices):
    best, _, _ = naive_demand(valuation, prices)
    hits = [bundle for bundle in all_subsets(valuation.num_items)
            if naive_utility(valuation, prices, bundle) == best]
    hits.sort(key=lambda s: (len(s), s.items()))
    return hits


def naive_monotone_counterexample(valuation):
    m = valuation.num_items
    for bundle in sorted(all_subsets(m), key=lambda s: s.mask):
        for item in range(1, m + 1):
            if item in bundle:
                continue
            if eval_valuation(valuation, bundle.add(item)) < eval_valuation(valuation, bundle):
                return bundle, item
    return None


def naive_submodular_counterexample(valuation):
    m = valuation.num_items
    subsets = sorted(all_subsets(m), key=lambda s: s.mask)
    for left in subsets:
        for right in subsets:
            if right.mask < left.mask:
                continue
            lhs = (eval_valuation(valuation, left | right)
                   + eval_valuation(valuation, left & right))
            rhs = (eval_valuation(valuation, left)
                   + eval_valuation(valuation, right))
            if lhs > rhs:
                return left, right
    return None


def row_scan_submodular(valuation):
    """The pairwise definition one row S at a time, one numpy call per row,
    on the table's own dtype with flat mask arithmetic.  It is the
    reference of submodular_by_definition's scan, which must return this
    function's report on every table.  That scan compares blocks of rows
    of one low-bit group with whole groups, on the narrowest unsigned
    dtype: group 0 gathered from the table itself, every later group by
    whole rows of expansions of the table through low-bit | and &, stored
    a-major (low bits of S, group of T, low bits of T) and built once per
    scan, when group 1 starts.  Here one row's flags run in ascending T,
    as that scan's do in (group, low bits) order."""
    m = valuation.num_items
    _guard_items(m, "check_submodular")
    table = value_table(valuation)
    vals = table.nums
    masks = all_masks(m)
    for s_mask in range(1 << m):
        tail = masks[s_mask:]
        lhs = vals[tail | s_mask] + vals[tail & s_mask]
        rhs = vals[s_mask] + vals[s_mask:]
        viol = lhs > rhs
        if viol.any():
            t_mask = s_mask + int(np.argmax(viol))
            return SubmodularReport(
                holds=False,
                counterexample=(ItemSet.from_mask(s_mask),
                                ItemSet.from_mask(t_mask)))
    return SubmodularReport(holds=True)


def naive_decreasing_marginals(valuation):
    """The S subset-of T, x outside T form, checked literally."""
    m = valuation.num_items
    for small in all_subsets(m):
        for big in all_subsets(m):
            if not small.issubset(big):
                continue
            for item in range(1, m + 1):
                if item in big:
                    continue
                gain_small = (eval_valuation(valuation, small.add(item))
                              - eval_valuation(valuation, small))
                gain_big = (eval_valuation(valuation, big.add(item))
                            - eval_valuation(valuation, big))
                if gain_small < gain_big:
                    return False
    return True


def naive_envy_free(instance, prices):
    """Unpruned search: try every combination of demand sets."""
    per_bidder = [naive_demand_sets(v, prices) for v in instance.bidders]
    for combo in product(*per_bidder):
        used = 0
        for bundle in combo:
            if used & bundle.mask:
                break
            used |= bundle.mask
        else:
            return True
    return not per_bidder  # zero bidders: trivially envy-free


def itemset_envy_free_allocation(instance, prices, cap=LIMITS["demand sets"]):
    """The backtracking search on ItemSets, as envy_free_allocation ran it
    before it moved to masks: bidders by descending size of their smallest
    demand set, then index; sets in canonical order; one node per
    attempted assignment."""
    if prices.num_items != instance.num_items:
        raise ValueError("instance and prices disagree on the ground set size")
    options = [demand_sets(v, prices, cap) for v in instance.bidders]
    n = len(options)
    order = sorted(range(n), key=lambda i: (-len(options[i][0]), i))
    assigned = [EMPTY_SET] * n
    nodes = 0

    def descend(pos, used):
        nonlocal nodes
        if pos == n:
            return True
        bidder = order[pos]
        for bundle in options[bidder]:
            nodes += 1
            if bundle.mask & used == 0:
                assigned[bidder] = bundle
                if descend(pos + 1, used | bundle.mask):
                    return True
        return False

    if descend(0, 0):
        return EnvyFreeReport(True, Allocation(tuple(assigned)), None, nodes)
    return EnvyFreeReport(False, None,
                          Witness("exhaustion-proof", EMPTY_SET, ()), nodes)


def overdemand_margin(instance, prices, items):
    """(#bidders whose utility-maximizing items all sit inside `items`) - |items|.

    Positive margin certifies an overdemanded set.  Bidders whose maximum
    utility is zero never count: the empty set satisfies them.
    """
    demanders = 0
    for v in instance.bidders:
        margins = [v.values[j - 1] - prices.prices[j - 1]
                   for j in range(1, instance.num_items + 1)]
        best = max(margins, default=Fraction(0))
        if best <= 0:
            continue
        wants = [j for j in range(1, instance.num_items + 1)
                 if margins[j - 1] == best]
        if all(j in items for j in wants):
            demanders += 1
    return demanders - len(items)


def _best_assignment(values, bidders, num_items):
    """(welfare, item per bidder, 0 for none) of the first welfare-maximizing
    assignment of distinct items to `bidders`, by trying every one."""
    best = None
    for choice in product(range(num_items + 1), repeat=len(bidders)):
        taken = [j for j in choice if j]
        if len(taken) != len(set(taken)):
            continue
        welfare = sum((values[i][j - 1] for i, j in zip(bidders, choice) if j),
                      Fraction(0))
        if best is None or welfare > best[0]:
            best = (welfare, choice)
    return best


def min_walrasian_unit_demand(instance):
    """Minimum Walrasian prices of a unit-demand instance (Leonard 1983).

    W(N) and each W(N minus i) come from exhaustive assignments.  The winner
    i of item j pays v_ij - (W(N) - W(N minus i)); an unsold item costs 0.
    """
    values = [v.values for v in instance.bidders]
    everyone = list(range(len(values)))
    total, choice = _best_assignment(values, everyone, instance.num_items)
    prices = [Fraction(0)] * instance.num_items
    for i, j in zip(everyone, choice):
        if j:
            others = [k for k in everyone if k != i]
            gain = total - _best_assignment(values, others,
                                            instance.num_items)[0]
            prices[j - 1] = values[i][j - 1] - gain
    return PriceVector(tuple(prices))


class FractionPrices:
    """A price vector held as a tuple of Fractions: PriceVector's interface
    without its integer form."""

    def __init__(self, prices):
        self.prices = tuple(Fraction(p) for p in prices)
        if any(p < 0 for p in self.prices):
            raise ValueError("prices must be nonnegative")

    def __eq__(self, other):
        return self.prices == other.prices

    def __hash__(self):
        return hash(self.prices)

    def dominated_by(self, other):
        if len(self.prices) != len(other.prices):
            raise ValueError("price vectors must have equal length")
        return all(a <= b for a, b in zip(self.prices, other.prices))

    def total(self, bundle):
        return sum((self.prices[j - 1] for j in bundle), Fraction(0))

    def raised(self, items, increment):
        return FractionPrices(p + increment if j in items else p
                              for j, p in enumerate(self.prices, start=1))

    def price_table(self):
        """p(S) of every subset S, indexed by mask."""
        m = len(self.prices)
        return [self.total([j for j in range(1, m + 1) if mask >> (j - 1) & 1])
                for mask in range(1 << m)]


def naive_minimal_envy_free(instance, bound, step):
    """The unpruned grid scan: every point of the step lattice in
    [0, bound]^m is tested, then the domination-minimal envy-free points are
    kept, as Fraction tuples in lexicographic order."""
    lattice = [step * k for k in range(int(bound / step) + 1)]
    free = [FractionPrices(point)
            for point in product(lattice, repeat=instance.num_items)]
    free = [p for p in free if naive_envy_free(instance, p)]
    return [p.prices for p in free
            if not any(q != p and q.dominated_by(p) for q in free)]


def naive_grid_caps(instance, bound, step):
    """Each item's cap level in the grid of step in [0, bound]: the first
    level at or above its largest marginal v(S + j) - v(S), over every
    bidder and every j-free set S, clipped to the levels of the grid."""
    m = instance.num_items
    top = int(bound / step)
    caps = []
    for j in range(1, m + 1):
        largest = max((eval_valuation(v, bundle.add(j)) - eval_valuation(v, bundle)
                       for v in instance.bidders for bundle in all_subsets(m)
                       if j not in bundle), default=Fraction(0))
        caps.append(min(top, max(0, math.ceil(largest / step))))
    return caps


def canonical_key(bundle):
    """Sort key for the canonical order: cardinality, then the item list."""
    return (len(bundle), bundle.items())


# The multi-peak demand oracle on Fractions: every threshold, kappa bound
# and candidate gain is a Fraction.  auctionkit.demand runs the same
# construction on integers; the two must agree on every query.

def close_region_value(overlap: int, outside: int, size: int,
                       eps: Fraction) -> Fraction:
    """Value of a bundle S close to a peak A of size s, with
    |S & A| = overlap and |S - A| = outside."""
    a, b = overlap, outside
    return ((a * (2 - eps) + b * (2 + eps)) / (2 * size)
            + Fraction(a * b, size * size) + eps * eps / 4)


def fraction_algorithm_zero(prices: PriceVector, size: int) -> ItemSet:
    """Far-regime candidate: the longest cheap prefix under exact thresholds.

    Items are sorted by (price, index).  Because sorted prices ascend while
    the threshold 1/s - (2l-1)/(4 s^2) strictly descends, the satisfying
    ranks form a prefix and the maximal one meets both printed conditions.
    """
    if size < 1:
        raise ValueError("size must be positive")
    order = sorted(range(len(prices.prices)),
                   key=lambda j: (prices.prices[j], j))
    take = 0
    for rank, j in enumerate(order, start=1):
        threshold = Fraction(4 * size - (2 * rank - 1), 4 * size * size)
        if prices.prices[j] <= threshold:
            take = rank
        else:
            break
    return ItemSet(j + 1 for j in order[:take])


def fraction_algorithm_peak(prices: PriceVector, peak: ItemSet, size: int,
                            eps: Fraction) -> Optional[ItemSet]:
    """Close-regime candidate for one peak, or None when nothing is marked.

    For each count l of peak items with eps*s < l <= s, the largest outside
    count kappa with kappa + eps*s < l satisfying the exact price condition
    marks the set of the l cheapest peak items plus the kappa cheapest
    outside items; kappa = 0 contributes no outside-price term.  Marked sets
    are close to this peak by construction, so on well-formed systems their
    true value is the close-region formula; the best marked set wins, ties
    broken canonically.
    """
    eps = Fraction(eps)
    if len(peak) != size:
        raise ValueError(f"peak has {len(peak)} items, expected {size}")
    m = prices.num_items
    if peak.max_item() > m:
        raise ValueError("peak uses items outside the ground set")
    inside = sorted(peak, key=lambda j: (prices.price_of(j), j))
    outside = sorted((j for j in range(1, m + 1) if j not in peak),
                     key=lambda j: (prices.price_of(j), j))

    best: Optional[tuple[Fraction, tuple, ItemSet]] = None
    eps_s = eps * size
    l_min = math.floor(eps_s) + 1
    for l in range(l_min, size + 1):
        gap = Fraction(l) - eps_s  # > 0
        kappa_ub = min((gap.numerator - 1) // gap.denominator, m - size)
        if kappa_ub < 0:
            continue
        for kappa in range(kappa_ub, -1, -1):
            lhs = prices.price_of(inside[l - 1])
            if kappa:
                lhs += prices.price_of(outside[kappa - 1])
            rhs = (Fraction(3, 2 * size)
                   - (Fraction(2 * (kappa + l)) - eps_s) / (4 * size * size))
            if lhs <= rhs:
                marked = ItemSet(inside[:l]) | ItemSet(outside[:kappa])
                gain = (close_region_value(l, kappa, size, eps)
                        - prices.total(marked))
                entry = (gain, canonical_key(marked), marked)
                if (best is None or gain > best[0]
                        or (gain == best[0] and entry[1] < best[1])):
                    best = entry
                break
    return best[2] if best else None


def fraction_multipeak_demand(valuation: MultiPeak,
                              prices: PriceVector) -> DemandResult:
    """Polynomial demand oracle: best of the empty set, the far candidate,
    and one candidate per peak, all rescored with the true valuation."""
    if not isinstance(valuation, MultiPeak):
        raise TypeError("multipeak_demand needs a MultiPeak valuation")
    if valuation.num_items != prices.num_items:
        raise ValueError("valuation and prices disagree on the ground set size")
    system = valuation.system
    candidates = [EMPTY_SET, fraction_algorithm_zero(prices, system.peak_size)]
    for peak in system.peaks:
        marked = fraction_algorithm_peak(prices, peak, system.peak_size, system.epsilon)
        if marked is not None:
            candidates.append(marked)
    best_set, best_gain = EMPTY_SET, Fraction(0)
    for cand in candidates:
        gain = utility(valuation, prices, cand)
        if gain > best_gain or (gain == best_gain
                                and canonical_key(cand) < canonical_key(best_set)):
            best_set, best_gain = cand, gain
    return DemandResult(best_gain, best_set, argmax_count=None)


class MarginEnglishRule:
    """The per-item English auction decided from each bidder's margins
    v_j - p_j as Fractions, ignoring the engine's demand reports: raise every
    item that two or more bidders strictly want, else give each bidder the
    items it strictly wants and certify."""

    def __init__(self, increment):
        self.increment = Fraction(increment)

    def __call__(self, instance, prices, demands):
        for i, v in enumerate(instance.bidders):
            if not isinstance(v, Additive):
                raise TypeError(f"bidder {i} is not additive")
        items = range(1, instance.num_items + 1)
        wants = [[j for j in items if v.values[j - 1] > prices.prices[j - 1]]
                 for v in instance.bidders]
        contested = [j for j in items
                     if sum(j in wanted for wanted in wants) >= 2]
        if contested:
            return Raise(ItemSet(contested), self.increment)
        return Certify(Allocation(tuple(ItemSet(w) for w in wants)))


def entrywise_read_table(table_raw: dict, m: int, where: str,
                         canonicalize: bool) -> tuple[list[int], int]:
    """The earlier entry-by-entry form of instances._read_table, past its
    size refusals: each entry in document order, its key looked up among
    the canonical keys written out set by set, its value parsed unless it
    is a bare nonnegative integer.  The first bad entry is refused."""
    index = {",".join(map(str, bundle.items())): bundle.mask
             for bundle in all_subsets(m)}
    nums = [0] * (1 << m)
    fractional = []
    for key, entry in table_raw.items():
        mask = index.get(key)
        if mask is None:
            raise SchemaError(
                f"{where}[{key!r}]: not a canonical subset key (items "
                f"1..{m} in ascending decimal, comma-separated, with no "
                "signs, spaces or leading zeros)")
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
