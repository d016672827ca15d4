"""Valuation formulas, closeness, and the exhaustive structural validators."""

import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionkit import (Additive, BudgetAdditive, Explicit, Instance, ItemSet,
                        MultiPeak, SetSystem, UnitDemand, check_monotone,
                        check_submodular, encode_instance, eps_close,
                        eval_valuation, find_close_peak, gen_multipeak,
                        validate_set_system)
from auctionkit import valuations
from auctionkit.errors import GroundSetTooLargeError, MalformedSystemError
from auctionkit.rationals import scale
from auctionkit.valuations import (int_table, submodular_by_definition,
                                   submodular_by_marginals, value_table)

from reference import (all_subsets, naive_decreasing_marginals,
                       naive_monotone_counterexample,
                       naive_submodular_counterexample, row_scan_submodular)


class TestEvalValuation:
    def test_mp1_pinned_rationals(self, mp1):
        """Hand-derived values of the running example, frozen exactly."""
        assert eval_valuation(mp1, ItemSet()) == 0
        assert eval_valuation(mp1, ItemSet([1])) == F(15, 64)
        assert eval_valuation(mp1, ItemSet([1, 2, 3])) == F(5, 8)
        assert eval_valuation(mp1, ItemSet([1, 2, 3, 4])) == F(13, 16)
        assert eval_valuation(mp1, ItemSet([1, 2, 3, 4, 5])) == F(11, 8)
        assert eval_valuation(mp1, ItemSet(range(1, 9))) == 1

    def test_budget_additive(self):
        v = BudgetAdditive((F(3), F(4)), F(5))
        assert eval_valuation(v, ItemSet([1, 2])) == 5
        assert eval_valuation(v, ItemSet([1])) == 3
        assert eval_valuation(v, ItemSet()) == 0

    def test_additive_and_unit_demand(self):
        assert eval_valuation(Additive((F(5), F(0))), ItemSet([1, 2])) == 5
        assert eval_valuation(UnitDemand((F(3), F(5))), ItemSet([1, 2])) == 5
        assert eval_valuation(UnitDemand((F(3), F(5))), ItemSet()) == 0

    def test_out_of_range_item(self, mp1):
        with pytest.raises(ValueError, match="outside the ground set"):
            eval_valuation(mp1, ItemSet([9]))

    def test_close_to_two_peaks_is_an_error(self):
        # Overlap above the budget: {1,2,3} is close to both peaks.
        system = SetSystem((ItemSet([1, 2, 3, 4]), ItemSet([1, 2, 3, 5])),
                           4, F(1, 2))
        v = MultiPeak(system, 8)
        with pytest.raises(MalformedSystemError):
            eval_valuation(v, ItemSet([1, 2, 3]))

    def test_deterministic(self, mp1):
        bundle = ItemSet([2, 3, 5])
        assert eval_valuation(mp1, bundle) == eval_valuation(mp1, bundle)


class TestEpsClose:
    def test_examples(self):
        assert eps_close(ItemSet([1, 2, 3]), ItemSet([1, 2, 3, 4]), F(1, 2))
        assert not eps_close(ItemSet([1, 2, 3, 4]), ItemSet([5, 6, 7, 8]), F(1, 2))

    def test_asymmetric_in_target_size(self):
        assert eps_close(ItemSet([1]), ItemSet([1]), F(1, 2))
        assert not eps_close(ItemSet([1]), ItemSet([1, 2, 3, 4]), F(1, 2))

    @given(st.sets(st.integers(1, 10)), st.sets(st.integers(1, 10)),
           st.fractions(min_value=F(1, 100), max_value=F(99, 100)),
           st.permutations(list(range(1, 11))))
    @settings(max_examples=200, deadline=None)
    def test_depends_only_on_overlap_counts(self, s_items, t_items, eps, perm):
        relabel = {old: perm[old - 1] for old in range(1, 11)}
        left = ItemSet(s_items)
        right = ItemSet(t_items)
        mapped_left = ItemSet(relabel[j] for j in s_items)
        mapped_right = ItemSet(relabel[j] for j in t_items)
        assert eps_close(left, right, eps) == eps_close(mapped_left, mapped_right, eps)


class TestFindClosePeak:
    def test_examples(self, mp1):
        assert find_close_peak(mp1.system, ItemSet([1, 2, 3])) == 0
        assert find_close_peak(mp1.system, ItemSet([1, 5])) is None
        assert find_close_peak(mp1.system, ItemSet()) is None

    def test_malformed_system_reported(self):
        system = SetSystem((ItemSet([1, 2, 3, 4]), ItemSet([1, 2, 3, 5])),
                           4, F(1, 2))
        with pytest.raises(MalformedSystemError):
            find_close_peak(system, ItemSet([1, 2, 3]))


class TestCheckMonotone:
    def test_additive_holds(self):
        assert check_monotone(Additive((F(2), F(0), F(7)))).holds

    def test_mp1_counterexample(self, mp1):
        report = check_monotone(mp1)
        assert not report.holds
        bundle, item = report.counterexample
        assert (bundle, item) == (ItemSet([1, 2, 3, 4, 5]), 6)
        # The violation itself, pinned: 11/8 drops to 15/16.
        assert eval_valuation(mp1, bundle) == F(11, 8)
        assert eval_valuation(mp1, bundle.add(item)) == F(15, 16)

    def test_explicit_violation(self):
        v = Explicit(2, (F(0), F(1), F(0), F(0)))
        report = check_monotone(v)
        assert not report.holds
        assert report.counterexample == (ItemSet([1]), 2)

    def test_ground_set_cap(self):
        with pytest.raises(GroundSetTooLargeError):
            check_monotone(Additive((F(1),) * 21))


class TestCheckSubmodular:
    def test_additive_equality_everywhere(self):
        assert check_submodular(Additive((F(1), F(4), F(2)))).holds

    def test_budget_additive_example(self):
        assert check_submodular(BudgetAdditive((F(3), F(4)), F(5))).holds

    def test_supermodular_table(self):
        v = Explicit(2, (F(0), F(0), F(0), F(1)))
        report = check_submodular(v)
        assert not report.holds
        assert report.counterexample == (ItemSet([1]), ItemSet([2]))

    def test_mp1_fails_both_validators(self, mp1):
        # The piecewise formulas as defined are neither monotone nor
        # submodular at these parameters; the validators are the authority.
        assert not check_monotone(mp1).holds
        assert not check_submodular(mp1).holds


def _random_explicit(rng, num_items, top=6):
    table = [F(rng.randint(0, top)) for _ in range(1 << num_items)]
    table[0] = F(0)
    return Explicit(num_items, tuple(table))


class TestValidatorsAgainstNaive:
    """The numpy-backed validators against literal itertools scans."""

    def test_monotone_matches_naive(self):
        rng = random.Random(11)
        for _ in range(40):
            v = _random_explicit(rng, rng.randint(1, 5))
            report = check_monotone(v)
            naive = naive_monotone_counterexample(v)
            assert report.holds == (naive is None)
            if naive is not None:
                assert report.counterexample == naive

    def test_submodular_matches_naive(self):
        rng = random.Random(12)
        for _ in range(40):
            v = _random_explicit(rng, rng.randint(1, 5))
            report = check_submodular(v)
            naive = naive_submodular_counterexample(v)
            assert report.holds == (naive is None)
            if naive is not None:
                assert report.counterexample == naive

    def test_marginal_form_matches_literal_quantifier(self):
        rng = random.Random(13)
        for _ in range(25):
            v = _random_explicit(rng, rng.randint(1, 4))
            assert submodular_by_marginals(v) == naive_decreasing_marginals(v)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_tables_past_int64_match_naive(self, m):
        """Values past int64 keep the tables in object dtype; at m <= 2 the
        per-item slices used to collapse to bare Python ints."""
        rng = random.Random(15 + m)
        for _ in range(12):
            big = 2 ** rng.randint(63, 70)
            table = [F(rng.choice([rng.randint(0, 3), big + rng.randint(0, 3)]))
                     for _ in range(1 << m)]
            table[0], table[-1] = F(0), F(big + rng.randint(0, 3))
            v = Explicit(m, tuple(table))
            assert value_table(v).nums.dtype == object
            report = check_monotone(v)
            naive = naive_monotone_counterexample(v)
            assert report.holds == (naive is None)
            if naive is not None:
                assert report.counterexample == naive
            sub = check_submodular(v)
            naive = naive_submodular_counterexample(v)
            assert sub.holds == (naive is None)
            assert sub.counterexample == naive
            assert submodular_by_marginals(v) == naive_decreasing_marginals(v)

    def test_two_internal_forms_agree(self, mp1):
        rng = random.Random(14)
        for _ in range(60):
            v = _random_explicit(rng, rng.randint(1, 6))
            assert submodular_by_definition(v).holds == submodular_by_marginals(v)
        assert submodular_by_definition(mp1).holds == submodular_by_marginals(mp1)


def _coverage(num_items, covers, weights, factor=1):
    """The value table of a coverage bidder: item j covers the elements in
    the bit mask covers[j], element e weighs weights[e], and a set is worth
    factor times the weight of the elements its items cover.  Coverage
    functions are monotone and submodular."""
    union = [0] * (1 << num_items)
    for mask in range(1, 1 << num_items):
        low = mask & -mask
        union[mask] = union[mask ^ low] | covers[low.bit_length() - 1]
    return [factor * sum(w for e, w in enumerate(weights) if cover >> e & 1)
            for cover in union]


@st.composite
def coverage_tables(draw):
    """A coverage table on m <= 6 items, with no planted violation or one
    raised entry, scaled either by 1 or past int64 (object dtype)."""
    m = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    covers = draw(st.lists(st.integers(0, (1 << len(weights)) - 1),
                           min_size=m, max_size=m))
    factor = draw(st.sampled_from([1, 2 ** 64 + 1]))
    table = _coverage(m, covers, weights, factor)
    raised = draw(st.none() | st.tuples(st.integers(1, (1 << m) - 1),
                                        st.integers(1, 3)))
    if raised is not None:
        mask, amount = raised
        table[mask] += amount * factor
    return Explicit(m, tuple(F(x) for x in table))


class TestHoldsPath:
    """Random tables are almost never submodular above m = 3, so the
    verdict "holds" is exercised on coverage tables, which are."""

    @given(coverage_tables())
    @settings(max_examples=40, deadline=None)
    def test_coverage_tables_match_naive(self, v):
        report = check_submodular(v)
        naive = naive_submodular_counterexample(v)
        assert report.holds == (naive is None)
        assert report.counterexample == naive
        assert submodular_by_marginals(v) == naive_decreasing_marginals(v)

    def test_unraised_coverage_holds_past_int64(self):
        v = Explicit(6, tuple(F(x) for x in _coverage(
            6, [0b11, 0b110, 0b1100, 0b11000, 0b110000, 0b100001],
            [1, 2, 3, 4, 5, 6], 2 ** 64 + 1)))
        assert value_table(v).nums.dtype == object
        assert check_submodular(v).holds
        assert submodular_by_marginals(v)


class TestScanBlocks:
    """The doubling row blocks against the row-at-a-time scan, with block
    caps small enough that blocks end and restart all over the table."""

    @staticmethod
    def _tables(rng, m):
        """Submodular coverage tables, each followed by the same table with
        one entry raised: the top item's singleton, or an entry at random.
        A raised v({m}) breaks only pairs of sets that both hold item m, so
        its violations lie in the top half of the rows."""
        for trial in range(8):
            weights = [rng.randint(1, 4) for _ in range(8)]
            covers = [rng.randrange(1, 1 << 8) for _ in range(m)]
            table = _coverage(m, covers, weights)
            yield Explicit(m, tuple(F(x) for x in table)), False
            late = trial < 3
            mask = 1 << (m - 1) if late else rng.randrange(1, 1 << m)
            table[mask] += rng.randint(1, sum(weights))
            yield Explicit(m, tuple(F(x) for x in table)), late

    @pytest.mark.parametrize("cap", [1, 3, 64, valuations._SCAN_ELEMENTS])
    @pytest.mark.parametrize("m", [7, 8, 9, 10])
    def test_blocks_match_the_row_scan(self, monkeypatch, cap, m):
        monkeypatch.setattr(valuations, "_SCAN_ELEMENTS", cap)
        rng = random.Random(100 * cap + m)
        verdicts = set()
        for v, late in self._tables(rng, m):
            expected = row_scan_submodular(v)
            assert submodular_by_definition(v) == expected
            assert submodular_by_marginals(v) == expected.holds
            verdicts.add((late, expected.holds))
            if late and not expected.holds:
                assert expected.counterexample[0].mask > 1 << (m - 1)
        assert {(False, True), (True, False)} <= verdicts


class TestScanColumnChunks:
    """A row longer than both _SCAN_ELEMENTS and _MIN_CHUNK is scanned in
    column chunks in ascending T; with both patched tiny every row of a
    small table is.  The tables of _table are quadratic, v(T) = 3m |T|
    plus w(x, y) for each pair x < y in T, so the square of items x, y
    over any base set has second difference w(x, y)."""

    @staticmethod
    def _table(m, plant):
        """w = -3 everywhere, except:
        - "early": w(1, 2) = +1, so ({1}, {2}) violates;
        - "last": w(1, 2) = -1 and v(ground - {1, 2}) raised by 2.  The
          square of 1, 2 over that set reads +1, every other square at most
          -1, so the only violation is the scan's last incomparable pair,
          (ground - {2}, ground - {1})."""
        w12 = {"none": -3, "early": 1, "last": -1}[plant]
        table = []
        for mask in range(1 << m):
            items = ItemSet.from_mask(mask).items()
            pairs = [(x, y) for x in items for y in items if x < y]
            table.append(3 * m * len(items)
                         + sum(w12 if (x, y) == (1, 2) else -3 for x, y in pairs))
        if plant == "last":
            table[(1 << m) - 4] += 2
        return Explicit.from_scaled(m, table, 1)

    @pytest.mark.parametrize("cap", [1, 2, 5])
    @pytest.mark.parametrize("m", [3, 4, 6])
    @pytest.mark.parametrize("plant", ["none", "early", "last"])
    def test_chunks_match_the_reference(self, monkeypatch, cap, m, plant):
        monkeypatch.setattr(valuations, "_SCAN_ELEMENTS", cap)
        monkeypatch.setattr(valuations, "_MIN_CHUNK", 1)
        v = self._table(m, plant)
        naive = naive_submodular_counterexample(v)
        report = submodular_by_definition(v)
        assert report.holds == (naive is None)
        assert report.counterexample == naive
        full = ItemSet(range(1, m + 1))
        expected = {"none": None, "early": (ItemSet([1]), ItemSet([2])),
                    "last": (full - ItemSet([2]), full - ItemSet([1]))}
        assert naive == expected[plant]

    @pytest.mark.parametrize("cap, floor", [(1, 16), (3, 1), (40, 7)])
    @pytest.mark.parametrize("m", [7, 8])
    def test_chunks_match_the_row_scan(self, monkeypatch, cap, floor, m):
        # The random tables of TestScanBlocks, violations late ones
        # included; chunks are max(cap, floor) pairs wide.
        monkeypatch.setattr(valuations, "_SCAN_ELEMENTS", cap)
        monkeypatch.setattr(valuations, "_MIN_CHUNK", floor)
        rng = random.Random(1000 * cap + 10 * floor + m)
        verdicts = set()
        for v, late in TestScanBlocks._tables(rng, m):
            expected = row_scan_submodular(v)
            assert submodular_by_definition(v) == expected
            verdicts.add((late, expected.holds))
        assert {(False, True), (True, False)} <= verdicts


class TestScanDtypeBoundary:
    """Tables whose largest entry, top, gives 2 * top = 2**31 - 2 and
    2**31, both of which the scan holds in uint32, and past 2**64, where
    it runs on Python ints (object dtype).  Each top gets a submodular
    table, one with an early violation and one with a violation planted in
    the top row.  TestScanDtypeLadder checks the edges of every dtype."""

    TOPS = [(1 << 30) - 1, 1 << 30, (1 << 64) + 3]

    @staticmethod
    def _table(m, top, plant):
        """top on every nonempty set without item m, top - 2 on those with
        it: the nonempty indicator plus a modular term, so submodular.
        Two disjoint sets without item m then sum to 2 * top."""
        table = [0] + [top - 2 * (mask >> (m - 1)) for mask in range(1, 1 << m)]
        if plant == "early":
            # ({1, 2}, {1, 3}) compares 2 * top with 2 * top - 1.
            table[0b11] -= 1
        elif plant == "late":
            # v({m}) back to top breaks only pairs that both hold item m.
            table[1 << (m - 1)] += 2
        return Explicit.from_scaled(m, table, 1)

    @pytest.mark.parametrize("cap", [64, valuations._SCAN_ELEMENTS])
    @pytest.mark.parametrize("top", TOPS)
    @pytest.mark.parametrize("plant", ["none", "early", "late"])
    def test_scan_matches_the_row_scan(self, monkeypatch, cap, top, plant):
        monkeypatch.setattr(valuations, "_SCAN_ELEMENTS", cap)
        m = 9
        v = self._table(m, top, plant)
        assert value_table(v).max_abs == top
        assert (value_table(v).nums.dtype == object) == (top > 1 << 63)
        expected = row_scan_submodular(v)
        assert submodular_by_definition(v) == expected
        assert check_submodular(v) == expected
        if plant == "none":
            assert expected.holds
        elif plant == "early":
            assert expected.counterexample == (ItemSet([1, 2]), ItemSet([1, 3]))
        else:
            assert expected.counterexample[0].mask > 1 << (m - 1)


def _planted(m, pairs=(), base=()):
    """v(T) = 3m |T| plus w(x, y) for each pair of items x < y in T, which
    is nonnegative for |T| <= m.  Then v(S|T) + v(S&T) - v(S) - v(T) is the
    sum of w(x, y) over x in S - T and y in T - S.  w is -3, so the table
    is submodular, except at the given pairs, each of two items outside
    base.  A nonempty base sets their w to -1 and raises v(base) by 2:
    every difference then reads at most -1 but those of (base + x,
    base + y) and their mirrors, which read +1.  An empty base sets the w
    of its one pair (x, y) to +1: the differences above 0 are then those
    of (C + x, C + y) and their mirrors, for each set C without x and y.
    Either way the first violating pair is the first (base + x, base + y)
    with x < y, in (S, T) order."""
    weight = -1 if base else 1
    table = []
    for mask in range(1 << m):
        items = ItemSet.from_mask(mask).items()
        table.append(3 * m * len(items) + sum(
            weight if (x, y) in pairs else -3
            for i, x in enumerate(items) for y in items[i + 1:]))
    if base:
        table[ItemSet(base).mask] += 2
    return Explicit.from_scaled(m, table, 1)


def _plants(m):
    """(pairs, base) of planted violations whose first pair (S, T) sits at
    the edges of the scan's blocks and calls.  Row 0, S = {}, never
    violates: its pairs read v(T) + v({}) against v({}) + v(T)."""
    plants = {
        # S = {1}: row 1, the block [1, 2).
        "row 1": ([(1, 2)], ()),
        # S = {3}: row 4, the first row of the aligned block [4, 8).
        "first row of a block": ([(3, 4)], ()),
        # S = {1, 2, 3}: row 7, the last row of the block [4, 8).
        "last row of a block": ([(1, 4)], (2, 3)),
        # S = {m - 1}: at m = 9 and 10 (R = 128), row 0 of groups 1 and 2.
        "row 0 of a group": ([(m - 1, m)], ()),
        # S = {1 .. m - 1}: at m = 8 group 0's last row, at m = 9 and 10
        # the last row of groups 1 and 3; below, the last row of the
        # block [2**(m-2), 2**(m-1)).
        "last row of a group": ([(1, m)], tuple(range(2, m))),
        # (M - {2}, M - {1}): the last pair the scan compares.
        "last pair": ([(1, 2)], tuple(range(3, m + 1))),
    }
    if m >= 6:
        # Rows S = base + 1 < S' = base + 2 of one block, whose violations
        # lie in two calls, T' = base + (m - 1) in an earlier one than
        # T = base + m: at m = 10 (R = 128, two groups a call), groups 3
        # and 5 for the rows of group 1; at m = 6 and R = 4 or 8, one
        # group a call, groups 7 and 11 or 3 and 5.  S comes first.
        plants["two rows, two calls"] = ([(1, m), (2, m - 1)], (3, m - 2))
    return plants


class TestScanGroups:
    """Violations planted at the edges of the low-bit row blocks, groups
    and calls, against the row scan, the naive definition and the pair the
    construction puts first."""

    @staticmethod
    def _check(m, pairs=(), base=()):
        v = _planted(m, pairs, base)
        expected = row_scan_submodular(v)
        if m <= 7:
            assert expected.counterexample == naive_submodular_counterexample(v)
        assert submodular_by_definition(v) == expected
        first = min(((ItemSet(base).add(x), ItemSet(base).add(y))
                     for x, y in pairs), key=lambda st: st[0].mask, default=None)
        assert expected.counterexample == first

    # At the default cap R = 2**7: m below, at and above it.
    @pytest.mark.parametrize("m", [6, 7, 8, 9, 10])
    def test_plants_at_the_default_cap(self, m):
        self._check(m)
        for pairs, base in _plants(m).values():
            self._check(m, pairs, base)

    # R = 1, 2, 4 and 8; calls of one pair, of one group and of several.
    @pytest.mark.parametrize("cap", [1, 4, 16, 64])
    @pytest.mark.parametrize("floor", [1, 4])
    @pytest.mark.parametrize("m", [5, 6])
    def test_plants_with_tiny_caps(self, monkeypatch, cap, floor, m):
        monkeypatch.setattr(valuations, "_SCAN_ELEMENTS", cap)
        monkeypatch.setattr(valuations, "_MIN_CHUNK", floor)
        self._check(m)
        for pairs, base in _plants(m).values():
            self._check(m, pairs, base)


class TestScanDtypeLadder:
    """Each step of the scan's dtype ladder: 2 * max_abs just inside and
    just past uint8, uint16, uint32 and uint64.  A scan one dtype too
    narrow wraps 2 * max_abs past the step and flips verdicts, so every
    table must still match the row scan."""

    TOPS = [127, 128, (1 << 15) - 1, 1 << 15, (1 << 31) - 1, 1 << 31,
            (1 << 63) - 1, 1 << 63, (1 << 64) + 3]

    @pytest.mark.parametrize("top", TOPS)
    @pytest.mark.parametrize("plant", ["none", "early", "late"])
    def test_every_step(self, top, plant):
        v = TestScanDtypeBoundary._table(8, top, plant)
        assert value_table(v).max_abs == top
        expected = row_scan_submodular(v)
        assert submodular_by_definition(v) == expected
        assert expected.holds == (plant == "none")


# The scan's r, R = 2**r rows per group, where the rule that keeps its
# expansions at 2**(m + r + 1) entries changes: r = min(m, 7,
# max(4, 18 - m)).  Below m = 7, r = m and every set is in group 0.
ROW_BITS = {5: 5, 6: 6, 10: 7, 11: 7, 12: 6, 13: 5, 14: 4}


class TestScanExpansions:
    """Every group after group 0 reads the per-group expansions of low-bit
    | and &.  Violations planted in the first group that reads them, in
    the last group and in the per-row rescan, at every m where r changes,
    against the row scan and the pair the construction puts first."""

    @staticmethod
    def _plants(m):
        r = ROW_BITS[m]
        plants = {
            # S = {1}: group 0, where no expansion is built.
            "group 0": ([(1, 2)], ()),
            # S = {r + 1, ..., m} + 1: row 1 of the last group.
            "last group": ([(1, 2)], tuple(range(r + 1, m + 1))),
            # (M - {2}, M - {1}): the last pair the scan compares.
            "last pair": ([(1, 2)], tuple(range(3, m + 1))),
        }
        if m >= r + 2:
            # S = {r + 1}, T = {r + 2}: row 0 of group 1, the first call
            # on the expansions, with T in group 2.
            plants["group 1, row 0"] = ([(r + 1, r + 2)], ())
            # S = {1, r + 1}: row 1 of group 1, found by the rescan after
            # row 0 shows none.
            plants["group 1, row 1"] = ([(1, m)], (r + 1,))
        return plants

    @pytest.mark.parametrize("m", sorted(ROW_BITS))
    def test_plants(self, m):
        for pairs, base in self._plants(m).values():
            TestScanGroups._check(m, pairs, base)

    @pytest.mark.parametrize("m, bits, dtype", [
        pytest.param(10, 64, object, id="10"),
        pytest.param(11, 64, object, id="11"),
        pytest.param(14, 40, np.uint64, id="14-uint64"),
    ])
    def test_plants_on_object_dtype(self, m, bits, dtype):
        # Every value times 2**64: the scan, and so the expansions, run on
        # Python ints, and every verdict and pair stays the same.  Times
        # 2**40 at m=14, the later groups run on uint64.
        for pairs, base in self._plants(m).values():
            v = _planted(m, pairs, base)
            kept = value_table(v)
            big = Explicit.from_scaled(m, [n << bits for n in kept.nums.tolist()],
                                       kept.denom)
            assert np.min_scalar_type(2 * value_table(big).max_abs) == dtype
            expected = row_scan_submodular(v)
            assert not expected.holds
            assert submodular_by_definition(big) == expected
            assert row_scan_submodular(big) == expected

    @pytest.mark.parametrize("m", [10, 14])
    def test_a_row_takes_its_first_group_before_its_low_bits(self, m):
        # S = {1, r + 1}, row 1 of group 1, violates with T1 = {r, r + 1},
        # in group 1 at the high low bit b = 2**(r - 1), and with
        # T2 = {r + 1, r + 2}, in group 3 at b = 0.  T1 < T2, so the row's
        # flags must be read in (group, b) order; in (b, group) order T2
        # would come first.
        r = ROW_BITS[m]
        v = _planted(m, [(1, r), (1, r + 2)], (r + 1,))
        s, t1, t2 = (ItemSet([1, r + 1]), ItemSet([r, r + 1]),
                     ItemSet([r + 1, r + 2]))
        assert (s.mask >> r, s.mask % (1 << r)) == (1, 1)
        assert (t1.mask >> r, t1.mask % (1 << r)) == (1, 1 << (r - 1))
        assert (t2.mask >> r, t2.mask % (1 << r)) == (3, 0)
        expected = row_scan_submodular(v)
        assert expected.counterexample == (s, t1)
        assert submodular_by_definition(v) == expected


class TestScanMemory:
    """The expansions hold 2**(m + r + 1) entries of the scan's dtype.  A
    scan that stops in group 0 allocates neither of them; a full scan holds
    both, and beyond them only its scratch buffers, its copy of the table
    and its group numbers."""

    @staticmethod
    def _table(m):
        """A budget-additive table on uint16: 2 * max_abs is at least 2**8
        and below 2**16."""
        rng = random.Random(m)
        v = BudgetAdditive(tuple(F(rng.randint(100, 999)) for _ in range(m)),
                           F(20_000))
        assert np.min_scalar_type(2 * value_table(v).max_abs) == np.uint16
        return v

    @staticmethod
    def _peak(v):
        """The most memory that one scan of v holds at once, in bytes."""
        submodular_by_definition(v)  # the low-bit tables are cached per r
        tracemalloc.start()
        try:
            report = submodular_by_definition(v)
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_scan_that_stops_in_group_0_builds_no_expansion(self):
        m = 14
        nums = value_table(self._table(m)).nums.tolist()
        nums[0b11] += 1  # ({1}, {2}) violates
        report, peak = self._peak(Explicit.from_scaled(m, nums, 1))
        assert report.counterexample == (ItemSet([1]), ItemSet([2]))
        assert peak < (1 << (m + ROW_BITS[m])) * 2

    @pytest.mark.parametrize("m", [11, 12, 13, 14])
    def test_a_full_scan_holds_both_expansions_and_no_more(self, m):
        v = self._table(m)
        report, peak = self._peak(v)
        assert report.holds
        expansions = (1 << (m + ROW_BITS[m] + 1)) * 2
        width = max(valuations._SCAN_ELEMENTS, valuations._MIN_CHUNK)
        scratch = width * (2 * 2 + 1)
        table = (1 << m) * 2
        groups = (1 << (m - ROW_BITS[m])) * 8
        assert expansions <= peak <= (expansions + scratch + table + groups
                                      + (64 << 10))


class TestStandardClassesStructural:
    """Additive / unit-demand / budget-additive are monotone submodular."""

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=7),
           st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_standard_classes(self, values, budget):
        vals = tuple(F(x) for x in values)
        for v in (Additive(vals), UnitDemand(vals),
                  BudgetAdditive(vals, F(budget))):
            assert check_monotone(v).holds
            assert check_submodular(v).holds


class TestValueNonnegativeAndEmptyZero:
    @given(st.lists(st.fractions(min_value=0, max_value=10), min_size=1,
                    max_size=6),
           st.fractions(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_every_class_every_subset(self, values, budget):
        vals = tuple(values)
        m = len(vals)
        candidates = [Additive(vals), UnitDemand(vals),
                      BudgetAdditive(vals, budget)]
        for v in candidates:
            assert eval_valuation(v, ItemSet()) == 0
            for bundle in all_subsets(m):
                assert eval_valuation(v, bundle) >= 0

    def test_multipeak_nonnegative(self, mp1):
        for bundle in all_subsets(8):
            assert eval_valuation(mp1, bundle) >= 0
        assert eval_valuation(mp1, ItemSet()) == 0


class TestValueTable:
    def test_matches_pointwise_eval(self, mp1):
        rng = random.Random(5)
        valuations = [
            mp1,
            Additive((F(1, 2), F(3), F(0), F(7, 3))),
            UnitDemand((F(2), F(5, 2), F(1))),
            BudgetAdditive((F(3), F(4), F(1)), F(11, 2)),
            _random_explicit(rng, 4),
        ]
        for v in valuations:
            _assert_table_matches_value(v)

    @pytest.mark.parametrize("eps", [F(500000003, 1000000007),
                                     F(1500000001, 3000000001)])
    def test_multipeak_large_epsilon_denominators(self, eps):
        """Scaled multi-peak values pass 2**63 here; the first case once
        wrapped silently in int64, the second raised OverflowError."""
        _assert_table_matches_value(gen_multipeak(8, 4, 2, eps, 1, seed=0).bidders[0])

    @given(m=st.integers(1, 8), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_multipeak_any_epsilon_denominator(self, m, data):
        size = data.draw(st.integers(-(-m // 4), m))
        count = data.draw(st.integers(1, m // size))
        q = data.draw(st.integers(2, 1 << 40))
        eps = F(data.draw(st.integers(1, q - 1)), q)
        order = data.draw(st.permutations(range(1, m + 1)))
        peaks = tuple(ItemSet(order[i * size:(i + 1) * size]) for i in range(count))
        _assert_table_matches_value(MultiPeak(SetSystem(peaks, size, eps), m))

    @pytest.mark.parametrize("fold, capped", [(np.add, False),
                                              (np.maximum, False),
                                              (np.add, True)])
    @pytest.mark.parametrize("top", [9, 1 << 70])
    def test_scaled_table_matches_per_mask_fold(self, fold, capped, top):
        """int_table's in-place doubling on the integers scale gives, against
        folding each mask's items one at a time, in int64 and, with values
        past 2**63, in object dtype."""
        rng = random.Random(top)
        values = [F(rng.randint(0, top), rng.randint(1, 6)) for _ in range(7)]
        cap = sum(values) / 2 if capped else None
        scaled, denom = scale([*values, cap] if capped else values)
        cap_num = scaled[-1] if capped else None
        nums = int_table(scaled[:len(values)], fold, cap_num)
        assert nums.dtype == (np.int64 if top < 1 << 60 else object)
        for mask in range(1 << len(values)):
            want = F(0)
            for j, x in enumerate(values):
                if mask >> j & 1:
                    want = want + x if fold is np.add else max(want, x)
            if capped:
                want = min(want, cap)
            assert F(int(nums[mask]), denom) == want


class TestPeaksOfOtherSizes:
    """Closeness is |S & T| - |S - T| > eps |T| for the peak T itself, in
    value and in the table alike, also when |T| is not the peak size."""

    def test_example(self):
        # {1} against the peak {1, 2, 3}: 1 - 0 > 1/3 * 3 fails, so {1} is
        # far and worth 1/2 - 1/16.  Testing against s = 2 made it close.
        system = SetSystem((ItemSet([1, 2, 3]), ItemSet([4, 5])), 2, F(1, 3))
        v = MultiPeak(system, 5)
        assert v.value(ItemSet([1])) == F(7, 16)
        table = value_table(MultiPeak(system, 5))
        assert F(int(table.nums[1]), table.denom) == F(7, 16)

    def test_value_and_table_agree_pointwise(self):
        """Equal values at every mask, or the same MalformedSystemError: the
        table reports the first mask whose value raises."""
        rng = random.Random(12)
        raised = 0
        for _ in range(24):
            size = rng.randint(2, 4)
            peaks = tuple(ItemSet(rng.sample(range(1, 9), rng.randint(1, 8)))
                          for _ in range(rng.randint(1, 3)))
            eps = F(rng.randint(1, 5), 6)
            v = MultiPeak(SetSystem(peaks, size, eps), 8)
            values, first_error = [], None
            for mask in range(1 << 8):
                try:
                    values.append(v.value(ItemSet.from_mask(mask)))
                except MalformedSystemError as error:
                    first_error = first_error or str(error)
            if first_error is None:
                table = value_table(v)
                assert [F(n, table.denom) for n in table.nums.tolist()] == values
            else:
                raised += 1
                with pytest.raises(MalformedSystemError) as info:
                    value_table(v)
                assert str(info.value) == first_error
        assert 0 < raised < 24


def _assert_table_matches_value(v):
    table = value_table(v)
    assert table.max_abs == max(abs(x) for x in table.nums.tolist())
    for bundle in all_subsets(v.num_items):
        assert F(int(table.nums[bundle.mask]), table.denom) == \
            eval_valuation(v, bundle)


def _one_of_each_class():
    """Pairs of equal valuations built separately, one per class."""
    builders = [
        lambda: Additive((F(1, 2), F(3), F(0))),
        lambda: UnitDemand((F(2), F(5, 2), F(1))),
        lambda: BudgetAdditive((F(3), F(4), F(1)), F(11, 2)),
        lambda: MultiPeak(SetSystem((ItemSet([1, 2]), ItemSet([3, 4])), 2, F(1, 2)), 4),
        lambda: _random_explicit(random.Random(3), 3),
    ]
    return [(build(), build()) for build in builders]


def _outward(v):
    return hash(v), repr(v), encode_instance(Instance(v.num_items, (v,)))


class TestValueTableOwnership:
    """A valuation builds its table once and keeps it outside its fields."""

    @pytest.mark.parametrize("v, w", _one_of_each_class(),
                             ids=lambda v: type(v).__name__)
    def test_built_once_and_invisible(self, v, w):
        before = _outward(v)
        table = value_table(v)
        assert value_table(v) is table
        # w is equal to v but has no table yet.
        assert v == w and v is not w
        assert _outward(v) == before == _outward(w)
        other = value_table(w)
        assert other is not table
        assert (other.denom, other.num_items) == (table.denom, table.num_items)
        assert other.nums.tolist() == table.nums.tolist()

    def test_table_is_read_only(self, mp1):
        with pytest.raises(ValueError):
            value_table(mp1).nums[0] = 1


class TestValidateSetSystem:
    def test_mp1_valid(self, mp1):
        assert validate_set_system(mp1.system).ok

    def test_oversized_intersection(self):
        system = SetSystem((ItemSet([1, 2, 3, 4]), ItemSet([1, 2, 3, 5])),
                           4, F(1, 2))
        report = validate_set_system(system)
        assert not report.ok
        assert any("share 3 items" in v for v in report.violations)

    def test_single_peak_no_pairs(self):
        assert validate_set_system(
            SetSystem((ItemSet([2, 4, 6, 8]),), 4, F(1, 3))).ok

    def test_size_violations_all_listed(self):
        system = SetSystem((ItemSet([1]), ItemSet([2, 3])), 3, F(1, 2))
        report = validate_set_system(system)
        assert len(report.violations) == 2


class TestConstructionGuards:
    def test_explicit_requires_zero_empty_set(self):
        with pytest.raises(ValueError, match="empty set"):
            Explicit(1, (F(1), F(2)))

    def test_explicit_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Explicit(1, (F(0), F(-1)))

    def test_explicit_requires_full_table(self):
        with pytest.raises(ValueError, match="entries"):
            Explicit(2, (F(0), F(1)))

    def test_multipeak_rejects_oversized_ground_set(self):
        system = SetSystem((ItemSet([1, 2]),), 2, F(1, 2))
        with pytest.raises(ValueError, match="negative"):
            MultiPeak(system, 9)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            SetSystem((ItemSet([1]),), 1, F(0))
        with pytest.raises(ValueError):
            SetSystem((ItemSet([1]),), 1, F(1))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            Additive((F(-1),))
        with pytest.raises(ValueError):
            BudgetAdditive((F(1),), F(-2))
