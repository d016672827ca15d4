"""Generators, the instance document format, and load-time validation."""

import ast
import collections
import enum
import json
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import auctionkit.instances
import auctionkit.valuations
from auctionkit import (Additive, BudgetAdditive, Explicit, Instance, ItemSet,
                        PriceVector, UnitDemand, check_submodular, decode_instance,
                        dump_prices, encode_instance, eval_valuation,
                        gen_additive, gen_budget_additive, gen_multipeak,
                        gen_unit_demand, load_prices, validate_set_system)
from auctionkit.errors import (GroundSetTooLargeError,
                               InfeasibleGenerationError, SchemaError)
from auctionkit.instances import _identical, _load_document, dumps
from auctionkit.rationals import format_rational, parse_rational
from auctionkit.valuations import value_table


class TestGenerators:
    def test_multipeak_seed_42_is_valid(self):
        inst = gen_multipeak(8, 4, 2, F(1, 2), 2, seed=42)
        for v in inst.bidders:
            assert validate_set_system(v.system).ok
        assert inst.metadata["seed"] == 42

    def test_two_disjoint_large_peaks_cannot_fit(self):
        with pytest.raises(InfeasibleGenerationError):
            gen_multipeak(4, 4, 2, F(1, 8), 1, seed=0)

    def test_epsilon_zero_rejected(self):
        with pytest.raises(ValueError, match="strictly between"):
            gen_multipeak(4, 4, 2, F(0), 1, seed=0)

    def test_single_peak_always_feasible(self):
        for eps in (F(1, 9), F(1, 2), F(8, 9)):
            inst = gen_multipeak(8, 4, 1, eps, 1, seed=3)
            assert validate_set_system(inst.bidders[0].system).ok

    def test_varied_systems_flag(self):
        inst = gen_multipeak(8, 4, 2, F(1, 2), 3, seed=9, share_system=False)
        systems = {v.system for v in inst.bidders}
        assert len(systems) >= 2  # astronomically unlikely to all collide

    @pytest.mark.parametrize("generate", [
        lambda n: gen_additive(n, 3, (0, 5), seed=0),
        lambda n: gen_unit_demand(n, 3, (0, 5), seed=0),
        lambda n: gen_budget_additive(n, 3, (0, 5), (0, 10), seed=0),
        lambda n: gen_multipeak(8, 4, 2, F(1, 2), n, seed=0),
    ], ids=["additive", "unit-demand", "budget-additive", "multipeak"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_every_generator_needs_a_bidder(self, generate, n):
        with pytest.raises(ValueError, match="n must be positive"):
            generate(n)

    def test_budget_additive_basics(self):
        inst = gen_budget_additive(2, 3, (1, 5), (3, 6), seed=7)
        for v in inst.bidders:
            assert eval_valuation(v, ItemSet()) == 0
            assert 3 <= v.budget <= 6

    def test_zero_budget_flattens_everything(self):
        inst = gen_budget_additive(2, 3, (1, 5), (0, 0), seed=7)
        for v in inst.bidders:
            assert eval_valuation(v, ItemSet([1, 2, 3])) == 0

    def test_determinism(self):
        for gen in (lambda s: gen_multipeak(8, 4, 2, F(1, 2), 2, seed=s),
                    lambda s: gen_additive(3, 4, (0, 9), seed=s),
                    lambda s: gen_unit_demand(3, 4, (0, 9), seed=s),
                    lambda s: gen_budget_additive(3, 4, (0, 9), (1, 5), seed=s)):
            assert encode_instance(gen(123)) == encode_instance(gen(123))

    def test_generated_additive_instances_are_submodular(self):
        inst = gen_additive(3, 5, (0, 9), seed=17)
        for v in inst.bidders:
            assert check_submodular(v).holds

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            gen_additive(1, 2, (5, 3), seed=0)
        with pytest.raises(ValueError):
            gen_budget_additive(1, 2, (0, 3), (-1, 2), seed=0)

    def test_generated_bidders_value_empty_at_zero(self):
        instances = [
            gen_multipeak(8, 4, 2, F(1, 2), 2, seed=71),
            gen_additive(3, 4, (0, 9), seed=72),
            gen_unit_demand(3, 4, (0, 9), seed=73),
            gen_budget_additive(3, 4, (0, 9), (0, 5), seed=74),
        ]
        for inst in instances:
            for v in inst.bidders:
                assert eval_valuation(v, ItemSet()) == 0

    def test_close_peak_unique_on_generated_systems(self):
        """Closeness-uniqueness regression: valid systems never trip the
        two-peak error, for any subset of the ground set."""
        from auctionkit import find_close_peak
        from reference import all_subsets
        for seed in range(6):
            inst = gen_multipeak(8, 4, 2, F(1, 2), 1, seed=seed)
            system = inst.bidders[0].system
            for bundle in all_subsets(8):
                hits = find_close_peak(system, bundle)  # must never raise
                assert hits is None or hits in (0, 1)

    def test_provenance_regenerates_instance(self):
        inst = gen_multipeak(8, 4, 2, F(1, 3), 2, seed=55)
        params = inst.metadata["generator_params"]
        again = gen_multipeak(params["m"], params["s"], params["k"],
                              F(params["epsilon"]), params["n"],
                              inst.metadata["seed"],
                              share_system=params["share_system"])
        assert encode_instance(again) == encode_instance(inst)


class TestRoundTrip:
    def test_all_families(self):
        instances = [
            gen_multipeak(8, 4, 2, F(1, 2), 2, seed=1),
            gen_additive(2, 3, (0, 6), seed=2),
            gen_unit_demand(3, 2, (0, 6), seed=3),
            gen_budget_additive(2, 3, (0, 6), (2, 8), seed=4),
            Instance(2, (Explicit(2, (F(0), F(1, 2), F(1), F(4, 3))),),
                     {"name": "explicit-fixture"}),
            Instance(3, (Additive((F(0), F(7, 2), F(3))),
                         UnitDemand((F(5), F(5, 6), F(0))),
                         BudgetAdditive((F(2), F(1, 2), F(4)), F(9, 4)),
                         BudgetAdditive((F(0), F(0), F(0)), F(0))),
                     {"name": "item-value-fractions"}),
        ]
        for inst in instances:
            blob = encode_instance(inst)
            decoded = decode_instance(blob)
            assert encode_instance(decoded) == blob
            assert decoded == inst

    @given(m=st.integers(1, 6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_monotone_explicit_tables(self, m, data):
        """Each subset's value is its best one-smaller subset's plus a
        random nonnegative rational, so every table is monotone."""
        increments = data.draw(st.lists(
            st.fractions(min_value=0, max_value=5, max_denominator=40),
            min_size=1 << m, max_size=1 << m))
        table = [F(0)] * (1 << m)
        for mask in range(1, 1 << m):
            table[mask] = increments[mask] + max(
                table[mask & ~(1 << j)] for j in range(m) if mask >> j & 1)
        blob = encode_instance(Instance(m, (Explicit(m, tuple(table)),)))
        decoded = decode_instance(blob)
        assert decoded.bidders[0].table == tuple(table)
        assert encode_instance(decoded) == blob

    @given(m=st.integers(1, 6), canonicalize=st.booleans(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mixed_entry_forms_decode_as_parse_rational(self, m, canonicalize,
                                                        data):
        """Bare integers take the decoder's direct route and every other
        entry the shared parser; each entry must read as parse_rational
        reads it on its own."""
        steps = data.draw(st.lists(
            st.fractions(min_value=0, max_value=2 ** 66, max_denominator=12),
            min_size=1 << m, max_size=1 << m))
        raw: list = [0] * (1 << m)
        total = F(0)
        for mask in range(1, 1 << m):
            total += steps[mask]  # masks ascend, so a subset precedes its sets
            form = data.draw(st.sampled_from(["int", "text", "scaled"]))
            if form == "int" and total.denominator == 1:
                raw[mask] = total.numerator
            elif form == "scaled" and canonicalize:
                k = data.draw(st.integers(2, 5))
                raw[mask] = f"{total.numerator * k}/{total.denominator * k}"
            elif canonicalize or total.denominator > 1:
                raw[mask] = f"{total.numerator}/{total.denominator}"
            else:
                # Strict mode refuses "n/1"; an integer's text is "n".
                raw[mask] = str(total.numerator)
        doc = json.dumps({"m": m, "bidders": [{"type": "explicit", "table": dict(
            zip(auctionkit.instances._subset_keys(m), raw))}]})
        decoded = decode_instance(doc, canonicalize_rationals=canonicalize)
        assert decoded.bidders[0].table == tuple(
            parse_rational(entry, canonicalize=canonicalize) for entry in raw)

    def test_prices_round_trip(self):
        prices = PriceVector((F(1, 2), F(3), F(0)))
        assert load_prices(dump_prices(prices), 3) == prices


class TestDecodeValidation:
    def _doc(self, **overrides):
        doc = {"m": 2,
               "bidders": [{"type": "additive", "values": [1, "1/2"]}],
               "metadata": {}}
        doc.update(overrides)
        return json.dumps(doc)

    def test_minimal_document(self):
        inst = decode_instance(self._doc())
        assert isinstance(inst.bidders[0], Additive)
        assert inst.bidders[0].values == (F(1), F(1, 2))

    def test_non_lowest_terms_rejected_by_default(self):
        doc = self._doc(bidders=[{"type": "additive", "values": ["2/4", 0]}])
        with pytest.raises(SchemaError, match="lowest terms"):
            decode_instance(doc)
        relaxed = decode_instance(doc, canonicalize_rationals=True)
        assert relaxed.bidders[0].values[0] == F(1, 2)

    def test_overlapping_peaks_error_names_both(self):
        doc = self._doc(m=8, bidders=[{
            "type": "multi_peak", "s": 4, "k": 2, "epsilon": "1/2",
            "peaks": [[1, 2, 3, 4], [1, 2, 3, 5]]}])
        with pytest.raises(SchemaError, match="peaks 0 and 1"):
            decode_instance(doc)

    def test_unsorted_peak_rejected(self):
        doc = self._doc(m=8, bidders=[{
            "type": "multi_peak", "s": 4, "k": 1, "epsilon": "1/2",
            "peaks": [[4, 3, 2, 1]]}])
        with pytest.raises(SchemaError, match="sorted"):
            decode_instance(doc)

    def test_non_monotone_explicit_rejected(self):
        doc = self._doc(bidders=[{
            "type": "explicit",
            "table": {"": 0, "1": 1, "2": 0, "1,2": 0}}])
        with pytest.raises(SchemaError, match="not monotone"):
            decode_instance(doc)

    def test_incomplete_explicit_table(self):
        doc = self._doc(bidders=[{"type": "explicit", "table": {"": 0, "1": 1}}])
        with pytest.raises(SchemaError, match="expected 4 subsets"):
            decode_instance(doc)

    @pytest.mark.parametrize("table", [
        {"": 0, "01": 1, "2": 1, "1,2": 2},
        {"": 0, " 1": 1, "2": 1, "1,2": 2},
        {"": 0, "+1": 1, "2": 1, "1,2": 2},
        {"": 0, "1": 1, "2": 1, "2,1": 2},
        {"": 0, "1,1": 1, "2": 1, "1,2": 2},
        {"": 0, "3": 1, "2": 1, "1,2": 2},
        {"": 0, "x": 1, "2": 1, "1,2": 2},
        {"": 0, "1": 1, "01": 5, "2": 1, "1,2": 6},
    ])
    @pytest.mark.parametrize("canonicalize", [False, True])
    def test_non_canonical_subset_keys_rejected(self, table, canonicalize):
        """Keys that once reached a subset through int() ("01", " 1", "+1")
        no longer decode, and a fifth entry for four subsets is no longer
        silently folded into one of them."""
        doc = self._doc(bidders=[{"type": "explicit", "table": table}])
        with pytest.raises(SchemaError, match=r"bidders\[0\]\.table"):
            decode_instance(doc, canonicalize_rationals=canonicalize)

    @pytest.mark.parametrize("m, error, message", [
        (40, GroundSetTooLargeError, "limited to 20 items, got m=40"),
        (21, GroundSetTooLargeError, "limited to 20 items, got m=21"),
        (20, SchemaError, "expected 1048576 subsets, got 0"),
    ])
    def test_explicit_size_refused_before_any_entry(self, monkeypatch, m,
                                                    error, message):
        def refuse(_):
            raise AssertionError("the subset-key index was built")

        monkeypatch.setattr(auctionkit.instances, "_subset_keys", refuse)
        doc = self._doc(m=m, bidders=[{"type": "explicit", "table": {}}])
        with pytest.raises(error, match=r"bidders\[0\]\.table: .*" + message):
            decode_instance(doc)

    @pytest.mark.parametrize("value, message", [
        ("-1/2", "nonnegative"),
        ("2/4", "lowest terms"),
        (True, "boolean"),
        (1.0, "got float"),
        ([1], "got list"),
        (-1, "nonnegative"),
    ])
    def test_explicit_values_refused_with_their_path(self, value, message):
        """Each bad value is refused at its own key, also one that equals
        the value 1 read just before it."""
        doc = self._doc(bidders=[{"type": "explicit",
                                  "table": {"": 0, "1": 1, "2": value,
                                            "1,2": 2}}])
        with pytest.raises(SchemaError,
                           match=r"bidders\[0\]\.table\['2'\]: .*" + message):
            decode_instance(doc)

    @pytest.mark.parametrize("value, message", [
        (-1, "values must be nonnegative"),
        (-(2 ** 70), "values must be nonnegative"),
        ("-1/2", "values must be nonnegative"),
        ("2/4", "'2/4' is not in lowest terms (canonical form is '1/2')"),
        ("x", "'x' is not an integer or num/den rational"),
        (True, "expected a rational, got a boolean"),
        (1.0, "expected a rational, got float"),
        (None, "expected a rational, got NoneType"),
        ("\u0661", "'\u0661' is not an integer or num/den rational"),
        ("\u0663/2", "'\u0663/2' is not an integer or num/den rational"),
        ("1\n", "'1\\n' is not an integer or num/den rational"),
        ("1/2\n", "'1/2\\n' is not an integer or num/den rational"),
    ])
    def test_explicit_refusal_messages_exact(self, value, message):
        doc = self._doc(bidders=[{"type": "explicit",
                                  "table": {"": 0, "1": 1, "2": value,
                                            "1,2": 2}}])
        with pytest.raises(SchemaError) as info:
            decode_instance(doc)
        assert str(info.value) == "bidders[0].table['2']: " + message

    @pytest.mark.parametrize("canonicalize", [False, True])
    @pytest.mark.parametrize("value", ["\u0661", "\u0663/2", "1\n", "1/2\n",
                                       "\u0663\n"])
    def test_only_ascii_digits_without_a_line_break(self, value,
                                                     canonicalize):
        """Other scripts' digits and a trailing newline are refused in both
        modes, in a document and by the parser alone."""
        doc = self._doc(bidders=[{"type": "additive", "values": [1, value]}])
        with pytest.raises(SchemaError, match="not an integer or num/den"):
            decode_instance(doc, canonicalize_rationals=canonicalize)
        with pytest.raises(SchemaError, match="not an integer or num/den"):
            parse_rational(value, canonicalize=canonicalize)

    def test_m_is_not_a_boolean(self):
        with pytest.raises(SchemaError) as info:
            decode_instance(self._doc(m=True, bidders=[]))
        assert str(info.value) == "m: expected a positive integer"

    @pytest.mark.parametrize("key", ["s", "k"])
    def test_peak_counts_are_not_booleans(self, key):
        bidder = {"type": "multi_peak", "s": 1, "k": 1, "epsilon": "1/2",
                  "peaks": [[1]]}
        decode_instance(self._doc(m=1, bidders=[bidder]))
        bidder[key] = True
        with pytest.raises(SchemaError) as info:
            decode_instance(self._doc(m=1, bidders=[bidder]))
        assert str(info.value) == \
            f"bidders[0].{key}: positive int required"

    def test_explicit_integers_past_int64_decode_exactly(self):
        big = 2 ** 63 + 1
        doc = self._doc(bidders=[{"type": "explicit",
                                  "table": {"": 0, "1": big, "2": 2 ** 64,
                                            "1,2": 3 * 2 ** 64 + 7}}])
        table = decode_instance(doc).bidders[0].table
        assert table == (F(0), F(big), F(2 ** 64), F(3 * 2 ** 64 + 7))
        assert all(type(x) is F for x in table)

    def test_explicit_value_reduced_only_when_asked(self):
        doc = self._doc(bidders=[{"type": "explicit",
                                  "table": {"": 0, "1": "2/4", "2": 1,
                                            "1,2": "6/4"}}])
        inst = decode_instance(doc, canonicalize_rationals=True)
        assert inst.bidders[0].table == (F(0), F(1, 2), F(1), F(3, 2))

    def test_unknown_type(self):
        doc = self._doc(bidders=[{"type": "mystery", "values": [1, 2]}])
        with pytest.raises(SchemaError, match="unknown valuation type"):
            decode_instance(doc)

    def test_wrong_value_count_path_qualified(self):
        doc = self._doc(bidders=[{"type": "additive", "values": [1]}])
        with pytest.raises(SchemaError, match=r"bidders\[0\].values"):
            decode_instance(doc)

    def test_negative_value_rejected(self):
        doc = self._doc(bidders=[{"type": "additive", "values": [1, "-1/2"]}])
        with pytest.raises(SchemaError, match="nonnegative"):
            decode_instance(doc)

    @pytest.mark.parametrize("m", [1, 4611686018427387904])
    def test_a_document_needs_a_bidder(self, m):
        """Nothing in a document without bidders grows with m, so nothing
        would bound it."""
        with pytest.raises(SchemaError,
                           match="bidders: expected at least one bidder"):
            decode_instance(json.dumps({"m": m, "bidders": []}))

    def test_unexpected_top_level_key(self):
        with pytest.raises(SchemaError, match="unexpected keys"):
            decode_instance(json.dumps({"m": 1, "bidders": [], "extra": 1}))

    def test_not_json(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            decode_instance(b"pile of bytes")

    def test_prices_validation(self):
        with pytest.raises(SchemaError, match="expected 3 entries"):
            load_prices(json.dumps({"prices": [1, 2]}), 3)
        with pytest.raises(SchemaError, match="nonnegative"):
            load_prices(json.dumps({"prices": ["-1"]}), 1)


class TestIdenticalBidders:
    """A bidder document equal to an earlier one decodes to the earlier
    bidder's object; the others decode on their own, in document order."""

    MP = {"type": "multi_peak", "s": 4, "k": 2, "epsilon": "1/2",
          "peaks": [[1, 2, 3, 4], [5, 6, 7, 8]]}
    ADD = {"type": "additive", "values": [1, "1/2", 0, 0, 0, 0, 0, 0]}

    def test_identical_documents_share_one_object(self):
        inst = decode_instance(json.dumps({"m": 8, "bidders": [
            self.MP, self.ADD, dict(reversed(list(self.MP.items()))),
            {**self.ADD, "values": [1, "1/2", 0, 0, 0, 0, 0, 1]}]}))
        first, other, again, last = inst.bidders
        assert again is first
        assert other is not first and last is not other
        assert last.values[-1] == 1
        assert encode_instance(inst) == encode_instance(Instance(
            8, (first, other, first, last), {}))

    @pytest.mark.parametrize("spelling", [True, 1.0])
    def test_values_equal_only_in_python_stay_apart(self, spelling):
        """true == 1 == 1.0 in Python, but a schema count refuses the other
        two, and it still does after an integer spelling decoded."""
        one_peak = {**self.MP, "k": 1, "peaks": [[1, 2, 3, 4]]}
        doc = {"m": 8, "bidders": [one_peak, {**one_peak, "k": spelling}]}
        with pytest.raises(SchemaError, match=r"bidders\[1\]\.k"):
            decode_instance(json.dumps(doc))


class TestCanonicalSpellings:
    """Strict decoding accepts a rational only as encoding spells it (an
    integer may also be written as a string), so a document that decodes
    strictly re-encodes to the same values."""

    @pytest.mark.parametrize("raw, canonical", [
        ("007", 7), ("-0", 0), ("3/1", 3), ("00/1", 0), ("-0/1", 0),
        ("06/4", "3/2"), ("0010/4", "5/2"), ("01/2", "1/2"),
    ])
    def test_refused_strictly_reduced_when_asked(self, raw, canonical):
        with pytest.raises(SchemaError) as info:
            parse_rational(raw)
        assert str(info.value) == (f"rational: {raw!r} is not in lowest terms "
                                   f"(canonical form is {canonical!r})")
        assert format_rational(parse_rational(raw, canonicalize=True)) == \
            canonical
        table = {"": 0, "1": raw, "2": 0, "1,2": 10}
        for bidder, where in (
                ({"type": "additive", "values": [raw, 1]}, "values[0]"),
                ({"type": "explicit", "table": table}, "table['1']")):
            doc = json.dumps({"m": 2, "bidders": [bidder]})
            with pytest.raises(SchemaError) as info:
                decode_instance(doc)
            assert str(info.value) == (
                f"bidders[0].{where}: {raw!r} is not in lowest terms "
                f"(canonical form is {canonical!r})")
            again = json.loads(encode_instance(
                decode_instance(doc, canonicalize_rationals=True)))
            assert str(canonical) in json.dumps(again["bidders"][0])
        with pytest.raises(SchemaError, match="not in lowest terms"):
            load_prices(json.dumps({"prices": [raw]}))
        assert load_prices(json.dumps({"prices": [raw]}),
                           canonicalize_rationals=True) == \
            PriceVector((parse_rational(raw, canonicalize=True),))

    SPELLINGS = st.one_of(
        st.integers(0, 60),
        st.builds(lambda zeros, n: "0" * zeros + str(n),
                  st.integers(0, 2), st.integers(0, 60)),
        st.builds(lambda zeros, n, d: "0" * zeros + f"{n}/{d}",
                  st.integers(0, 2), st.integers(0, 60), st.integers(1, 12)),
        st.sampled_from(["-0", "-0/1", "-0/3", "0/1"]))

    @given(st.lists(SPELLINGS, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_strict_documents_re_encode_unchanged(self, raws):
        m = len(raws)
        doc = json.dumps({"m": m, "metadata": {}, "bidders": [
            {"type": "additive", "values": raws},
            {"type": "explicit", "table": dict(zip(
                auctionkit.instances._subset_keys(m),
                # The spellings on the singletons, a larger value above.
                [0] + [raws[mask.bit_length() - 1] if mask & (mask - 1) == 0
                       else 100 for mask in range(1, 1 << m)]))}]})
        canonical = [format_rational(parse_rational(raw, canonicalize=True))
                     for raw in raws]
        if [str(x) for x in canonical] != [str(raw) for raw in raws]:
            with pytest.raises(SchemaError, match="not in lowest terms"):
                decode_instance(doc)
            doc = encode_instance(decode_instance(doc,
                                                  canonicalize_rationals=True))
        again = json.loads(encode_instance(decode_instance(doc)))
        table = again["bidders"][1]["table"]
        for written in (again["bidders"][0]["values"],
                        [table[str(j)] for j in range(1, m + 1)]):
            assert [str(x) for x in written] == [str(x) for x in canonical]
        assert encode_instance(decode_instance(encode_instance(
            decode_instance(doc)))) == encode_instance(decode_instance(doc))


def _explicit_doc(table) -> str:
    m = (len(table) - 1).bit_length()
    return json.dumps({"m": m, "bidders": [{"type": "explicit", "table": dict(
        zip(auctionkit.instances._subset_keys(m), map(format_rational, table)))}]})


class TestDecodedTables:
    """A decoded explicit document and the same table built from Fractions
    are one valuation, though the decoder hands the value table integers
    and never builds the Fractions."""

    TABLES = {
        "integer": (F(0), F(3), F(4), F(5)),
        "fractional": (F(0), F(1, 2), F(2, 3), F(7, 6), F(1, 4), F(3, 4),
                       F(5, 6), F(11, 6)),
        "past-int64": (F(0), F(2 ** 63 + 1, 2), F(2 ** 64),
                       F(3 * 2 ** 64 + 7)),
    }

    @pytest.mark.parametrize("table", TABLES.values(), ids=list(TABLES))
    def test_decoded_equals_built(self, monkeypatch, table):
        scaled = []
        scale = auctionkit.valuations.scale
        monkeypatch.setattr(auctionkit.valuations, "scale",
                            lambda *args: scaled.append(args) or scale(*args))
        decoded = decode_instance(_explicit_doc(table)).bidders[0]
        assert scaled == []
        m = decoded.num_items
        built = Explicit(m, table)
        for mask in range(1 << m):
            bundle = ItemSet.from_mask(mask)
            assert decoded.value(bundle) == built.value(bundle) == table[mask]
        # Only the table built from Fractions was converted, once.
        assert len(scaled) == 1
        # value reads the integers; the Fractions are built on request.
        assert "table" not in vars(decoded)
        mine, theirs = value_table(decoded), value_table(built)
        assert mine.nums.dtype == theirs.nums.dtype == \
            (object if table is self.TABLES["past-int64"] else np.int64)
        assert (mine.nums.tolist(), mine.denom, mine.max_abs) == \
            (theirs.nums.tolist(), theirs.denom, theirs.max_abs)
        assert decoded.table == built.table == table
        assert all(type(x) is F for x in decoded.table)
        assert decoded == built and hash(decoded) == hash(built)
        assert repr(decoded) == repr(built)
        assert encode_instance(Instance(m, (decoded,))) == \
            encode_instance(Instance(m, (built,)))

    @pytest.mark.parametrize("table, where, message", [
        ((1, 2), "bidders[0]", "the empty set must have value 0"),
        ((0, -1), "bidders[0].table['1']", "values must be nonnegative"),
    ])
    def test_refusals_unchanged(self, table, where, message):
        with pytest.raises(SchemaError) as info:
            decode_instance(json.dumps({"m": 1, "bidders": [
                {"type": "explicit", "table": {"": table[0], "1": table[1]}}]}))
        assert str(info.value) == f"{where}: {message}"

    @pytest.mark.parametrize("m, table, error, message", [
        (1, (1, 2), ValueError, "the empty set must have value 0"),
        (1, (0, -1), ValueError, "table values must be nonnegative"),
        (2, (0, 1), ValueError, "table must have 4 entries, got 2"),
        (21, (), GroundSetTooLargeError,
         "an explicit table is limited to 20 items, got 21"),
        # A table with two faults: both constructors report the first of
        # one order of checks (size, length, sign, empty set).
        (21, (0, -1), GroundSetTooLargeError,
         "an explicit table is limited to 20 items, got 21"),
        (2, (1, -1), ValueError, "table must have 4 entries, got 2"),
        (1, (1, -1), ValueError, "table values must be nonnegative"),
    ])
    def test_both_constructors_refuse_alike(self, m, table, error, message):
        with pytest.raises(error) as built:
            Explicit(m, tuple(F(x) for x in table))
        with pytest.raises(error) as scaled:
            Explicit.from_scaled(m, list(table), 1)
        assert str(built.value) == str(scaled.value) == message

    @pytest.mark.parametrize("denom", [-1, 0])
    def test_from_scaled_refuses_a_denominator_below_one(self, denom):
        """A negative denominator would turn nonnegative integers into
        negative values that check_monotone, reading the integers, passes;
        a zero one would fail only on the first read of a value."""
        with pytest.raises(ValueError) as info:
            Explicit.from_scaled(1, [0, 1], denom)
        assert str(info.value) == \
            f"the denominator must be at least 1, got {denom}"


class TestDocumentReader:
    """One reader for every document: a repeated key, bytes that are not
    UTF-8 and nesting too deep for the parser are all SchemaErrors."""

    @pytest.mark.parametrize("read, doc, key", [
        (decode_instance, '{"m": 1, "bidders": [{"type": "explicit", '
                          '"table": {"": 0, "1": 1, "1": 5}}]}', "'1'"),
        (decode_instance, '{"m": 1, "m": 2, "bidders": []}', "'m'"),
        (load_prices, '{"prices": [1], "prices": [2]}', "'prices'"),
    ], ids=["table-subset", "instance-m", "prices"])
    def test_repeated_key_is_refused(self, read, doc, key):
        with pytest.raises(SchemaError, match=f"repeated key {key}"):
            read(doc)

    @pytest.mark.parametrize("read", [decode_instance, load_prices])
    def test_invalid_utf8_is_refused(self, read):
        with pytest.raises(SchemaError, match="utf-8"):
            read(b"\xff")

    @pytest.mark.parametrize("read", [decode_instance, load_prices])
    def test_deep_nesting_is_refused(self, read):
        with pytest.raises(SchemaError, match="nested too deeply"):
            read("[" * 200000)

    def test_overlong_integer_is_refused(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            decode_instance('{"m": 1' + "0" * 5000 + ', "bidders": []}')

    @pytest.mark.parametrize("read, doc", [
        (load_prices, '{"prices": [%s]}'),
        (decode_instance, '{"m": %s, "bidders": []}'),
        (decode_instance, '{"m": 1, "bidders": [{"type": "additive", '
                          '"values": [%s]}]}'),
        (decode_instance, '{"m": 1, "bidders": [{"type": "explicit", '
                          '"table": {"": 0, "1": %s}}]}'),
    ], ids=["price", "instance-m", "additive-value", "explicit-entry"])
    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_overlong_bare_integer_is_refused_in_the_parser_words(
            self, read, doc, sign):
        """json's own message for an integer past int()'s conversion limit
        names a Python call; the reader refuses it as parse_rational
        refuses the same digits in a string."""
        with pytest.raises(SchemaError) as info:
            read(doc % (sign + "1" * 5000))
        assert str(info.value) == (
            "document is not valid JSON: a number of 5000 digits exceeds "
            f"the limit of {sys.get_int_max_str_digits()} digits")
        assert "set_int_max_str_digits" not in str(info.value)

    def test_a_long_integer_within_the_limit_still_reads(self):
        digits = "9" * sys.get_int_max_str_digits()
        assert load_prices('{"prices": [%s]}' % digits).prices == \
            (F(int(digits)),)

    @pytest.mark.parametrize("read, where", [
        (lambda raw: load_prices(json.dumps({"prices": [raw]})), "prices[0]"),
        (lambda raw: decode_instance(json.dumps(
            {"m": 1, "bidders": [{"type": "additive", "values": [raw]}]})),
         "bidders[0].values[0]"),
        (lambda raw: decode_instance(json.dumps(
            {"m": 1, "bidders": [{"type": "explicit",
                                  "table": {"": 0, "1": raw}}]})),
         "bidders[0].table['1']"),
    ], ids=["price", "additive-value", "explicit-entry"])
    @pytest.mark.parametrize("raw", ["1" * 5000, "1/" + "1" * 5000],
                             ids=["numerator", "denominator"])
    def test_overlong_digit_strings_are_refused_at_their_path(self, read,
                                                              where, raw):
        """Digits past int()'s conversion limit are a SchemaError that names
        the entry and the digit count, not the digits."""
        with pytest.raises(SchemaError) as info:
            read(raw)
        assert str(info.value) == (
            f"{where}: a number of 5000 digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits")

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity",
                                        "1e400", "-1e400"])
    def test_numbers_outside_json_are_refused(self, number):
        """json reads these as floats, and dumps would write them back as
        text that is not JSON."""
        doc = '{"m": 1, "bidders": [], "metadata": {"x": %s}}' % number
        with pytest.raises(SchemaError, match="not valid JSON"):
            decode_instance(doc)
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_prices('{"prices": [%s]}' % number)

    def test_finite_floats_still_read(self):
        doc = ('{"m": 1, "bidders": [{"type": "additive", "values": [1]}], '
               '"metadata": {"x": 1.5, "y": -0.0}}')
        assert decode_instance(doc).metadata == {"x": 1.5, "y": -0.0}

    def test_prices_use_the_value_list_messages(self):
        with pytest.raises(SchemaError, match=r"prices\[1\]: values must be"):
            load_prices(json.dumps({"prices": [1, "-1"]}))
        with pytest.raises(SchemaError, match="prices: expected a list"):
            load_prices(json.dumps({"prices": 5}))
        with pytest.raises(SchemaError, match="prices: expected 1 entries"):
            load_prices(json.dumps({"prices": [1, 2]}), 1)

    def test_prices_of_any_length_without_num_items(self):
        assert load_prices('{"prices": ["1/2", 0, 3]}') == \
            PriceVector((F(1, 2), F(0), F(3)))


class TestOneCodec:
    def test_only_instances_imports_json(self):
        package = Path(auctionkit.instances.__file__).parent
        importers = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = ([a.name for a in node.names]
                         if isinstance(node, ast.Import) else
                         [node.module] if isinstance(node, ast.ImportFrom)
                         else [])
                if any(n and n.split(".")[0] == "json" for n in names):
                    importers.append(path.name)
        assert sorted(set(importers)) == ["instances.py"]

    def test_payloads_live_in_instances(self):
        import auctionkit
        import auctionkit.auctions

        for name in ("demand_payload", "trace_payload", "serialize_trace",
                     "_action_payload"):
            assert not hasattr(auctionkit.auctions, name)
            assert hasattr(auctionkit.instances, name)
        assert auctionkit.serialize_trace is auctionkit.instances.serialize_trace


def _json_dumps(doc) -> str:
    """The reference route for dumps: json's own encoder."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _outcome(write, doc):
    """What write makes of doc: its text, or the type and text of its error."""
    try:
        return write(doc)
    except (TypeError, RecursionError) as exc:
        return type(exc), str(exc)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 20


class _Ratio(float):
    pass


class _Name(str):
    pass


class _Mapping(dict):
    pass


class _Items(list):
    pass


_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", "\x00\x1f\x7f", "\n\t\"\\/", "\u00e9\u0661", "\U0001f600", "\ud800"])
# The reader's data model: what _load_document returns.
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-(2 ** 80), 2 ** 80),
    st.sampled_from([2 ** 63, -(2 ** 63) - 1, 2 ** 64, -(2 ** 64)]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
    _TEXT)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda members: st.lists(members) | st.dictionaries(_TEXT, members),
    max_leaves=40)


class TestWriter:
    """dumps writes exactly the reader's data model, as
    json.dumps(sort_keys=True, indent=2, allow_nan=False) writes it plus a
    final newline, and the text reads back equal.  Every other value is
    refused with json's exception type."""

    @given(_JSON_DOCS)
    @settings(max_examples=200, deadline=None)
    def test_matches_json_on_documents(self, doc):
        text = dumps(doc)
        assert text == _json_dumps(doc)
        assert _identical(_load_document(text), doc)

    @pytest.mark.parametrize("doc, refused", [
        ({2: "a", 10: "b"}, "keys must be str, not int"),
        ({1.5: 0, -0.0: 1, float("inf"): 2, float("-inf"): 3},
         "keys must be str, not float"),
        ({float("nan"): 0}, "keys must be str, not float"),
        ({True: 0, False: 1}, "keys must be str, not bool"),
        ({False: 0, 2: 1, 1.5: 2}, "keys must be str, not bool"),
        ({None: 0}, "keys must be str, not NoneType"),
        ({_Level.HIGH: 0, _Level.LOW: 1}, "keys must be str, not _Level"),
        ({_Name("b"): 0, "a": 1}, "keys must be str, not _Name"),
        ({(1, 2): 0}, "keys must be str, not tuple"),
        ({b"k": 0}, "keys must be str, not bytes"),
        ([_Level.LOW, _Level.HIGH, {"level": _Level.HIGH}],
         "Object of type _Level is not JSON serializable"),
        ([_Ratio(0.5), _Ratio("nan"), _Ratio("inf"), _Name("x\u00e9")],
         "Object of type _Ratio is not JSON serializable"),
        (_Mapping(b=[1], a=_Mapping()),
         "Object of type _Mapping is not JSON serializable"),
        (collections.OrderedDict([("z", 1), ("a", (2, 3))]),
         "Object of type OrderedDict is not JSON serializable"),
        (_Items([1, _Items(), ()]),
         "Object of type _Items is not JSON serializable"),
        (_Level.LOW, "Object of type _Level is not JSON serializable"),
        (_Ratio(-0.0), "Object of type _Ratio is not JSON serializable"),
        (_Name(""), "Object of type _Name is not JSON serializable"),
        ("", None), (0, None), (None, None), (True, None), ([], None), ({}, None),
        ((), "Object of type tuple is not JSON serializable"),
    ], ids=["int-keys", "float-keys", "nan-key", "bool-keys",
            "mixed-number-keys", "none-key", "intenum-keys", "str-subclass-key",
            "tuple-key", "bytes-key",
            "intenum-values", "float-and-str-subclasses", "dict-subclass",
            "ordered-dict", "list-subclass", "top-intenum", "top-float-subclass",
            "top-str-subclass", "top-str", "top-int", "top-none", "top-bool",
            "top-list", "top-dict", "top-tuple"])
    def test_keys_and_subclasses(self, doc, refused):
        """The reader returns str keys and values of exact types, and reads a
        tuple back as a list, so dumps refuses every other key and type; a
        value of the reader's data model is written as json writes it."""
        if refused is None:
            assert dumps(doc) == _json_dumps(doc)
        else:
            with pytest.raises(TypeError, match=f"^{re.escape(refused)}$"):
                dumps(doc)

    @pytest.mark.parametrize("doc", [
        [1, (2, 3)], {"a": ()}, {"a": {"b": [None, _Name("c")]}},
    ], ids=["tuple-member", "tuple-value", "deep-str-subclass"])
    def test_refused_at_any_depth(self, doc):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            dumps(doc)

    @pytest.mark.parametrize("doc", [
        float("nan"), float("inf"), float("-inf"),
        [1.5, {"x": float("nan")}], {"a": [float("-inf")]},
    ], ids=["nan", "inf", "minus-inf", "nan-member", "minus-inf-member"])
    def test_non_finite_floats_are_refused_as_json_refuses_them(self, doc):
        with pytest.raises(ValueError) as reference:
            _json_dumps(doc)
        with pytest.raises(ValueError) as written:
            dumps(doc)
        assert str(written.value) == str(reference.value)

    @pytest.mark.parametrize("doc", [
        set(), {"a": {1, 2}}, [b"x"], object(), {"a": [object()]},
        {1: 0, "a": 0}, {None: 0, "a": 0},
    ], ids=["set", "set-member", "bytes", "object", "object-member",
            "int-and-str-keys", "none-and-str-keys"])
    def test_refusals_match(self, doc):
        with pytest.raises(TypeError):
            dumps(doc)
        assert _outcome(dumps, doc) == _outcome(_json_dumps, doc)

    def test_a_document_that_contains_itself_is_refused(self):
        loop: list = [1]
        loop.append({"back": loop})
        with pytest.raises(RecursionError):
            dumps(loop)

    def test_writes_every_depth_json_writes(self):
        """Each nesting level costs dumps at most the stack json's encoder
        uses, so dumps writes the deepest list json can write here."""
        def nested(depth):
            doc: list = []
            for _ in range(depth):
                doc = [doc]
            return doc

        lo, hi = 1, 5_000
        while lo < hi:  # the deepest nesting json writes at this stack
            mid = (lo + hi + 1) // 2
            if isinstance(_outcome(_json_dumps, nested(mid)), str):
                lo = mid
            else:
                hi = mid - 1
        assert dumps(nested(lo)) == _json_dumps(nested(lo))
        assert _outcome(dumps, nested(20_000))[0] is RecursionError


class TestInstanceType:
    def test_bidder_ground_set_must_match(self):
        with pytest.raises(ValueError, match="bidder 0"):
            Instance(3, (UnitDemand((F(1),)),))

    def test_needs_an_item(self):
        with pytest.raises(ValueError, match="at least one item"):
            Instance(0, ())
