"""Generators, the instance document format, and load-time validation."""

import ast
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import auctionkit.instances
from auctionkit import (Additive, Explicit, Instance, ItemSet, PriceVector,
                        UnitDemand, check_submodular, decode_instance,
                        dump_prices, encode_instance, eval_valuation,
                        gen_additive, gen_budget_additive, gen_multipeak,
                        gen_unit_demand, load_prices, validate_set_system)
from auctionkit.errors import (GroundSetTooLargeError,
                               InfeasibleGenerationError, SchemaError)


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
        ]
        for inst in instances:
            blob = encode_instance(inst)
            decoded = decode_instance(blob)
            assert encode_instance(decoded) == blob
            assert decoded.num_items == inst.num_items

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


class TestInstanceType:
    def test_bidder_ground_set_must_match(self):
        with pytest.raises(ValueError, match="bidder 0"):
            Instance(3, (UnitDemand((F(1),)),))

    def test_needs_an_item(self):
        with pytest.raises(ValueError, match="at least one item"):
            Instance(0, ())
