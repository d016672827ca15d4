"""A small standing fuzzer: valid documents with one leaf mutated, run
through the CLI, must end in exit 0, 1 or 2, and what is accepted must
re-encode to a fixed point."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from auctionkit import (Explicit, Instance, decode_instance, dump_prices,
                        encode_instance, gen_additive, gen_budget_additive,
                        gen_multipeak, gen_unit_demand, load_prices)
from auctionkit.cli import main
from auctionkit.errors import AuctionkitError

_INSTANCES = {
    "additive": gen_additive(2, 3, (0, 3), seed=1),
    "unit_demand": gen_unit_demand(2, 3, (1, 5), seed=2),
    "budget_additive": gen_budget_additive(2, 4, (0, 3), (1, 5), seed=3),
    "multi_peak": gen_multipeak(4, 2, 2, F(1, 2), 2, seed=4),
    "explicit": Instance(3, (Explicit(3, (0, 1, 1, F(3, 2), 1, F(3, 2),
                                          F(3, 2), 2)),)),
}
DOCUMENTS = {family: json.loads(encode_instance(instance))
             for family, instance in _INSTANCES.items()}

MUTATIONS = [-1, 0, 2, 21, "-1/2", "2/4", "x", True, False, 1.5, None, [],
             [1], {}, "1" * 5000]

COMMANDS = [
    ["validate", "{instance}"],
    ["demand", "{instance}", "{prices}"],
    ["envyfree", "{instance}", "{prices}"],
    ["minimal-ef", "{instance}", "--bound", "6"],
    ["auction", "{instance}", "--rule", "greedy", "--max-steps", "20"],
]


def _leaves(node, path=()):
    """The path of every leaf of a JSON document: each value that is not a
    nonempty object or list."""
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    children = list(children)
    if not children:
        return [path]
    return [leaf for key, child in children
            for leaf in _leaves(child, path + (key,))]


def _mutate(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _accepted(read, text):
    """What read makes of text, or None when it refuses the document."""
    try:
        return read(text)
    except AuctionkitError:
        return None


@given(family=st.sampled_from(sorted(DOCUMENTS)), in_prices=st.booleans(),
       value=st.sampled_from(MUTATIONS), data=st.data())
@settings(max_examples=100, deadline=None)
def test_mutated_documents_exit_0_1_or_2(family, in_prices, value, data):
    instance_doc = DOCUMENTS[family]
    prices_doc = {"prices": ["1/2"] * instance_doc["m"]}
    if in_prices:
        path = data.draw(st.sampled_from(_leaves(prices_doc)))
        prices_doc = _mutate(prices_doc, path, value)
    else:
        path = data.draw(st.sampled_from(_leaves(instance_doc)))
        instance_doc = _mutate(instance_doc, path, value)
    instance_text, prices_text = json.dumps(instance_doc), json.dumps(prices_doc)

    with tempfile.TemporaryDirectory() as tmp:
        files = {"instance": Path(tmp, "instance.json"),
                 "prices": Path(tmp, "prices.json")}
        files["instance"].write_text(instance_text)
        files["prices"].write_text(prices_text)
        for command in COMMANDS:
            argv = [arg.format(**files) for arg in command]
            assert _run(argv) in (0, 1, 2), argv

    instance = _accepted(decode_instance, instance_text)
    if instance is not None:
        blob = encode_instance(instance)
        assert encode_instance(decode_instance(blob)) == blob
    prices = _accepted(load_prices, prices_text)
    if prices is not None:
        blob = dump_prices(prices)
        assert dump_prices(load_prices(blob)) == blob
