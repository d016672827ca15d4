"""Golden CLI reports: every command's output, pinned byte for byte.

Each case runs `auctionkit.cli.main` in a scratch working directory on input
files with relative names, so the report's `command` entry is stable.  The
wall-clock `timing_ms` value, the one part of a report that varies between
runs, is replaced by `<elapsed>` before comparing.  The expected outputs live
in tests/golden/<case>.out; to rewrite them after an intended change to a
report, run `PYTHONPATH=src python tests/test_cli_golden.py` and review the
diff.
"""

import contextlib
import io
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from auctionkit.cli import main
from auctionkit.instances import _load_document, dumps
from auctionkit.rationals import format_rational

GOLDEN_DIR = Path(__file__).parent / "golden"

MP1 = {"type": "multi_peak", "s": 4, "k": 2, "epsilon": "1/2",
       "peaks": [[1, 2, 3, 4], [5, 6, 7, 8]]}


def _capped_table(weights, cap):
    """An explicit table of min(cap, sum of the bundle's weights): monotone
    and submodular, keyed canonically, with "num/den" entries where the
    value is not an integer."""
    keys = [""]
    for j in range(1, len(weights) + 1):
        keys += [f"{key},{j}" if key else str(j) for key in keys]
    weights = [Fraction(w) for w in weights]
    return {key: format_rational(min(Fraction(cap), sum(
                (w for i, w in enumerate(weights) if mask >> i & 1),
                Fraction(0))))
            for mask, key in enumerate(keys)}


INPUTS = {
    "mp1.json": {"m": 8, "bidders": [MP1, MP1], "metadata": {"name": "mp1-pair"}},
    "mixed.json": {"m": 2, "bidders": [
        {"type": "additive", "values": [1, "1/2"]},
        {"type": "budget_additive", "values": [3, 4], "budget": 5},
        {"type": "explicit", "table": {"": 0, "1": 1, "2": 1, "1,2": 3}},
        {"type": "unit_demand", "values": [2, "5/2"]}],
        "metadata": {"name": "mixed"}},
    "ud.json": {"m": 2, "bidders": [
        {"type": "unit_demand", "values": [3, 1]},
        {"type": "unit_demand", "values": [5, 4]},
        {"type": "unit_demand", "values": [2, 2]}],
        "metadata": {"name": "ud-3x2"}},
    "add.json": {"m": 3, "bidders": [
        {"type": "additive", "values": [3, 1, "5/2"]},
        {"type": "additive", "values": [2, 4, "3/2"]}],
        "metadata": {"name": "additive-2x3"}},
    "explicit.json": {"m": 4, "bidders": [
        {"type": "explicit", "table": _capped_table(["3/2", 2, "5/4", 1], "7/2")},
        {"type": "explicit", "table": _capped_table([2, "3/2", 1, "1/2"], 3)},
        {"type": "explicit", "table": _capped_table([1, "5/2", "3/2", "3/4"], 4)}],
        "metadata": {"name": "explicit-3x4"}},
    "p0.json": {"prices": [0] * 8},
    "p532.json": {"prices": ["5/32"] * 8},
    "p2.json": {"prices": [3, 2]},
}

CASES = {
    "validate_mp1": ["validate", "mp1.json"],
    "validate_mixed": ["validate", "mixed.json"],
    "validate_mixed_text": ["validate", "mixed.json", "--format", "text"],
    "demand_compare_match": ["demand", "mp1.json", "p0.json", "--method",
                             "fast", "--compare"],
    "demand_compare_mismatch": ["demand", "mp1.json", "p532.json", "--compare"],
    "demand_brute": ["demand", "mp1.json", "p532.json", "--bidder", "1"],
    "envyfree_mp1": ["envyfree", "mp1.json", "p0.json"],
    "envyfree_mp1_text": ["envyfree", "mp1.json", "p0.json", "--format", "text"],
    "envyfree_ud": ["envyfree", "ud.json", "p2.json", "--expect", "ef"],
    "envyfree_ud_text": ["envyfree", "ud.json", "p2.json", "--format", "text"],
    "envyfree_expect_fails": ["envyfree", "ud.json", "p2.json", "--expect",
                              "not-ef"],
    "minimal_ef": ["minimal-ef", "ud.json", "--bound", "6", "--step", "1"],
    "minimal_ef_text": ["minimal-ef", "ud.json", "--bound", "6", "--step",
                        "1/2", "--format", "text"],
    "auction_greedy": ["auction", "mp1.json", "--rule", "greedy",
                       "--increment", "1/4", "--max-steps", "12"],
    "auction_greedy_limit": ["auction", "mp1.json", "--rule", "greedy",
                             "--increment", "1/8", "--max-steps", "3"],
    "auction_greedy_explicit": ["auction", "explicit.json", "--rule", "greedy",
                                "--increment", "1/2"],
    "auction_dgs": ["auction", "ud.json", "--rule", "dgs", "--increment", "1"],
    "auction_dgs_text": ["auction", "ud.json", "--rule", "dgs", "--increment",
                         "1/2", "--format", "text"],
    "auction_english": ["auction", "add.json", "--rule", "english",
                        "--increment", "1/2"],
    "gen_multipeak_stdout": ["gen", "multipeak", "--m", "8", "--s", "4",
                             "--k", "2", "--eps", "1/2", "--n", "2",
                             "--seed", "42"],
    "gen_additive_stdout": ["gen", "additive", "--n", "2", "--m", "3",
                            "--values", "0", "9", "--seed", "11"],
    "gen_unit_demand_stdout": ["gen", "unit-demand", "--n", "3", "--m", "2",
                               "--seed", "5"],
    "gen_budget_additive_stdout": ["gen", "budget-additive", "--n", "2",
                                   "--m", "3", "--seed", "7"],
    "gen_out_report": ["gen", "unit-demand", "--n", "2", "--m", "2",
                       "--seed", "3", "--out", "gen.json"],
    "validate_out": ["validate", "ud.json", "--out", "report.json"],
}

_TIMING = re.compile(r'(timing_ms"?: )[-+0-9.eE]+')


def run_case(name: str, workdir: Path) -> str:
    """The normalised output of one case: exit code, stdout, and any file the
    command wrote, run with workdir as the working directory."""
    for filename, doc in INPUTS.items():
        (workdir / filename).write_text(json.dumps(doc))
    argv = CASES[name]
    here = os.getcwd()
    out = io.StringIO()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(here)
    stdout = out.getvalue()
    written = ((workdir / argv[argv.index("--out") + 1]).read_text()
               if "--out" in argv else "")
    if "--format" not in argv:
        # A JSON report or document reads back as written, before any
        # masking: dumps writes only what the reader returns.
        for text in (stdout, written):
            if text:
                assert dumps(_load_document(text)) == text
    text = f"exit: {code}\n--- stdout\n{stdout}"
    if "--out" in argv:
        text += f"--- {argv[argv.index('--out') + 1]}\n{written}"
    return _TIMING.sub(r"\g<1><elapsed>", text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.out").read_text()
    assert run_case(name, tmp_path) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.out")) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            (GOLDEN_DIR / f"{case}.out").write_text(run_case(case, Path(scratch)))
    sys.exit(0)
