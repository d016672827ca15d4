"""Golden CLI reports: every command's output, pinned byte for byte.

Each case runs `auctionkit.cli.main` in a scratch working directory on input
files with relative names, so the report's `command` entry is stable.  The
wall-clock `timing_ms` value is replaced by `<elapsed>` before comparing, and
`bench` rows keep only their non-timing columns.  The expected outputs live
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
from pathlib import Path

import pytest

from auctionkit.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

MP1 = {"type": "multi_peak", "s": 4, "k": 2, "epsilon": "1/2",
       "peaks": [[1, 2, 3, 4], [5, 6, 7, 8]]}

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
    "auction_dgs": ["auction", "ud.json", "--rule", "dgs", "--increment", "1"],
    "auction_dgs_text": ["auction", "ud.json", "--rule", "dgs", "--increment",
                         "1/2", "--format", "text"],
    "auction_english": ["auction", "add.json", "--rule", "english",
                        "--increment", "1/2"],
    "gen_multipeak_stdout": ["gen", "multipeak", "--m", "8", "--s", "4",
                             "--k", "2", "--eps", "1/2", "--n", "2",
                             "--seed", "42"],
    "gen_budget_additive_stdout": ["gen", "budget-additive", "--n", "2",
                                   "--m", "3", "--seed", "7"],
    "gen_out_report": ["gen", "unit-demand", "--n", "2", "--m", "2",
                       "--seed", "3", "--out", "gen.json"],
    "validate_out": ["validate", "ud.json", "--out", "report.json"],
    "bench_json": ["bench", "--family", "multipeak", "--count", "1", "--m",
                   "6", "--s", "3", "--k", "2", "--eps", "2/3"],
    "bench_csv": ["bench", "--family", "additive", "--count", "1", "--m", "4",
                  "--format", "csv"],
}

_TIMING = re.compile(r'(timing_ms"?: )[-+0-9.eE]+')


def _bench_json(text: str) -> str:
    report = json.loads(text)
    for row in report["result"]["rows"]:
        del row["fast_us"], row["brute_us"]
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _bench_csv(text: str) -> str:
    keep = (0, 1, 2, 5)  # seed, m, price_level, match
    return "".join(",".join(line.split(",")[i] for i in keep) + "\n"
                   for line in text.splitlines())


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
    if argv[0] == "bench":
        stdout = _bench_json(stdout) if "csv" not in argv else _bench_csv(stdout)
    stdout = _TIMING.sub(r"\g<1><elapsed>", stdout)
    text = f"exit: {code}\n--- stdout\n{stdout}"
    if "--out" in argv:
        written = (workdir / argv[argv.index("--out") + 1]).read_text()
        text += f"--- {argv[argv.index('--out') + 1]}\n"
        text += _TIMING.sub(r"\g<1><elapsed>", written)
    return text


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
