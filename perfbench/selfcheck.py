#!/usr/bin/env python3
"""Determinism self-check: the traced run of every workload, made twice with
one seed, must repeat every counter and the results digest exactly.

    python3 perfbench/selfcheck.py --seed 3

Each traced run is its own fresh process.  Exit code 0 when everything
repeats and every task passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

COUNTERS = [name for name, unit, _ in PER_LAYER if unit == "count"]


def traced_run(workload: str, seed: int) -> tuple[int, str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    meta = json.loads(next(line[len("# meta "):] for line in lines
                           if line.startswith("# meta ")))
    metrics = json.loads(lines[-1])["metrics"]
    return (proc.returncode, meta["results_sha256"],
            {name: metrics[name]["value"] for name in COUNTERS})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOAD_NAMES:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        code, digest, counters = first
        differing = [name for name in COUNTERS if counters[name] != second[2][name]]
        if digest != second[1]:
            differing.append("results_sha256")
        print(f"{workload:<17} exit {code}/{second[0]}  sha256 {digest[:16]}  "
              f"{len(COUNTERS)} counters  "
              + ("repeat exactly" if not differing else "DIFFER: " + ", ".join(differing)))
        ok &= not differing and code == 0 and second[0] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
