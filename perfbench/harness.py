"""Measurement loop shared by every workload.

A workload hands out one pass: a fixed list of tasks built from the seed.
A run repeats the pass until its time is up, each pass from a cold
value_table cache.  Every execution is timed under a HostMeter
(hostspeed.py), which scales it to the host's full speed, and a task's time
is the median of its normalised executions (see NOTES.md, "Host noise").

Tasks run in a closed loop: the next one starts when the last returns.  A
task that raises is recorded as failed and the loop goes on.  Outputs of
the first pass are checked after the timed passes, outside the timed
region, by each task's own verify function.  A task counts as failed once,
whether it raised in any pass or failed its check, so error_rate is failed
tasks over the tasks of one pass.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

from hostspeed import HostMeter, normalise

# Every pass holds at least this many tasks, so that task_p90_ms has at
# least ten samples beyond it.
MIN_TASKS = 100
# A task's time is the median over at least this many passes.
MIN_PASSES = 2

PACKAGE_MODULES = ("valuations", "demand", "equilibrium", "auctions",
                   "instances", "cli", "rationals", "itemsets")


class CheckFailed(Exception):
    """A task returned, but its output failed the workload's correctness check."""


@dataclass
class Task:
    label: str
    run: Callable[[], Any]
    # Returns a JSON-plain summary of the output for the results digest, or
    # raises CheckFailed.
    verify: Callable[[Any], Any]


@dataclass
class Outcome:
    task: Task
    seconds: float
    output: Any = None
    error: Optional[str] = None
    began: float = 0.0
    ended: float = 0.0


@dataclass
class Measurement:
    times: list[float]       # each task's median normalised execution, in pass order
    raw: list[float]         # each task's median execution as timed
    first: list[Outcome]     # the first pass, for checking
    passes: int
    errors: dict[str, str]   # label -> first exception raised in a later pass
    probes: int              # host-speed probes made during the passes


def load_package(root: Path) -> SimpleNamespace:
    """Import auctionkit from the checkout's src/ and return its modules.

    Workloads call every entry point through these module objects, so a
    tracer that rebinds a module attribute sees the call.
    """
    home = (root / "src" / "auctionkit").resolve()
    if not (home / "__init__.py").is_file():
        raise ImportError(f"no auctionkit package at {home}")
    if str(home.parent) not in sys.path:
        sys.path.insert(0, str(home.parent))
    package = importlib.import_module("auctionkit")
    if Path(package.__file__).resolve().parent != home:
        raise ImportError(f"auctionkit was imported from {package.__file__}, not {home}")
    modules = {name: importlib.import_module(f"auctionkit.{name}")
               for name in PACKAGE_MODULES}
    return SimpleNamespace(package=package, **modules)


def value_table_cache(ak) -> Optional[tuple[int, int]]:
    """(hits, misses) of value_table's memo, or None once it has no cache."""
    info = getattr(ak.valuations.value_table, "cache_info", None)
    if info is None:
        return None
    stats = info()
    return stats.hits, stats.misses


def clear_value_table_cache(ak) -> bool:
    clear = getattr(ak.valuations.value_table, "cache_clear", None)
    if clear is not None:
        clear()
    return clear is not None


def run_task(task: Task, tracer=None, meter=None) -> Outcome:
    """Run and time one task; an exception is recorded, not raised.  With a
    HostMeter the time excludes the probes that ran inside it."""
    if tracer is not None:
        tracer.task_id = task.label
    if meter is not None:
        meter.start()
    outcome = Outcome(task, 0.0)
    outcome.began = time.perf_counter()
    try:
        outcome.output = task.run()
    except Exception as exc:  # counted in error_rate; the run goes on
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.ended = time.perf_counter()
    outcome.seconds = outcome.ended - outcome.began
    if meter is not None:
        outcome.seconds -= meter.stop(outcome.began, outcome.ended)
    return outcome


def run_tasks(tasks: list[Task], tracer=None) -> list[Outcome]:
    return [run_task(task, tracer) for task in tasks]


class Checker:
    """Checks outcomes and keeps only the failures and a sha256 over every
    result; an output is dropped once checked."""

    def __init__(self):
        self.failures: dict[str, str] = {}  # label -> why it failed
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def check(self, outcome: Outcome) -> None:
        if outcome.error is None:
            try:
                summary = outcome.task.verify(outcome.output)
            except CheckFailed as exc:
                outcome.error = f"check failed: {exc}"
            except Exception as exc:  # a broken output can break its check too
                outcome.error = f"check raised {type(exc).__name__}: {exc}"
            else:
                self._digest.update(json.dumps([outcome.task.label, summary],
                                               sort_keys=True).encode() + b"\n")
        if outcome.error is not None:
            self._digest.update(json.dumps([outcome.task.label, "failed"]).encode() + b"\n")
            self.failures[outcome.task.label] = outcome.error
        outcome.output = None

    def check_all(self, outcomes: list[Outcome]) -> "Checker":
        for outcome in outcomes:
            self.check(outcome)
        return self


def measure(tasks: list[Task], seconds: float, before_pass: Callable[[], Any]) -> Measurement:
    """Repeat the pass until `seconds` of busy time would be exceeded by the
    next one, and at least MIN_PASSES passes have run."""
    executions: list[list[Outcome]] = [[] for _ in tasks]
    first: list[Outcome] = []
    errors: dict[str, str] = {}
    busy = 0.0
    passes = 0
    with HostMeter() as meter:
        while True:
            before_pass()
            for index, task in enumerate(tasks):
                outcome = run_task(task, meter=meter)
                executions[index].append(outcome)
                busy += outcome.seconds
                if passes == 0:
                    first.append(outcome)
                else:
                    outcome.output = None  # only the first pass is checked
                    if outcome.error is not None:
                        errors.setdefault(task.label, f"{outcome.error} (pass {passes + 1})")
            passes += 1
            if passes >= MIN_PASSES and busy + busy / passes > seconds:
                break
    times = [statistics.median(normalise(o.seconds, meter.speed(o.began, o.ended))
                               for o in runs) for runs in executions]
    raw = [statistics.median(o.seconds for o in runs) for runs in executions]
    return Measurement(times, raw, first, passes, errors, len(meter.durations))


def percentile_ms(seconds: list[float], pct: int) -> float:
    """The pct-th percentile (a multiple of 10) of task times, in ms."""
    deciles = statistics.quantiles(seconds, n=10)
    return deciles[pct // 10 - 1] * 1e3
