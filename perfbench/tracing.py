"""Spans around auctionkit's public entry points, recorded from outside the
package.

The tracer rebinds each traced function under every name a package module
holds it by (for example auctions.demand_oracle, equilibrium.demand_sets,
cli.run_ascending), so calls between layers are seen as well as calls from
the benchmark.  Each span is (name, start_ns, end_ns, parent index, task
id), kept in memory and written out at the end.  A span's self time is its
duration minus the durations of its direct children.  Counters are taken
from results at the same boundaries.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from harness import value_table_cache

# <module>.<function> for every traced entry point.
TRACED = (
    "instances.gen_multipeak",
    "instances.decode_instance",
    "valuations.check_monotone",
    "valuations.check_submodular",
    "valuations.value_table",
    "demand.demand_oracle",
    "demand.brute_force_demand",
    "demand.demand_sets",
    "demand.multipeak_demand",
    "equilibrium.minimal_envy_free",
    "equilibrium.unit_demand_envy_free",
    "equilibrium.envy_free_allocation",
    "auctions.run_ascending",
    "cli.main",
)
# The rule object handed to run_ascending, wrapped on the way in.
RULE = "auctions.rule"
# Envy-free checks issued directly by the grid scan, one per grid point.
GRID_CHECKS = ("equilibrium.unit_demand_envy_free", "equilibrium.envy_free_allocation")


def _metric_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in TRACED + (RULE,):
        spec += [(f"{name}.calls", "count", "lower"),
                 (f"{name}.time_ms", "ms", "lower"),
                 (f"{name}.self_ms", "ms", "lower")]
    spec += [
        ("valuations.value_table.hits", "count", "higher"),
        ("valuations.value_table.misses", "count", "lower"),
        ("demand.brute_force_demand.p50_us", "us", "lower"),
        ("demand.multipeak_demand.p50_us", "us", "lower"),
        ("demand.demand_sets.sets_returned", "count", "lower"),
        ("equilibrium.minimal_envy_free.grid_points", "count", "lower"),
        ("equilibrium.minimal_envy_free.minimal_points", "count", "higher"),
        ("equilibrium.minimal_envy_free.minimal_per_grid_point", "ratio", "higher"),
        ("equilibrium.unit_demand_envy_free.witnesses", "count", "lower"),
        ("equilibrium.envy_free_allocation.nodes_explored", "count", "lower"),
        ("auctions.run_ascending.steps", "count", "lower"),
        ("auctions.run_ascending.self_us_per_step", "us", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.untraced_tasks_per_s", "1/s", "higher"),
        ("trace.traced_tasks_per_s", "1/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return spec


PER_LAYER = _metric_spec()


class Tracer:
    """Context manager: rebinds the traced functions on entry, restores them
    on exit, and keeps every span and counter of the calls in between."""

    def __init__(self, ak):
        self.ak = ak
        self.spans: list = []
        self.task_id = None
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list = []
        self._cache = None

    def __enter__(self) -> "Tracer":
        self._cache = value_table_cache(self.ak)
        modules = [self.ak.package] + [getattr(self.ak, name) for name in vars(self.ak)
                                       if name != "package"]
        for name in TRACED:
            home, function = name.split(".")
            original = getattr(getattr(self.ak, home), function, None)
            if original is None:
                continue
            wrapper = self._wrapper(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        before, after = self._cache, value_table_cache(self.ak)
        if before is not None and after is not None:
            self.counters["valuations.value_table.hits"] += after[0] - before[0]
            self.counters["valuations.value_table.misses"] += after[1] - before[1]

    def span(self, name: str, function, *args, **kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent, self.task_id)

    def _wrapper(self, name: str, function):
        count = self._counter(name)

        def traced(*args, **kwargs):
            if name == "auctions.run_ascending":
                if "rule" in kwargs:
                    kwargs["rule"] = self._traced_rule(kwargs["rule"])
                else:
                    args = (args[0], self._traced_rule(args[1])) + args[2:]
            result = self.span(name, function, *args, **kwargs)
            if count is not None:
                count(result)
            return result

        return traced

    def _traced_rule(self, rule):
        def traced_rule(*args):
            return self.span(RULE, rule, *args)
        return traced_rule

    def _counter(self, name: str):
        """Counts taken from a traced function's result, or None."""
        counters = self.counters
        witness = getattr(self.ak.equilibrium, "Witness", ())
        counts = {
            "demand.demand_sets": lambda r: ("demand.demand_sets.sets_returned", len(r)),
            "equilibrium.envy_free_allocation": lambda r: (
                "equilibrium.envy_free_allocation.nodes_explored", r.nodes_explored),
            "equilibrium.unit_demand_envy_free": lambda r: (
                "equilibrium.unit_demand_envy_free.witnesses", int(isinstance(r, witness))),
            "equilibrium.minimal_envy_free": lambda r: (
                "equilibrium.minimal_envy_free.minimal_points", len(r)),
            "auctions.run_ascending": lambda r: ("auctions.run_ascending.steps", len(r.steps)),
        }
        take = counts.get(name)
        if take is None:
            return None

        def count(result):
            key, amount = take(result)
            counters[key] += amount

        return count

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the trace.* overhead figures."""
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        durations: dict[str, list[int]] = defaultdict(list)
        grid_points = 0
        children = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
                if (name in GRID_CHECKS
                        and self.spans[parent][0] == "equilibrium.minimal_envy_free"):
                    grid_points += 1
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - children[index]
            durations[name].append(end - start)
        out: dict[str, float] = {}
        for name in TRACED + (RULE,):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.time_ms"] = total[name] / 1e6
            out[f"{name}.self_ms"] = own[name] / 1e6
        for name in ("demand.brute_force_demand", "demand.multipeak_demand"):
            times = durations.get(name)
            out[f"{name}.p50_us"] = statistics.median(times) / 1e3 if times else 0.0
        for key in ("valuations.value_table.hits", "valuations.value_table.misses",
                    "demand.demand_sets.sets_returned",
                    "equilibrium.minimal_envy_free.minimal_points",
                    "equilibrium.unit_demand_envy_free.witnesses",
                    "equilibrium.envy_free_allocation.nodes_explored",
                    "auctions.run_ascending.steps"):
            out[key] = self.counters[key]
        out["equilibrium.minimal_envy_free.grid_points"] = grid_points
        out["equilibrium.minimal_envy_free.minimal_per_grid_point"] = (
            out["equilibrium.minimal_envy_free.minimal_points"] / grid_points
            if grid_points else 0.0)
        steps = out["auctions.run_ascending.steps"]
        out["auctions.run_ascending.self_us_per_step"] = (
            own["auctions.run_ascending"] / 1e3 / steps if steps else 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, task in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent, "task": task}) + "\n")
