"""Command-line surface: gen, validate, demand, envyfree, minimal-ef,
auction, bench.

Every command prints a run report whose payload is deterministic for
deterministic inputs; wall-clock timing lives in a separate key so reports
can be compared ignoring it.  Exit codes: 0 success, 1 domain failure
(a mismatching --compare, a failed --expect, a broken rule), 2 usage or
schema errors, 3 internal error (such as the two submodularity checkers
disagreeing, or an arithmetic error such as an overflow), which signals a
bug in auctionkit, never a property of the input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
import time
from fractions import Fraction

from . import __version__
from .auctions import (dgs_rule, english_additive_rule, greedy_submodular_rule,
                       run_ascending)
from .demand import PriceVector, brute_force_demand, fast_oracle
from .equilibrium import (DEFAULT_DEMAND_CAP, envy_free_allocation,
                          minimal_envy_free)
from .errors import AuctionkitError, RuleViolationError, SchemaError
from .instances import (allocation_payload, decode_instance, demand_payload,
                        dumps, encode_instance, gen_additive,
                        gen_budget_additive, gen_multipeak, gen_unit_demand,
                        load_prices, prices_payload, trace_payload)
from .rationals import format_rational, parse_rational
from .valuations import check_monotone, check_submodular


def _parse_fraction_arg(text: str) -> Fraction:
    try:
        return parse_rational(text, canonicalize=True, where="argument")
    except SchemaError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _load_instance(path: str):
    return decode_instance(_read(path))


def _cmd_gen(args) -> tuple[dict, int, bytes | None]:
    if args.family == "multipeak":
        instance = gen_multipeak(args.m, args.s, args.k, args.eps, args.n,
                                 args.seed, share_system=not args.vary_systems)
    elif args.family == "additive":
        instance = gen_additive(args.n, args.m, tuple(args.values), args.seed)
    elif args.family == "unit-demand":
        instance = gen_unit_demand(args.n, args.m, tuple(args.values), args.seed)
    else:
        instance = gen_budget_additive(args.n, args.m, tuple(args.values),
                                       tuple(args.budgets), args.seed)
    blob = encode_instance(instance)
    payload = {"metadata": instance.metadata, "bytes": len(blob)}
    return payload, 0, blob


def _cmd_validate(args) -> tuple[dict, int, None]:
    instance = _load_instance(args.instance)
    reports = []
    for i, v in enumerate(instance.bidders):
        mono = check_monotone(v)
        sub = check_submodular(v)
        entry = {
            "bidder": i,
            "type": type(v).__name__,
            "monotone": mono.holds,
            "submodular": sub.holds,
        }
        if mono.counterexample is not None:
            bundle, item = mono.counterexample
            entry["monotone_counterexample"] = {"set": list(bundle), "add_item": item}
        if sub.counterexample is not None:
            left, right = sub.counterexample
            entry["submodular_counterexample"] = {"s": list(left), "t": list(right)}
        reports.append(entry)
    return {"instance": instance.metadata, "bidders": reports}, 0, None


def _cmd_demand(args) -> tuple[dict, int, None]:
    instance = _load_instance(args.instance)
    prices = load_prices(_read(args.prices), instance.num_items)
    if not 0 <= args.bidder < len(instance.bidders):
        raise SchemaError(f"bidder index {args.bidder} out of range")
    valuation = instance.bidders[args.bidder]
    fast = fast_oracle(valuation)
    payload: dict = {"bidder": args.bidder, "method": args.method,
                     "instance": instance.metadata}
    code = 0
    if args.method == "fast" or args.compare:
        if fast is None:
            raise SchemaError(
                f"no fast oracle for {type(valuation).__name__} bidders")
    if args.compare:
        fast_result = fast(valuation, prices)
        brute_result = brute_force_demand(valuation, prices)
        match = fast_result.max_utility == brute_result.max_utility
        payload["fast"] = demand_payload(fast_result)
        payload["brute"] = demand_payload(brute_result)
        payload["match"] = match
        code = 0 if match else 1
    else:
        oracle = fast if args.method == "fast" else brute_force_demand
        payload["result"] = demand_payload(oracle(valuation, prices))
    return payload, code, None


def _cmd_envyfree(args) -> tuple[dict, int, None]:
    instance = _load_instance(args.instance)
    prices = load_prices(_read(args.prices), instance.num_items)
    report = envy_free_allocation(instance, prices, args.cap)
    payload: dict = {
        "instance": instance.metadata,
        "envy_free": report.envy_free,
        "nodes_explored": report.nodes_explored,
    }
    if report.allocation is not None:
        payload["allocation"] = allocation_payload(report.allocation)
    if report.witness is not None:
        payload["witness"] = {"kind": report.witness.kind,
                              "items": list(report.witness.items),
                              "demanders": list(report.witness.demanders)}
    code = 0
    if args.expect == "ef" and not report.envy_free:
        code = 1
    if args.expect == "not-ef" and report.envy_free:
        code = 1
    return payload, code, None


def _cmd_minimal_ef(args) -> tuple[dict, int, None]:
    instance = _load_instance(args.instance)
    points = minimal_envy_free(instance, args.bound, args.step)
    payload = {
        "instance": instance.metadata,
        "bound": format_rational(args.bound),
        "step": format_rational(args.step),
        "minimal_envy_free": [prices_payload(p) for p in points],
        "note": "minimality certified relative to the search grid",
    }
    return payload, 0, None


_RULES = {
    "dgs": dgs_rule,
    "english": english_additive_rule,
    "greedy": greedy_submodular_rule,
}


def _cmd_auction(args) -> tuple[dict, int, None]:
    instance = _load_instance(args.instance)
    rule = _RULES[args.rule](args.increment)
    trace = run_ascending(instance, rule, args.max_steps)
    payload = {
        "instance": instance.metadata,
        "rule": rule.name,
        "max_steps": args.max_steps,
        "trace": trace_payload(trace),
    }
    return payload, 0, None


def _cmd_bench(args) -> tuple[dict, int, None]:
    rows = []
    rng_prices = [Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(1)]
    for idx in range(args.count):
        seed = args.seed + idx
        if args.family == "multipeak":
            instance = gen_multipeak(args.m, args.s, args.k, args.eps, 1, seed)
        elif args.family == "additive":
            instance = gen_additive(1, args.m, (0, 8), seed)
        else:
            instance = gen_unit_demand(1, args.m, (0, 8), seed)
        valuation = instance.bidders[0]
        fast = fast_oracle(valuation)
        for level in rng_prices:
            prices = PriceVector((level,) * instance.num_items)
            tick = time.perf_counter()
            fast_result = fast(valuation, prices)
            fast_us = (time.perf_counter() - tick) * 1e6
            tick = time.perf_counter()
            brute_result = brute_force_demand(valuation, prices)
            brute_us = (time.perf_counter() - tick) * 1e6
            rows.append({
                "seed": seed,
                "m": instance.num_items,
                "price_level": str(format_rational(level)),
                "fast_us": round(fast_us, 1),
                "brute_us": round(brute_us, 1),
                "match": fast_result.max_utility == brute_result.max_utility,
            })
    payload = {"family": args.family, "count": args.count, "rows": rows}
    code = 0 if all(r["match"] for r in rows) else 1
    return payload, code, None


def _render_text(report: dict, out) -> None:
    def walk(value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            for key, sub in value.items():
                if isinstance(sub, (dict, list)):
                    print(f"{pad}{key}:", file=out)
                    walk(sub, indent + 1)
                else:
                    print(f"{pad}{key}: {sub}", file=out)
        elif isinstance(value, list):
            for sub in value:
                if isinstance(sub, (dict, list)):
                    walk(sub, indent)
                    print(f"{pad}-", file=out)
                else:
                    print(f"{pad}- {sub}", file=out)
        else:
            print(f"{pad}{value}", file=out)

    walk(report)


def _render_csv(report: dict, out) -> None:
    rows = report["result"].get("rows", [])
    writer = csv.writer(out)
    writer.writerow(["seed", "m", "price_level", "fast_us", "brute_us", "match"])
    for row in rows:
        writer.writerow([row["seed"], row["m"], row["price_level"],
                         row["fast_us"], row["brute_us"], row["match"]])


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return dumps(report)
    buffer = io.StringIO()
    (_render_csv if fmt == "csv" else _render_text)(report, buffer)
    return buffer.getvalue()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every call of main shares it."""
    parser = argparse.ArgumentParser(
        prog="auctionkit",
        description="Exact-arithmetic combinatorial-auction toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "text", "csv"],
                       default="json")
        p.add_argument("--out", help="write the report (or document) here")

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("family",
                   choices=["multipeak", "additive", "unit-demand",
                            "budget-additive"])
    p.add_argument("--n", type=int, default=2, help="number of bidders")
    p.add_argument("--m", type=int, default=8, help="number of items")
    p.add_argument("--s", type=int, default=4, help="peak size (multipeak)")
    p.add_argument("--k", type=int, default=2, help="peak count (multipeak)")
    p.add_argument("--eps", type=_parse_fraction_arg, default=Fraction(1, 2),
                   help="closeness parameter (multipeak)")
    p.add_argument("--values", type=int, nargs=2, default=[0, 5],
                   metavar=("LO", "HI"))
    p.add_argument("--budgets", type=int, nargs=2, default=[0, 10],
                   metavar=("LO", "HI"))
    p.add_argument("--vary-systems", action="store_true",
                   help="draw a separate peak system per bidder")
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("validate", help="monotone/submodular reports per bidder")
    p.add_argument("instance")
    common(p)

    p = sub.add_parser("demand", help="demand query for one bidder")
    p.add_argument("instance")
    p.add_argument("prices")
    p.add_argument("--bidder", type=int, default=0)
    p.add_argument("--method", choices=["brute", "fast"], default="brute")
    p.add_argument("--compare", action="store_true",
                   help="run both oracles and report whether they match")
    common(p)

    p = sub.add_parser("envyfree", help="search for an envy-free allocation")
    p.add_argument("instance")
    p.add_argument("prices")
    p.add_argument("--cap", type=int, default=DEFAULT_DEMAND_CAP)
    p.add_argument("--expect", choices=["ef", "not-ef"],
                   help="exit 1 unless the verdict matches")
    common(p)

    p = sub.add_parser("minimal-ef", help="grid search for minimal envy-free prices")
    p.add_argument("instance")
    p.add_argument("--bound", type=_parse_fraction_arg, required=True)
    p.add_argument("--step", type=_parse_fraction_arg, default=Fraction(1))
    common(p)

    p = sub.add_parser("auction", help="run an ascending auction")
    p.add_argument("instance")
    p.add_argument("--rule", choices=sorted(_RULES), required=True)
    p.add_argument("--increment", type=_parse_fraction_arg, default=Fraction(1))
    p.add_argument("--max-steps", type=int, default=200)
    common(p)

    p = sub.add_parser("bench", help="time fast vs brute oracles on a family")
    p.add_argument("--family", choices=["multipeak", "additive", "unit-demand"],
                   default="multipeak")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--s", type=int, default=4)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--eps", type=_parse_fraction_arg, default=Fraction(1, 2))
    p.add_argument("--seed", type=int, default=0)
    common(p)

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "validate": _cmd_validate,
    "demand": _cmd_demand,
    "envyfree": _cmd_envyfree,
    "minimal-ef": _cmd_minimal_ef,
    "auction": _cmd_auction,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    invocation = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command != "bench":
        print("error: --format csv is only available for bench", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        payload, code, document = _HANDLERS[args.command](args)
    except (SchemaError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuleViolationError as exc:
        print(f"rule violation: {exc}", file=sys.stderr)
        return 1
    except AuctionkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    report = {
        "command": invocation,
        "version": __version__,
        "result": payload,
        "timing_ms": round((time.perf_counter() - started) * 1e3, 3),
    }
    if document is not None:
        # gen: the document goes to --out and the report to stdout; without
        # --out the document alone is the output.
        if not args.out:
            sys.stdout.write(document.decode())
            return code
        with open(args.out, "wb") as handle:
            handle.write(document)
    text = _render(report, args.format)
    if args.out and document is None:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
