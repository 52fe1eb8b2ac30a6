#!/usr/bin/env python3
"""Diffs two BENCH_radio.json micro-bench trajectory points.

For every google-benchmark entry present in both files, prints the
old/new items-per-second (falling back to inverse wall time when a bench
reports no item counter) and the speedup ratio new/old. Informational
only: microbenchmarks are too noisy on shared runners to fail a build on.
End-to-end performance is gated by tools/perf_gate.py.

Usage: tools/bench_compare.py OLD.json NEW.json [--min-ratio R]
  --min-ratio R   print a trailing WARNING line listing benches whose
                  ratio fell below R (still exit 0)
"""

import argparse
import json
import sys


def bench_rates(doc):
    """Flattens one BENCH json into {bench_name: items_per_second}."""
    rates = {}
    for section, payload in doc.items():
        if not isinstance(payload, dict) or "benchmarks" not in payload:
            continue
        for bench in payload["benchmarks"]:
            if bench.get("run_type") == "aggregate":
                continue
            name = f"{section}/{bench['name']}"
            if "items_per_second" in bench:
                rates[name] = bench["items_per_second"]
            elif bench.get("real_time", 0) > 0:
                # Convert to a rate so "bigger is better" holds uniformly.
                scale = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}.get(
                    bench.get("time_unit", "ns"), 1e9)
                rates[name] = scale / bench["real_time"]
    return rates


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", help="baseline BENCH json (e.g. checked-in BENCH_radio.json)")
    parser.add_argument("new", help="fresh BENCH json to compare against the baseline")
    parser.add_argument("--min-ratio", type=float, default=None,
                        help="warn (exit 0) when a bench's new/old ratio drops below this")
    args = parser.parse_args()

    with open(args.old) as f:
        old_rates = bench_rates(json.load(f))
    with open(args.new) as f:
        new_rates = bench_rates(json.load(f))
    common = sorted(set(old_rates) & set(new_rates))
    if not common:
        print("no common benchmarks between the two files")
        return 0

    print(f"{'benchmark':<72} {'old/s':>12} {'new/s':>12} {'ratio':>7}")
    slow = []
    for name in common:
        old_rate, new_rate = old_rates[name], new_rates[name]
        ratio = new_rate / old_rate if old_rate > 0 else float("inf")
        print(f"{name:<72} {old_rate:>12.3g} {new_rate:>12.3g} {ratio:>6.2f}x")
        if args.min_ratio is not None and ratio < args.min_ratio:
            slow.append((name, ratio))

    only_old = sorted(set(old_rates) - set(new_rates))
    only_new = sorted(set(new_rates) - set(old_rates))
    if only_old:
        print(f"\n{len(only_old)} bench(es) only in {args.old} (first: {only_old[0]})")
    if only_new:
        print(f"{len(only_new)} bench(es) only in {args.new} (first: {only_new[0]})")
    if slow:
        names = ", ".join(f"{n} ({r:.2f}x)" for n, r in slow)
        print(f"\nWARNING: below --min-ratio {args.min_ratio}: {names}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
