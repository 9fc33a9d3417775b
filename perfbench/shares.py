#!/usr/bin/env python3
"""Layer shares of a traced run's span ledger.

    python3 perfbench/shares.py .bench_build/trace-xes_pair-1.json [--root op]

Reads the spans a `--trace 1` run wrote, keeps the counted ops whose
root span is named ROOT (default "op": the op decomposed at the CLI's
thread count), and prints each layer's self time summed over those ops
and its share of their summed duration. Self time is a span's duration
minus the union of its children's intervals, as perfbench computes it.
"""
import argparse
import collections
import json


def self_time(spans, children, index):
    parent = spans[index]
    covered = sorted(
        (max(spans[c]["start_ms"], parent["start_ms"]),
         min(spans[c]["end_ms"], parent["end_ms"]))
        for c in children[index])
    union, cursor = 0.0, parent["start_ms"]
    for lo, hi in covered:
        lo = max(lo, cursor)
        if hi > lo:
            union += hi - lo
            cursor = hi
    return parent["end_ms"] - parent["start_ms"] - union


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    parser.add_argument("--root", default="op")
    args = parser.parse_args()

    with open(args.trace) as f:
        spans = json.load(f)["spans"]
    children = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    ops = {s["op"] for s in spans
           if s["name"] == args.root and s["parent"] < 0 and s["counted"]}
    total = sum(s["end_ms"] - s["start_ms"] for s in spans
                if s["name"] == args.root and s["op"] in ops)
    by_layer = collections.Counter()
    for i, s in enumerate(spans):
        if s["op"] in ops:
            by_layer[s["name"]] += self_time(spans, children, i)
    print("%d ops rooted at '%s', %.1f ms in total" % (len(ops), args.root,
                                                      total))
    for name, ms in by_layer.most_common():
        print("  %-20s %10.1f ms  %5.1f%%" % (name, ms, 100.0 * ms / total))


if __name__ == "__main__":
    main()
