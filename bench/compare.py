#!/usr/bin/env python3
"""Summarise one set of benchmark results, or compare two.

    python3 bench/compare.py A            # one set: medians, quartiles, shares
    python3 bench/compare.py A B          # B against A, e.g. parent then change

``A`` and ``B`` are directories of result files written by ``run.py`` (or
single files).  For every workload it prints each end-to-end metric's median
and quartiles on each side, its spread (quartile distance over median), the
change of the median, and, pairing the i-th run of A with the i-th run of B
in the order they started, how many pairs B won.  For traced runs it prints
each per-layer metric's medians and their change, each time's share of the
traced run, and the tracing overhead (traced ``trace.run_s`` minus untraced
``run_s``, medians).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# per-layer times of the set-up, which are no share of the timed phase
SETUP_TIMES = ("setup.train.s", "model.save_checkpoint.s", "model.load_checkpoint.s", "cli.main.self_s")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs = {}
    for name in files:
        with open(name, encoding="utf-8") as fh:
            rec = json.load(fh)
        if "all_metrics" in rec:
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["started_ns"])
    return runs


def stats(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def column(recs, name):
    return [r["all_metrics"][name] for r in recs if name in r["all_metrics"]]


def fmt(v):
    return f"{v:.4g}"


def side(values):
    med, q1, q3 = stats(values)
    spread = (q3 - q1) / med if med else 0.0
    return f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}] spread {spread:.1%}"


def report(a, b, spec):
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in sorted({w for w, _ in a} | {w for w, _ in (b or {})}):
        print(f"== {workload}")
        for trace, names in ((0, [m["name"] for m in spec["end_to_end"]]),
                             (1, [m["name"] for m in spec["per_layer"]])):
            ra, rb = a.get((workload, trace), []), (b or {}).get((workload, trace), [])
            if not ra and not rb:
                continue
            fails = {f"{r['failed']}/{r['attempted']}" for r in ra + rb}
            print(f"  {'traced' if trace else 'untraced'} runs: A {len(ra)}"
                  + (f", B {len(rb)}" if b is not None else "") + f"; failed/attempted {sorted(fails)}"
                  + ("" if all(r["correct"] for r in ra + rb) else "; SOME RUNS INCORRECT"))
            run_s = statistics.median(column(ra, "trace.run_s")) if trace and ra else None
            for name in names:
                va, vb = column(ra, name), column(rb, name)
                if not va and not vb:
                    continue
                line = f"    {name:42s}"
                if va:
                    line += " A " + side(va)
                if vb:
                    line += " | B " + side(vb)
                if va and vb:
                    ma, mb = statistics.median(va), statistics.median(vb)
                    change = (mb - ma) / ma if ma else 0.0
                    line += f" | change {change:+.1%}"
                    if name in bound:
                        sign = 1 if better[name] == "higher" else -1
                        pairs = list(zip(va, vb))
                        won = sum(sign * (y - x) > 0 for x, y in pairs)
                        line += f" | B won {won}/{len(pairs)} pairs, bound {bound[name]:.0%}"
                elif run_s and name.endswith((".s", ".self_s")) and name not in SETUP_TIMES:
                    line += f" | share {statistics.median(va) / run_s:.1%}"
                print(line)
        for label, runs in (("A", a), ("B", b or {})):
            traced, plain = runs.get((workload, 1), []), runs.get((workload, 0), [])
            if traced and plain:
                over = statistics.median(column(traced, "trace.run_s")) - statistics.median(column(plain, "run_s"))
                print(f"  tracing overhead {label}: {over:+.3f} s (traced trace.run_s minus untraced run_s, medians)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="directory or file of results (the baseline)")
    parser.add_argument("b", nargs="?", help="directory or file of results to compare against A")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    a = load(args.a)
    b = load(args.b) if args.b else None
    if not a or (b is not None and not b):
        print("no result files found", file=sys.stderr)
        return 2
    report(a, b, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
