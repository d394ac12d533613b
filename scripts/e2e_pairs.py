#!/usr/bin/env python3
"""Compare two builds of bench/e2e under the pairwise rule.

Usage:
  scripts/e2e_pairs.py PARENT_DIR CHANGE_DIR --workload W
                       [--pairs 10] [--seed 42]

PARENT_DIR and CHANGE_DIR are bench/e2e build directories, each holding
a bench_e2e binary (run.py builds one into build/bench-e2e; build the
parent commit's copy the same way). The script runs --pairs alternating
pairs of `bench_e2e --trace 0` at BENCHMARK.json's run length, parent
first in odd pairs and change first in even ones, and prints every
pair. Runs and failed operations are counted by bench/e2e/run.py's own
code. Then, for each end-to-end metric of BENCHMARK.json, it prints each
side's median, q1 and q3, the change's wins, ties and losses, and the
verdict of bench/e2e/README.md's rule:

  gain        the change wins at least 9 in 10 of all pairs run, the
              medians differ in its favour by more than the parent's
              q3 - q1, no run crashed, every digest matched and the
              change failed no more operations than the parent
  worse       the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  neither, and one side's q3 - q1 exceeds the bound times
              its median: the runs spread too widely to tell
  within      neither: the change stays inside the bound

It also reports whether every run gave the same simulated-output
digest. Exit status: 0, or 1 when a digest differs, an operation or a
paper-shape check failed, or a run crashed.
"""

import argparse
import os
import sys
import tempfile

ROOT = os.path.normpath(os.path.join(os.path.dirname(
    os.path.abspath(__file__)), ".."))
sys.path.insert(0, os.path.join(ROOT, "bench", "e2e"))
sys.dont_write_bytecode = True  # leave bench/e2e as checked out
from run import (evaluate, load_json, note_digest,  # noqa: E402
                 quartiles, run_harness, schema_errors)

SIDES = ("parent", "change")


def verdict(metric, parent, change, wins, pairs, clean):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = cmed < pmed if lower else cmed > pmed
    if (clean and 10 * wins >= 9 * pairs and gain
            and abs(cmed - pmed) > pq3 - pq1):
        return "gain"
    worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
    if worse > bound:
        return "worse"
    if pq3 - pq1 > bound * pmed or cq3 - cq1 > bound * cmed:
        return "unresolved"
    return "within"


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    args = p.parse_args()
    if args.pairs < 1 or args.seed < 0:
        p.error("--pairs must be >= 1, --seed >= 0")
    for d in (args.parent_dir, args.change_dir):
        if not os.access(os.path.join(d, "bench_e2e"), os.X_OK):
            p.error(f"no bench_e2e in {d}")

    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    harness = {s: argparse.Namespace(build_dir=d, seed=args.seed)
               for s, d in zip(SIDES, (args.parent_dir, args.change_dir))}
    results = {s: [] for s in SIDES}
    attempted = {s: 0 for s in SIDES}
    failed = {s: 0 for s in SIDES}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs "
          f"of {seconds:g} s runs")
    with tempfile.TemporaryDirectory() as out_dir:
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                res = run_harness(harness[side], args.workload, 0, 1,
                                  seconds, out_dir)
                _, a, f = evaluate(res, args.workload, bench)
                attempted[side] += a
                failed[side] += f
                # A run whose metrics are unusable counts as crashed.
                if res is not None and schema_errors(res, bench):
                    res = None
                pair[side] = res
                results[side].append(res)
            cells = []
            for m in metrics:
                a, b = (pair[s][m["name"]] if pair[s] else float("nan")
                        for s in SIDES)
                cells.append(f"{m['name']} {a:.4g} -> {b:.4g} "
                             f"({(b - a) / a * 100:+.1f}%)")
            print(f"pair {i + 1:2} ({order[0]} first): "
                  + ", ".join(cells), flush=True)

    good = [i for i in range(args.pairs)
            if results["parent"][i] and results["change"][i]]
    runs = [r for side in results.values() for r in side if r]
    digests = {r["sim_digest"] for r in runs}
    mismatch = len(digests) > 1
    clean = (len(good) == args.pairs and not mismatch
             and failed["change"] <= failed["parent"])
    print(f"{'metric':<14} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'change':>8}  "
          f"win/tie/loss  verdict")
    for m in metrics if good else []:
        name, lower = m["name"], m["better"] == "lower"
        parent = [results["parent"][i][name] for i in good]
        change = [results["change"][i][name] for i in good]
        wins = sum(1 for a, b in zip(parent, change)
                   if (b < a if lower else b > a))
        ties = sum(1 for a, b in zip(parent, change) if a == b)
        losses = len(good) - wins - ties
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        print(f"{name:<14} {pmed:>12.4g} [{pq1:.4g}, {pq3:.4g}]"
              f"{'':>3} {cmed:>12.4g} [{cq1:.4g}, {cq3:.4g}]{'':>3} "
              f"{(cmed - pmed) / pmed * 100:+7.1f}%  "
              f"{wins:>3}/{ties}/{losses:<6}  "
              f"{verdict(m, parent, change, wins, args.pairs, clean)}")
    if len(good) < args.pairs:
        print(f"crashed pairs: {args.pairs - len(good)} of {args.pairs}; "
              f"no gain is claimed")

    if mismatch:
        print(f"digests: MISMATCH across runs: {sorted(digests)}")
    elif runs:
        print(f"digests: all {len(runs)} runs match ({runs[0]['sim_digest']})")
        note_digest(runs[0], args.workload, args.seed)
    else:
        print("digests: no run completed")
    print(f"failed ops: parent {failed['parent']} of "
          f"{attempted['parent']}, change {failed['change']} of "
          f"{attempted['change']}")
    return 1 if mismatch or failed["parent"] or failed["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
