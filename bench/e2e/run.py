#!/usr/bin/env python3
"""End-to-end benchmark of the simulator's own speed: the one command.

Builds bench/e2e (a standalone CMake project over ../../src) and runs
the bench_e2e harness, one workload per process.

Modes:
  run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
      One run of one workload. Prints the metrics by name and the paper
      checks, then, as the last line, {"correct", "attempted", "failed",
      "metrics"}: the end-to-end metrics with --trace 0, the per-layer
      ones with --trace 1.
  run.py [--seed 42] [--reps 5] [--seconds S] [--out DIR]
      The suite: every workload --reps times, one fresh process each,
      round-robin across workloads, then one traced run per workload.
      Prints every metric with unit, median, q1/q3 and n, writes
      DIR/bench_e2e.json, exits nonzero if any operation failed.
  run.py --smoke
      Every workload at 1/20 length, one rep plus the traced run;
      validates the result schema, the invariants, dark-vs-traced digest
      equality and the trace files. Registered as a ctest.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
DEFAULT_BUILD = os.path.join(ROOT, "build", "bench-e2e")
SMOKE_SCALE = 0.05
RUN_TIMEOUT_S = 170

# Result keys of one bench_e2e process and their JSON types.
NUMBER = (int, float)
HARNESS_KEYS = {
    "workload": str, "seed": int, "scale": NUMBER, "trace": int,
    "wall_s": NUMBER, "sim_ns_per_s": NUMBER, "setup_s": NUMBER,
    "peak_rss_mb": NUMBER, "pass_wall_s": list, "builds": list,
    "sim_digest": str, "digest_stable": bool, "ops_attempted": int,
    "ops_failed": int, "failures": list, "checks": list, "layers": dict,
}

# Operations per pass at full length (a crashed run fails all of them).
OPS_PER_PASS = {"cxl-stream": 18, "fig3-st4": 5, "chase-latency": 27,
                "pool16-obs": 16}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(build_dir):
    """Configure (a no-op when current), then build bench_e2e."""
    cmd = ["cmake", "-S", HERE, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "bench_e2e",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_harness(args, workload, trace, scale, seconds, out_dir):
    """One bench_e2e process; its parsed result, or None if it failed."""
    cmd = [os.path.join(args.build_dir, "bench_e2e"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", str(scale), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: bench_e2e exited {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: unparsable result line")
        return None


def schema_errors(res, bench):
    errs = []
    for key, typ in HARNESS_KEYS.items():
        if key not in res:
            errs.append(f"missing key {key}")
            continue
        is_bool = isinstance(res[key], bool)
        if not isinstance(res[key], typ) or is_bool != (typ is bool):
            errs.append(f"key {key} has type {type(res[key]).__name__}")
    if errs:
        return errs
    for m in bench["end_to_end"]:
        if not res[m["name"]] > 0:
            errs.append(f"end-to-end metric {m['name']} is {res[m['name']]}")
    if res["trace"]:
        for m in bench["per_layer"]:
            if m["name"] not in res["layers"]:
                errs.append(f"missing per-layer metric {m['name']}")
    return errs


def evaluate(res, workload, bench):
    """(correct, attempted, failed) of one harness result."""
    if res is None:
        return False, OPS_PER_PASS[workload], OPS_PER_PASS[workload]
    errs = schema_errors(res, bench)
    for e in errs + res.get("failures", []):
        log(f"{workload}: {e}")
    attempted = max(int(res.get("ops_attempted", 0)), 1)
    failed = int(res.get("ops_failed", attempted))
    correct = (not errs and failed == 0 and res["digest_stable"]
               and all(c["ok"] for c in res["checks"]))
    if not correct:
        failed = max(failed, 1)
    return correct, attempted, failed


def print_checks(workload, res):
    """Each paper-shape check: paper value, measured value, error."""
    for c in res["checks"]:
        paper, measured = c["paper"], c["measured"]
        if paper:
            paper_s = f"{paper:g}"
            err_s = f"{(measured - paper) / paper * 100:+.1f}%"
        else:
            paper_s = err_s = "-"
        print(f"  check {workload} {c['name']}: paper={paper_s} "
              f"measured={measured:.4g} err={err_s} "
              f"{'ok' if c['ok'] else 'FAILED'}")


def note_digest(res, workload, seed):
    """Flag a full-length seed-42 run whose simulated output moved."""
    refs = load_json(os.path.join(HERE, "digests.json"))
    if seed == refs["seed"] and res["scale"] == 1 \
            and res["sim_digest"] != refs["digests"].get(workload):
        print(f"sim_output_changed={workload}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def one_run(args, bench, out_dir):
    res = run_harness(args, args.workload, args.trace, 1, args.seconds,
                      out_dir)
    correct, attempted, failed = evaluate(res, args.workload, bench)
    metrics = {}
    if res is not None:
        if args.trace:
            for m in bench["per_layer"]:
                if m["name"] in res["layers"]:
                    metrics[m["name"]] = {"value": res["layers"][m["name"]],
                                          "unit": m["unit"]}
        else:
            for m in bench["end_to_end"]:
                metrics[m["name"]] = {"value": res[m["name"]],
                                      "unit": m["unit"]}
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
        print_checks(args.workload, res)
        note_digest(res, args.workload, args.seed)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if res is not None else 1


def suite(args, bench, out_dir):
    workloads = [w["name"] for w in bench["workloads"]]
    scale = SMOKE_SCALE if args.smoke else 1
    seconds = 0 if args.smoke else args.seconds
    reps = 1 if args.smoke else args.reps
    start = time.monotonic()

    dark = {w: [] for w in workloads}
    for rep in range(reps):
        for w in workloads:
            log(f"[rep {rep + 1}/{reps}] {w}")
            dark[w].append(run_harness(args, w, 0, scale, seconds, out_dir))
    traced = {}
    for w in workloads:
        log(f"[traced] {w}")
        traced[w] = run_harness(args, w, 1, scale, seconds, out_dir)

    report = {"seed": args.seed, "reps": reps, "seconds": seconds,
              "scale": scale, "workloads": {}}
    total_failed = 0
    for w in workloads:
        runs = dark[w] + [traced[w]]
        entry = {"ops_attempted": 0, "ops_failed": 0, "end_to_end": {},
                 "per_layer": {}}
        for res in runs:
            _, attempted, failed = evaluate(res, w, bench)
            entry["ops_attempted"] += attempted
            entry["ops_failed"] += failed
        # One seed, one simulated output: every run must agree.
        digests = sorted({r["sim_digest"] for r in runs if r is not None})
        if len(digests) > 1:
            log(f"{w}: sim digest differs across runs: {digests}")
            entry["ops_failed"] += 1
        entry["sim_digest"] = digests[0] if digests else None
        total_failed += entry["ops_failed"]

        print(f"== {w}  (ops attempted {entry['ops_attempted']}, "
              f"failed {entry['ops_failed']})")
        good = [r for r in dark[w] if r is not None]
        for m in bench["end_to_end"] if good else []:
            values = [r[m["name"]] for r in good]
            q1, med, q3 = quartiles(values)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "n": len(values), "values": values}
            print(f"  {m['name']:<36} {med:14.6g} {m['unit']:<6} "
                  f"q1={q1:.6g} q3={q3:.6g} n={len(values)}")
        if traced[w] is not None:
            for m in bench["per_layer"]:
                value = traced[w]["layers"].get(m["name"])
                if value is not None:
                    entry["per_layer"][m["name"]] = {"value": value,
                                                     "unit": m["unit"]}
                    print(f"  {m['name']:<36} {value:14.6g} {m['unit']}")
            print_checks(w, traced[w])
            entry["checks"] = traced[w]["checks"]
        if good:
            note_digest(good[0], w, args.seed)
        report["workloads"][w] = entry

    if args.smoke:
        for w in workloads:
            try:
                load_json(os.path.join(out_dir, f"trace_{w}.json"))
            except (OSError, json.JSONDecodeError) as e:
                log(f"{w}: trace file unusable: {e}")
                total_failed += 1

    report["ops_failed"] = total_failed
    report["total_s"] = time.monotonic() - start
    with open(os.path.join(out_dir, "bench_e2e.json"), "w") as f:
        json.dump(report, f, indent=1)
    print(f"total time {report['total_s']:.1f} s; ops_failed={total_failed}")
    return 1 if total_failed else 0


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload",
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", help="output directory "
                   "(default: <build-dir>/out)")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--build-dir", default=DEFAULT_BUILD)
    p.add_argument("--no-build", action="store_true",
                   help="use an existing build of bench_e2e")
    args = p.parse_args()
    if args.reps < 1 or args.seconds < 0 or args.seed < 0:
        p.error("--reps must be >= 1, --seconds and --seed >= 0")

    if not args.no_build and not build(args.build_dir):
        log("build failed")
        return 1
    out_dir = args.out or os.path.join(args.build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    if args.workload:
        return one_run(args, bench, out_dir)
    return suite(args, bench, out_dir)


if __name__ == "__main__":
    sys.exit(main())
