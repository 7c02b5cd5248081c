#!/usr/bin/env python3
"""Steadiness and determinism check for the end-to-end benchmark.

    python3 perfbench/steadiness.py [--workloads cloud_dc,group_long,...]
        [--runs 10] [--gap 600] [--seconds 20] [--trace-check]

Runs every workload in two sets of --runs runs (seeds 1..runs), the second
set --gap seconds after the first, and reports for each end-to-end metric
the median and quartiles of each set, the spread (q3 - q1) / median and the
shift of the second median against the first. It checks that

  * every simulated-time metric (all but setup_s, run_s, peak_rss_mb) is
    identical between the two runs of the same seed,
  * some simulated-time metric differs between seeds 1 and 2,
  * the share of failed operations is the same in both sets, and
  * (with --trace-check) a traced run reports the same simulated-time
    metrics as the untraced run of the same seed; the difference of their
    run_s is printed as the tracing overhead.

Run from the root of a checkout. Exits 1 if a check fails. The full report,
with every run's result, is written to .bench_out/steadiness.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WALL_METRICS = {"setup_s", "run_s", "peak_rss_mb"}


def run(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    # The benchmark's CPU and gauge times per repetition, for the report.
    result["timing_log"] = [
        line for line in proc.stderr.splitlines()
        if line.startswith(("set-up:", "timed phase repetitions"))]
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--gap", type=float, default=600.0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace-check", action="store_true")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(1, args.runs + 1))

    sets = []
    for s in range(2):
        if s == 1 and args.gap > 0:
            print(f"waiting {args.gap:.0f} s before the second set",
                  flush=True)
            time.sleep(args.gap)
        results = {w: {} for w in workloads}
        for w in workloads:
            for seed in seeds:
                results[w][seed] = run(w, seed, args.seconds)
                print(f"set {s + 1} {w} seed {seed}: "
                      f"correct={results[w][seed]['correct']} "
                      f"failed={results[w][seed]['failed']}/"
                      f"{results[w][seed]['attempted']}", flush=True)
        sets.append(results)

    problems = []
    report = {}
    for w in workloads:
        report[w] = {}
        a, b = sets[0][w], sets[1][w]
        for r in list(a.values()) + list(b.values()):
            if not r["correct"]:
                problems.append(f"{w}: a run failed its output checks")
                break
        share = [sum(r["failed"] for r in x.values()) /
                 sum(r["attempted"] for r in x.values()) for x in (a, b)]
        if share[0] != share[1]:
            problems.append(f"{w}: failed share differs: {share}")
        print(f"\n{w}  (failed share {share[0]:.6g} / {share[1]:.6g})")
        print(f"  {'metric':24} {'set':>3} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>8} {'shift':>8} {'bound':>6}")
        changed_by_seed = []
        for name, spec in bounds.items():
            vals = [[x[seed]["metrics"][name]["value"] for seed in seeds]
                    for x in (a, b)]
            stats = [quartiles(v) for v in vals]
            spreads = [(q3 - q1) / med if med else float("inf")
                       for q1, med, q3 in stats]
            sign = 1 if spec["better"] == "lower" else -1
            shift = sign * (stats[1][1] - stats[0][1]) / stats[0][1]
            report[w][name] = {"sets": [
                {"q1": q1, "median": med, "q3": q3, "spread": sp}
                for (q1, med, q3), sp in zip(stats, spreads)],
                "shift": shift, "bound": spec["bound"]}
            for i, ((q1, med, q3), sp) in enumerate(zip(stats, spreads)):
                tail = f"{shift:8.3f} {spec['bound']:6.2f}" if i else ""
                print(f"  {name:24} {i + 1:>3} {q1:12.5g} {med:12.5g} "
                      f"{q3:12.5g} {sp:8.3f} {tail}")
            if name in WALL_METRICS:
                continue
            if vals[0] != vals[1]:
                problems.append(f"{w}: {name} differs between runs of the "
                                "same seed")
            if vals[0][0] != vals[0][1]:
                changed_by_seed.append(name)
        if len(seeds) > 1 and not changed_by_seed:
            problems.append(f"{w}: no simulated-time metric depends on the "
                            "seed")

    if args.trace_check:
        print("\ntracing overhead (seed 1)")
        for w in workloads:
            traced = run(w, 1, args.seconds, trace=1)
            path = os.path.join(ROOT, ".bench_out", f"trace_{w}_1.json")
            with open(path) as f:
                e2e = json.load(f)["end_to_end"]
            untraced = sets[0][w][1]["metrics"]
            for name in bounds:
                if name in WALL_METRICS:
                    continue
                if e2e[name]["value"] != untraced[name]["value"]:
                    problems.append(f"{w}: traced {name} differs from the "
                                    "untraced run")
            over = e2e["run_s"]["value"] - untraced["run_s"]["value"]
            report[w]["trace_overhead_s"] = over
            print(f"  {w:12} traced run_s {e2e['run_s']['value']:.3f} "
                  f"untraced {untraced['run_s']['value']:.3f} "
                  f"overhead {over:+.3f} s (sampling "
                  f"{traced['metrics']['trace.sampling_s']['value']:.3f} s)")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steadiness.json"), "w") as f:
        json.dump({"report": report, "problems": problems, "runs": sets}, f,
                  indent=1)
    for p in problems:
        print("PROBLEM:", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
