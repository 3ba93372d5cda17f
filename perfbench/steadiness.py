#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py [--runs 10] [--seconds 30] [--first-seed 1]
                                    [--workloads serve_zipf,argmax_sched,rotate_fanout]
                                    [--json perfbench/steadiness.json] [--note TEXT]

Runs `perfbench/run.py --trace 0` once per seed per workload (workloads
interleaved, so a slow stretch of the host spreads across all of them),
then prints, for every end-to-end metric, the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`) and the spread
`(q3 - q1) / median`, next to the metric's bound in BENCHMARK.json.
A spread above the bound is marked FAIL, above a third of it WIDE.

With `--json`, the set is appended to the record in that file (created
if absent), and each median is compared with the record's previous set:
a median worse than the previous one by more than the metric's bound is
marked FAIL too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    machine = next((l[len("machine: "):] for l in lines if l.startswith("machine: ")), "{}")
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed its correctness gate")
    return json.loads(machine), {k: v["value"] for k, v in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=None)
    p.add_argument("--json", default=None, help="append this set to the record in this file")
    p.add_argument("--note", default="", help="note stored with the set")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {} for w in workloads}
    machine = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            machine, metrics = run_once(w, seed, seconds)
            for k, v in metrics.items():
                values[w].setdefault(k, []).append(v)
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                  flush=True)
    previous = {}
    record = {"machine": machine, "seconds": seconds, "sets": []}
    if args.json and os.path.exists(args.json):
        with open(args.json) as f:
            record = json.load(f)
        if record["sets"]:
            previous = record["sets"][-1]["workloads"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    summary = {}
    worst = "ok"

    def flag(level):
        nonlocal worst
        if level == "FAIL" or worst == "ok":
            worst = level
        return level

    for w in workloads:
        print(f"\n{w} ({args.runs} runs x {seconds} s)")
        print(f"  {'metric':18} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}"
              f" {'shift':>7}")
        for k, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[k]
            note = ""
            if spread > bound:
                note = flag("FAIL")
            elif spread > bound / 3:
                note = flag("WIDE")
            shift = ""
            prev = previous.get(w, {}).get(k)
            if prev:
                change = med / prev["median"] - 1
                shift = f"{change:+7.3f}"
                worse = change if better[k] == "lower" else -change
                if worse > bound:
                    note = flag("FAIL") + " (median)"
            summary.setdefault(w, {})[k] = {"median": med, "q1": q1, "q3": q3,
                                            "spread": spread, "values": vs}
            print(f"  {k:18} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} {bound:6.2f}"
                  f" {shift:>7} {note}")
    print(f"\nverdict: {worst}")
    if args.json:
        record["machine"] = machine
        record["sets"].append({"first_seed": args.first_seed, "runs": args.runs,
                               "seconds": seconds, "note": args.note, "workloads": summary})
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")

if __name__ == "__main__":
    main()
