#!/usr/bin/env python3
"""Steadiness check of the benchmark's end-to-end metrics.

Runs every workload (or those given) in two sets of N runs, one set after
the other, each run with its own seed, and prints for every end-to-end
metric the median and quartiles of each set, the spread (quartile
distance over the median) and whether the two sets agree within the
bounds in BENCHMARK.json:

  * each set's spread is within the metric's bound;
  * the second set's median is no worse than the first's by more than
    the bound;
  * the share of failed operations is the same in both sets, and every
    run reports `correct`.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] [--out f.json]

Exit code 0 when everything agrees.
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
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({p.returncode}):\n{p.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]

    sets = {}
    # Set A uses seeds 1.., set B seeds 101..: no seed is measured twice.
    for label, first in (("A", 1), ("B", 101)):
        runs = {w: [] for w in names}
        for k in range(args.runs):
            for w in names:
                r = run_once(w, first + k, seconds)
                runs[w].append(r)
                print(f"set {label} {w} seed {first + k}: failed "
                      f"{r['failed']}/{r['attempted']}, wall_s "
                      f"{r['metrics']['wall_s']['value']:.4f}", flush=True)
        sets[label] = runs

    ok = True
    report = {"runs": args.runs, "nproc": os.cpu_count(), "workloads": {}}
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':28} {'A median':>12} {'A q1..q3':>25} {'A spr':>6}"
              f" {'B median':>12} {'B spr':>6} {'shift':>7} {'bound':>6}  ok")
        rw = report["workloads"][w] = {}
        for m in metrics:
            n, bound = m["name"], m["bound"]
            a = summary([r["metrics"][n]["value"] for r in sets["A"][w]])
            b = summary([r["metrics"][n]["value"] for r in sets["B"][w]])
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            good = worse <= bound and a["spread"] <= bound and b["spread"] <= bound
            ok &= good
            rw[n] = {"A": a, "B": b, "shift": worse, "bound": bound, "ok": good}
            print(f"  {n:28} {a['median']:12.6g} {a['q1']:12.6g}..{a['q3']:<12.6g}"
                  f" {a['spread']:6.3f} {b['median']:12.6g} {b['spread']:6.3f}"
                  f" {worse:+7.3f} {bound:6.2f}  {'yes' if good else 'NO'}")
        shares = {s: {r["failed"] / r["attempted"] for r in sets[s][w]}
                  for s in ("A", "B")}
        same = shares["A"] == shares["B"] and len(shares["A"]) == 1
        correct = all(r["correct"] for s in ("A", "B") for r in sets[s][w])
        ok &= same and correct
        print(f"  failed share A {sorted(shares['A'])} B {sorted(shares['B'])}"
              f" {'same' if same else 'DIFFERENT'};"
              f" {'correct' if correct else 'NOT correct'} in every run")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
