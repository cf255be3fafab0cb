#!/usr/bin/env python3
"""Steadiness check: do two result sets of one build agree?

    python3 perfbench/steady.py collect --out A.jsonl [--workloads W,...]
                                        [--seeds 1-10] [--trace 0]
    python3 perfbench/steady.py compare A.jsonl B.jsonl

`collect` runs perfbench/run.py once per (workload, seed) with the
run_seconds of BENCHMARK.json and appends one JSON line per run. `compare`
prints, for every end-to-end metric and workload, each set's median,
quartiles (statistics.quantiles(n=4)) and sample count, the spread
(interquartile distance / median) and the drift of B's median against A's
in the metric's worse direction. A pair agrees when both spreads are within
the metric's bound (setup_s is exempt from the spread rule) and the drift
is within it too; the exit status is 0 only when every pair agrees. The
last column marks pairs whose spreads are also below a third of the bound,
the margin a steady benchmark should keep.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(a):
    cfg = config()
    workloads = (a.workloads.split(",") if a.workloads
                 else [w["name"] for w in cfg["workloads"]])
    with open(a.out, "a") as out:
        for w in workloads:
            for seed in parse_seeds(a.seeds):
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", w, "--seed", str(seed),
                       "--seconds", str(cfg["run_seconds"]),
                       "--trace", str(a.trace)]
                r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                   text=True)
                if r.returncode != 0:
                    sys.exit("run failed (%d): %s" % (r.returncode,
                                                       " ".join(cmd)))
                result = json.loads(r.stdout.strip().splitlines()[-1])
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "trace": a.trace,
                                      "result": result}) + "\n")
                out.flush()
                print("%s seed %d: correct=%s" % (w, seed, result["correct"]),
                      file=sys.stderr)


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("trace", 0):
                continue
            for name, m in rec["result"]["metrics"].items():
                runs.setdefault((rec["workload"], name), []).append(
                    m["value"])
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def compare(a):
    metrics = {m["name"]: m for m in config()["end_to_end"]}
    first, second = load(a.a), load(a.b)
    ok = True
    print("%-12s %-18s %5s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %6s %s"
          % ("workload", "metric", "n", "med A", "q1 A", "q3 A", "sprd A",
             "med B", "q1 B", "q3 B", "sprd B", "drift", "bound",
             "agree, <bound/3"))
    for key in sorted(set(first) | set(second)):
        workload, name = key
        if name not in metrics or key not in first or key not in second:
            continue
        m = metrics[name]
        if len(first[key]) < 2 or len(second[key]) < 2:
            print("%-12s %-18s needs two runs per set" % key)
            ok = False
            continue
        ma, q1a, q3a, sa = summary(first[key])
        mb, q1b, q3b, sb = summary(second[key])
        worse = (mb - ma) if m["better"] == "lower" else (ma - mb)
        drift = worse / ma if ma else float("inf")
        spread_ok = name == "setup_s" or (sa <= m["bound"] and sb <= m["bound"])
        agree = spread_ok and drift <= m["bound"]
        tight = name == "setup_s" or max(sa, sb) < m["bound"] / 3
        ok &= agree
        print("%-12s %-18s %2d/%-2d %12.6g %12.6g %12.6g %7.4f | %12.6g %12.6g "
              "%12.6g %7.4f | %7.4f %6.3f %s, %s"
              % (workload, name, len(first[key]), len(second[key]), ma, q1a,
                 q3a, sa, mb, q1b, q3b, sb, drift, m["bound"],
                 "yes" if agree else "NO", "yes" if tight else "no"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    k = sub.add_parser("compare")
    k.add_argument("a")
    k.add_argument("b")
    a = p.parse_args()
    if a.cmd == "collect":
        collect(a)
        return 0
    return compare(a)


if __name__ == "__main__":
    sys.exit(main())
