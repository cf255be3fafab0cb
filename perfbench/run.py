#!/usr/bin/env python3
"""End-to-end benchmark of the Lifeguard reproduction.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Builds lgbench, the measuring program (perfbench/CMakeLists.txt compiles
it and the repository's library from ../src), into .bench_build/,
generates the workload's scenario files from the seed, runs lgbench,
checks its outputs, prints a metric table and then one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics (README.md defines both). Without
--workload it runs every workload of BENCHMARK.json in turn; --seconds
defaults to its run_seconds.

    python3 perfbench/run.py --record [--workload NAME] [--seeds 1-30]

re-records perfbench/reference.json: the per-seed trial digests behind
sim.parity_trials and the paper-grid totals whose envelope the output check
draws its bands around.
"""
import argparse
import concurrent.futures
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lgbench")
LGBENCH = os.path.join(BUILD, "lgbench")
REFERENCE = os.path.join(HERE, "reference.json")
COVERAGE_REF = os.path.join(ROOT, "scenarios", "fuzz-corpus", "coverage.json")
CONFIG = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("scale-join", "paper-grid", "fuzz-corpus")
# Default and held-out seed per workload: claims are made on the first and
# confirmed on the second.
SEEDS = {"scale-join": (1, 1009), "paper-grid": (1, 2003),
         "fuzz-corpus": (1, 3001)}
SETUP_SPAWNS = 9
RECORD_JOBS = 2  # processes; each paper-grid or fuzz-corpus one runs 2 workers
RUN_TIMEOUT_S = 170

UNITS = {
    "setup_s": "s", "vsec_per_s": "vs/s", "trials_per_s": "1/s",
    "trial_wall_p50_s": "s", "trial_wall_p75_s": "s", "converge_wall_s": "s",
    "peak_rss_mb": "MB",
}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the program's sources (CMakeLists.txt, src/) are not beside "
             "perfbench/ — run from a checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "lgbench",
                  "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=880)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


# ---------------------------------------------------------------------------
# Inputs: scenario files in the committed format (harness::ScenarioFile).

def scenario(name, summary, nodes, seed, quiesce_s, length_s, config,
             timeline):
    alpha, beta = (5, 1) if config == "SWIM" else (5, 6)
    return {
        "type": "scenario", "version": 1, "name": name, "summary": summary,
        "paper_ref": "", "nodes": nodes, "seed": str(seed),
        "quiesce_us": quiesce_s * 1000000, "run_length_us": length_s * 1000000,
        "config": config, "alpha": alpha, "beta": beta, "k": 3,
        "loss": 0.01, "lat_min_us": 200, "lat_max_us": 2000, "proc_us": 5,
        "rbuf": 262144, "membership": "swim", "timeline": timeline,
        "checked": False, "invariants": [], "slack": 0.05,
        "settle_us": 20000000, "cap_us": 0, "max_violations": 64,
        "metrics_us": 0,
    }


def generate(workload, seed):
    """The workload's inputs for `seed`, as scenario files in a fresh dir."""
    files = {}
    if workload == "scale-join":
        # quiesce = the span a cold start must converge in: past the 30 s
        # push-pull interval, the anti-entropy backstop for a member the
        # join-storm gossip missed. run_length = the steady window beyond it.
        files["scale-join"] = scenario(
            "scale-join", "cold start of a healthy 512-member cluster", 512,
            seed, 40, 10, "Lifeguard", [])
    elif workload == "paper-grid":
        # A slice of Table III: C x D x I, paired across SWIM and Lifeguard.
        for c in (1, 8, 16):
            for d in (512, 16384):
                for i in (4, 4096):
                    for config in ("SWIM", "Lifeguard"):
                        name = "paper-grid-c%d-d%d-i%d-%s" % (
                            c, d, i, config.lower())
                        entry = ("interval@0us:60000000us,victims=%d,"
                                 "d=%dus,i=%dus" % (c, d * 1000, i * 1000))
                        files[name] = scenario(
                            name, "Table III interval point", 128, seed, 15,
                            60, config, [entry])
    else:
        # The fuzzer's base: the committed-corpus configuration.
        files["fuzz-base"] = scenario(
            "fuzz-base", "fuzz base: n=10, 45 s run", 10, seed, 15, 45,
            "Lifeguard", [])
    out = os.path.join(ROOT, ".bench_build", "inputs", "%s-%d" % (workload,
                                                                  seed))
    if os.path.isdir(out):
        for root, dirs, names in os.walk(out, topdown=False):
            for n in names:
                os.remove(os.path.join(root, n))
            for d in dirs:
                os.rmdir(os.path.join(root, d))
    os.makedirs(out, exist_ok=True)
    for name, doc in files.items():
        with open(os.path.join(out, name + ".json"), "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    return out


# ---------------------------------------------------------------------------

def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def lgbench(mode, workload, inputs, seconds, reference):
    cmd = [LGBENCH, mode, "--workload", workload, "--inputs", inputs,
           "--seconds", str(seconds), "--coverage-ref", COVERAGE_REF]
    for config, env in sorted(reference["paper-grid"]["envelope"].items()):
        cmd += ["--ref", "%s=%s" % (config, ",".join(
            str(t) for t in env["low"] + env["high"]))]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       timeout=RUN_TIMEOUT_S, text=True)
    if r.returncode != 0:
        fail("lgbench exited %d: %s" % (r.returncode, " ".join(cmd)))
    return json.loads(r.stdout.strip().splitlines()[-1])


def setup_times(workload, inputs):
    """Whole spawns of `lgbench setup`: process start through the build.

    Each spawn is reaped with a blocking wait: subprocess's wait(timeout)
    polls with growing sleeps, which would round these few-millisecond
    times up to its polling steps. A timer kills a spawn that hangs."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([LGBENCH, "setup", "--workload", workload,
                                 "--inputs", inputs],
                                stdout=subprocess.DEVNULL, stderr=sys.stderr)
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        code = proc.wait()
        times.append(time.perf_counter() - t0)
        watchdog.cancel()
        if code != 0:
            fail("setup spawn exited %d" % code)
    return times


def parity(workload, seed, digests, reference):
    want = reference[workload]["digests"].get(str(seed))
    if want is None:
        return 0
    if workload == "fuzz-corpus":
        return 2000 if digests and digests[0] == want[0] else 0
    return sum(1 for a, b in zip(digests, want) if a == b)


def per_layer_units():
    """Per-layer metric name -> unit, in BENCHMARK.json order."""
    with open(CONFIG) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def measure(workload, seed, seconds, trace):
    reference = load_reference()
    inputs = generate(workload, seed)
    if trace:
        raw = lgbench("trace", workload, inputs, seconds, reference)
        raw["sim.parity_trials"] = parity(workload, seed,
                                          raw.get("trial_digests", []),
                                          reference)
        units = per_layer_units()
        missing = [n for n in units if n not in raw]
        if missing:
            fail("lgbench did not report " + ", ".join(missing))
        metrics = {n: {"value": raw[n], "unit": u} for n, u in units.items()}
        samples = {n: 1 for n in units}
    else:
        setup = setup_times(workload, inputs)
        raw = lgbench("run", workload, inputs, seconds, reference)
        raw["setup_s"] = statistics.median(setup)
        metrics = {n: {"value": raw[n], "unit": u} for n, u in UNITS.items()}
        samples = {n: int(raw["samples.trials"]) for n in UNITS}
        samples["setup_s"] = len(setup)
        samples["converge_wall_s"] = int(raw["samples.converge"])
        samples["peak_rss_mb"] = 1
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    failures = list(raw.get("failures", []))
    return metrics, samples, attempted, failed, failures, raw


def report(workload, seed, trace, metrics, samples, attempted, failed,
           failures, raw):
    print("workload %s  seed %d  %s" % (workload, seed,
                                        "traced" if trace else "untraced"))
    print("  %-30s %16s  %-6s %s" % ("metric", "value", "unit", "samples"))
    for name, m in metrics.items():
        print("  %-30s %16.6g  %-6s %d" % (name, m["value"], m["unit"],
                                           samples.get(name, 1)))
    print("  %-30s %16.6g  %-6s %d" % (
        "trial_fail_ratio", failed / max(attempted, 1), "1", attempted))
    if not trace:
        print("  %-30s %16d  %-6s" % (
            "sim.parity_trials", parity(workload, seed,
                                        raw.get("trial_digests", []),
                                        load_reference()), "count"))
    for f in failures:
        print("  FAIL: " + f)


def record(workloads, seeds):
    """Re-record `workloads` in reference.json: their trial digests at
    `seeds` plus the held-out seed, and paper-grid's per-config totals at
    `seeds` with the envelope (lowest, highest) the output check uses."""
    build()
    reference = load_reference()
    for workload in workloads:
        section = {"digests": {}}
        totals = {}

        def one(seed):
            inputs = generate(workload, seed)
            # scale-join records as many trials as a long run holds.
            seconds = 100 if workload == "scale-join" else 1
            return seed, lgbench("run", workload, inputs, seconds, reference)

        # Digests do not depend on timing, so seeds record in parallel.
        with concurrent.futures.ThreadPoolExecutor(RECORD_JOBS) as pool:
            for seed, raw in pool.map(one, sorted(set(seeds) |
                                                  set(SEEDS[workload]))):
                section["digests"][str(seed)] = raw["trial_digests"]
                for line in raw.get("config_totals", []):
                    config, *vals = line.split()
                    totals.setdefault(config, {})[str(seed)] = [
                        int(v) for v in vals]
                print("recorded %s seed %d" % (workload, seed),
                      file=sys.stderr)
        if workload == "paper-grid":
            section["totals"] = totals
            section["envelope"] = {}
            for config, by_seed in totals.items():
                rows = [by_seed[str(s)] for s in seeds]
                section["envelope"][config] = {
                    "low": [min(col) for col in zip(*rows)],
                    "high": [max(col) for col in zip(*rows)]}
        reference[workload] = section
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")


def parse_seeds(text):
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="default: every workload in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    p.add_argument("--seeds", default="1-30")
    a = p.parse_args()
    if a.record:
        record([a.workload] if a.workload else WORKLOADS,
               parse_seeds(a.seeds))
        return
    build()
    with open(CONFIG) as f:
        config = json.load(f)
    seconds = a.seconds or config["run_seconds"]
    for workload in ([a.workload] if a.workload
                     else [w["name"] for w in config["workloads"]]):
        metrics, samples, attempted, failed, failures, raw = measure(
            workload, a.seed, seconds, a.trace)
        report(workload, a.seed, a.trace, metrics, samples, attempted,
               failed, failures, raw)
        print(json.dumps({"correct": failed == 0 and not failures,
                          "attempted": attempted, "failed": failed,
                          "metrics": metrics}))


if __name__ == "__main__":
    main()
