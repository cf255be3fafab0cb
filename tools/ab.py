#!/usr/bin/env python3
"""A/B runner: alternate perfbench runs of two commits and compare them.

    tools/ab.py PARENT CHANGE --workload W --pairs N [--seed S] [--seconds T]
                [--workdir DIR]

Checks PARENT and CHANGE out as detached git worktrees of the repository
the current directory is in (under DIR, default a fresh temporary
directory), builds each side's benchmark program with one short warm-up
run, then runs

    python3 perfbench/run.py --workload W --seed S [--seconds T]

N times in each worktree. Pair i runs the parent first when i is even and
the change first when i is odd, so a drift in the host's load falls on
both sides alike. For every end-to-end metric of BENCHMARK.json that the
runs report, it prints each side's median and interquartile range, the
number of pairs the change won (in the metric's "better" direction), and
a two-sided Mann-Whitney rank-sum p-value, as a markdown table in the
layout docs/benchmarks.md uses. Then it prints each side's failed and
attempted trial counts. The worktrees are removed when it exits, on an
error and on Ctrl-C too.

Exit status: 0 when every run completed, 1 when a run failed, 2 on bad
arguments.
"""
import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile


def git(repo, *args):
    r = subprocess.run(["git", "-C", repo] + list(args), text=True,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise RuntimeError("git %s: %s" % (" ".join(args), r.stderr.strip()))
    return r.stdout.strip()


def run_once(tree, workload, seed, seconds):
    """One perfbench run in `tree`: its final JSON line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    r = subprocess.run(cmd, cwd=tree, text=True, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise RuntimeError("%s exited %d in %s:\n%s" % (
            " ".join(cmd), r.returncode, tree, r.stderr[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def midranks(values):
    order = sorted(range(len(values)), key=lambda k: values[k])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def u_distribution(n1, n2):
    """counts[u]: how many of the C(n1+n2, n1) rank assignments give the
    Mann-Whitney statistic u, for samples of sizes n1 and n2 without ties."""
    # ways[k][s]: k-subsets of the ranks seen so far with rank sum s.
    top = (n1 + n2) * (n1 + n2 + 1) // 2
    ways = [[0] * (top + 1) for _ in range(n1 + 1)]
    ways[0][0] = 1
    for r in range(1, n1 + n2 + 1):
        for k in range(min(r, n1), 0, -1):
            row, prev = ways[k], ways[k - 1]
            for s in range(top, r - 1, -1):
                row[s] += prev[s - r]
    base = n1 * (n1 + 1) // 2
    return [ways[n1][base + u] for u in range(n1 * n2 + 1)]


def rank_sum_p(a, b):
    """Two-sided Mann-Whitney rank-sum p-value of samples `a` and `b`:
    exact without ties for up to 40 values, else the normal approximation
    with tie and continuity corrections."""
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        return float("nan")
    pooled = list(a) + list(b)
    ranks = midranks(pooled)
    u = sum(ranks[:n1]) - n1 * (n1 + 1) / 2
    mean = n1 * n2 / 2
    n = n1 + n2
    tied = len(set(pooled)) < n
    if not tied and n <= 40:
        counts = u_distribution(n1, n2)
        far = abs(u - mean)
        hits = sum(c for k, c in enumerate(counts)
                   if abs(k - mean) >= far - 1e-9)
        return min(1.0, hits / sum(counts))
    groups = {}
    for v in pooled:
        groups[v] = groups.get(v, 0) + 1
    ties = sum(t ** 3 - t for t in groups.values())
    var = n1 * n2 / 12 * ((n + 1) - ties / (n * (n - 1)))
    if var <= 0:
        return 1.0
    z = max(0.0, abs(u - mean) - 0.5) / math.sqrt(var)
    return min(1.0, math.erfc(z / math.sqrt(2)))


def fmt(x):
    if x == 0 or 0.01 <= abs(x) < 1e5:
        return "%.4g" % x
    return "%.3g" % x


def report(workload, seed, pairs, directions, runs, names):
    parent, change = runs["parent"], runs["change"]
    metrics = [m for m in directions
               if all(m in r["metrics"] for r in parent + change)]
    print("| Workload, seed (pairs) | Metric | Parent: median (q1–q3) "
          "| Change: median (q1–q3) | Change wins | Rank-sum p |")
    print("| --- | --- | ---: | ---: | ---: | ---: |")
    for i, m in enumerate(metrics):
        a = [r["metrics"][m]["value"] for r in parent]
        b = [r["metrics"][m]["value"] for r in change]
        higher = directions[m] == "higher"
        wins = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
        cells = []
        for xs in (a, b):
            q1, q3 = quartiles(xs)
            cells.append("%s (%s–%s)" % (fmt(statistics.median(xs)), fmt(q1),
                                          fmt(q3)))
        label = "%s, %d (%d)" % (workload, seed, pairs) if i == 0 else ""
        print("| %s | `%s` | %s | %s | %d/%d | %.2g |" % (
            label, m, cells[0], cells[1], wins, len(a), rank_sum_p(a, b)))
    print()
    for side in ("parent", "change"):
        rs = runs[side]
        print("%s %s: %d failed of %d attempted trials" % (
            side, names[side], sum(r["failed"] for r in rs),
            sum(r["attempted"] for r in rs)))


def main():
    p = argparse.ArgumentParser(
        description="Alternate perfbench runs of two commits and compare "
                    "their end-to-end metrics.")
    p.add_argument("parent", help="the baseline commit")
    p.add_argument("change", help="the commit under test")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="per run; default: BENCHMARK.json's run_seconds")
    p.add_argument("--workdir",
                   help="where the worktrees go (default: a new temporary "
                        "directory)")
    a = p.parse_args()
    if a.pairs < 1:
        p.error("--pairs must be at least 1")
    if a.seconds is not None and a.seconds <= 0:
        p.error("--seconds must be positive")

    try:
        repo = git(os.getcwd(), "rev-parse", "--show-toplevel")
        commits = {side: git(repo, "rev-parse", "--verify",
                             "%s^{commit}" % ref)
                   for side, ref in (("parent", a.parent),
                                     ("change", a.change))}
    except RuntimeError as e:
        p.error(str(e))

    # SIGTERM ends the run like Ctrl-C does, so the worktrees still go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    workdir = a.workdir or tempfile.mkdtemp(prefix="ab-")
    made_workdir = a.workdir is None
    trees = {}
    try:
        for side in ("parent", "change"):
            tree = os.path.join(workdir, side)
            git(repo, "worktree", "add", "--detach", tree, commits[side])
            trees[side] = tree
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
            directions = {m["name"]: m["better"]
                          for m in json.load(f)["end_to_end"]}
        for side in ("parent", "change"):
            print("building %s (%s) with a warm-up run" % (
                side, commits[side][:10]), file=sys.stderr, flush=True)
            run_once(trees[side], a.workload, a.seed, 1)

        runs = {"parent": [], "change": []}
        for i in range(a.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            for side in order:
                r = run_once(trees[side], a.workload, a.seed, a.seconds)
                runs[side].append(r)
                print("pair %d/%d %s: %s, %d failed of %d" % (
                    i + 1, a.pairs, side,
                    ", ".join("%s %s" % (m, fmt(v["value"]))
                              for m, v in r["metrics"].items()),
                    r["failed"], r["attempted"]),
                    file=sys.stderr, flush=True)
        names = {side: commits[side][:10] for side in commits}
        report(a.workload, a.seed, a.pairs, directions, runs, names)
        return 0
    except RuntimeError as e:
        print("ab.py: %s" % e, file=sys.stderr)
        return 1
    finally:
        for tree in trees.values():
            subprocess.run(["git", "-C", repo, "worktree", "remove", "--force",
                            tree], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
        subprocess.run(["git", "-C", repo, "worktree", "prune"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if made_workdir:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
