#!/usr/bin/env python3
"""The repository's benchmark: builds `ldb` and the benchmark program from source, then
runs one workload, or compares two sets of results.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 15 --trace 0 [--out runs.jsonl]

Workloads are listed in BENCHMARK.json. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the line before it is the full
vardi-bench/2 record (host, seed, run length, daemon flags, sizes, every
metric), which --out also appends to a file.

Compare two result sets (files of vardi-bench/2 records):

    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-read", "serve-write", "approx-batch")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a checkout of the repository" % ROOT)
    cmd = dune_command() + ["build", "--root", ROOT, "./bin/ldb.exe", "./perfbench/main.exe"]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(args):
    build()
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ldb", os.path.join(ROOT, "_build", "default", "bin", "ldb.exe"),
           "--commit", commit()]
    if args.out:
        cmd += ["--out", os.path.abspath(args.out)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


# --- compare ---------------------------------------------------------------

def load_records(path):
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{"):
                r = json.loads(line)
                if r.get("schema") == "vardi-bench/2":
                    records.append(r)
    return records


def spread(values):
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return float("inf")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def by_workload(records, trace, key):
    out = {}
    for r in records:
        if r["trace"] != trace:
            continue
        for name, m in r[key].items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return out


def worse_share(old, new, better):
    """Signed change of the median, positive when the new side is worse."""
    change = (statistics.median(new) - statistics.median(old)) / statistics.median(old)
    return change if better == "lower" else -change


def verdict(old, new, bound, better):
    worse = worse_share(old, new, better)
    wins = (lambda a, b: a < b) if better == "lower" else (lambda a, b: a > b)
    all_better = all(wins(n, o) for n in new for o in old)
    pairs = [(n, o) for n in new for o in old]
    won = sum(1 for n, o in pairs if wins(n, o)) / len(pairs)
    noise = spread(old)
    if noise > bound and not all_better:
        return "unresolved", worse, "spread %.3f > bound" % noise
    if worse > bound:
        return "worse", worse, ""
    if -worse > noise and won >= 0.9:
        return "better", worse, ""
    return "unresolved", worse, "within bound"


def compare(old_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    old, new = load_records(old_path), load_records(new_path)
    old_e2e, new_e2e = by_workload(old, False, "metrics"), by_workload(new, False, "metrics")
    old_lay, new_lay = by_workload(old, True, "layers"), by_workload(new, True, "layers")
    worst = 0
    for w in spec["workloads"]:
        name = w["name"]
        if name not in old_e2e or name not in new_e2e:
            print("%s: no untraced runs on both sides" % name)
            continue
        print("%s (%d old runs, %d new runs)" % (
            name, len(next(iter(old_e2e[name].values()))), len(next(iter(new_e2e[name].values())))))
        for m in spec["end_to_end"]:
            o, n = old_e2e[name].get(m["name"]), new_e2e[name].get(m["name"])
            if not o or not n:
                continue
            v, change, note = verdict(o, n, m["bound"], m["better"])
            worst = max(worst, 1 if v == "worse" else 0)
            print("  %-16s %-10s %12.5g -> %-12.5g %s by %5.2f%% (bound %.0f%%) %s" % (
                m["name"], v, statistics.median(o), statistics.median(n),
                "worse" if change > 0 else "better", 100 * abs(change), 100 * m["bound"], note))
        deltas = []
        for lay, o in old_lay.get(name, {}).items():
            n = new_lay.get(name, {}).get(lay)
            if n and statistics.median(o) != 0:
                deltas.append((lay, statistics.median(o), statistics.median(n)))
        if deltas:
            print("  per-layer medians (traced runs):")
            for lay, o, n in sorted(deltas, key=lambda d: -abs(d[2] / d[1] - 1)):
                print("    %-32s %12.5g -> %-12.5g %+7.2f%%" % (lay, o, n, 100 * (n / o - 1)))
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if args.workload is None or args.seed is None or args.seconds is None or args.seconds < 1:
        p.error("--workload, --seed and --seconds (>= 1) are required")
    sys.exit(run(args))


if __name__ == "__main__":
    main()
