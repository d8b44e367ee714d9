#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the saved standard output of benchmark runs, one file
per run. A run's output ends with its fingerprint line and result line. For
every (workload, metric) the medians of the two sets are compared; a metric
that got worse by more than its bound is a regression. Runs whose machine
fingerprints (nproc, CPU, compiler, build type) differ are flagged, since
their numbers are not comparable. Exits 1 on a regression, a failed run or a
fingerprint mismatch.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MACHINE_KEYS = ("nproc", "cpu", "compiler", "build_type")


def load(directory):
    """{(workload, trace): [(fingerprint, result)]} of every run in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        prints = [line for line in lines if line.startswith("fingerprint ")]
        if not prints or not lines:
            continue
        fingerprint = json.loads(prints[-1][len("fingerprint "):])
        result = json.loads(lines[-1])
        key = (fingerprint["workload"], fingerprint["trace"])
        runs.setdefault(key, []).append((fingerprint, result))
    return runs


def main(base_dir, new_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(base_dir), load(new_dir)
    bad = False
    machines = {tuple(fp[k] for k in MACHINE_KEYS)
                for runs in list(base.values()) + list(new.values()) for fp, _ in runs}
    if len(machines) > 1:
        print("FINGERPRINT MISMATCH: results come from %d machine configurations:" % len(machines))
        for machine in sorted(machines):
            print("  " + ", ".join("%s=%s" % kv for kv in zip(MACHINE_KEYS, machine)))
        bad = True
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        if trace:
            continue  # per-layer metrics carry no bound
        for side, runs in (("base", base[key]), ("new", new[key])):
            failed = [fp["seed"] for fp, r in runs if not r["correct"] or r["failed"]]
            if failed:
                print("%s %s: runs with seeds %s failed the correctness gate" % (side, workload, failed))
                bad = True
        for name, metric in bounds.items():
            before = statistics.median(r["metrics"][name]["value"] for _, r in base[key])
            after = statistics.median(r["metrics"][name]["value"] for _, r in new[key])
            change = (after - before) / before if before else 0.0
            worse = change > metric["bound"] if metric["better"] == "lower" else -change > metric["bound"]
            bad |= worse
            print("%-14s %-24s %14.6g -> %14.6g  %+7.2f%%  (bound %.0f%%)%s" % (
                workload, name, before, after, 100 * change, 100 * metric["bound"],
                "  REGRESSION" if worse else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
