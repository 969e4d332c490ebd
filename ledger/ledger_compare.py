#!/usr/bin/env python3
"""Compare two sets of perf-ledger runs, workload by workload and metric by metric.

    python3 ledger/ledger_compare.py PARENT_DIR CHANGE_DIR [--paired] [--per-layer]

Each directory holds the saved standard output of runs (`ledger/run.py` or `bench_ledger`),
one file per run; every line that is a bench_ledger record (a JSON object with "workload"
and "metrics") counts as one run. For each workload and end-to-end metric of BENCHMARK.json
the script prints both sides' median and quartiles, the metric's bound, and a verdict:

  worse       the change's median is worse than the parent's by more than the bound
  unresolved  a side's spread (interquartile range over median) exceeds the bound, and not
              every change run beats every parent run
  better      the gain rule holds: the medians differ by more than the parent's own
              interquartile range and, with --paired, the change wins at least 9 of every
              10 pairs (ties count for neither side); without --paired the gap must also
              exceed the bound, and the verdict alone cannot support a claim
  same        none of the above

--paired matches runs by position after sorting each side's files by name, so name the
files alike (forum-chain-01.out ... in both directories). --per-layer also lists the
per-layer metrics (medians and quartiles, no verdict). The exit code is 1 when any
verdict is worse or unresolved, or any run failed its correctness gates.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if "workload" in record and "metrics" in record:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(parent, change, bound, higher_better, paired):
    sign = 1 if higher_better else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = sign * (c_med - p_med)  # > 0: the change is better.
    if spread(parent) > bound or spread(change) > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return "better" if all_better else "unresolved", None
    if p_med and -gain / abs(p_med) > bound:
        return "worse", None
    p_q1, p_q3 = quartiles(parent)
    wins = None
    if paired:
        pairs = list(zip(parent, change))
        won = sum(1 for p, c in pairs if sign * (c - p) > 0)
        wins = f"{won}/{len(pairs)}"
        if gain > p_q3 - p_q1 and won * 10 >= 9 * len(pairs):
            return "better", wins
    elif gain > p_q3 - p_q1 and p_med and gain / abs(p_med) > bound:
        return "better", wins
    return "same", wins


def fmt(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--paired", action="store_true")
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load_runs(args.parent), load_runs(args.change)
    bad = False
    print(f"{'workload':12} {'metric':38} {'parent median [q1, q3]':38} "
          f"{'change median [q1, q3]':38} {'bound':>6} {'delta':>8}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload:12} (no runs: parent {len(p_runs)}, change {len(c_runs)})")
            continue
        failed = [r for r in p_runs + c_runs if not r.get("ok")]
        if failed:
            bad = True
            print(f"{workload:12} {len(failed)} run(s) failed their correctness gates")
        if args.paired and len(p_runs) != len(c_runs):
            print(f"{workload:12} cannot pair {len(p_runs)} parent with {len(c_runs)} change runs")
            bad = True
            continue
        rows = [(m, True) for m in spec["end_to_end"]]
        if args.per_layer:
            rows += [(m, False) for m in spec["per_layer"]]
        for m, gated in rows:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            if not p or not c:
                continue
            p_med = statistics.median(p)
            delta = f"{100 * (statistics.median(c) - p_med) / abs(p_med):+.2f}%" if p_med else "-"
            if gated:
                v, wins = verdict(p, c, m["bound"], m["better"] == "higher", args.paired)
                bad |= v in ("worse", "unresolved")
                label = v + (f" (pairs won {wins})" if wins else "")
                bound = f"{m['bound']:.2f}"
            else:
                label, bound = "-", "-"
            print(f"{workload:12} {name:38} {fmt(p):38} {fmt(c):38} {bound:>6} {delta:>8}  {label}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
