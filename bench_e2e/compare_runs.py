#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, or summarizes one.

    bench_e2e/compare_runs.py SET_A [SET_B] [--manifest BENCHMARK.json]

A set is a directory; every e2e_*.json below it is one run (run_e2e.sh
--runs N --out DIR writes DIR/run<i>/e2e_<workload>.json). For each
workload x metric it prints each set's median and quartiles and the spread
(q3 - q1) / median. With two sets it also flags:

  * an end-to-end metric whose set medians differ by more than its bound
    in BENCHMARK.json ("DIFFERS", "REGRESSED" when the change is in the
    metric's worse direction) -- or reports it "unresolved" when either
    set's own spread is wider than the bound, since then the comparison
    cannot tell a change from noise;
  * a threshold-mode work counter (core.* and vec.* counts on warm-search
    and wire-openloop) that is not bit-identical across runs of one seed;
  * any run that answered wrongly or is marked invalid (e.g. an open-loop
    generator that ran late).

Exit status 1 when anything is flagged, else 0.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

# Workloads whose threshold-mode counters must repeat exactly for a seed:
# their counter sample is a fixed prefix of a seeded request sequence.
DETERMINISTIC_WORKLOADS = ("warm-search", "wire-openloop")
LATE_LIMIT_MS = 2.0


def load_set(path):
    runs = []
    for dirpath, _, files in os.walk(path):
        for name in sorted(files):
            if name.startswith("e2e_") and name.endswith(".json"):
                with open(os.path.join(dirpath, name)) as f:
                    runs.append(json.load(f))
    if not runs:
        sys.exit(f"compare_runs: no e2e_*.json under {path}")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def by_metric(runs):
    """{workload: {metric: [values]}} and {workload: {metric: unit}}."""
    values = defaultdict(lambda: defaultdict(list))
    units = defaultdict(dict)
    for run in runs:
        for name, m in run["metrics"].items():
            values[run["workload"]][name].append(m["value"])
            units[run["workload"]][name] = m["unit"]
    return values, units


def is_threshold_counter(workload, metric, unit):
    return (workload in DETERMINISTIC_WORKLOADS and
            metric.split(".")[0] in ("core", "vec") and
            unit in ("count", "ratio"))


def run_flags(runs, label):
    flags = []
    for run in runs:
        where = f"{label}: {run['workload']} seed {run['seed']}"
        if not run.get("correct", False) or run.get("failed", 0):
            flags.append(f"{where}: wrong answers ({run.get('failed')} failed)")
        for reason in run.get("invalid", []):
            flags.append(f"{where}: invalid run ({reason})")
        late = run["metrics"].get("gen.late_p99_ms", {}).get("value", 0.0)
        if late > LATE_LIMIT_MS and not run.get("invalid"):
            flags.append(f"{where}: generator late p99 {late:.3f} ms")
    return flags


def counter_flags(runs, label):
    """Threshold-mode counters must be identical across runs of one seed."""
    flags = []
    groups = defaultdict(list)
    for run in runs:
        groups[(run["workload"], run["seed"])].append(run)
    for (workload, seed), group in sorted(groups.items()):
        if len(group) < 2:
            continue
        for metric, m in group[0]["metrics"].items():
            if not is_threshold_counter(workload, metric, m["unit"]):
                continue
            seen = {r["metrics"][metric]["value"] for r in group
                    if metric in r["metrics"]}
            if len(seen) > 1:
                flags.append(f"{label}: {workload} seed {seed}: {metric} "
                             f"not identical across runs: {sorted(seen)}")
    return flags


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:11.5g} [{q1:.4g}, {q3:.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="+", help="one or two run directories")
    parser.add_argument("--manifest", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = parser.parse_args()
    if len(args.sets) > 2:
        sys.exit("compare_runs: give one or two sets")

    with open(args.manifest) as f:
        manifest = json.load(f)
    e2e = {m["name"]: m for m in manifest["end_to_end"]}
    layer = {m["name"]: m for m in manifest["per_layer"]}

    sets = [load_set(p) for p in args.sets]
    labels = ["A", "B"][:len(sets)]
    tables = [by_metric(runs) for runs in sets]
    flags = []
    for runs, label in zip(sets, labels):
        flags += run_flags(runs, label)
        flags += counter_flags(runs, label)
    if len(sets) == 2:
        # Same-seed identity must also hold ACROSS the two sets.
        flags += counter_flags(sets[0] + sets[1], "A+B")

    for label, runs, path in zip(labels, sets, args.sets):
        seeds = sorted({r["seed"] for r in runs})
        shas = sorted({r.get("git_sha", "?") for r in runs})
        print(f"set {label}: {path}: {len(runs)} runs, seeds {seeds}, "
              f"git {shas}")

    workloads = sorted(set().union(*(t[0].keys() for t in tables)))
    for workload in workloads:
        print(f"\n== {workload}")
        header = f"  {'metric':28s} {'unit':10s}"
        for label in labels:
            header += f" {label + ' median [q1, q3]':>36s} {'spread':>7s}"
        if len(sets) == 2:
            header += f" {'change':>8s}  verdict"
        print(header)
        names = list(e2e) + [n for n in layer if n not in e2e]
        extra = sorted(set().union(*(t[0][workload].keys() for t in tables)) -
                       set(names))
        for metric in names + extra:
            cols = [t[0][workload].get(metric) for t in tables]
            if not all(cols):
                continue
            unit = tables[0][1][workload][metric]
            line = f"  {metric:28s} {unit:10s}"
            for values in cols:
                line += f" {fmt(values):>36s} {spread(values):7.3f}"
            if len(sets) == 2:
                a = quartiles(cols[0])[1]
                b = quartiles(cols[1])[1]
                change = (b - a) / a if a else 0.0
                line += f" {change:+8.3f}"
                if metric in e2e:
                    bound = e2e[metric]["bound"]
                    worse = change > 0 if e2e[metric]["better"] == "lower" \
                        else change < 0
                    if max(spread(cols[0]), spread(cols[1])) > bound:
                        line += "  unresolved (spread above bound)"
                    elif abs(change) > bound:
                        verdict = "REGRESSED" if worse else "DIFFERS"
                        line += f"  {verdict} (bound {bound})"
                        flags.append(f"{workload} {metric}: medians differ "
                                     f"by {change:+.3f}, bound {bound}")
                    else:
                        line += "  ok"
            elif metric in e2e:
                bound = e2e[metric]["bound"]
                s = spread(cols[0])
                line += ("  steady" if s <= bound / 3 else
                         "  within bound" if s <= bound else
                         "  NOISY (spread above bound)")
            print(line)

    print()
    if flags:
        print("FLAGGED:")
        for f in flags:
            print("  " + f)
        return 1
    print("nothing flagged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
