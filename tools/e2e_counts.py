#!/usr/bin/env python3
"""Turn traced bench_e2e reports into BENCH_e2e.json for the counter gate.

usage: e2e_counts.py SIMD_JSON REPORT...

Each REPORT is the e2e_<workload>.json that
`bench_e2e/run_e2e.sh --workload W --seed S --trace 1 --seconds N` leaves in
.bench_build/bench_out/. Its core.*_pq and vec.*_pq count metrics are sums
over the workload's fixed counter sample divided by the sample size, so
they repeat exactly for a seed once the sample is full. This script
multiplies them back into integer sums and writes BENCH_e2e.json in the
working directory in the layout of bench/bench_common.h's BenchJson: one
row per report, its "counts" the sums plus the sample size.

The header's "scale" holds the seed and "queries" the --seconds of the
runs, so tools/bench_gate.py fails a baseline written with other values.
The reports do not record the SIMD level; "simd_level" is copied from
SIMD_JSON, a BENCH_*.json written on the same host in the same run.

Exits non-zero, writing nothing, when a report is untraced, has a wrong
answer or a failed operation or a short counter sample, or when the
reports disagree on seed or seconds.
"""

import json
import re
import sys

COUNT_METRIC = re.compile(r"^((?:core|vec)\..+)_pq$")


def row_of(report):
    """(label, counts) of one report, or raises ValueError."""
    name = report.get("workload")
    if not report.get("trace"):
        raise ValueError(f"{name}: not a --trace 1 run")
    if not report.get("correct") or report.get("failed"):
        raise ValueError(f"{name}: wrong answers or failed operations")
    # Other invalid marks (a late generator, say) leave the sample's
    # counts as they are; a short sample changes them.
    if "counter sample short" in report.get("invalid", []):
        raise ValueError(f"{name}: counter sample short; raise --seconds")
    n = report["samples"]["counter_sample"]
    counts = {"counter_sample": n}
    for key, metric in report["metrics"].items():
        m = COUNT_METRIC.match(key)
        if not m or metric["unit"] != "count":
            continue
        total = metric["value"] * n
        counts[m.group(1)] = round(total)
        if abs(total - round(total)) > 1e-6 * max(1.0, abs(total)):
            raise ValueError(f"{name}: {key} * {n} = {total} is no count")
    return name, counts


def main(argv):
    if len(argv) < 3 or argv[1] in ("-h", "--help"):
        print(__doc__)
        return 0 if len(argv) > 1 and argv[1] in ("-h", "--help") else 2
    with open(argv[1]) as f:
        simd_level = json.load(f)["simd_level"]
    reports = []
    for path in argv[2:]:
        with open(path) as f:
            reports.append(json.load(f))
    runs = {(r.get("seed"), r.get("seconds")) for r in reports}
    if len(runs) != 1:
        print(f"e2e_counts: reports disagree on (seed, seconds): {runs}",
              file=sys.stderr)
        return 1
    seed, seconds = runs.pop()
    try:
        rows = [row_of(r) for r in reports]
    except ValueError as e:
        print(f"e2e_counts: {e}", file=sys.stderr)
        return 1
    lines = [
        "{",
        '  "schema": "BENCH_e2e/v1",',
        f'  "hw_threads": {reports[0]["hw_threads"]},',
        f'  "simd_level": "{simd_level}",',
        f'  "scale": {seed},',
        f'  "queries": {seconds},',
        '  "rows": [',
    ]
    for i, (label, counts) in enumerate(rows):
        body = ", ".join(f'"{k}": {v}' for k, v in counts.items())
        comma = "," if i + 1 < len(rows) else ""
        lines.append(f'    {{"row": "{label}", "counts": {{{body}}}}}{comma}')
    lines += ["  ]", "}"]
    with open("BENCH_e2e.json", "w") as f:
        f.write("\n".join(lines) + "\n")
    print("wrote BENCH_e2e.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
