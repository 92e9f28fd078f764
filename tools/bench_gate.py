#!/usr/bin/env python3
"""Counter gate: compare fresh BENCH_*.json files with committed baselines.

usage: bench_gate.py BASELINE_DIR CURRENT_DIR

Every bench writes BENCH_<name>.json through the one writer in
bench/bench_common.h: a header (schema, hw_threads, simd_level, scale,
queries) and a list of rows. Each row holds a "counts" object of
deterministic work counts and, beside it, ungated fields (seconds, rates,
ratios and counts that depend on scheduling).

The gate compares the "counts" objects of BASELINE_DIR's files with
CURRENT_DIR's, row by row, for every BENCH_*.json in either directory. It
fails on a changed, missing or extra count, a changed row count or row
label, a changed schema, a file present in only one directory, and a
header whose scale or queries differ (the counts are only comparable at
one workload size). When the two headers' simd_level differs, the file's
comparison is skipped with a printed reason: the kernels of another
instruction set may count differently. Wall-time fields are printed as
current/baseline ratios and never fail.

To accept a count change, regenerate the JSON in the same change and
explain the new counts in CHANGES.md. Run the bench from the repo root
with PEXESO_BENCH_SCALE and PEXESO_BENCH_QUERIES unset, as tools/ci.sh
does; a baseline written at another scale or query count fails the gate.
"""

import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def is_wall_time(key):
    return "seconds" in key or "per_sec" in key


def compare_file(name, base, cur):
    """Returns (failure lines, info lines) for one file pair."""
    if base.get("simd_level") != cur.get("simd_level"):
        return [], [f"{name}: skipped, simd_level {base.get('simd_level')!r} "
                    f"in the baseline vs {cur.get('simd_level')!r} now"]
    fails, info = [], []
    for key in ("scale", "queries"):
        if base.get(key) != cur.get(key):
            fails.append(f"{name}: {key} {base.get(key)!r} in the baseline "
                         f"vs {cur.get(key)!r} now; run both with "
                         "PEXESO_BENCH_SCALE and PEXESO_BENCH_QUERIES unset")
    if base.get("schema") != cur.get("schema"):
        fails.append(f"{name}: schema {base.get('schema')} -> "
                     f"{cur.get('schema')}")
    base_rows, cur_rows = base.get("rows", []), cur.get("rows", [])
    if len(base_rows) != len(cur_rows):
        fails.append(f"{name}: {len(base_rows)} rows -> {len(cur_rows)}")
    for b, c in zip(base_rows, cur_rows):
        row = b.get("row")
        if row != c.get("row"):
            fails.append(f"{name}: row {row!r} -> {c.get('row')!r}")
            continue
        bc, cc = b.get("counts", {}), c.get("counts", {})
        for key in sorted(bc.keys() | cc.keys()):
            if key not in cc:
                fails.append(f"{name}: row {row!r}: {key} missing "
                             f"(was {bc[key]})")
            elif key not in bc:
                fails.append(f"{name}: row {row!r}: {key} is new "
                             f"({cc[key]})")
            elif bc[key] != cc[key]:
                fails.append(f"{name}: row {row!r}: {key} changed "
                             f"{bc[key]} -> {cc[key]}")
        ratios = [f"{key} x{c[key] / b[key]:.2f}" for key in b
                  if is_wall_time(key) and isinstance(b[key], (int, float))
                  and isinstance(c.get(key), (int, float)) and b[key] > 0]
        if ratios:
            info.append(f"{name}: row {row!r}: " + ", ".join(ratios))
    return fails, info


def main(argv):
    if len(argv) != 3 or argv[1] in ("-h", "--help"):
        print(__doc__)
        return 0 if len(argv) > 1 and argv[1] in ("-h", "--help") else 2
    base_dir, cur_dir = argv[1], argv[2]
    names = sorted({n for d in (base_dir, cur_dir) for n in os.listdir(d)
                    if n.startswith("BENCH_") and n.endswith(".json")})
    fails, info = [], []
    for name in names:
        base_path = os.path.join(base_dir, name)
        cur_path = os.path.join(cur_dir, name)
        if not os.path.exists(base_path):
            fails.append(f"{name}: no committed baseline")
            continue
        if not os.path.exists(cur_path):
            fails.append(f"{name}: missing; its bench did not write it")
            continue
        f, i = compare_file(name, load(base_path), load(cur_path))
        fails += f
        info += i
    for line in info:
        print(line)
    for line in fails:
        print("FAIL " + line)
    if fails:
        print(f"bench gate: {len(fails)} failure(s). To accept a count "
              "change, regenerate the JSON in the same change and explain "
              "the new counts in CHANGES.md (bench_gate.py -h).")
        return 1
    print(f"bench gate: OK ({len(names)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
