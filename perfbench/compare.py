#!/usr/bin/env python3
"""Diff two sets of perfbench result records.

Usage: python3 perfbench/compare.py <base> <new>

<base> and <new> are result files or directories of them (as run.py
writes to .bench_build/perfbench/results). Records are grouped by
(workload, trace mode); each metric's median across seeds is compared.
Groups whose host stamps (CPU model, nproc, compiler, build type)
differ are reported as incomparable and not diffed.
"""

import glob
import json
import os
import statistics
import sys


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    groups = {}
    for name in files:
        with open(name, encoding="utf-8") as f:
            record = json.load(f)
        key = (record["workload"], record["trace"])
        groups.setdefault(key, []).append(record)
    return groups


def stamp(records):
    stamps = {json.dumps(r["host"], sort_keys=True) for r in records}
    return stamps.pop() if len(stamps) == 1 else None


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        title = f"{workload} (trace {trace})"
        a, b = stamp(base[key]), stamp(new[key])
        if a is None or a != b:
            print(f"{title}: incomparable host stamps, not diffed")
            continue
        print(f"{title}: {len(base[key])} base vs {len(new[key])} new runs")
        for metric, info in base[key][0]["metrics"].items():
            old = statistics.median(
                r["metrics"][metric]["value"] for r in base[key])
            cur = statistics.median(
                r["metrics"][metric]["value"] for r in new[key]
                if metric in r["metrics"])
            change = f"{(cur - old) / old:+.1%}" if old else "n/a"
            print(f"  {metric:32s} {old:14.6g} -> {cur:14.6g} "
                  f"{info['unit']:6s} {change}")
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]} (trace {key[1]}): only in one set")
    return 0


if __name__ == "__main__":
    sys.exit(main())
