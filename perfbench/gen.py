#!/usr/bin/env python3
"""Seeded spec generator for the benchmark workloads.

Writes each workload's spec file (a pdnspot_campaign or pdnspot_fleet
JSON spec) from one --seed. Every synthesized trace takes a generator
seed derived from it; the CLIs and perfbench_replay receive only the
generated files. The sizes below fix each workload's input size, so a
seed changes the trace contents and never the amount of work:

- generated traces are truncated to a fixed simulated length
  (campaign_pmu), or have a fixed phase count (campaign_oracle);
- fleet cohorts have fixed session counts, bucket and horizon, and
  their synthesized traces (written as trace files beside the spec)
  have fixed phase lengths.

Usage: python3 perfbench/gen.py --seed <n> --out <dir> [--workload <w>]
"""

import argparse
import json
import os
import random

PRESETS = ["fanless-tablet-4w", "ultraportable-15w", "h-series-45w"]

# campaign_pmu: three 100 s traces per platform, 15 cells per platform,
# 3 of them FlexWatts cells stepped by the PMU at the default 50 us.
# Long frames keep each trace near 1000 phases, and with them the PMU
# path's per-phase state, small.
PMU_TRACE_S = 100.0
PMU_FRAME_MS = 400.0

# campaign_oracle: 24 long generator traces.
ORACLE_MIX_TRACES = 16
ORACLE_BURSTY_TRACES = 8
ORACLE_MIX_PHASES = 2000
ORACLE_BURSTS = 1000

# fleet_mixed: three cohorts on a shared clock. A 0.7 s random-mix
# cycle and a 2.8 s bursty cycle leave 43% and 86% of a cycle to walk
# in every 120 s bucket.
FLEET_MIX_PHASES = 35
FLEET_BURSTS = 20
FLEET_SESSIONS_PER_COHORT = 40000
FLEET_BUCKET_MS = 120000.0
FLEET_HORIZON_S = 14400.0

WORKLOADS = ("campaign_pmu", "campaign_oracle", "fleet_mixed")

# Thread count each workload's CLI and replay run at.
THREADS = {"campaign_pmu": 1, "campaign_oracle": 2, "fleet_mixed": 1}


def _seeds(seed, workload):
    """Independent generator seeds per workload, derived from --seed."""
    rng = random.Random(f"{workload}:{seed}")
    return lambda: rng.randrange(1, 1_000_000_000)


def campaign_pmu(seed, out_dir):
    next_seed = _seeds(seed, "campaign_pmu")
    frames = int(PMU_TRACE_S * 1000.0 / PMU_FRAME_MS)
    # 56 bursts average 8.4 s; 16 repeats always outlast the cut.
    bursty = {
        "generator": {"kind": "bursty-compute", "seed": next_seed(),
                      "bursts": 56, "burst_ms": 50.0, "idle_ms": 100.0},
        "name": "bursty-compute",
        "transforms": [{"repeat": 16},
                       {"truncate_ms": PMU_TRACE_S * 1000.0}],
    }
    return {
        "traces": [
            {"profile": "video-playback", "frame_ms": PMU_FRAME_MS,
             "frames": frames, "name": "video-playback"},
            {"profile": "web-browsing", "frame_ms": PMU_FRAME_MS,
             "frames": frames, "name": "web-browsing"},
            bursty,
        ],
        "platforms": PRESETS,
        "pdns": "all",
        "mode": "pmu",
    }


def campaign_oracle(seed, out_dir):
    next_seed = _seeds(seed, "campaign_oracle")
    traces = []
    for i in range(ORACLE_MIX_TRACES):
        traces.append({
            "generator": {"kind": "random-mix", "seed": next_seed(),
                          "phases": ORACLE_MIX_PHASES,
                          "mean_phase_ms": 20.0},
            "name": f"random-mix-{i:02d}",
        })
    for i in range(ORACLE_BURSTY_TRACES):
        traces.append({
            "generator": {"kind": "bursty-compute", "seed": next_seed(),
                          "bursts": ORACLE_BURSTS, "burst_ms": 15.0,
                          "idle_ms": 30.0},
            "name": f"bursty-compute-{i:02d}",
        })
    return {"traces": traces, "platforms": PRESETS, "pdns": "all",
            "mode": "oracle"}


def _trace_csv(path, phases):
    """Write a trace file: (duration_s, cstate, type, ar) rows."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("duration_s,cstate,type,ar\n")
        for duration, cstate, kind, ar in phases:
            f.write(f"{duration},{cstate},{kind},{ar:.4f}\n")


def fleet_traces(seed, out_dir):
    """The fleet's two synthesized cohort traces, as trace files.

    A session walks the phases left over after the bucket's whole
    cycles, so stepping cost follows (bucket mod cycle) / cycle, and
    most sessions die, so the stepped session-buckets follow the mean
    power. Fixed phase lengths and a fixed multiset of states pin
    both; the seed shuffles the states and draws each AR from a
    narrow range.
    """
    rng = random.Random(f"fleet_mixed:traces:{seed}")
    active = ["single-thread", "multi-thread", "graphics"]

    def c0(i):
        return ("C0", active[i % len(active)], rng.uniform(0.5, 0.7))

    idle = ["C0MIN", "C2", "C6", "C8"]
    mix = [c0(i) for i in range(FLEET_MIX_PHASES // 2)]
    mix += [(idle[i % len(idle)], "battery-life", 0.3)
            for i in range(FLEET_MIX_PHASES - len(mix))]
    rng.shuffle(mix)
    bursts = [c0(i) for i in range(FLEET_BURSTS)]
    rests = [("C2" if i % 3 == 0 else "C8", "battery-life", 0.3)
             for i in range(FLEET_BURSTS)]
    rng.shuffle(bursts)
    rng.shuffle(rests)
    paths = {}
    for name, phases in (
            ("mix", [(0.02, *p) for p in mix]),
            ("bursty", [(d, *p) for b, r in zip(bursts, rests)
                        for d, p in ((0.05, b), (0.09, r))])):
        paths[name] = f"fleet_mixed_{name}.csv"
        _trace_csv(os.path.join(out_dir, paths[name]), phases)
    return paths


def fleet_mixed(seed, out_dir):
    traces = fleet_traces(seed, out_dir)
    n = FLEET_SESSIONS_PER_COHORT
    return {
        "bucket_ms": FLEET_BUCKET_MS,
        "horizon_s": FLEET_HORIZON_S,
        "seed": _seeds(seed, "fleet_mixed")(),
        "cohorts": [
            {"name": "tablet-ivr", "count": n,
             "platform": "fanless-tablet-4w", "pdn": "IVR",
             "mode": "static",
             "trace": {"profile": "video-playback", "frame_ms": 33.3,
                       "frames": 10},
             "start_jitter_ms": 10000.0,
             "battery_wh": 2.0, "battery_spread": 0.3},
            {"name": "laptop-oracle", "count": n,
             "platform": "ultraportable-15w", "pdn": "FlexWatts",
             "mode": "oracle",
             "trace": {"file": traces["mix"], "name": "random-mix"},
             "start_jitter_ms": 30000.0,
             "battery_wh": 16.0, "battery_spread": 0.3},
            {"name": "laptop-pmu", "count": n,
             "platform": "h-series-45w", "pdn": "FlexWatts",
             "mode": "pmu",
             "trace": {"file": traces["bursty"],
                       "name": "bursty-compute"},
             "start_jitter_ms": 5000.0,
             "battery_wh": 40.0, "battery_spread": 0.3},
        ],
    }


GENERATORS = {"campaign_pmu": campaign_pmu,
              "campaign_oracle": campaign_oracle,
              "fleet_mixed": fleet_mixed}


def write_spec(workload, seed, out_dir):
    """Write one workload's spec under out_dir and return its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(GENERATORS[workload](seed, out_dir), f, indent=1)
        f.write("\n")
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", choices=WORKLOADS)
    args = ap.parse_args()
    for w in [args.workload] if args.workload else WORKLOADS:
        print(write_spec(w, args.seed, args.out))


if __name__ == "__main__":
    main()
