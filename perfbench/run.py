#!/usr/bin/env python3
"""PDNspot benchmark: shipped CLIs end to end, or a traced replay.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                           --trace <0|1>

Builds the repository in Release under .bench_build/perfbench (first
run only), writes the workload's spec from --seed (perfbench/gen.py)
and then, for --seconds seconds:

  --trace 0  runs the workload's CLI (pdnspot_campaign or
             pdnspot_fleet) one process at a time, each full run
             followed by two --dry-run runs, and reports wall_s,
             cpu_s, setup_s and peak_rss_mb;
  --trace 1  runs perfbench_replay, which replays the same spec
             in-process and times each layer.

Every run checks the outputs: each CLI run's CSV is byte-identical to
the first; campaign_oracle also matches a 1-thread run; and every
cell is cross-checked against the replay. The last line of stdout is
the JSON result. A result file with the host stamp and the sample
counts lands in .bench_build/perfbench/results/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import gen  # noqa: E402

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}

# Per-layer metrics and units, as perfbench_replay names them.
LAYER_UNITS = {
    "config.bind_ms": "ms",
    "workload.resolve_ms": "ms",
    "workload.phases": "count",
    "workload.unique_states": "count",
    "pdnspot.platform_build_us": "us",
    "flexwatts.etee_table_build_us": "us",
    "power.op_build_ns": "ns",
    "pdn.evaluate_ns.ivr": "ns",
    "pdn.evaluate_ns.mbvr": "ns",
    "pdn.evaluate_ns.ldo": "ns",
    "pdn.evaluate_ns.imbvr": "ns",
    "pdn.evaluate_ns.flexwatts": "ns",
    "flexwatts.algorithm1_ns": "ns",
    "flexwatts.oracle_pick_ns": "ns",
    "sim.static_cell_ms": "ms",
    "sim.oracle_cell_ms": "ms",
    "sim.pmu_cell_ms": "ms",
    "pmu.ticks": "count",
    "pmu.ns_per_tick": "ns",
    "campaign.run_s": "s",
    "campaign.cells": "count",
    "csv.write_ms": "ms",
    "fleet.first_bucket_ms": "ms",
    "fleet.bucket_ms": "ms",
    "fleet.session_buckets": "count",
    "fleet.deaths": "count",
    "fleet.ns_per_session_bucket": "ns",
    "traced.wall_s": "s",
}

# Relative tolerance of the replay cross-check on energies and times.
# Far above the ~1e-12 summation-order drift an event-stepped PMU
# kernel may introduce, far below any modelling change.
REL_TOL = 1e-9


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------- build

def build():
    """Configure (once) and build the CLIs and perfbench_replay."""
    os.makedirs(BUILD, exist_ok=True)
    cmake = shutil.which("cmake")
    if not cmake:
        raise BenchError("cmake not found")
    logpath = os.path.join(BUILD, "build.log")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(logpath, "a", encoding="utf-8") as logf:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "build.ninja")) and \
                not os.path.exists(os.path.join(BUILD, "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append([cmake, "-S", HERE, "-B", BUILD, *generator,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append([cmake, "--build", BUILD, "-j", "2", "--target",
                      "pdnspot_campaign", "pdnspot_fleet",
                      "perfbench_replay"])
        for argv in steps:
            rc = subprocess.call(argv, stdout=logf, stderr=logf, env=env)
            if rc != 0:
                raise BenchError(f"build step failed ({rc}); see {logpath}")
    return {
        "campaign": os.path.join(BUILD, "pdnspot", "tools",
                                 "pdnspot_campaign"),
        "fleet": os.path.join(BUILD, "pdnspot", "tools", "pdnspot_fleet"),
        "replay": os.path.join(BUILD, "perfbench_replay"),
    }


def host_stamp():
    """CPU model, nproc, compiler and build type of this result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True,
                                 check=False).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


# ------------------------------------------------------------- running

def spawn(argv, threads, stderr_path):
    """Run one child to completion: (exit code, wall s, cpu s, rss MB)."""
    env = dict(os.environ, PDNSPOT_THREADS=str(threads))
    with open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


class Workload:
    def __init__(self, name, seed, bins, work):
        self.name = name
        self.threads = gen.THREADS[name]
        self.kind = "fleet" if name.startswith("fleet") else "campaign"
        self.bin = bins[self.kind]
        self.replay = bins["replay"]
        self.work = work
        self.spec = gen.write_spec(name, seed, work)
        self.stderr = os.path.join(work, "stderr.log")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)
        log(f"FAILED: {what}")

    def cli(self, out, threads=None, dry=False):
        threads = threads or self.threads
        argv = [self.bin, self.spec, "--threads", str(threads)]
        argv += ["--dry-run"] if dry else ["-o", out, "--quiet"]
        self.attempted += 1
        rc, wall, cpu, rss = spawn(argv, threads, self.stderr)
        if rc != 0:
            self.fail(f"{os.path.basename(self.bin)} exited {rc}")
            return None
        return wall, cpu, rss

    def cli_csv(self, threads=None):
        """One full CLI run; returns its CSV bytes (None on failure)."""
        out = os.path.join(self.work, "out.csv")
        if self.cli(out, threads) is None:
            return None
        with open(out, "rb") as f:
            return f.read()

    def same_as_reference(self, data, what):
        if data is not None and data != self.reference:
            self.fail(f"{what}: CSV differs from the first run")

    def replay_run(self, seconds, check_path):
        self.attempted += 1
        argv = [self.replay, self.kind, self.spec, "--threads",
                str(self.threads), "--seconds", str(seconds),
                "--check-out", check_path]
        env = dict(os.environ, PDNSPOT_THREADS=str(self.threads))
        with open(self.stderr, "ab") as err:
            proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                                  stderr=err, check=False)
        if proc.returncode != 0:
            self.fail(f"perfbench_replay exited {proc.returncode}")
            return None
        try:
            return json.loads(proc.stdout)
        except ValueError:
            self.fail("perfbench_replay printed no JSON")
            return None

    def cross_check(self, check_path):
        """Compare the replay's results with the CLI's CSV."""
        self.attempted += 1
        with open(check_path, "rb") as f:
            data = f.read()
        ref = self.reference
        if self.kind == "campaign":
            # Direct per-cell results, then the engine's own CSV.
            if not data.endswith(ref):
                self.fail("replay engine CSV differs from the CLI CSV")
                return
            direct = data[:len(data) - len(ref)]
            # trace, platform, pdn, mode, mode_switches
            problem = compare_rows(direct, ref, exact=(0, 1, 2, 3, 9))
        else:
            # bucket, sessions_alive, mode_switches, deaths, storm
            problem = compare_rows(data, ref, exact=(0, 2, 5, 6, 7))
        if problem:
            self.fail(f"replay cross-check: {problem}")


def compare_rows(got, want, exact):
    """Row counts and `exact` columns equal; numbers within REL_TOL."""
    got_rows = got.decode().splitlines()
    want_rows = want.decode().splitlines()
    if len(got_rows) != len(want_rows):
        return f"{len(got_rows)} rows, CLI wrote {len(want_rows)}"
    if got_rows[0] != want_rows[0]:
        return "header differs"
    for i, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), 1):
        gf, wf = g.split(","), w.split(",")
        if len(gf) != len(wf):
            return f"row {i}: column count differs"
        for c, (a, b) in enumerate(zip(gf, wf)):
            if c in exact:
                if a != b:
                    return f"row {i} column {c}: {a} != {b}"
                continue
            x, y = float(a), float(b)
            if abs(x - y) > REL_TOL * max(abs(x), abs(y)):
                return f"row {i} column {c}: {a} vs {b}"
    return None


def run_e2e(wl, seconds):
    """Time CLI runs for `seconds`; return e2e metrics and raw samples."""
    wl.reference = wl.cli_csv()  # warm-up; every later CSV must match
    if wl.reference is None:
        raise BenchError("the first CLI run failed")
    out = os.path.join(wl.work, "out.csv")
    walls, cpus, rsss, setups = [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        sample = wl.cli(out)
        if sample is not None:
            with open(out, "rb") as f:
                wl.same_as_reference(f.read(), "repeat run")
            walls.append(sample[0])
            cpus.append(sample[1])
            rsss.append(sample[2])
        for _ in range(2):
            dry = wl.cli(out, dry=True)
            if dry is not None:
                setups.append(dry[0])
    if not walls or not setups:
        raise BenchError("no successful CLI run")

    if wl.name == "campaign_oracle":
        wl.same_as_reference(wl.cli_csv(threads=1), "1-thread run")
    check = os.path.join(wl.work, "check.csv")
    if wl.replay_run(0, check) is not None:
        wl.cross_check(check)

    # Full-run times are means over the window; README.md shows why.
    # Dry runs last about a millisecond, so one scheduler stall would
    # move their mean: setup_s is their median.
    metrics = {
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rsss),
    }
    raw = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups,
           "peak_rss_mb": rsss}
    return metrics, raw


def run_traced(wl, seconds):
    """Replay in-process; return per-layer metrics and sample counts."""
    wl.reference = wl.cli_csv()
    if wl.reference is None:
        raise BenchError("the CLI run failed")
    check = os.path.join(wl.work, "check.csv")
    layers = wl.replay_run(seconds, check)
    if layers is None:
        raise BenchError("the replay failed")
    wl.cross_check(check)
    missing = sorted(set(LAYER_UNITS) - set(layers))
    if missing:
        raise BenchError(f"replay did not report {missing}")
    metrics = {k: layers[k]["value"] for k in LAYER_UNITS}
    samples = {k: layers[k]["samples"] for k in LAYER_UNITS}
    return metrics, samples


def main():
    ap = argparse.ArgumentParser(description="PDNspot benchmark")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bins = build()
        stamp = host_stamp()
    except BenchError as e:
        log(str(e))
        return 2

    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        wl = Workload(args.workload, args.seed, bins, work)
        raw = {}
        if args.trace:
            metrics, samples = run_traced(wl, args.seconds)
            units = LAYER_UNITS
        else:
            metrics, raw = run_e2e(wl, args.seconds)
            samples = {k: len(v) for k, v in raw.items()}
            units = E2E_UNITS
    except BenchError as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "threads": wl.threads, "host": stamp,
        "attempted": wl.attempted, "failed": wl.failed,
        "problems": wl.problems,
        "metrics": {k: {"value": metrics[k], "unit": units[k],
                        "samples": samples[k], "raw": raw.get(k)}
                    for k in units},
    }
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(f"host: {json.dumps(stamp)}")
    for k in units:
        print(f"{k}: {metrics[k]:.6g} {units[k]} (n={samples[k]})")
    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
