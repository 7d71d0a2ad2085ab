#!/usr/bin/env bash
# Benchmark-trajectory driver: run the campaign / fleet /
# parallel-sweep / observability benches in --json mode, merge their
# records into the next BENCH_<n>.json snapshot at the repo root, and
# diff it against the previous snapshot with tools/bench_diff (warn
# >5%, fail >20% regression) — so the perf trajectory of the inner
# loop (cells/sec, ns/phase) is tracked per PR exactly like test
# results.
#
# Usage: scripts/bench.sh [build-dir]   (default: build)
#
# Environment:
#   PDNSPOT_GIT_REV         revision stamp for the records
#                           (default: git rev-parse --short HEAD)
#   PDNSPOT_BENCH_MIN_TIME  google-benchmark min time per benchmark,
#                           seconds (default 0.1)
#   PDNSPOT_BENCH_FAIL_PCT  bench_diff fail threshold (default 20)
#   PDNSPOT_BENCH_WARN_PCT  bench_diff warn threshold (default 5)

set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
    generator=()
    if command -v ninja >/dev/null 2>&1; then
        generator=(-G Ninja)
    fi
    cmake -B "$build_dir" -S . "${generator[@]}"
fi
# The bench tree is optional (bench/CMakeLists.txt skips it when
# google-benchmark is absent); degrade to a no-op rather than fail
# the caller (scripts/check.sh) on hosts without the library.
if ! grep -q '^benchmark_DIR:PATH=/' "$build_dir/CMakeCache.txt"; then
    echo "bench.sh: google-benchmark not available; skipping" >&2
    exit 0
fi

cmake --build "$build_dir" -j "$(nproc)" \
    --target bench_campaign bench_fleet bench_obs bench_parallel_sweep \
    bench_diff

export PDNSPOT_GIT_REV="${PDNSPOT_GIT_REV:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
min_time="${PDNSPOT_BENCH_MIN_TIME:-0.1}"
fail_pct="${PDNSPOT_BENCH_FAIL_PCT:-20}"
warn_pct="${PDNSPOT_BENCH_WARN_PCT:-5}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The trajectory benches: campaign throughput (cells/sec, ns/phase),
# fleet stepping
# throughput (sessions/sec, ns/session-bucket at 10k-1M populations),
# the sweep fan-out, and the observability overhead pairs
# (metricAdd/SpanScope disabled vs enabled, simulator probed vs
# unbound).
"$build_dir"/bench/bench_campaign --json "$tmp/campaign.json" \
    --benchmark_filter='campaignThroughput' \
    --benchmark_min_time="$min_time" >/dev/null
"$build_dir"/bench/bench_fleet --json "$tmp/fleet.json" \
    --benchmark_filter='fleetThroughput' \
    --benchmark_min_time="$min_time" >/dev/null
"$build_dir"/bench/bench_parallel_sweep --json "$tmp/sweep.json" \
    --benchmark_filter='sweepSerial|sweepParallel/threads:8' \
    --benchmark_min_time="$min_time" >/dev/null
"$build_dir"/bench/bench_obs --json "$tmp/obs.json" \
    --benchmark_filter='obsMetricAdd|obsSpanScope|obsSimProbed' \
    --benchmark_min_time="$min_time" >/dev/null

# Next snapshot index: one past the highest existing BENCH_<n>.json.
next=1
for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    n="${f#BENCH_}"
    n="${n%.json}"
    case "$n" in *[!0-9]* | '') continue ;; esac
    if [ "$n" -ge "$next" ]; then
        next=$((n + 1))
    fi
done

"$build_dir"/tools/bench_diff --merge "BENCH_${next}.json" \
    "$tmp/campaign.json" "$tmp/fleet.json" "$tmp/sweep.json" \
    "$tmp/obs.json"
echo "bench.sh: wrote BENCH_${next}.json"

prev="BENCH_$((next - 1)).json"
if [ "$next" -gt 1 ] && [ -e "$prev" ]; then
    "$build_dir"/tools/bench_diff "$prev" "BENCH_${next}.json" \
        --warn "$warn_pct" --fail "$fail_pct"
else
    echo "bench.sh: no previous snapshot; BENCH_${next}.json is the baseline"
fi
