#!/usr/bin/env bash
# Full verification pass: configure, build with warnings-as-errors,
# run every registered test in parallel (once on a serial default
# pool, once on a 4-thread one), then repeat the test
# suite under AddressSanitizer + UBSan (the threaded campaign/sweep
# paths are sanitizer-gated). This is the tier-1 gate (ROADMAP.md)
# and is ready to drop into CI as-is.
#
# Usage: scripts/check.sh [build-dir]   (default: build-check; the
# sanitizer pass uses <build-dir>-asan)

set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build-check}"

generator=()
if command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
fi

cmake -B "$build_dir" -S . "${generator[@]}" \
    -DPDNSPOT_WARNINGS=ON \
    -DPDNSPOT_WERROR=ON

cmake --build "$build_dir" -j "$(nproc)"

# The suite must pass whatever the host's core count: once with the
# default pool serial, once with a fixed 4-thread pool (a real pool
# even on a 1-CPU runner).
for threads in 1 4; do
    PDNSPOT_THREADS=$threads ctest --test-dir "$build_dir" \
        -j "$(nproc)" --output-on-failure
done

# Spec-file CLI smoke: pdnspot_campaign on the checked-in example
# spec must reproduce the C++-built acceptance campaign byte for
# byte, serial and parallel (the streaming-export determinism
# contract at the binary surface).
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
"$build_dir"/examples/campaign_study "$smoke_dir/cpp.csv" >/dev/null
PDNSPOT_THREADS=1 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/paper_campaign.json -o "$smoke_dir/spec1.csv"
PDNSPOT_THREADS=8 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/paper_campaign.json -o "$smoke_dir/spec8.csv"
cmp "$smoke_dir/cpp.csv" "$smoke_dir/spec1.csv"
cmp "$smoke_dir/cpp.csv" "$smoke_dir/spec8.csv"
echo "check.sh: pdnspot_campaign spec-file smoke green"

# Trace-source smoke: the measured-workload spec exercises all four
# TraceSpec kinds (library, generator, battery profile, file-backed
# CSV). Results must be byte-identical serial vs 8 threads.
PDNSPOT_THREADS=1 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/measured_campaign.json -o "$smoke_dir/meas1.csv"
PDNSPOT_THREADS=8 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/measured_campaign.json -o "$smoke_dir/meas8.csv"
cmp "$smoke_dir/meas1.csv" "$smoke_dir/meas8.csv"

# Sharding smoke: a 2-way sharded run concatenates to exactly the
# unsharded CSV (shard 1 carries the header, shard 2 does not).
PDNSPOT_THREADS=8 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/measured_campaign.json --shard 1/2 \
    -o "$smoke_dir/shard1.csv"
PDNSPOT_THREADS=8 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/measured_campaign.json --shard 2/2 \
    -o "$smoke_dir/shard2.csv"
cat "$smoke_dir/shard1.csv" "$smoke_dir/shard2.csv" \
    > "$smoke_dir/shardcat.csv"
cmp "$smoke_dir/meas1.csv" "$smoke_dir/shardcat.csv"
echo "check.sh: trace-source + sharding smoke green"

# Trace-transform smoke: the sensitivity spec derives perturbed
# variants (time-scale, AR-perturb, repeat+truncate, concat) of the
# checked-in measured trace; transformed campaigns must stay
# byte-identical at any thread count, and the transform chains must
# surface in --dry-run provenance.
PDNSPOT_THREADS=1 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/sensitivity_campaign.json -o "$smoke_dir/sens1.csv"
PDNSPOT_THREADS=8 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/sensitivity_campaign.json -o "$smoke_dir/sens8.csv"
cmp "$smoke_dir/sens1.csv" "$smoke_dir/sens8.csv"
# Capture, then grep: grep -q on a live pipe closes it at the first
# match and SIGPIPEs the tool mid-provenance (pipefail turns that
# into exit 141).
"$build_dir"/tools/pdnspot_campaign \
    examples/specs/sensitivity_campaign.json --dry-run \
    >"$smoke_dir/dryrun.txt" 2>&1
grep -q "ar-perturb(0.1, seed 7)" "$smoke_dir/dryrun.txt"
echo "check.sh: trace-transform sensitivity smoke green"

# Oracle-mode smoke: the specs above all run in pmu mode; the
# generated-trace spec runs the oracle kernel, which must be
# byte-identical serial vs 8 threads too.
PDNSPOT_THREADS=1 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/generated_campaign.json -o "$smoke_dir/gen1.csv"
PDNSPOT_THREADS=8 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/generated_campaign.json -o "$smoke_dir/gen8.csv"
cmp "$smoke_dir/gen1.csv" "$smoke_dir/gen8.csv"
echo "check.sh: oracle-mode generated-trace smoke green"

# Observability smoke: the exporters must not perturb the campaign
# — CSVs stay byte-identical with --report/--trace-events/--progress
# at 1 and 8 threads — and the paper campaign's report + span trace
# land in the build dir for CI to upload.
PDNSPOT_THREADS=1 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/paper_campaign.json -o "$smoke_dir/obs1.csv" \
    --report "$smoke_dir/obs1_report.json" \
    --trace-events "$smoke_dir/obs1_trace.json" --progress
PDNSPOT_THREADS=8 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/paper_campaign.json -o "$smoke_dir/obs8.csv" \
    --report "$build_dir/paper_report.json" \
    --trace-events "$build_dir/paper_trace.json" --progress
cmp "$smoke_dir/cpp.csv" "$smoke_dir/obs1.csv"
cmp "$smoke_dir/cpp.csv" "$smoke_dir/obs8.csv"
grep -q '"schema": "pdnspot-report-1"' "$build_dir/paper_report.json"
begins=$(grep -c '"ph": "B"' "$build_dir/paper_trace.json")
ends=$(grep -c '"ph": "E"' "$build_dir/paper_trace.json")
test "$begins" -gt 0
test "$begins" -eq "$ends"
# The registry's counters are written concurrently by the 8-thread
# run's workers; the thread-invariant ones must equal the serial
# run's exactly.
python3 - "$smoke_dir/obs1_report.json" \
    "$build_dir/paper_report.json" <<'PY'
import json, sys

def invariant(path):
    with open(path) as f:
        metrics = json.load(f)["metrics"]
    keep = ("campaign.cells", "campaign.phases",
            "campaign.platform_builds", "trace.resolves")
    return {m["name"]: m["count"] for m in metrics
            if m["name"] in keep or m["name"].startswith("sim.runs_")}

serial, threaded = invariant(sys.argv[1]), invariant(sys.argv[2])
if len(serial) != 7 or serial != threaded:
    sys.exit("report counters differ at 1 vs 8 threads: %s vs %s"
             % (serial, threaded))
PY
echo "check.sh: observability smoke green" \
    "($begins spans, report + trace in $build_dir)"

# Probe smoke: waveform capture must not perturb the campaign either
# — the CSV stays byte-identical with --probe-out on vs off — and the
# waveform directory itself is deterministic, byte for byte, at 1 vs
# 8 threads. The paper campaign's waveforms land in the build dir for
# CI to upload next to the report and span trace.
PDNSPOT_THREADS=1 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/paper_campaign.json -o "$smoke_dir/probe1.csv" \
    --probe-out "$smoke_dir/probes1"
PDNSPOT_THREADS=8 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/paper_campaign.json -o "$smoke_dir/probe8.csv" \
    --probe-out "$build_dir/paper_probes"
cmp "$smoke_dir/cpp.csv" "$smoke_dir/probe1.csv"
cmp "$smoke_dir/cpp.csv" "$smoke_dir/probe8.csv"
diff -r "$smoke_dir/probes1" "$build_dir/paper_probes"
waveforms=$(ls "$build_dir"/paper_probes/*.csv | wc -l)
test "$waveforms" -gt 0
echo "check.sh: probe smoke green" \
    "($waveforms waveforms in $build_dir/paper_probes)"

# Launcher + archive smoke: pdnspot_launch fans the paper campaign
# across 4 shard subprocesses with one injected shard failure; the
# launcher must retry the sabotaged shard and still concatenate a
# CSV byte-identical to the unsharded acceptance run. The shard
# reports ingest into a result archive, which pdnspot_query must
# resolve by the spec's content hash — listing all 4 shards and
# reassembling the same bytes. The archive index lands in the build
# dir for CI to upload next to the report and span trace.
rm -rf "$build_dir/paper_archive"
PDNSPOT_LAUNCH_INJECT=fail:2:1 "$build_dir"/tools/pdnspot_launch \
    examples/specs/paper_campaign.json -n 4 --jobs 2 \
    --backoff-ms 0 -o "$smoke_dir/launched.csv" \
    --archive "$build_dir/paper_archive" \
    2>"$smoke_dir/launch_err.txt"
grep -q "shard 2/4 attempt 1/3 failed" "$smoke_dir/launch_err.txt"
grep -q "retrying in 0 ms" "$smoke_dir/launch_err.txt"
cmp "$smoke_dir/cpp.csv" "$smoke_dir/launched.csv"
spec_hash=$("$build_dir"/tools/pdnspot_query hash \
    examples/specs/paper_campaign.json)
"$build_dir"/tools/pdnspot_query "$build_dir/paper_archive" list \
    --spec-hash "$spec_hash" --format csv \
    >"$smoke_dir/archive_list.csv"
runs=$(grep -c "pdnspot_campaign" "$smoke_dir/archive_list.csv")
test "$runs" -eq 4
"$build_dir"/tools/pdnspot_query "$build_dir/paper_archive" csv \
    --spec-hash "$spec_hash" -o "$smoke_dir/archived.csv"
cmp "$smoke_dir/cpp.csv" "$smoke_dir/archived.csv"
echo "check.sh: launcher + archive smoke green" \
    "(retried 1 injected failure; index in $build_dir/paper_archive)"

# Fleet smoke: the population simulator's determinism contract at
# the binary surface — the example study's aggregate CSV must be
# byte-identical at 1 and 8 threads — plus the million-session spec
# as a scale check. The summary and aggregates land in the build dir
# for CI to upload next to the campaign report.
"$build_dir"/tools/pdnspot_fleet examples/specs/fleet_study.json \
    --threads 1 -o "$smoke_dir/fleet1.csv"
"$build_dir"/tools/pdnspot_fleet examples/specs/fleet_study.json \
    --threads 8 -o "$build_dir/fleet_aggregates.csv" --summary \
    2>"$build_dir/fleet_summary.txt"
cmp "$smoke_dir/fleet1.csv" "$build_dir/fleet_aggregates.csv"
grep -q "fleet: 4000 sessions in 2 cohorts" \
    "$build_dir/fleet_summary.txt"
"$build_dir"/tools/pdnspot_fleet examples/specs/fleet_million.json \
    --threads 8 -o /dev/null --summary 2>"$smoke_dir/million.txt"
grep -q "fleet: 1000000 sessions" "$smoke_dir/million.txt"
# The benchmark's fleet spec (perfbench/gen.py, seed 1): three cohorts
# whose buckets cut cycles mid-phase and empty most batteries, so the
# contract also covers partial-cycle stepping and deaths.
python3 perfbench/gen.py --seed 1 --out "$smoke_dir/pb" >/dev/null
for threads in 1 2; do
    "$build_dir"/tools/pdnspot_fleet "$smoke_dir/pb/fleet_mixed.json" \
        --threads $threads -o "$smoke_dir/fleet_mixed$threads.csv" \
        --quiet
done
cmp "$smoke_dir/fleet_mixed1.csv" "$smoke_dir/fleet_mixed2.csv"
echo "check.sh: fleet smoke green" \
    "(summary + aggregates in $build_dir)"

# Fleet observability smoke: the exporters must not perturb the
# fleet either — its CSV stays byte-identical with
# --report/--trace-events/--progress at 1 and 8 threads — each
# report carries the stepping counters perfbench's replay reports
# under the same names, and each span trace is balanced and labelled
# with the fleet tool's name.
for threads in 1 8; do
    "$build_dir"/tools/pdnspot_fleet examples/specs/fleet_study.json \
        --threads $threads -o "$smoke_dir/fleet_obs$threads.csv" \
        --report "$smoke_dir/fleet_report$threads.json" \
        --trace-events "$smoke_dir/fleet_trace$threads.json" --progress
    cmp "$smoke_dir/fleet1.csv" "$smoke_dir/fleet_obs$threads.csv"
    grep -q '"schema": "pdnspot-report-1"' \
        "$smoke_dir/fleet_report$threads.json"
    grep -q '"fleet.session_buckets"' \
        "$smoke_dir/fleet_report$threads.json"
    grep -q '"fleet.ns_per_session_bucket"' \
        "$smoke_dir/fleet_report$threads.json"
    begins=$(grep -c '"ph": "B"' "$smoke_dir/fleet_trace$threads.json")
    ends=$(grep -c '"ph": "E"' "$smoke_dir/fleet_trace$threads.json")
    test "$begins" -gt 0
    test "$begins" -eq "$ends"
    grep -q '"pdnspot_fleet"' "$smoke_dir/fleet_trace$threads.json"
done
echo "check.sh: fleet observability smoke green ($begins spans)"

# Second pass: the whole test suite under ASan+UBSan. The bench
# binaries' figure-only tests already ran above, so skip them here to
# halve the sanitized build.
asan_dir="${build_dir}-asan"

cmake -B "$asan_dir" -S . "${generator[@]}" \
    -DPDNSPOT_WARNINGS=ON \
    -DPDNSPOT_WERROR=ON \
    -DPDNSPOT_SANITIZE=ON \
    -DPDNSPOT_BUILD_BENCH=OFF

cmake --build "$asan_dir" -j "$(nproc)"

ctest --test-dir "$asan_dir" -j "$(nproc)" --output-on-failure

echo "check.sh: build, tests and sanitizer pass green"
