#!/usr/bin/env bash
# Full verification pass on top of tier-1 (plain `ctest`, see
# ROADMAP.md): builds with warnings as errors (-Werror), runs every
# registered test in parallel under two pool sizes (a serial default
# pool and a 4-thread one; the "determinism" label holds the
# campaign thread-count, campaign_study, shard, probe and
# observability rows, the launcher retry + archive round-trip row
# and the fleet thread-count and observability rows), drives the
# shipped binaries once more to leave their report, span trace,
# probe waveforms, archive index and fleet summary in the build dir
# for CI to upload, then repeats the test suite under
# AddressSanitizer + UBSan (the threaded campaign paths are
# sanitizer-gated). Ready to drop into CI as-is.
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

# The determinism contract's thread-count, campaign_study,
# shard-concatenation, probe, observability, launcher + archive and
# fleet rows run in the ctest passes above (label "determinism",
# tests/determinism.sh).

# The paper campaign's 8-thread report + span trace land in the
# build dir for CI to upload. The observability checks (CSV
# unchanged with --report/--trace-events/--progress at 1 and 8
# threads, complete-event spans, thread-invariant report counters)
# run in the ctest passes above (determinism.paper_campaign.observers
# and .report_counters).
PDNSPOT_THREADS=8 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/paper_campaign.json -o /dev/null \
    --report "$build_dir/paper_report.json" \
    --trace-events "$build_dir/paper_trace.json" --progress
echo "check.sh: report + span trace in $build_dir"

# The paper campaign's probe waveforms land in the build dir for CI
# to upload next to the report and span trace. The probe checks (CSV
# unchanged with --probe-out, waveform dir at 1 vs 8 threads) run in
# the ctest passes above (label "determinism").
PDNSPOT_THREADS=8 "$build_dir"/tools/pdnspot_campaign \
    examples/specs/paper_campaign.json -o /dev/null \
    --probe-out "$build_dir/paper_probes"
echo "check.sh: probe waveforms in $build_dir/paper_probes"

# The paper campaign launched as 4 shards into a result archive,
# whose index lands in the build dir for CI to upload next to the
# report and span trace. The launcher's retry and the archive round
# trip (CSV byte-identical to the serial run, 4 runs listed by spec
# hash, the same bytes reassembled by pdnspot_query) run in the
# ctest passes above (determinism.paper_campaign.launch_archive).
rm -rf "$build_dir/paper_archive"
"$build_dir"/tools/pdnspot_launch examples/specs/paper_campaign.json \
    -n 4 --jobs 2 -o /dev/null --archive "$build_dir/paper_archive"
echo "check.sh: archive index in $build_dir/paper_archive"

# The fleet study's summary and aggregate time series land in the
# build dir for CI to upload next to the campaign report. The fleet
# determinism and observability checks run in the ctest passes above
# (label "determinism").
"$build_dir"/tools/pdnspot_fleet examples/specs/fleet_study.json \
    --threads 8 -o "$build_dir/fleet_aggregates.csv" --summary \
    2>"$build_dir/fleet_summary.txt"
echo "check.sh: fleet summary + aggregates in $build_dir"

# Second pass: the whole test suite under ASan+UBSan.
asan_dir="${build_dir}-asan"

cmake -B "$asan_dir" -S . "${generator[@]}" \
    -DPDNSPOT_WARNINGS=ON \
    -DPDNSPOT_WERROR=ON \
    -DPDNSPOT_SANITIZE=ON

cmake --build "$asan_dir" -j "$(nproc)"

ctest --test-dir "$asan_dir" -j "$(nproc)" --output-on-failure

echo "check.sh: build, tests and sanitizer pass green"
