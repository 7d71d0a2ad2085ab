#!/usr/bin/env bash
# The determinism contract at the CLI surface, one CTest row per
# (checked-in spec, variant) (tests/CMakeLists.txt, label
# "determinism"). Each row runs the tool twice or more — or against
# the C++-built acceptance campaign — and compares the CSVs byte for
# byte. pdnspot_campaign variants:
#
#   threads         the spec at --threads 1 vs --threads 8
#   campaign_study  the spec vs examples/campaign_study, which builds
#                   the same campaign in C++ (run serially and at 8
#                   threads)
#   shard_concat    --shard 1/2 and 2/2 at 8 threads, concatenated,
#                   vs the unsharded serial run
#   probe_csv       --probe-out leaves the CSV unchanged: the serial
#                   run without it vs runs with it at 1 and 8 threads
#   probe_threads   the --probe-out waveform directory at 1 vs 8
#                   threads, file for file and byte for byte, and
#                   holding at least one waveform CSV
#   observers       --report/--trace-events/--progress at 1 and 8
#                   threads leave the CSV unchanged; each report
#                   carries the pdnspot-report-1 schema and each
#                   span trace holds complete (X) spans and no B/E
#                   events
#   report_counters the thread-invariant report counters
#                   (campaign.cells, campaign.phases,
#                   campaign.platform_builds, trace.resolves and the
#                   three sim.runs_*) are equal at 1 and 8 threads
#
# pdnspot_fleet variants (a spec named gen.py is perfbench's
# generator: the row runs its seed-1 fleet_mixed spec; a spec path
# ending in +zero_jitter runs that spec with every cohort's start
# jitter zeroed, so each cohort's sessions share one offset and tie
# in rank):
#
#   fleet_threads   the spec at --threads 1 vs --threads N (default
#                   8): CSVs and --summary byte-identical, and the
#                   summary counts every session the spec declares
#   fleet_observers --report/--trace-events/--progress at 1 and 8
#                   threads leave the CSV unchanged; each report
#                   names the fleet.session_buckets,
#                   fleet.ns_per_session_bucket and fleet.setup_ms
#                   metrics, and each span trace holds complete
#                   (X) spans, no B/E events, and names pdnspot_fleet
#
# The pdnspot_launch variant (the tool under test is the launcher;
# the row passes the campaign and query binaries after the variant):
#
#   launch_archive  4 shards at --jobs 2 with shard 2's first attempt
#                   failed by PDNSPOT_LAUNCH_INJECT: the launcher
#                   retries it, concatenates a CSV byte-identical to
#                   the unsharded serial run, and archives the shards;
#                   pdnspot_query lists all 4 by the spec's content
#                   hash and reassembles the same bytes from them
#
# Usage: determinism.sh <tool> <spec.json> <variant> \
#            [campaign_study | N | <pdnspot_campaign> <pdnspot_query>]

set -euo pipefail

tool="$1"
spec="$2"
variant="$3"
study="${4:-}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run_tool() { "$tool" "$spec" --quiet "$@"; }

if [[ "$spec" == */gen.py ]]; then
    python3 "$spec" --seed 1 --workload fleet_mixed --out "$tmp/gen" \
        >/dev/null
    spec="$tmp/gen/fleet_mixed.json"
fi

if [[ "$spec" == *+zero_jitter ]]; then
    python3 - "${spec%+zero_jitter}" "$tmp/zero_jitter.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    spec = json.load(f)
for cohort in spec["cohorts"]:
    cohort["start_jitter_ms"] = 0.0
with open(sys.argv[2], "w") as f:
    json.dump(spec, f, indent=1)
PY
    spec="$tmp/zero_jitter.json"
fi

same()
{
    cmp "$1" "$2" || {
        echo "determinism: $(basename "$spec") $variant:" \
            "$(basename "$1") and $(basename "$2") differ" >&2
        exit 1
    }
}

case "$variant" in
  threads)
    run_tool --threads 1 -o "$tmp/t1.csv"
    run_tool --threads 8 -o "$tmp/t8.csv"
    same "$tmp/t1.csv" "$tmp/t8.csv"
    ;;
  campaign_study)
    PDNSPOT_THREADS=1 "$study" "$tmp/cpp.csv" >/dev/null
    run_tool --threads 8 -o "$tmp/spec8.csv"
    same "$tmp/cpp.csv" "$tmp/spec8.csv"
    PDNSPOT_THREADS=8 "$study" "$tmp/cpp8.csv" >/dev/null
    run_tool --threads 1 -o "$tmp/spec1.csv"
    same "$tmp/cpp8.csv" "$tmp/spec1.csv"
    ;;
  shard_concat)
    run_tool --threads 1 -o "$tmp/full.csv"
    run_tool --threads 8 --shard 1/2 -o "$tmp/shard1.csv"
    run_tool --threads 8 --shard 2/2 -o "$tmp/shard2.csv"
    cat "$tmp/shard1.csv" "$tmp/shard2.csv" >"$tmp/concat.csv"
    same "$tmp/full.csv" "$tmp/concat.csv"
    ;;
  probe_csv)
    run_tool --threads 1 -o "$tmp/plain.csv"
    for threads in 1 8; do
        run_tool --threads $threads -o "$tmp/probed$threads.csv" \
            --probe-out "$tmp/probes$threads"
        same "$tmp/plain.csv" "$tmp/probed$threads.csv"
    done
    ;;
  probe_threads)
    for threads in 1 8; do
        run_tool --threads $threads -o /dev/null \
            --probe-out "$tmp/probes$threads"
    done
    diff -rq "$tmp/probes1" "$tmp/probes8" >&2 || {
        echo "determinism: $(basename "$spec") $variant: waveform" \
            "directories differ at 1 vs 8 threads" >&2
        exit 1
    }
    if ! ls "$tmp/probes1"/*.csv >/dev/null 2>&1; then
        echo "determinism: $(basename "$spec") $variant: no waveform" \
            "CSV written" >&2
        exit 1
    fi
    ;;
  observers)
    run_tool --threads 1 -o "$tmp/plain.csv"
    for threads in 1 8; do
        report="$tmp/report$threads.json"
        trace="$tmp/trace$threads.json"
        run_tool --threads $threads -o "$tmp/obs$threads.csv" \
            --report "$report" --trace-events "$trace" --progress
        same "$tmp/plain.csv" "$tmp/obs$threads.csv"
        grep -q '"schema": "pdnspot-report-1"' "$report" || {
            echo "determinism: $variant: $threads-thread report" \
                "lacks the pdnspot-report-1 schema" >&2
            exit 1
        }
        spans=$(grep -c '"ph": "X"' "$trace" || true)
        if [ "$spans" -eq 0 ] || grep -qE '"ph": "[BE]"' "$trace"; then
            echo "determinism: $variant: $threads-thread span trace" \
                "has $spans complete (X) spans, or B/E events" >&2
            exit 1
        fi
    done
    ;;
  report_counters)
    # The registry's counters are written concurrently by the
    # 8-thread run's workers; the thread-invariant ones must equal
    # the serial run's exactly.
    for threads in 1 8; do
        run_tool --threads $threads -o /dev/null \
            --report "$tmp/report$threads.json"
    done
    python3 - "$tmp/report1.json" "$tmp/report8.json" <<'PY'
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
    sys.exit("determinism: report_counters: report counters differ"
             " at 1 vs 8 threads: %s vs %s" % (serial, threaded))
PY
    ;;
  fleet_threads)
    threads="${4:-8}"
    run_tool --threads 1 -o "$tmp/t1.csv" --summary 2>"$tmp/s1.txt"
    run_tool --threads "$threads" -o "$tmp/tn.csv" --summary \
        2>"$tmp/sn.txt"
    same "$tmp/t1.csv" "$tmp/tn.csv"
    same "$tmp/s1.txt" "$tmp/sn.txt"
    population=$(python3 -c 'import json, sys
cohorts = json.load(open(sys.argv[1]))["cohorts"]
print("%d sessions in %d cohorts"
      % (sum(c["count"] for c in cohorts), len(cohorts)))' "$spec")
    grep -q "^fleet: $population," "$tmp/sn.txt" || {
        echo "determinism: $(basename "$spec") $variant: summary" \
            "does not read \"$population\"" >&2
        exit 1
    }
    ;;
  fleet_observers)
    run_tool --threads 1 -o "$tmp/plain.csv"
    for threads in 1 8; do
        report="$tmp/report$threads.json"
        trace="$tmp/trace$threads.json"
        run_tool --threads $threads -o "$tmp/obs$threads.csv" \
            --report "$report" --trace-events "$trace" --progress
        same "$tmp/plain.csv" "$tmp/obs$threads.csv"
        for want in '"schema": "pdnspot-report-1"' \
            '"fleet.session_buckets"' '"fleet.ns_per_session_bucket"' \
            '"fleet.setup_ms"'; do
            grep -q "$want" "$report" || {
                echo "determinism: $variant: $threads-thread report" \
                    "lacks $want" >&2
                exit 1
            }
        done
        spans=$(grep -c '"ph": "X"' "$trace" || true)
        if [ "$spans" -eq 0 ] || grep -qE '"ph": "[BE]"' "$trace" ||
            ! grep -q '"pdnspot_fleet"' "$trace"; then
            echo "determinism: $variant: $threads-thread span trace" \
                "has $spans complete (X) spans, or B/E events, or" \
                "does not name pdnspot_fleet" >&2
            exit 1
        fi
    done
    ;;
  launch_archive)
    campaign="$4"
    query="$5"
    "$campaign" "$spec" --quiet --threads 1 -o "$tmp/serial.csv"
    PDNSPOT_LAUNCH_INJECT=fail:2:1 "$tool" "$spec" -n 4 --jobs 2 \
        --backoff-ms 0 --campaign-bin "$campaign" \
        -o "$tmp/launched.csv" --archive "$tmp/archive" \
        2>"$tmp/launch_err.txt"
    for want in "shard 2/4 attempt 1/3 failed" "retrying in 0 ms"; do
        grep -q "$want" "$tmp/launch_err.txt" || {
            echo "determinism: $variant: launcher stderr lacks" \
                "\"$want\"" >&2
            exit 1
        }
    done
    same "$tmp/serial.csv" "$tmp/launched.csv"
    spec_hash=$("$query" hash "$spec")
    "$query" "$tmp/archive" list --spec-hash "$spec_hash" \
        --format csv >"$tmp/list.csv"
    runs=$(grep -c "pdnspot_campaign" "$tmp/list.csv" || true)
    if [ "$runs" -ne 4 ]; then
        echo "determinism: $variant: the archive lists $runs" \
            "pdnspot_campaign runs of the spec, not 4" >&2
        exit 1
    fi
    "$query" "$tmp/archive" csv --spec-hash "$spec_hash" \
        -o "$tmp/archived.csv"
    same "$tmp/serial.csv" "$tmp/archived.csv"
    ;;
  *)
    echo "determinism: unknown variant \"$variant\"" >&2
    exit 2
    ;;
esac
