#!/usr/bin/env bash
# The determinism contract at the CLI surface, one CTest row per
# (checked-in spec, variant) (tests/CMakeLists.txt, label
# "determinism"). Each row runs pdnspot_campaign twice — or against
# the C++-built acceptance campaign — and compares the CSVs byte for
# byte:
#
#   threads         the spec at --threads 1 vs --threads 8
#   campaign_study  the spec vs examples/campaign_study, which builds
#                   the same campaign in C++ (run serially and at 8
#                   threads)
#   shard_concat    --shard 1/2 and 2/2 at 8 threads, concatenated,
#                   vs the unsharded serial run
#
# Usage: determinism.sh <pdnspot_campaign> <spec.json> <variant> \
#            [campaign_study]

set -euo pipefail

tool="$1"
spec="$2"
variant="$3"
study="${4:-}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

campaign() { "$tool" "$spec" --quiet "$@"; }

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
    campaign --threads 1 -o "$tmp/t1.csv"
    campaign --threads 8 -o "$tmp/t8.csv"
    same "$tmp/t1.csv" "$tmp/t8.csv"
    ;;
  campaign_study)
    PDNSPOT_THREADS=1 "$study" "$tmp/cpp.csv" >/dev/null
    campaign --threads 8 -o "$tmp/spec8.csv"
    same "$tmp/cpp.csv" "$tmp/spec8.csv"
    PDNSPOT_THREADS=8 "$study" "$tmp/cpp8.csv" >/dev/null
    campaign --threads 1 -o "$tmp/spec1.csv"
    same "$tmp/cpp8.csv" "$tmp/spec1.csv"
    ;;
  shard_concat)
    campaign --threads 1 -o "$tmp/full.csv"
    campaign --threads 8 --shard 1/2 -o "$tmp/shard1.csv"
    campaign --threads 8 --shard 2/2 -o "$tmp/shard2.csv"
    cat "$tmp/shard1.csv" "$tmp/shard2.csv" >"$tmp/concat.csv"
    same "$tmp/full.csv" "$tmp/concat.csv"
    ;;
  *)
    echo "determinism: unknown variant \"$variant\"" >&2
    exit 2
    ;;
esac
