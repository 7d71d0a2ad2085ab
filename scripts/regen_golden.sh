#!/usr/bin/env bash
# Regenerate the golden files under tests/golden/ from the current
# build's output. Run this when an intentional change moves one of
# the byte-stable surfaces (campaign CSV export, trace CSV write,
# the standard trace corpus, summary tables, run report, probe
# waveforms, the paper figure tables and CSV series under
# tests/golden/figures/, the PDN model grid pdn_grid.txt, the example
# programs' stdout under tests/golden/examples/), then review
# the diff before committing — a golden update is a contract change
# for downstream tooling.
#
# Every suite on tests/CMakeLists.txt's PDNSPOT_GOLDEN_SUITES list
# runs with PDNSPOT_REGEN_GOLDEN=1, and every example with a
# tests/golden/examples/<name>.txt rewrites it from its stdout; the
# script fails if any file in tests/golden/ was not rewritten.
#
# Usage: scripts/regen_golden.sh [build-dir]   (default: build)

set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"

suites=$(sed -n 's/^set(PDNSPOT_GOLDEN_SUITES \(.*\))$/\1/p' \
    tests/CMakeLists.txt)
if [ -z "$suites" ]; then
    echo "regen_golden.sh: no PDNSPOT_GOLDEN_SUITES in" \
        "tests/CMakeLists.txt" >&2
    exit 1
fi

examples=$(for f in tests/golden/examples/*.txt; do basename "$f" .txt; done)

cmake -B "$build_dir" -S . >/dev/null
# shellcheck disable=SC2086
cmake --build "$build_dir" -j "$(nproc)" --target $suites $examples

stamp="$(mktemp)"
trap 'rm -f "$stamp"' EXIT
sleep 1 # so every rewritten file is strictly newer than the stamp
for suite in $suites; do
    PDNSPOT_REGEN_GOLDEN=1 "$build_dir/tests/$suite" >/dev/null
done
for example in $examples; do
    "$build_dir/examples/$example" >"tests/golden/examples/$example.txt"
done

stale=$(find tests/golden -type f ! -newer "$stamp")
if [ -n "$stale" ]; then
    echo "regen_golden.sh: not rewritten by any golden suite:" >&2
    echo "$stale" >&2
    exit 1
fi

git --no-pager diff --stat -- tests/golden || true
echo "regen_golden.sh: golden files rewritten; review the diff"
