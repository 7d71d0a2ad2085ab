#!/usr/bin/env bash
# One example program end to end (tests/CMakeLists.txt rows
# examples.<name>): run with no arguments, it must exit 0 and print
# something on stdout.
#
# Usage: example_smoke.sh <example-binary>

set -euo pipefail

example="$1"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

status=0
"$example" >"$out" || status=$?
if [ "$status" -ne 0 ]; then
    echo "example_smoke.sh: $(basename "$example") exited $status" >&2
    exit 1
fi
if [ ! -s "$out" ]; then
    echo "example_smoke.sh: $(basename "$example") printed nothing" >&2
    exit 1
fi
