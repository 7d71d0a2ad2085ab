#!/usr/bin/env bash
# One example program end to end (tests/CMakeLists.txt rows
# examples.<name>): run with no arguments, it must exit 0 and print
# exactly its golden stdout (tests/golden/examples/<name>.txt, which
# scripts/regen_golden.sh rewrites).
#
# Usage: example_smoke.sh <example-binary> <golden-file>

set -euo pipefail

example="$1"
golden="$2"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

status=0
"$example" >"$out" || status=$?
if [ "$status" -ne 0 ]; then
    echo "example_smoke.sh: $(basename "$example") exited $status" >&2
    exit 1
fi
if ! diff -u "$golden" "$out"; then
    echo "example_smoke.sh: $(basename "$example") stdout differs" \
        "from $golden" >&2
    exit 1
fi
