#!/usr/bin/env bash
# The export_figures surface (tests/CMakeLists.txt row
# export_figures.golden). At PDNSPOT_THREADS=1 and 8 the tool writes
# into a fresh directory exactly the 28 files of tests/golden/figures/
# (one per paperFigures() row), byte for byte, and nothing else.
# Pointed at a path that is a file, or at a directory where a figure's
# file name is taken by a directory, it exits 1 with one
# "cannot create" or "cannot open" line on stderr.
#
# Usage: export_figures.sh <export_figures> <golden-dir>

set -euo pipefail

tool="$1"
golden="$2"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

fail() {
    echo "export_figures.sh: $*" >&2
    exit 1
}

for threads in 1 8; do
    out="$work/out$threads"
    PDNSPOT_THREADS=$threads "$tool" "$out" >/dev/null ||
        fail "exit $? at PDNSPOT_THREADS=$threads"
    diff -r "$golden" "$out" ||
        fail "output at PDNSPOT_THREADS=$threads differs from $golden"
    count=$(find "$out" -type f | wc -l)
    [ "$count" -eq 28 ] ||
        fail "wrote $count files at PDNSPOT_THREADS=$threads, not 28"
done

# expect_error <dir> <message>: exit 1 and exactly one stderr line
# holding <message>.
expect_error() {
    local status=0
    "$tool" "$1" >/dev/null 2>"$work/stderr" || status=$?
    [ "$status" -eq 1 ] || fail "exit $status for $1, expected 1"
    [ "$(wc -l <"$work/stderr")" -eq 1 ] ||
        fail "expected one stderr line for $1, got: $(cat "$work/stderr")"
    grep -q "$2" "$work/stderr" ||
        fail "expected \"$2\" for $1, got: $(cat "$work/stderr")"
}

touch "$work/file"
expect_error "$work/file" "cannot create"
mkdir -p "$work/taken/table2_params.txt"
expect_error "$work/taken" "cannot open"

echo "export_figures.sh: ok"
