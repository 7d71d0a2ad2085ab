#!/usr/bin/env bash
# Script-driven smoke tests for the pdnspot_campaign,
# pdnspot_fleet, pdnspot_launch and pdnspot_query CLIs, registered
# one case per CTest test (tests/CMakeLists.txt). Each case asserts
# the exit code and the relevant stdout/stderr fragment for a CLI
# surface the GoogleTest suites cannot reach: argv parsing, usage
# errors, spec-error reporting, the listing commands, --dry-run
# provenance, the launcher's retry/archive round trips and its kept
# outputs (--report-dir, --keep-work). The
# fleet_* cases expect the pdnspot_fleet binary as the tool under
# test, launch_* pdnspot_launch and query_* pdnspot_query;
# everything else expects pdnspot_campaign. The optional fourth
# argument is a second binary the case needs: pdnspot_campaign for
# the launch_*/query_* cases that compare against (or generate) a
# direct campaign run.
#
# Usage: cli_smoke.sh <tool-binary> <case> <spec-dir> \
#            [extra-binary]

set -u

tool="$1"
case_name="$2"
spec_dir="$3"
extra_bin="${4:-}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail()
{
    echo "cli_smoke $case_name: $1" >&2
    echo "--- stdout ---" >&2
    cat "$tmp/out" >&2
    echo "--- stderr ---" >&2
    cat "$tmp/err" >&2
    exit 1
}

# run <expected-exit> <args...>: invoke the tool, capture both
# streams, and assert the exit code.
run()
{
    local expected="$1"
    shift
    local status=0
    "$tool" "$@" >"$tmp/out" 2>"$tmp/err" || status=$?
    if [ "$status" -ne "$expected" ]; then
        fail "expected exit $expected, got $status"
    fi
}

expect_err() { grep -qF -- "$1" "$tmp/err" || fail "stderr lacks \"$1\""; }
expect_out() { grep -qF -- "$1" "$tmp/out" || fail "stdout lacks \"$1\""; }
expect_single_fatal()
{
    [ "$(grep -o 'fatal:' "$tmp/err" | wc -l)" -eq 1 ] \
        || fail "stderr does not carry exactly one \"fatal:\""
}

case "$case_name" in
  *_conventions)
    # The conventions every tool shares (tools/cli_common.hh): the
    # version line, --help, an unknown option and a flag given
    # without its value.
    name="$(basename "$tool")"
    run 0 --version
    grep -qE "^$name [^ ]+ \(git [^ )]+\)$" "$tmp/out" \
        || fail "--version is not \"$name VERSION (git REV)\""
    run 0 --help
    expect_out "usage: $name"
    run 2 --frobnicate
    expect_err "$name: unknown option \"--frobnicate\""
    expect_err "usage: $name"
    run 2 -o
    expect_err "$name: -o needs a value"
    expect_err "usage: $name"
    ;;
  *_common_flags)
    # The flags campaign, fleet and launch bind alike reject bad
    # values as usage errors, before any spec is read.
    name="$(basename "$tool")"
    run 2 "$tmp/spec.json" --threads 0
    expect_err "$name: --threads must be a positive integer, got \"0\""
    expect_err "usage: $name"
    run 2 "$tmp/spec.json" --log-level loud
    expect_err "$name: --log-level: unknown log level \"loud\" (expected one of info, warn, silent)"
    expect_err "usage: $name"
    ;;
  usage_no_spec)
    run 2
    expect_err "missing spec file"
    expect_err "usage: pdnspot_campaign"
    ;;
  usage_bad_shard)
    run 2 "$spec_dir/paper_campaign.json" --shard 0/2
    expect_err "--shard must be k/n with 1 <= k <= n"
    run 2 "$spec_dir/paper_campaign.json" --shard 3/2
    expect_err "--shard must be k/n with 1 <= k <= n"
    run 2 "$spec_dir/paper_campaign.json" --shard -1/2
    expect_err "--shard must be k/n with 1 <= k <= n"
    ;;
  usage_bad_threads)
    run 2 "$spec_dir/paper_campaign.json" --threads zero
    expect_err "--threads must be a positive integer"
    run 2 "$spec_dir/paper_campaign.json" --threads 0
    expect_err "--threads must be a positive integer"
    ;;
  usage_bad_battery_wh)
    # Locale-proof parse: "3,5" is 3.5 under a comma-decimal locale
    # and std::stod would have accepted the "3" prefix of it; the
    # std::from_chars parse must reject it whole, along with
    # non-positive and non-finite capacities.
    run 2 "$spec_dir/paper_campaign.json" --battery-wh 3,5
    expect_err "--battery-wh must be a positive number"
    run 2 "$spec_dir/paper_campaign.json" --battery-wh -5
    expect_err "--battery-wh must be a positive number"
    run 2 "$spec_dir/paper_campaign.json" --battery-wh 0
    expect_err "--battery-wh must be a positive number"
    run 2 "$spec_dir/paper_campaign.json" --battery-wh nan
    expect_err "--battery-wh must be a positive number"
    run 2 "$spec_dir/paper_campaign.json" --battery-wh inf
    expect_err "--battery-wh must be a positive number"
    run 2 "$spec_dir/paper_campaign.json" --battery-wh 50J
    expect_err "--battery-wh must be a positive number"
    ;;
  usage_unknown_option)
    run 2 "$spec_dir/paper_campaign.json" --frobnicate
    expect_err 'unknown option "--frobnicate"'
    ;;
  missing_spec_file)
    run 1 "$tmp/no_such_spec.json"
    expect_err "no_such_spec.json"
    ;;
  bad_spec_position)
    # A spec whose only problem sits at line 3: the error must carry
    # the file:line:col position of the offending value.
    cat >"$tmp/bad_spec.json" <<'EOF'
{
  "traces": [
    {"generator": {"kind": "perlin"}}],
  "platforms": ["ultraportable-15w"],
  "pdns": "all"
}
EOF
    run 1 "$tmp/bad_spec.json"
    expect_err "bad_spec.json:3:"
    expect_err 'unknown generator kind "perlin"'
    ;;
  nested_trace_error)
    # A trace file with a bad C-state, named by a spec: the error
    # chains spec position, trace row and the bare message under a
    # single "fatal:" prefix.
    printf 'duration_s,cstate,type,ar\n0.01,c0,single-thread,0.5\n' \
        >"$tmp/t.csv"
    cat >"$tmp/s.json" <<'EOF'
{"traces": [{"file": "t.csv"}], "platforms": ["ultraportable-15w"],
 "pdns": "all"}
EOF
    run 1 "$tmp/s.json"
    expect_err "s.json:1:22: $tmp/t.csv:2: unknown C-state \"c0\" (expected one of C0, C0MIN, C2, C3, C6, C7, C8)"
    expect_single_fatal
    ;;
  list_traces)
    run 0 --list-traces
    expect_out "day-in-the-life"
    expect_out "spec reference"
    expect_out "Battery profiles"
    ;;
  list_presets)
    run 0 --list-presets
    expect_out "ultraportable-15w"
    expect_out "fanless-tablet-4w"
    ;;
  dry_run_provenance)
    run 0 "$spec_dir/sensitivity_campaign.json" --dry-run
    expect_err 'file "'
    expect_err "time-scale(x1.5)"
    expect_err "ar-perturb(0.1, seed 7)"
    expect_err "repeat(3) | truncate(2500 ms)"
    expect_err 'concat(generator "bursty-compute" (seed 7))'
    ;;
  version)
    # The CLI stamps its version + git revision, and the
    # PDNSPOT_GIT_REV environment variable overrides the baked-in
    # revision (the same stamp run reports carry).
    run 0 --version
    expect_out "pdnspot_campaign "
    expect_out "(git "
    PDNSPOT_GIT_REV=cafef00d "$tool" --version \
        >"$tmp/out" 2>"$tmp/err" || fail "--version failed"
    expect_out "(git cafef00d)"
    ;;
  report_unwritable)
    # Exporter paths are opened before the campaign runs, so a bad
    # path fails fast with the path in the message.
    run 1 "$spec_dir/paper_campaign.json" -o "$tmp/c.csv" \
        --report "$tmp/no_such_dir/r.json"
    expect_err 'cannot open report file'
    expect_err "$tmp/no_such_dir/r.json"
    ;;
  trace_events_unwritable)
    run 1 "$spec_dir/paper_campaign.json" -o "$tmp/c.csv" \
        --trace-events "$tmp/no_such_dir/t.json"
    expect_err 'cannot open trace-events file'
    expect_err "$tmp/no_such_dir/t.json"
    ;;
  progress_off_tty)
    # stderr is a file here, not a TTY: the heartbeat must stay
    # silent (no cells/s lines, no carriage-return rewrites).
    run 0 "$spec_dir/paper_campaign.json" -o "$tmp/c.csv" --progress
    if grep -q "cells/s" "$tmp/err"; then
        fail "--progress wrote a heartbeat to a non-TTY stderr"
    fi
    if tr -d '\r' <"$tmp/err" | cmp -s - "$tmp/err"; then :; else
        fail "--progress wrote carriage returns to a non-TTY stderr"
    fi
    ;;
  report_and_trace_outputs)
    # The exporters produce well-formed documents and do not perturb
    # the campaign CSV (byte-identical to an uninstrumented run).
    run 0 "$spec_dir/paper_campaign.json" -o "$tmp/a.csv" \
        --threads 2 --report "$tmp/r.json" \
        --trace-events "$tmp/t.json"
    grep -qF '"schema": "pdnspot-report-1"' "$tmp/r.json" \
        || fail "report lacks the pdnspot-report-1 schema stamp"
    grep -qF '"content_hash": "fnv1a64:' "$tmp/r.json" \
        || fail "report lacks the spec content hash"
    spans=$(grep -c '"ph": "X"' "$tmp/t.json" || true)
    if [ "$spans" -eq 0 ] || grep -qE '"ph": "[BE]"' "$tmp/t.json"; then
        fail "trace holds $spans complete (X) spans, or B/E events"
    fi
    run 0 "$spec_dir/paper_campaign.json" -o "$tmp/b.csv"
    cmp -s "$tmp/a.csv" "$tmp/b.csv" \
        || fail "observability flags perturbed the campaign CSV"
    ;;
  probe_out_waveforms)
    # --probe-out exports one waveform CSV per probed cell plus the
    # Perfetto counter-track document. The determinism rows
    # paper_campaign.probe_csv and .probe_threads check that it leaves
    # the CSV unchanged and writes the same bytes at 1 and 8 threads.
    run 0 "$spec_dir/paper_campaign.json" -o /dev/null \
        --threads 1 --probe-out "$tmp/probes"
    expect_err "wrote 4 waveforms"
    ls "$tmp/probes"/*.csv >/dev/null 2>&1 \
        || fail "--probe-out produced no waveform CSVs"
    [ -s "$tmp/probes/counters.json" ] \
        || fail "--probe-out produced no counters.json"
    grep -qF '"ph": "C"' "$tmp/probes/counters.json" \
        || fail "counters.json carries no counter events"
    ;;
  probe_out_no_probes)
    # A spec with no probes section gets a warning, not an error.
    run 0 "$spec_dir/sensitivity_campaign.json" -o "$tmp/c.csv" \
        --probe-out "$tmp/probes"
    expect_err "binds no probes"
    ;;
  probe_out_unwritable)
    touch "$tmp/blocker"
    run 1 "$spec_dir/paper_campaign.json" -o "$tmp/c.csv" \
        --probe-out "$tmp/blocker/probes"
    expect_err "cannot create probe directory"
    ;;
  quiet_log_level)
    run 0 "$spec_dir/paper_campaign.json" -o "$tmp/c.csv"
    expect_err "info: wrote"
    run 0 "$spec_dir/paper_campaign.json" -o "$tmp/c.csv" --quiet
    if grep -q "info:" "$tmp/err"; then
        fail "--quiet let an info-level message through"
    fi
    run 0 "$spec_dir/paper_campaign.json" -o "$tmp/c.csv" \
        --log-level silent
    if [ -s "$tmp/err" ]; then
        fail "--log-level silent left stderr non-empty"
    fi
    run 2 "$spec_dir/paper_campaign.json" --log-level verbose
    expect_err '--log-level: unknown log level "verbose"'
    ;;
  fleet_usage)
    run 2
    expect_err "missing spec file"
    expect_err "usage: pdnspot_fleet"
    ;;
  fleet_usage_bad_option)
    run 2 "$spec_dir/fleet_study.json" --frobnicate
    expect_err 'unknown option "--frobnicate"'
    ;;
  fleet_bad_spec_position)
    # A fleet spec whose only problem sits at line 3: the error must
    # carry the file:line:col position of the offending value.
    cat >"$tmp/bad_fleet.json" <<'EOF'
{
  "cohorts": [
    {"name": "a", "count": 5, "platform": "nope",
     "trace": {"library": "bursty-compute", "seed": 42}}]
}
EOF
    run 1 "$tmp/bad_fleet.json"
    expect_err "bad_fleet.json:3:"
    expect_err 'unknown platform preset "nope"'
    ;;
  fleet_nested_trace_error)
    # The fleet binder chains a trace file's row error the same way.
    printf 'duration_s,cstate,type,ar\n0.01,C0,single-thread,1.5\n' \
        >"$tmp/ar.csv"
    cat >"$tmp/f.json" <<'EOF'
{"cohorts": [{"name": "a", "count": 5, "platform": "ultraportable-15w",
              "trace": {"file": "ar.csv"}}]}
EOF
    run 1 "$tmp/f.json"
    expect_err "f.json:2:33: $tmp/ar.csv:2: activity ratio must be in [0, 1], got 1.5"
    expect_single_fatal
    ;;
  fleet_summary)
    # The example study end to end: population + cohort shape lines,
    # death counts, the distribution quantiles, and the promised
    # aggregate-CSV header.
    run 0 "$spec_dir/fleet_study.json" --summary -o "$tmp/f.csv"
    expect_err "fleet: 4000 sessions in 2 cohorts"
    expect_err 'cohort "tablets"'
    expect_err "deaths: "
    expect_err "battery life (h): "
    expect_err "time to empty (h): "
    head -n 1 "$tmp/f.csv" | grep -qF \
        "bucket,t_s,sessions_alive,supply_power_w,energy_j,mode_switches,deaths,storm" \
        || fail "aggregate CSV header drifted"
    ;;
  fleet_trace_events)
    # The fleet timeline carries its own tool's process name, not
    # the campaign's.
    run 0 "$spec_dir/fleet_study.json" -o "$tmp/f.csv" \
        --trace-events "$tmp/t.json"
    grep -qF '"pdnspot_fleet"' "$tmp/t.json" \
        || fail "trace lacks the pdnspot_fleet process name"
    if grep -qF '"pdnspot_campaign"' "$tmp/t.json"; then
        fail "fleet trace is labelled pdnspot_campaign"
    fi
    ;;
  fleet_unwritable_outputs)
    # Every output opens before the run and names the bad path.
    for pair in "-o output" "--report report" \
        "--trace-events trace-events"; do
        flag="${pair%% *}"
        what="${pair#* }"
        run 1 "$spec_dir/fleet_study.json" -o "$tmp/f.csv" \
            "$flag" "$tmp/no_such_dir/x"
        expect_err "cannot open $what file \"$tmp/no_such_dir/x\""
    done
    ;;
  fleet_seed_in_report)
    # A --seed override changes the results, so the report's fleet
    # block carries the effective seed (the spec echo keeps the
    # file's own).
    run 0 "$spec_dir/fleet_study.json" -o "$tmp/f.csv" --seed 5 \
        --report "$tmp/r.json"
    awk '/^  "fleet": \{/ { on = 1 } on { print } on && /^  \}/ { exit }' \
        "$tmp/r.json" >"$tmp/fleet_block"
    grep -qF '"seed": 5' "$tmp/fleet_block" \
        || fail "the report's fleet block lacks the --seed 5 override"
    ;;
  launch_usage)
    run 2
    expect_err "missing spec file"
    expect_err "usage: pdnspot_launch"
    run 2 "$spec_dir/measured_campaign.json" --shards 0
    expect_err "--shards must be a positive integer"
    run 2 "$spec_dir/measured_campaign.json" --timeout nan
    expect_err "--timeout must be a non-negative number"
    # A timeout past the steady_clock deadline range would overflow
    # into a deadline in the past and kill every attempt at once.
    for timeout in 1e10 inf 1e300; do
        run 2 "$spec_dir/measured_campaign.json" --timeout $timeout
        expect_err "--timeout must be a non-negative number of seconds up to 1e+09"
    done
    run 2 "$spec_dir/measured_campaign.json" --frobnicate
    expect_err 'unknown option "--frobnicate"'
    ;;
  launch_dry_run)
    run 0 "$spec_dir/measured_campaign.json" -n 3 --dry-run
    expect_err "cells over 3 shards"
    expect_err "shard 1/3: cells [0, "
    expect_err "shard 3/3: cells ["
    ;;
  launch_retry_after_kill)
    # Shard 1's first attempt is killed by the injection hook; the
    # launcher must retry it and still concatenate a CSV
    # byte-identical to a direct unsharded campaign run.
    campaign="$extra_bin"
    "$campaign" "$spec_dir/measured_campaign.json" \
        -o "$tmp/direct.csv" --quiet \
        || fail "direct campaign run failed"
    PDNSPOT_LAUNCH_INJECT=kill:1:1 \
        run 0 "$spec_dir/measured_campaign.json" -n 2 \
        --backoff-ms 0 -o "$tmp/sharded.csv" \
        --campaign-bin "$campaign"
    expect_err "shard 1/2 attempt 1/3 failed (killed by signal 9)"
    expect_err "retrying in 0 ms"
    cmp -s "$tmp/direct.csv" "$tmp/sharded.csv" \
        || fail "retried launch CSV differs from the direct run"
    ;;
  launch_exhausted_retries)
    # More injected failures than retries: the launcher must exit
    # non-zero naming the shard that gave up and its log.
    campaign="$extra_bin"
    PDNSPOT_LAUNCH_INJECT=fail:2:9 \
        run 1 "$spec_dir/measured_campaign.json" -n 2 --jobs 2 \
        --retries 1 --backoff-ms 0 -o "$tmp/never.csv" \
        --campaign-bin "$campaign" --work-dir "$tmp/work"
    expect_err "shard 2/2 failed after 2 attempts"
    expect_err "shard_2.log"
    ;;
  launch_unwritable_output)
    # -o opens before any shard is spawned: an unwritable path fails
    # fast, naming the path, and leaves the work dir untouched.
    run 1 "$spec_dir/measured_campaign.json" -n 2 \
        -o "$tmp/no_such_dir/out.csv" --campaign-bin "$extra_bin" \
        --work-dir "$tmp/work"
    expect_err "cannot open output file \"$tmp/no_such_dir/out.csv\""
    if grep -qF "launching" "$tmp/err"; then
        fail "shards were launched before -o was opened"
    fi
    if [ -e "$tmp/work" ] && [ -n "$(ls -A "$tmp/work")" ]; then
        fail "the failed launch wrote into --work-dir"
    fi
    ;;
  launch_report_dir)
    # --report-dir keeps every shard's run report, each carrying the
    # report schema and its own shard index.
    run 0 "$spec_dir/measured_campaign.json" -n 3 --jobs 2 \
        -o /dev/null --campaign-bin "$extra_bin" \
        --report-dir "$tmp/reports"
    [ "$(ls "$tmp/reports" | wc -l)" -eq 3 ] \
        || fail "--report-dir does not hold exactly 3 files"
    for k in 1 2 3; do
        report="$tmp/reports/shard_$k.report.json"
        [ -f "$report" ] || fail "no shard_$k.report.json"
        grep -qF '"schema": "pdnspot-report-1"' "$report" \
            || fail "shard_$k.report.json lacks the report schema"
        grep -qF "\"shard_index\": $k," "$report" \
            || fail "shard_$k.report.json is not shard $k's report"
    done
    ;;
  launch_keep_work)
    # --keep-work leaves the launcher's own temp work dir behind,
    # names it on stderr, and it holds the shard CSVs -o joined.
    TMPDIR="$tmp" run 0 "$spec_dir/measured_campaign.json" -n 2 \
        -o "$tmp/out.csv" --campaign-bin "$extra_bin" --keep-work
    work=$(sed -n 's/.*shard outputs kept in //p' "$tmp/err")
    case "$work" in
      "$tmp"/pdnspot_launch.*) ;;
      *) fail "no kept temp work dir named under \$TMPDIR" ;;
    esac
    cat "$work/shard_1.csv" "$work/shard_2.csv" \
        | cmp -s - "$tmp/out.csv" \
        || fail "the kept shard CSVs do not make up the -o CSV"
    ;;
  query_usage)
    run 2
    expect_err "missing archive directory"
    expect_err "usage: pdnspot_query"
    run 2 "$tmp/arch" frobnicate
    expect_err 'unknown command "frobnicate" (expected one of list, summaries, show, csv, ingest, rebuild-index)'
    run 2 "$tmp/arch" list --where "battery_life_h"
    expect_err "--where expects <metric><op><value>"
    run 2 "$tmp/arch" list --where "bogus>1"
    expect_err 'unknown --where metric "bogus" (expected one of battery_life_h, mean_power_w, mean_etee, supply_energy_j, mode_switches, cells)'
    run 2 "$tmp/arch" list --format xml
    expect_err '--format: unknown output format "xml" (expected one of table, csv)'
    ;;
  query_hash)
    run 0 hash "$spec_dir/measured_campaign.json"
    expect_out "fnv1a64:"
    run 1 hash "$tmp/no_such_file.json"
    expect_err "no_such_file.json"
    ;;
  query_roundtrip)
    # The archive round trip: a reported campaign run ingests, is
    # findable by its spec content hash, and its payload reads back
    # byte-identical; rebuild-index regenerates the same answers.
    campaign="$extra_bin"
    "$campaign" "$spec_dir/measured_campaign.json" \
        -o "$tmp/run.csv" --report "$tmp/run.report.json" --quiet \
        || fail "reported campaign run failed"
    run 0 "$tmp/arch" ingest "$tmp/run.report.json" \
        --csv-file "$tmp/run.csv"
    id="$(cat "$tmp/out")"
    [ -n "$id" ] || fail "ingest printed no run id"
    "$tool" hash "$spec_dir/measured_campaign.json" \
        >"$tmp/out" 2>"$tmp/err" || fail "hash failed"
    hash="$(cat "$tmp/out")"
    run 0 "$tmp/arch" list --spec-hash "$hash" --format csv
    expect_out "$id"
    expect_out "pdnspot_campaign"
    run 0 "$tmp/arch" csv --spec-hash "$hash" -o "$tmp/back.csv"
    cmp -s "$tmp/run.csv" "$tmp/back.csv" \
        || fail "archived payload differs from the original CSV"
    run 0 "$tmp/arch" show "$id"
    expect_out '"schema": "pdnspot-report-1"'
    rm "$tmp/arch/index.jsonl"
    run 0 "$tmp/arch" rebuild-index
    run 0 "$tmp/arch" csv "$id" -o "$tmp/back2.csv"
    cmp -s "$tmp/run.csv" "$tmp/back2.csv" \
        || fail "rebuilt index lost the payload association"
    run 0 "$tmp/arch" summaries --where "battery_life_h>0"
    expect_out "FlexWatts"
    run 1 "$tmp/arch" show ffffnotanid
    expect_err 'no archived run matches id prefix'
    ;;
  query_missing_archive)
    # A read command on a path that holds no archive fails naming
    # the path and creates nothing: a mistyped path must not read
    # as "no matching runs".
    for cmd in list summaries "show abc" csv; do
        # shellcheck disable=SC2086 # $cmd is a command + operand
        run 1 "$tmp/typo" $cmd
        expect_err "\"$tmp/typo\" is not a result archive"
        [ ! -e "$tmp/typo" ] || fail "\"$cmd\" created $tmp/typo"
    done
    ;;
  *)
    echo "cli_smoke: unknown case \"$case_name\"" >&2
    exit 1
    ;;
esac

echo "cli_smoke $case_name: ok"
