/**
 * @file
 * Provenance-stamped campaign run reports (schema pdnspot-report-1).
 *
 * A run report is the machine-readable record of one
 * pdnspot_campaign invocation: what was run (spec echo + content
 * hash, trace provenance, shard k/n, thread count),
 * with what build (tool version, git revision, host), what happened
 * (wall time, row count, the full metric snapshot from
 * obs/metrics.hh), and what came out (per-PDN summaries). The
 * result archive (store/result_archive.hh) reads its index entry
 * straight from this document — keying runs by provenance makes
 * cross-study queries a lookup, not a directory crawl.
 *
 * The schema is versioned: consumers check the "schema" member and
 * reject documents they do not understand. Histogram metrics serialize
 * count/sum/min/max, the log2 bucket counts, and p50/p95/p99
 * percentile estimates (histogramQuantile — bucket-interpolated, so
 * order-of-magnitude resolution, same numbers --summary prints).
 *
 * canonicalizeRunReport() rewrites the volatile members (wall time,
 * git rev, host, durations) to fixed placeholders so golden-file
 * tests can byte-diff everything else.
 */

#ifndef PDNSPOT_OBS_RUN_REPORT_HH
#define PDNSPOT_OBS_RUN_REPORT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "campaign/campaign_result.hh"
#include "config/json.hh"
#include "obs/metrics.hh"

namespace pdnspot
{

/** Current run-report schema name. */
inline constexpr const char *runReportSchema = "pdnspot-report-1";

/**
 * Build stamp: the PDNSPOT_GIT_REV environment variable when set,
 * else the revision baked in at configure time, else "unknown".
 */
std::string gitRevision();

/** Project version baked in at configure time ("0.1.0"). */
std::string toolVersion();

/** gethostname(), or "unknown" if the call fails. */
std::string hostName();

/**
 * FNV-1a 64-bit hash of `text` as 16 lowercase hex digits — the
 * spec content hash. Stable across platforms; collision-resistance
 * is not a goal (this keys an archive, it does not authenticate).
 */
std::string fnv1a64Hex(const std::string &text);

/** Everything one tool run feeds into its report. */
struct RunReportInputs
{
    /** Emitting binary's name (the "tool.name" member); required. */
    std::string toolName;

    std::string specPath;  ///< as given on the command line
    std::string specText;  ///< raw spec file bytes (hashed)
    JsonValue specEcho;    ///< parsed spec document

    const CampaignSpec *spec = nullptr; ///< for trace provenance

    unsigned threads = 1;
    size_t shardIndex = 1;
    size_t shardCount = 1;
    size_t firstCell = 0;
    size_t endCell = 0;

    double wallSeconds = 0.0;
    size_t rows = 0;

    /** Summary block; empty vector => member omitted. */
    std::vector<CampaignPdnSummary> summaries;
    double batteryWh = 0.0;

    const MetricsRegistry *metrics = nullptr;

    /**
     * Tool-specific top-level members appended after the standard
     * ones (e.g. pdnspot_fleet's "fleet" aggregate block). Pass
     * through canonicalizeRunReport unchanged.
     */
    std::vector<JsonValue::Member> extra;
};

/** Assemble the pdnspot-report-1 document. */
JsonValue buildRunReport(const RunReportInputs &inputs);

/**
 * The golden-file projection: tool.version -> "VERSION",
 * tool.git_rev -> "GITREV", host -> "HOST", wall_time_s -> 0,
 * spec.path -> "SPEC", and every histogram metric's
 * value/min/max/p50/p95/p99 zeroed with its buckets emptied (sample
 * *counts* are deterministic at one thread; durations are not).
 * Unknown members pass through unchanged.
 */
JsonValue canonicalizeRunReport(const JsonValue &report);

} // namespace pdnspot

#endif // PDNSPOT_OBS_RUN_REPORT_HH
