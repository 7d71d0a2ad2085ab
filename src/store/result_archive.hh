/**
 * @file
 * Append-only indexed result archive for campaign runs.
 *
 * The archive is the durable half of the distributed campaign
 * service (ROADMAP "Campaign service"): pdnspot_launch (or any
 * caller holding a pdnspot-report-1 document) ingests runs, and
 * pdnspot_query answers cross-study questions ("battery life of
 * every 4 W spec ever run") with one index scan instead of a
 * directory crawl.
 *
 * On-disk layout under one root directory:
 *
 *   index.jsonl                 one compact JSON object per line,
 *                               appended at ingest time
 *   runs/<id>.report.json       the report document, byte-verbatim
 *   runs/<id>.csv.ref           payload hash (present iff the run
 *                               carried a CSV payload)
 *   payloads/<hash>.csv         content-addressed CSV payloads
 *                               (identical payloads stored once)
 *   tmp/                        staging for atomic writes
 *
 * `id` is the fnv1a64 hex of the report's bytes, so ingesting the
 * same report twice is a no-op and ids are stable across machines.
 * Every index entry carries the provenance key the ROADMAP asks for
 * — spec content hash, trace-transform chain digest, shard k/n,
 * thread count, git revision — plus the per-PDN summary metrics, so
 * filters and metric predicates run off the index alone.
 *
 * Crash safety: payloads, refs and report documents are written to
 * tmp/ and renamed into place (payload, then ref, then report — an
 * interrupted ingest leaves at worst an orphaned payload/ref, never
 * a report without its payload); the index line is appended last.
 * Readers skip torn or malformed index lines, and rebuildIndex()
 * regenerates the whole index from runs/, so the index is a cache
 * of the store, never the source of truth.
 */

#ifndef PDNSPOT_STORE_RESULT_ARCHIVE_HH
#define PDNSPOT_STORE_RESULT_ARCHIVE_HH

#include <optional>
#include <string>
#include <vector>

#include "config/json.hh"

namespace pdnspot
{

/**
 * One per-PDN summary row carried by an index entry, read from the
 * report's "summaries.per_pdn" rows.
 */
struct ArchivePdnSummary
{
    std::string pdn;
    uint64_t cells = 0;
    double supplyEnergyJ = 0.0;
    double meanEtee = 0.0;
    uint64_t modeSwitches = 0;
    double meanPowerW = 0.0;
    double batteryLifeHours = 0.0;
};

/** One archived run, as recorded in the index. */
struct ArchiveEntry
{
    std::string id;      ///< fnv1a64 hex of the report bytes
    std::string tool;    ///< emitting binary ("pdnspot_campaign")
    std::string gitRev;
    std::string specHash;   ///< "fnv1a64:<16 hex>" spec content hash
    /**
     * fnv1a64 digest of the "name=provenance" lines of the report's
     * traces: two runs share it iff they ran the same named traces
     * through the same transform chains.
     */
    std::string traceChain;
    std::vector<std::string> traces;    ///< trace names, spec order
    std::vector<std::string> platforms; ///< platform/preset names
    unsigned threads = 1;
    size_t shardIndex = 1;
    size_t shardCount = 1;
    size_t rows = 0;
    double wallSeconds = 0.0;
    std::string csvHash; ///< payload content hash; "" = no payload
    std::vector<ArchivePdnSummary> summaries;
};

/**
 * Order `entries` as one complete shard set: every entry must carry
 * a payload and the same shard count n, and the shard indices must
 * be exactly {1..n}. Returns the entries sorted by shard index;
 * fatal() (ConfigError) naming duplicates/missing shards otherwise.
 * A single unsharded run (1/1) is the trivial set.
 */
std::vector<ArchiveEntry>
orderShardSet(std::vector<ArchiveEntry> entries);

/** The append-only indexed result archive. */
class ResultArchive
{
  public:
    /**
     * Open (creating directories as needed) the archive at `root`.
     * fatal() when the layout cannot be created.
     */
    explicit ResultArchive(std::string root);

    /**
     * Open the archive already at `root` without creating anything:
     * fatal() naming `root` when it holds no archive (no runs/
     * directory), so a mistyped path is an error, not an empty
     * archive. The read side (pdnspot_query list/show/...) uses it.
     */
    static ResultArchive openExisting(std::string root);

    const std::string &root() const { return _root; }

    /**
     * Ingest one run: the raw pdnspot-report-1 bytes plus an
     * optional CSV payload ("" = none). Returns the run id.
     * Idempotent on report bytes — re-ingesting an archived run
     * changes nothing (including its payload association). fatal()
     * when `reportText` is not a pdnspot-report-1 document or a
     * write fails.
     */
    std::string ingest(const std::string &reportText,
                       const std::string &csvBytes);

    /**
     * All index entries, ingestion order, deduplicated by id.
     * Malformed lines (a torn append) are skipped, not fatal.
     * An absent index reads as empty — rebuildIndex() restores it.
     */
    std::vector<ArchiveEntry> entries() const;

    /** The first entry whose id starts with `idPrefix`, if any. */
    std::optional<ArchiveEntry>
    findRun(const std::string &idPrefix) const;

    /** The stored report document for `id`; fatal() when absent. */
    JsonValue readReport(const std::string &id) const;

    /**
     * The CSV payload for `entry`; fatal() when the run carries
     * none or the payload file is missing.
     */
    std::string readCsv(const ArchiveEntry &entry) const;

    /**
     * Regenerate index.jsonl from runs/ (written atomically via
     * tmp + rename). Entries come back in run-id order — ingestion
     * order is not recorded in the store itself.
     */
    void rebuildIndex();

    /** Layout paths (exposed for tools and tests). */
    std::string indexPath() const;
    std::string reportPath(const std::string &id) const;
    std::string payloadPath(const std::string &hash) const;

    /**
     * The index projection of one pdnspot-report-1 document (+ its
     * payload hash), read straight from the JSON. fatal()
     * (ConfigError) when the document is not a pdnspot-report-1
     * object — the schema member is the consumer contract; every
     * other member degrades to a default when absent or mistyped
     * (threads and shard k/n to 1, everything else to empty/0).
     */
    static ArchiveEntry entryFromReport(const JsonValue &report,
                                        const std::string &id,
                                        const std::string &csvHash);

    /** Index-line (de)serialization; nullopt on a malformed line. */
    static JsonValue entryToJson(const ArchiveEntry &entry);
    static std::optional<ArchiveEntry>
    entryFromJson(const JsonValue &value);

  private:
    std::string refPath(const std::string &id) const;

    /** Write bytes to tmp/ and rename onto `path` (atomic). */
    void writeAtomically(const std::string &path,
                         const std::string &bytes) const;

    void appendIndexLine(const ArchiveEntry &entry) const;

    std::string _root;
};

} // namespace pdnspot

#endif // PDNSPOT_STORE_RESULT_ARCHIVE_HH
