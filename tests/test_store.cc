/**
 * @file
 * The indexed result archive (src/store/result_archive.hh): ingest
 * idempotence and crash-safe layout, index round trips, torn-line
 * tolerance, rebuildIndex() as the recovery path, shard-set
 * ordering, and the report projection / trace-chain digest it is
 * keyed on (pinned by tests/golden/archive_index.jsonl).
 */

#include <filesystem>
#include <fstream>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "config/json.hh"
#include "golden.hh"
#include "obs/run_report.hh"
#include "store/result_archive.hh"

namespace pdnspot
{
namespace
{

namespace fs = std::filesystem;

/** Fresh temp directory per test, removed on teardown. */
class StoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _root = fs::temp_directory_path() /
                ("pdnspot_store_test_" +
                 std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name());
        fs::remove_all(_root);
    }

    void
    TearDown() override
    {
        fs::remove_all(_root);
    }

    std::string
    root() const
    {
        return _root.string();
    }

  private:
    fs::path _root;
};

/**
 * A minimal but schema-complete pdnspot-report-1 document — the
 * same member shape buildRunReport emits, small enough to vary per
 * test. `shard`/`count` set run.shard_index/shard_count. The
 * run.memo flag is no longer written, but archived reports still
 * carry it, so it stays here to keep such documents parsing.
 */
std::string
reportText(size_t shard, size_t count,
           const std::string &specHash = "fnv1a64:00000000000000aa",
           const std::string &trace = "day-in-the-life")
{
    return strprintf(
        R"json({
  "schema": "pdnspot-report-1",
  "tool": {"name": "pdnspot_campaign", "version": "0.1.0",
           "git_rev": "abc1234"},
  "host": "testhost",
  "wall_time_s": 0.25,
  "run": {"threads": 2, "shard_index": %zu, "shard_count": %zu,
          "first_cell": 0, "end_cell": 4, "rows": 4,
          "memo": true},
  "spec": {"path": "spec.json", "content_hash": "%s",
           "echo": {"platforms": ["fanless-tablet-4w",
                                  {"preset": "ultraportable-15w",
                                   "name": "tweaked"}]}},
  "traces": [{"name": "%s",
              "provenance": "library \"%s\" (seed 42)"}],
  "summaries": {
    "battery_wh": 50,
    "per_pdn": [
      {"pdn": "IVR", "cells": 2, "supply_energy_j": 3.5,
       "nominal_energy_j": 2.8, "mean_etee": 0.8,
       "mode_switches": 0, "mean_power_w": 1.25,
       "battery_life_h": 40.0},
      {"pdn": "FlexWatts", "cells": 2, "supply_energy_j": 3.0,
       "nominal_energy_j": 2.8, "mean_etee": 0.93,
       "mode_switches": 5, "mean_power_w": 1.0,
       "battery_life_h": 50.0}]}
})json",
        shard, count, specHash.c_str(), trace.c_str(),
        trace.c_str());
}

TEST_F(StoreTest, IngestAndReadBack)
{
    ResultArchive archive(root());
    std::string report = reportText(1, 1);
    std::string id = archive.ingest(report, "header\nrow\n");
    EXPECT_EQ(id, fnv1a64Hex(report));

    std::vector<ArchiveEntry> entries = archive.entries();
    ASSERT_EQ(entries.size(), 1u);
    const ArchiveEntry &e = entries[0];
    EXPECT_EQ(e.id, id);
    EXPECT_EQ(e.tool, "pdnspot_campaign");
    EXPECT_EQ(e.gitRev, "abc1234");
    EXPECT_EQ(e.specHash, "fnv1a64:00000000000000aa");
    EXPECT_EQ(e.threads, 2u);
    EXPECT_EQ(e.shardIndex, 1u);
    EXPECT_EQ(e.shardCount, 1u);
    EXPECT_EQ(e.rows, 4u);
    EXPECT_DOUBLE_EQ(e.wallSeconds, 0.25);
    ASSERT_EQ(e.traces.size(), 1u);
    EXPECT_EQ(e.traces[0], "day-in-the-life");
    // Platform names: preset strings verbatim, objects by "name".
    ASSERT_EQ(e.platforms.size(), 2u);
    EXPECT_EQ(e.platforms[0], "fanless-tablet-4w");
    EXPECT_EQ(e.platforms[1], "tweaked");
    ASSERT_EQ(e.summaries.size(), 2u);
    EXPECT_EQ(e.summaries[1].pdn, "FlexWatts");
    EXPECT_DOUBLE_EQ(e.summaries[1].batteryLifeHours, 50.0);
    EXPECT_EQ(e.summaries[1].modeSwitches, 5u);

    EXPECT_EQ(archive.readCsv(e), "header\nrow\n");
    EXPECT_EQ(readFileBytes(archive.reportPath(id)), report);
    EXPECT_EQ(archive.readReport(id)
                  .find("schema")
                  ->asString(),
              "pdnspot-report-1");
}

TEST_F(StoreTest, MissingReportIsNamedByItsPath)
{
    ResultArchive archive(root());
    std::string id = archive.ingest(reportText(1, 1), "header\n");
    std::string path = root() + "/runs/" + id + ".report.json";
    fs::remove(path);
    try {
        archive.readReport(id);
        FAIL() << "no error for a deleted report";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.message(), "cannot read \"" + path + "\"");
    }
}

TEST_F(StoreTest, OpenExistingRejectsAPathWithoutAnArchive)
{
    // The read side must not mistake a typo for an empty archive,
    // nor leave a fresh archive behind at the typo.
    EXPECT_THROW(ResultArchive::openExisting(root()), ConfigError);
    EXPECT_FALSE(fs::exists(root()));
    fs::create_directories(root());
    try {
        ResultArchive::openExisting(root());
        FAIL() << "an empty directory opened as an archive";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(root()),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(fs::is_empty(root()));

    std::string id = ResultArchive(root()).ingest(reportText(1, 1), "");
    EXPECT_TRUE(ResultArchive::openExisting(root()).findRun(id));
}

TEST_F(StoreTest, IngestIsIdempotent)
{
    ResultArchive archive(root());
    std::string report = reportText(1, 1);
    std::string id1 = archive.ingest(report, "csv-a\n");
    // Re-ingesting the same report — even claiming different CSV
    // bytes — changes nothing: the first payload association wins.
    std::string id2 = archive.ingest(report, "csv-b\n");
    EXPECT_EQ(id1, id2);
    std::vector<ArchiveEntry> entries = archive.entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(archive.readCsv(entries[0]), "csv-a\n");
}

TEST_F(StoreTest, IdenticalPayloadsStoredOnce)
{
    ResultArchive archive(root());
    archive.ingest(reportText(1, 2), "same bytes\n");
    archive.ingest(reportText(2, 2), "same bytes\n");
    size_t payloads = 0;
    for (const auto &entry :
         fs::directory_iterator(root() + "/payloads"))
        payloads += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(payloads, 1u);
    EXPECT_EQ(archive.entries().size(), 2u);
}

TEST_F(StoreTest, RejectsNonReportDocuments)
{
    ResultArchive archive(root());
    EXPECT_THROW(archive.ingest("{\"schema\": \"other-1\"}", ""),
                 ConfigError);
    EXPECT_THROW(archive.ingest("not json at all", ""),
                 ConfigError);
    EXPECT_THROW(archive.ingest("[1, 2]", ""), ConfigError);
    EXPECT_TRUE(archive.entries().empty());
}

TEST_F(StoreTest, FindRunByPrefix)
{
    ResultArchive archive(root());
    std::string id = archive.ingest(reportText(1, 1), "x\n");
    ASSERT_GE(id.size(), 4u);
    std::optional<ArchiveEntry> hit =
        archive.findRun(id.substr(0, 4));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->id, id);
    EXPECT_FALSE(archive.findRun("zzzz").has_value());
}

TEST_F(StoreTest, TornIndexLinesAreSkipped)
{
    ResultArchive archive(root());
    std::string id = archive.ingest(reportText(1, 1), "x\n");
    {
        // Simulate an append cut off mid-write plus stray junk.
        std::ofstream index(archive.indexPath(),
                            std::ios::app | std::ios::binary);
        index << "{\"id\": \"torn-li";
    }
    std::vector<ArchiveEntry> entries = archive.entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].id, id);
}

TEST_F(StoreTest, DuplicateIndexLinesKeepTheFirst)
{
    // An index line repeated with another payload (say, a concurrent
    // ingester's append) reads as one entry: the first one.
    ResultArchive archive(root());
    std::string id = archive.ingest(reportText(1, 1), "first\n");
    ArchiveEntry dup = archive.entries().at(0);
    dup.csvHash = fnv1a64Hex("second\n");
    {
        std::ofstream index(archive.indexPath(),
                            std::ios::app | std::ios::binary);
        index << writeJsonCompact(ResultArchive::entryToJson(dup))
              << "\n";
    }
    std::vector<ArchiveEntry> entries = archive.entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].id, id);
    EXPECT_EQ(entries[0].csvHash, fnv1a64Hex("first\n"));
    EXPECT_EQ(archive.readCsv(entries[0]), "first\n");
}

TEST_F(StoreTest, RebuildIndexRecoversEverything)
{
    ResultArchive archive(root());
    std::string idA = archive.ingest(reportText(1, 2), "a\n");
    std::string idB = archive.ingest(reportText(2, 2), "b\n");
    fs::remove(archive.indexPath());
    EXPECT_TRUE(archive.entries().empty());

    archive.rebuildIndex();
    std::vector<ArchiveEntry> entries = archive.entries();
    ASSERT_EQ(entries.size(), 2u);
    for (const ArchiveEntry &e : entries) {
        EXPECT_TRUE(e.id == idA || e.id == idB);
        // The payload association survives via the csv.ref
        // sidecar, not the (deleted) index.
        EXPECT_EQ(archive.readCsv(e),
                  e.id == idA ? "a\n" : "b\n");
    }
}

TEST_F(StoreTest, EntryJsonRoundTrip)
{
    ResultArchive archive(root());
    archive.ingest(reportText(2, 4), "payload\n");
    ArchiveEntry before = archive.entries()[0];
    std::optional<ArchiveEntry> after = ResultArchive::entryFromJson(
        ResultArchive::entryToJson(before));
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->id, before.id);
    EXPECT_EQ(after->specHash, before.specHash);
    EXPECT_EQ(after->traceChain, before.traceChain);
    EXPECT_EQ(after->shardIndex, 2u);
    EXPECT_EQ(after->shardCount, 4u);
    EXPECT_EQ(after->csvHash, before.csvHash);
    ASSERT_EQ(after->summaries.size(), before.summaries.size());
    EXPECT_DOUBLE_EQ(after->summaries[0].supplyEnergyJ,
                     before.summaries[0].supplyEnergyJ);
}

TEST_F(StoreTest, OrderShardSetSortsAndValidates)
{
    ResultArchive archive(root());
    // Ingest out of order; orderShardSet must sort 1..3.
    archive.ingest(reportText(3, 3), "c\n");
    archive.ingest(reportText(1, 3), "a\n");
    archive.ingest(reportText(2, 3), "b\n");
    std::vector<ArchiveEntry> ordered =
        orderShardSet(archive.entries());
    ASSERT_EQ(ordered.size(), 3u);
    EXPECT_EQ(ordered[0].shardIndex, 1u);
    EXPECT_EQ(ordered[1].shardIndex, 2u);
    EXPECT_EQ(ordered[2].shardIndex, 3u);

    // A missing shard is an error naming the gap, not silence.
    std::vector<ArchiveEntry> gappy = {ordered[0], ordered[2]};
    EXPECT_THROW(orderShardSet(gappy), ConfigError);
    // So is a duplicate shard index.
    std::vector<ArchiveEntry> doubled = {ordered[0], ordered[0],
                                         ordered[1], ordered[2]};
    EXPECT_THROW(orderShardSet(doubled), ConfigError);
    EXPECT_THROW(orderShardSet({}), ConfigError);
}

TEST_F(StoreTest, ProjectionMatchesGolden)
{
    // The index projection of one report per line: the golden run
    // report, the bare schema (every default), the platform-name
    // rules, and wrong-kind members that must read as defaults.
    // Cases alternate between carrying a payload hash and none.
    std::vector<JsonValue> docs = {
        parseJsonFile(std::string(PDNSPOT_GOLDEN_DIR) +
                      "/run_report.json")};
    for (const char *text : {
             R"({"schema": "pdnspot-report-1"})",
             R"({"schema": "pdnspot-report-1",
                 "spec": {"echo": {"platforms": [
                     "fanless-tablet-4w",
                     {"preset": "ultraportable-15w", "name": "tweaked"},
                     {"preset": "desktop-65w"},
                     {"tdp_w": 9},
                     7]}}})",
             R"({"schema": "pdnspot-report-1", "tool": "pdnspot_campaign",
                 "run": [2, 4], "wall_time_s": "fast",
                 "spec": {"content_hash": 5, "echo": [1]},
                 "traces": [3, "loose", {"name": "t", "provenance": 4},
                            {"provenance": "p"}],
                 "summaries": {"per_pdn": [
                     1, "IVR",
                     {"pdn": "IVR", "cells": -2, "supply_energy_j": "x",
                      "mode_switches": 3.7, "mean_etee": null}]}})",
             R"({"schema": "pdnspot-report-1",
                 "tool": {"name": 7, "git_rev": ["abc"]},
                 "run": {"threads": -3, "shard_index": "2",
                         "shard_count": -1, "rows": true},
                 "spec": {"echo": {"platforms": {"name": "x"}}},
                 "traces": {"name": "t"},
                 "summaries": [{"pdn": "IVR"}]})"})
        docs.push_back(parseJson(text, "case"));
    std::string lines;
    for (size_t k = 0; k < docs.size(); ++k) {
        lines += writeJsonCompact(ResultArchive::entryToJson(
            ResultArchive::entryFromReport(
                docs[k], strprintf("run%zu", k + 1),
                k % 2 == 0 ? "00000000000000c5" : "")));
        lines += '\n';
    }
    checkGolden("archive_index.jsonl", lines);
}

TEST_F(StoreTest, OutOfRangeCountsReadAsDefaults)
{
    // A count that does not fit its field reads as the default, in
    // the report (1 or 0) and in the index line (0), not as a wrapped
    // or undefined cast.
    ArchiveEntry e = ResultArchive::entryFromReport(
        parseJson(R"({"schema": "pdnspot-report-1",
                      "run": {"rows": 1e30, "threads": 5e9,
                              "shard_index": 18446744073709551616,
                              "shard_count": 4294967296}})",
                  "case"),
        "run", "");
    EXPECT_EQ(e.rows, 0u);
    EXPECT_EQ(e.threads, 1u);
    EXPECT_EQ(e.shardIndex, 1u);
    EXPECT_EQ(e.shardCount, 4294967296u);

    std::optional<ArchiveEntry> line = ResultArchive::entryFromJson(
        parseJson(R"({"id": "run", "rows": 1e30, "threads": 4294967296,
                      "shard_count": 4294967295})",
                  "line"));
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->rows, 0u);
    EXPECT_EQ(line->threads, 0u);
    EXPECT_EQ(line->shardCount, 4294967295u);
}

TEST(TraceChainHash, KeyedOnNamesAndProvenance)
{
    auto chain = [](const std::string &text) {
        return ResultArchive::entryFromReport(parseJson(text, "test"),
                                              "run", "")
            .traceChain;
    };
    std::string a = reportText(1, 2);
    std::string b = reportText(2, 2); // same traces, other shard
    std::string c = reportText(1, 2, "fnv1a64:00000000000000aa",
                               "bursty-compute");
    EXPECT_EQ(chain(a), chain(b));
    EXPECT_NE(chain(a), chain(c));
}

} // namespace
} // namespace pdnspot
