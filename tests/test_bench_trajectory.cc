/**
 * @file
 * Benchmark-trajectory schema tests: the --json document the bench
 * binaries emit (write -> parse round trip, required members, unit
 * table), the unit-derived regression direction, and the bench_diff
 * verdict ladder (improve / flat / small / big regression / missing).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/trajectory.hh"
#include "common/logging.hh"
#include "config/json.hh"

namespace pdnspot
{
namespace
{

std::vector<BenchRecord>
sampleRecords()
{
    return {
        {"campaignThroughput/threads:1", "cells_per_sec", 65000.0,
         "cells/s", "abc1234", 1},
        {"campaignThroughput/threads:1", "ns_per_phase", 17.5,
         "ns/phase", "abc1234", 1},
        {"fleetThroughput/threads:1", "sessions_per_sec", 2.5e6,
         "sessions/s", "abc1234", 1},
        {"sweepParallel/threads:8", "real_time", 0.85, "ms",
         "abc1234", 8},
    };
}

TEST(BenchTrajectoryTest, WriteParseRoundTrip)
{
    std::vector<BenchRecord> records = sampleRecords();
    std::string text = writeBenchJson(records);
    EXPECT_EQ(parseBenchJson(parseJson(text, "round-trip")),
              records);
}

TEST(BenchTrajectoryTest, DocumentCarriesRequiredMembers)
{
    // The schema contract scripts/bench.sh and CI artifacts rely on:
    // a top-level schema marker and the six per-record members.
    JsonValue doc =
        parseJson(writeBenchJson(sampleRecords()), "doc");
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->asString(), benchSchemaVersion);
    const JsonValue *records = doc.find("records");
    ASSERT_NE(records, nullptr);
    ASSERT_EQ(records->items().size(), sampleRecords().size());
    for (const JsonValue &record : records->items()) {
        for (const char *member :
             {"benchmark", "metric", "value", "unit", "git_rev",
              "threads"})
            EXPECT_NE(record.find(member), nullptr)
                << "record lacks \"" << member << "\"";
    }
}

TEST(BenchTrajectoryTest, ParseRejectsBadDocuments)
{
    auto parse = [](const std::string &text) {
        return parseBenchJson(parseJson(text, "bad-doc"));
    };
    // Wrong schema marker.
    EXPECT_THROW(
        parse("{\"schema\": \"pdnspot-bench-0\", \"records\": []}"),
        ConfigError);
    // Missing members: no records, then a record with no value.
    EXPECT_THROW(parse("{\"schema\": \"pdnspot-bench-1\"}"),
                 ConfigError);
    EXPECT_THROW(
        parse("{\"schema\": \"pdnspot-bench-1\", \"records\": "
              "[{\"benchmark\": \"b\", \"metric\": \"m\", "
              "\"unit\": \"count\", \"git_rev\": \"x\", "
              "\"threads\": 1}]}"),
        ConfigError);
}

TEST(BenchTrajectoryTest, MetricUnitTable)
{
    EXPECT_EQ(benchMetricUnit("cells_per_sec"), "cells/s");
    EXPECT_EQ(benchMetricUnit("points_per_sec"), "points/s");
    EXPECT_EQ(benchMetricUnit("sessions_per_sec"), "sessions/s");
    EXPECT_EQ(benchMetricUnit("ns_per_phase"), "ns/phase");
    EXPECT_EQ(benchMetricUnit("ns_per_session_bucket"),
              "ns/session");
    EXPECT_EQ(benchMetricUnit("anything_else"), "count");
}

TEST(BenchTrajectoryTest, DirectionFollowsUnit)
{
    for (const char *unit : {"ns", "us", "ms", "s", "ns/phase"})
        EXPECT_EQ(directionForUnit(unit),
                  MetricDirection::LowerIsBetter)
            << unit;
    for (const char *unit : {"cells/s", "points/s", "ratio", "count"})
        EXPECT_EQ(directionForUnit(unit),
                  MetricDirection::HigherIsBetter)
            << unit;
}

BenchRecord
rate(const std::string &benchmark, double value)
{
    return {benchmark, "cells_per_sec", value, "cells/s", "r", 1};
}

TEST(BenchTrajectoryTest, DiffVerdictLadder)
{
    std::vector<BenchRecord> oldRecords = {
        rate("improved", 100.0), rate("flat", 100.0),
        rate("small", 100.0),    rate("big", 100.0),
        rate("gone", 100.0)};
    std::vector<BenchRecord> newRecords = {
        rate("improved", 120.0), rate("flat", 99.0),
        rate("small", 90.0),     rate("big", 70.0),
        rate("fresh-baseline", 50.0)};

    std::vector<BenchDelta> deltas =
        diffBenchRecords(oldRecords, newRecords, 5.0, 20.0);
    ASSERT_EQ(deltas.size(), oldRecords.size());
    EXPECT_EQ(deltas[0].verdict, BenchVerdict::Improved);
    EXPECT_EQ(deltas[1].verdict, BenchVerdict::Flat);
    EXPECT_EQ(deltas[2].verdict, BenchVerdict::SmallRegression);
    EXPECT_EQ(deltas[3].verdict, BenchVerdict::BigRegression);
    EXPECT_EQ(deltas[4].verdict, BenchVerdict::Missing);

    // A 30% rate drop is a 30% regression, reported as such.
    EXPECT_NEAR(deltas[3].regressionPct, 30.0, 1e-9);
    // Metrics only in the new snapshot are baselines, not deltas.
    for (const BenchDelta &d : deltas)
        EXPECT_NE(d.benchmark, "fresh-baseline");
}

TEST(BenchTrajectoryTest, DiffInvertsForTimeUnits)
{
    // ns/phase grows -> slower -> regression; shrinks -> improved.
    BenchRecord oldNs{"bench", "ns_per_phase", 20.0, "ns/phase", "r",
                      1};
    BenchRecord slower = oldNs, faster = oldNs;
    slower.value = 26.0; // +30%
    faster.value = 14.0; // -30%

    std::vector<BenchDelta> up =
        diffBenchRecords({oldNs}, {slower}, 5.0, 20.0);
    ASSERT_EQ(up.size(), 1u);
    EXPECT_EQ(up[0].verdict, BenchVerdict::BigRegression);
    EXPECT_NEAR(up[0].regressionPct, 30.0, 1e-9);

    std::vector<BenchDelta> down =
        diffBenchRecords({oldNs}, {faster}, 5.0, 20.0);
    ASSERT_EQ(down.size(), 1u);
    EXPECT_EQ(down[0].verdict, BenchVerdict::Improved);
}

TEST(BenchTrajectoryTest, DiffUsesCanonicalUnitForLegacyRecords)
{
    // Snapshots written before ns_per_session_bucket entered the
    // unit table stored it as "count" (HigherIsBetter); the diff
    // must still judge it by its canonical time-per-item direction,
    // so a big drop is an improvement, not a failed gate.
    BenchRecord old{"fleet", "ns_per_session_bucket", 74.0, "count",
                    "r", 1};
    BenchRecord faster = old, slower = old;
    faster.value = 49.0; // -33.8%: sped up
    slower.value = 96.2; // +30%: slowed down

    std::vector<BenchDelta> down =
        diffBenchRecords({old}, {faster}, 5.0, 20.0);
    ASSERT_EQ(down.size(), 1u);
    EXPECT_EQ(down[0].verdict, BenchVerdict::Improved);

    std::vector<BenchDelta> up =
        diffBenchRecords({old}, {slower}, 5.0, 20.0);
    ASSERT_EQ(up.size(), 1u);
    EXPECT_EQ(up[0].verdict, BenchVerdict::BigRegression);
    EXPECT_NEAR(up[0].regressionPct, 30.0, 1e-9);

    // A metric the table has never named keeps its stored unit's
    // direction: "count" shrinking is a regression.
    BenchRecord unknown{"b", "widgets_seen", 100.0, "count", "r", 1};
    BenchRecord fewer = unknown;
    fewer.value = 70.0;
    std::vector<BenchDelta> d =
        diffBenchRecords({unknown}, {fewer}, 5.0, 20.0);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].verdict, BenchVerdict::BigRegression);
}

} // anonymous namespace
} // namespace pdnspot
