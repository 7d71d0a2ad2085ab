/**
 * @file
 * Fleet spec-file binding tests: a good spec resolves to the same
 * FleetSpec a C++ caller would build (defaults included), and every
 * malformed input — unknown keys, bad enums, missing required keys,
 * duplicate cohorts, out-of-range values — produces a single-line
 * ConfigError carrying the offending value's file:line:col position.
 */

#include <string>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "config/fleet_config.hh"

namespace pdnspot
{
namespace
{

FleetSpec
load(const std::string &text)
{
    return loadFleetSpec(text, "fleet.json");
}

/**
 * The error contract: one line, a fleet.json:line:col position, and
 * the interesting part of the message.
 */
void
expectSpecError(const std::string &text, const std::string &needle,
                const std::string &position = "fleet.json:")
{
    try {
        load(text);
        FAIL() << "no error for: " << text;
    } catch (const ConfigError &e) {
        std::string what = e.what();
        EXPECT_EQ(what.find('\n'), std::string::npos)
            << "multi-line error: " << what;
        EXPECT_NE(what.find(position), std::string::npos)
            << "expected position \"" << position
            << "\" in: " << what;
        EXPECT_NE(what.find(needle), std::string::npos)
            << "expected \"" << needle << "\" in: " << what;
    }
}

const char *const goodSpec = R"({
  "bucket_ms": 250.0,
  "horizon_s": 120.0,
  "tick_us": 25.0,
  "seed": 9,
  "storm_k": 3.5,
  "cohorts": [
    {"name": "tablets",
     "count": 1000,
     "platform": "fanless-tablet-4w",
     "pdn": "IVR",
     "mode": "oracle",
     "trace": {"library": "web-browsing-trace", "seed": 42},
     "start_jitter_ms": 1500.0,
     "battery_wh": 28.0,
     "battery_spread": 0.15},
    {"name": "laptops",
     "count": 2500,
     "platform": "ultraportable-15w",
     "trace": {"library": "day-in-the-life", "seed": 42}}
  ]
})";

TEST(FleetConfigTest, GoodSpecMatchesCppConstruction)
{
    FleetSpec spec = load(goodSpec);

    EXPECT_EQ(spec.bucket, milliseconds(250.0));
    EXPECT_EQ(spec.horizon, seconds(120.0));
    EXPECT_EQ(spec.tick, microseconds(25.0));
    EXPECT_EQ(spec.seed, 9u);
    EXPECT_DOUBLE_EQ(spec.stormK, 3.5);

    ASSERT_EQ(spec.cohorts.size(), 2u);
    const FleetCohort &tablets = spec.cohorts[0];
    EXPECT_EQ(tablets.name, "tablets");
    EXPECT_EQ(tablets.count, 1000u);
    EXPECT_EQ(tablets.platform.name, fanlessTabletPreset().name);
    EXPECT_EQ(tablets.pdn, PdnKind::IVR);
    EXPECT_EQ(tablets.mode, SimMode::Oracle);
    EXPECT_EQ(tablets.trace.name(), "web-browsing-trace");
    EXPECT_EQ(tablets.trace.resolve(),
              TraceSpec::library("web-browsing-trace", 42).resolve());
    EXPECT_EQ(tablets.startJitter, milliseconds(1500.0));
    EXPECT_DOUBLE_EQ(tablets.batteryWh, 28.0);
    EXPECT_DOUBLE_EQ(tablets.batterySpread, 0.15);
}

TEST(FleetConfigTest, CohortAndClockDefaults)
{
    FleetSpec spec = load(R"({
      "cohorts": [
        {"name": "fleet", "count": 10,
         "platform": "ultraportable-15w",
         "trace": {"library": "bursty-compute", "seed": 42}}
      ]
    })");

    EXPECT_EQ(spec.bucket, seconds(1.0));
    EXPECT_EQ(spec.horizon, seconds(3600.0));
    EXPECT_EQ(spec.tick, microseconds(50.0));
    EXPECT_EQ(spec.seed, 1u);
    EXPECT_DOUBLE_EQ(spec.stormK, 4.0);

    const FleetCohort &cohort = spec.cohorts.at(0);
    EXPECT_EQ(cohort.pdn, PdnKind::FlexWatts);
    EXPECT_EQ(cohort.mode, SimMode::Static);
    EXPECT_EQ(cohort.startJitter, seconds(0.0));
    EXPECT_DOUBLE_EQ(cohort.batteryWh, 50.0);
    EXPECT_DOUBLE_EQ(cohort.batterySpread, 0.0);
}

std::string
cohortSpec(const std::string &cohortBody)
{
    return "{\n  \"cohorts\": [\n    " + cohortBody + "\n  ]\n}";
}

const char *const minimalCohort =
    R"({"name": "a", "count": 5, "platform": "ultraportable-15w",
        "trace": {"library": "bursty-compute", "seed": 42}})";

TEST(FleetConfigTest, RejectsUnknownKeysWithPosition)
{
    expectSpecError(R"({"cohortz": []})",
                    "unknown fleet spec key \"cohortz\"",
                    "fleet.json:1:13");
    expectSpecError(
        cohortSpec(R"({"name": "a", "count": 5,
                       "platform": "ultraportable-15w",
                       "trace": {"library": "bursty-compute"},
                       "jitter_ms": 5})"),
        "unknown cohort key \"jitter_ms\"");
}

TEST(FleetConfigTest, RequiresCohortsAndCohortKeys)
{
    expectSpecError(R"({})", "missing required key \"cohorts\"");
    expectSpecError(R"({"cohorts": []})",
                    "must hold at least one cohort");
    expectSpecError(cohortSpec(R"({"count": 5})"),
                    "missing required cohort key \"name\"");
    expectSpecError(cohortSpec(R"({"name": "a"})"),
                    "missing required cohort key \"count\"");
    expectSpecError(cohortSpec(R"({"name": "a", "count": 5})"),
                    "missing required cohort key \"platform\"");
    expectSpecError(
        cohortSpec(
            R"({"name": "a", "count": 5,
                "platform": "ultraportable-15w"})"),
        "missing required cohort key \"trace\"");
}

TEST(FleetConfigTest, RejectsDuplicateCohortNames)
{
    expectSpecError(
        cohortSpec(std::string(minimalCohort) + ",\n    " +
                   minimalCohort),
        "duplicate cohort name \"a\"");
}

TEST(FleetConfigTest, RejectsBadEnumValues)
{
    expectSpecError(
        cohortSpec(
            R"({"name": "a", "count": 5, "platform": "nope",
                "trace": {"library": "bursty-compute"}})"),
        "unknown platform preset \"nope\"");
    expectSpecError(
        cohortSpec(
            R"({"name": "a", "count": 5,
                "platform": "ultraportable-15w", "pdn": "FancyVR",
                "trace": {"library": "bursty-compute"}})"),
        "unknown PDN kind \"FancyVR\"");
    expectSpecError(
        cohortSpec(
            R"({"name": "a", "count": 5,
                "platform": "ultraportable-15w", "mode": "magic",
                "trace": {"library": "bursty-compute"}})"),
        "unknown simulation mode \"magic\"");
}

TEST(FleetConfigTest, RejectsOutOfRangeValues)
{
    expectSpecError(
        cohortSpec(
            R"({"name": "a", "count": 0,
                "platform": "ultraportable-15w",
                "trace": {"library": "bursty-compute"}})"),
        "\"count\"");
    expectSpecError(
        cohortSpec(
            R"({"name": "a", "count": 5,
                "platform": "ultraportable-15w",
                "trace": {"library": "bursty-compute"},
                "battery_wh": -1})"),
        "\"battery_wh\" must be positive");
    expectSpecError(
        cohortSpec(
            R"({"name": "a", "count": 5,
                "platform": "ultraportable-15w",
                "trace": {"library": "bursty-compute"},
                "battery_spread": 1.0})"),
        "\"battery_spread\" must be in [0, 1)");
    expectSpecError(
        cohortSpec(
            R"({"name": "a", "count": 5,
                "platform": "ultraportable-15w",
                "trace": {"library": "bursty-compute"},
                "start_jitter_ms": -2})"),
        "\"start_jitter_ms\" must be non-negative");
    expectSpecError("{\"cohorts\": [" + std::string(minimalCohort) +
                        "], \"bucket_ms\": 0}",
                    "\"bucket_ms\" must be positive");
    expectSpecError("{\"cohorts\": [" + std::string(minimalCohort) +
                        "], \"seed\": -1}",
                    "\"seed\"");
}

TEST(FleetConfigTest, RejectsSubNanosecondTick)
{
    expectSpecError("{\"cohorts\": [" + std::string(minimalCohort) +
                        "],\n\"tick_us\": 1e-300}",
                    "\"tick_us\" must be at least 0.001 (1 ns), got "
                    "1e-300",
                    "fleet.json:3:12");
    expectSpecError("{\"cohorts\": [" + std::string(minimalCohort) +
                        "], \"tick_us\": 0}",
                    "\"tick_us\" must be positive");
}

TEST(FleetConfigTest, CrossFieldChecksFailAtTheRoot)
{
    // Bucket longer than the horizon binds per-field but fails
    // FleetSpec::validate; the error lands at the document root.
    expectSpecError("{\"cohorts\": [" + std::string(minimalCohort) +
                        "], \"bucket_ms\": 10000, \"horizon_s\": 5}",
                    "bucket", "fleet.json:1:1");
}

} // namespace
} // namespace pdnspot
