/**
 * @file
 * Spec-file binding tests: a good spec resolves to the same campaign
 * a C++ caller would build, and every malformed input — unknown
 * keys, bad enum values, missing traces or presets — produces a
 * single-line actionable ConfigError carrying file:line:col.
 */

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "campaign/campaign_engine.hh"
#include "common/logging.hh"
#include "config/campaign_config.hh"
#include "workload/trace_generator.hh"
#include "workload/trace_io.hh"

namespace pdnspot
{
namespace
{

CampaignSpec
load(const std::string &text)
{
    return loadCampaignSpec(text, "spec.json");
}

/**
 * The satellite error contract: one line, a spec.json:line:col
 * position, and the interesting part of the message.
 */
void
expectSpecError(const std::string &text, const std::string &needle,
                const std::string &position = "spec.json:")
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
  "traces": {"library": "standard", "seed": 42},
  "platforms": ["fanless-tablet-4w", "ultraportable-15w",
                "h-series-45w"],
  "pdns": "all",
  "mode": "pmu",
  "tick_us": 50.0
})";

TEST(CampaignConfigTest, GoodSpecMatchesCppConstruction)
{
    CampaignSpec fromFile = load(goodSpec);

    CampaignSpec fromCpp;
    fromCpp.traces = standardCampaignTraces(42);
    fromCpp.platforms = allPlatformPresets();
    fromCpp.pdns.assign(allPdnKinds.begin(), allPdnKinds.end());
    fromCpp.mode = SimMode::Pmu;

    // The file and the C++ spec bind the same library references.
    EXPECT_EQ(fromFile.traces, fromCpp.traces);
    ASSERT_EQ(fromFile.platforms.size(), fromCpp.platforms.size());
    for (size_t i = 0; i < fromFile.platforms.size(); ++i) {
        EXPECT_EQ(fromFile.platforms[i].name,
                  fromCpp.platforms[i].name);
        EXPECT_EQ(fromFile.platforms[i].tdp,
                  fromCpp.platforms[i].tdp);
        EXPECT_EQ(fromFile.platforms[i].pdnParams.supplyVoltage,
                  fromCpp.platforms[i].pdnParams.supplyVoltage);
    }
    EXPECT_EQ(fromFile.pdns, fromCpp.pdns);
    EXPECT_EQ(fromFile.mode, fromCpp.mode);
    EXPECT_EQ(fromFile.tick, fromCpp.tick);
}

TEST(CampaignConfigTest, DefaultsModeTickAndSeed)
{
    CampaignSpec spec = load(R"({
      "traces": {},
      "platforms": ["ultraportable-15w"],
      "pdns": ["IVR"]
    })");
    EXPECT_EQ(spec.mode, SimMode::Static);
    EXPECT_EQ(spec.tick, microseconds(50.0));
    EXPECT_EQ(spec.traces, standardCampaignTraces(42));
}

TEST(CampaignConfigTest, SelectsTraceSubsetInListedOrder)
{
    CampaignSpec spec = load(R"({
      "traces": {"names": ["day-in-the-life", "bursty-compute"]},
      "platforms": ["ultraportable-15w"],
      "pdns": ["IVR", "FlexWatts"]
    })");
    ASSERT_EQ(spec.traces.size(), 2u);
    EXPECT_EQ(spec.traces[0].name(), "day-in-the-life");
    EXPECT_EQ(spec.traces[1].name(), "bursty-compute");
}

TEST(CampaignConfigTest, BindsInlineAndPresetDerivedPlatforms)
{
    CampaignSpec spec = load(R"({
      "traces": {"names": ["bursty-compute"]},
      "platforms": [
        {"preset": "ultraportable-15w", "name": "uv-12w",
         "tdp_w": 12.0},
        {"name": "bare-20w", "tdp_w": 20.0, "supply_v": 8.0,
         "predictor_hysteresis": 0.01}
      ],
      "pdns": ["IVR"]
    })");
    ASSERT_EQ(spec.platforms.size(), 2u);
    EXPECT_EQ(spec.platforms[0].name, "uv-12w");
    EXPECT_EQ(spec.platforms[0].tdp, watts(12.0));
    // Unoverridden preset fields carry through.
    EXPECT_EQ(spec.platforms[0].pdnParams.supplyVoltage,
              ultraportablePreset().pdnParams.supplyVoltage);
    EXPECT_EQ(spec.platforms[1].name, "bare-20w");
    EXPECT_EQ(spec.platforms[1].pdnParams.supplyVoltage, volts(8.0));
    EXPECT_DOUBLE_EQ(spec.platforms[1].predictorHysteresis, 0.01);
}

TEST(CampaignConfigTest, BindsDeclarativeTraceEntries)
{
    std::string path = testing::TempDir() + "cfg_trace.csv";
    {
        std::ofstream out(path, std::ios::binary);
        writeTraceCsv(out, TraceGenerator(3).randomMix(
                               5, milliseconds(4.0)));
    }

    CampaignSpec spec = loadCampaignSpec(
        R"({
      "traces": [
        {"library": "bursty-compute", "seed": 7},
        {"generator": {"kind": "random-mix", "seed": 9,
                       "phases": 6, "mean_phase_ms": 5.0,
                       "ar_min": 0.5, "ar_max": 0.9},
         "tick_us": 20.0},
        {"profile": "web-browsing", "frame_ms": 20.0, "frames": 3},
        {"file": ")" +
            path + R"(", "name": "recorded"}
      ],
      "platforms": ["ultraportable-15w"],
      "pdns": ["IVR"]
    })",
        "spec.json");

    ASSERT_EQ(spec.traces.size(), 4u);
    EXPECT_EQ(spec.traces[0].kind(), TraceSpec::Kind::Library);
    EXPECT_EQ(spec.traces[0].resolve(),
              TraceGenerator(7).burstyCompute(6, milliseconds(20.0),
                                              milliseconds(60.0)));

    EXPECT_EQ(spec.traces[1].kind(), TraceSpec::Kind::Generator);
    EXPECT_EQ(spec.traces[1].resolve(),
              TraceGenerator(9).randomMix(6, milliseconds(5.0),
                                          0.5, 0.9));
    ASSERT_TRUE(spec.traces[1].tickOverride());
    EXPECT_EQ(*spec.traces[1].tickOverride(), microseconds(20.0));

    EXPECT_EQ(spec.traces[2].kind(), TraceSpec::Kind::Profile);
    EXPECT_EQ(spec.traces[2].resolve(),
              traceFromBatteryProfile(
                  batteryProfileByName("web-browsing"),
                  milliseconds(20.0), 3));

    EXPECT_EQ(spec.traces[3].kind(), TraceSpec::Kind::File);
    EXPECT_EQ(spec.traces[3].name(), "recorded");
    EXPECT_EQ(spec.traces[3].resolve().phases(),
              TraceGenerator(3).randomMix(5, milliseconds(4.0))
                  .phases());
}

TEST(CampaignConfigTest, ResolvesRelativeTracePathsAgainstTraceDir)
{
    std::string dir = testing::TempDir();
    {
        std::ofstream out(dir + "relative_trace.csv",
                          std::ios::binary);
        out << "duration_s,cstate,type,ar\n"
               "0.1,C0,multi-thread,0.6\n";
    }
    CampaignSpec spec = loadCampaignSpec(
        R"({
      "traces": [{"file": "relative_trace.csv"}],
      "platforms": ["ultraportable-15w"],
      "pdns": ["IVR"]
    })",
        "spec.json", dir);
    ASSERT_EQ(spec.traces.size(), 1u);
    EXPECT_EQ(spec.traces[0].name(), "relative_trace");
    EXPECT_EQ(spec.traces[0].resolve().phases().size(), 1u);
}

TEST(CampaignConfigTest, RejectsBadTraceEntries)
{
    auto wrap = [](const std::string &entry) {
        return R"({"traces": [)" + entry +
               R"(], "platforms": ["ultraportable-15w"],
                  "pdns": ["IVR"]})";
    };
    expectSpecError(wrap(R"({"name": "x"})"),
                    "exactly one source key");
    expectSpecError(
        wrap(R"({"library": "bursty-compute",
                 "profile": "web-browsing"})"),
        "exactly one source key");
    expectSpecError(wrap(R"({"library": "no-such", "seed": 7})"),
                    "unknown library trace \"no-such\"");
    expectSpecError(wrap(R"({"generator": {"bursts": 3}})"),
                    "missing required generator key \"kind\"");
    expectSpecError(
        wrap(R"({"generator": {"kind": "white-noise"}})"),
        "unknown generator kind \"white-noise\"");
    expectSpecError(
        wrap(R"({"generator": {"kind": "random-mix",
                               "bursts": 3}})"),
        "\"bursts\" does not apply");
    expectSpecError(
        wrap(R"({"generator": {"kind": "random-mix",
                               "ar_min": 0.9, "ar_max": 0.4}})"),
        "\"ar_min\" 0.9 exceeds");
    expectSpecError(
        wrap(R"({"generator": {"kind": "day-in-the-life"},
                 "seed": 3})"),
        "put \"seed\" inside");
    expectSpecError(wrap(R"({"profile": "mining"})"),
                    "unknown battery profile \"mining\"");
    expectSpecError(
        wrap(R"({"profile": "web-browsing", "frames": 0})"),
        "\"frames\" must be in [1,");
    expectSpecError(
        wrap(R"({"library": "bursty-compute", "frame_ms": 5.0})"),
        "only applies to \"profile\" entries");
    expectSpecError(wrap(R"({"file": "/no/such/trace.csv"})"),
                    "cannot open trace file");
    expectSpecError(
        wrap(R"({"library": "bursty-compute", "tick_us": 0})"),
        "\"tick_us\" must be positive");
    expectSpecError(
        wrap(R"({"library": "bursty-compute", "name": "a,b"})"),
        "CSV metacharacters");
    expectSpecError(R"({"traces": [],
                        "platforms": ["ultraportable-15w"],
                        "pdns": ["IVR"]})",
                    "at least one trace entry");
    expectSpecError(
        wrap(R"({"library": "bursty-compute"},
                {"library": "bursty-compute", "seed": 9})"),
        "duplicate trace name \"bursty-compute\"");
}

TEST(CampaignConfigTest, BrokenTraceFileFailsAtTheSpecPosition)
{
    std::string path = testing::TempDir() + "bad_cfg_trace.csv";
    {
        std::ofstream out(path, std::ios::binary);
        out << "duration_s,cstate,type,ar\n"
               "-1,C0,multi-thread,0.5\n";
    }
    // The error must carry both the spec position and the nested
    // trace-file position.
    expectSpecError(R"({"traces": [{"file": ")" + path +
                        R"("}], "platforms": ["ultraportable-15w"],
                        "pdns": ["IVR"]})",
                    "duration must be positive", "spec.json:1:");
    expectSpecError(R"({"traces": [{"file": ")" + path +
                        R"("}], "platforms": ["ultraportable-15w"],
                        "pdns": ["IVR"]})",
                    "bad_cfg_trace.csv:2");
}

TEST(CampaignConfigTest, DeclarativeSpecRunsEndToEnd)
{
    CampaignSpec spec = load(R"({
      "traces": [
        {"generator": {"kind": "bursty-compute", "seed": 5,
                       "bursts": 2, "burst_ms": 5.0,
                       "idle_ms": 10.0}},
        {"profile": "video-playback", "frames": 2}
      ],
      "platforms": ["fanless-tablet-4w"],
      "pdns": ["IVR", "FlexWatts"],
      "mode": "pmu"
    })");
    ParallelRunner runner;
    CampaignResult result = CampaignEngine(runner).run(spec);
    ASSERT_EQ(result.cells.size(), 4u);
    EXPECT_EQ(result.cells[0].trace, "bursty-compute");
    EXPECT_EQ(result.cells[2].trace, "video-playback-trace");
    EXPECT_GT(result.cells[0].sim.supplyEnergy, joules(0.0));
}

TEST(CampaignConfigTest, RejectsUnknownKeysEverywhere)
{
    expectSpecError(R"({"traces": {}, "platforms": ["x"],
                        "pdns": "all", "bogus": 1})",
                    "unknown spec key \"bogus\"");
    expectSpecError(R"({"traces": {"frobnicate": 1},
                        "platforms": ["x"], "pdns": "all"})",
                    "unknown \"traces\" key \"frobnicate\"");
    expectSpecError(R"({"traces": {}, "pdns": "all", "platforms":
                        [{"name": "a", "tdp": 15}]})",
                    "unknown platform key \"tdp\"");
}

TEST(CampaignConfigTest, RejectsMissingRequiredKeys)
{
    expectSpecError(R"({"platforms": ["x"], "pdns": "all"})",
                    "missing required key \"traces\"");
    expectSpecError(R"({"traces": {}, "pdns": "all"})",
                    "missing required key \"platforms\"");
    expectSpecError(R"({"traces": {}, "platforms": ["x"]})",
                    "missing required key \"pdns\"");
}

TEST(CampaignConfigTest, RejectsBadEnumValues)
{
    expectSpecError(R"({"traces": {}, "platforms":
                        ["ultraportable-15w"],
                        "pdns": ["IVR", "XVR"]})",
                    "unknown PDN kind \"XVR\"");
    expectSpecError(R"({"traces": {}, "platforms":
                        ["ultraportable-15w"], "pdns": "some"})",
                    "\"all\" or an array");
    expectSpecError(R"({"traces": {}, "platforms":
                        ["ultraportable-15w"], "pdns": ["IVR"],
                        "mode": "turbo"})",
                    "unknown simulation mode \"turbo\"");
    expectSpecError(R"({"traces": {"library": "exotic"},
                        "platforms": ["ultraportable-15w"],
                        "pdns": ["IVR"]})",
                    "unknown trace library \"exotic\"");
}

TEST(CampaignConfigTest, RejectsMissingTracesAndPresets)
{
    expectSpecError(R"({"traces": {"names": ["no-such-trace"]},
                        "platforms": ["ultraportable-15w"],
                        "pdns": ["IVR"]})",
                    "unknown library trace \"no-such-trace\"");
    expectSpecError(R"({"traces": {}, "platforms": ["atx-750w"],
                        "pdns": ["IVR"]})",
                    "unknown platform preset \"atx-750w\"");
    expectSpecError(R"({"traces": {}, "platforms":
                        [{"tdp_w": 15.0}], "pdns": ["IVR"]})",
                    "need a \"name\"");
}

TEST(CampaignConfigTest, RejectsSubNanosecondTick)
{
    // A tick below 1 ns rounds away against a phase start and would
    // stall the PMU kernel; the error points at the value.
    expectSpecError(R"({"traces": {}, "platforms": ["ultraportable-15w"],
"pdns": ["IVR"], "tick_us": 1e-300})",
                    "\"tick_us\" must be at least 0.001 (1 ns), got "
                    "1e-300",
                    "spec.json:2:29");
    CampaignSpec spec = loadCampaignSpec(
        R"({"traces": {}, "platforms": ["ultraportable-15w"],
            "pdns": ["IVR"], "tick_us": 0.001})",
        "spec.json");
    EXPECT_EQ(spec.tick, minTick);
}

TEST(CampaignConfigTest, RejectsSubNanosecondTraceTick)
{
    expectSpecError(R"({"traces": [{"library": "bursty-compute",
"tick_us": 1e-300}], "platforms": ["ultraportable-15w"], "pdns": ["IVR"]})",
                    "\"tick_us\" must be at least 0.001 (1 ns), got "
                    "1e-300",
                    "spec.json:2:12");
}

TEST(CampaignConfigTest, RejectsBadScalars)
{
    expectSpecError(R"({"traces": {"seed": 2.5},
                        "platforms": ["ultraportable-15w"],
                        "pdns": ["IVR"]})",
                    "\"seed\" must be an integer");
    expectSpecError(R"({"traces": {}, "platforms":
                        ["ultraportable-15w"], "pdns": ["IVR"],
                        "tick_us": -1})",
                    "\"tick_us\" must be positive");
    expectSpecError(R"({"traces": {}, "platforms":
                        ["ultraportable-15w"], "pdns": []})",
                    "at least one PDN kind");
    expectSpecError(R"({"traces": {"names": []},
                        "platforms": ["ultraportable-15w"],
                        "pdns": ["IVR"]})",
                    "at least one trace");
    expectSpecError(R"({"traces": {}, "platforms":
                        ["ultraportable-15w"],
                        "pdns": {"kind": "IVR"}})",
                    "expected array, got object");
    expectSpecError(R"({"traces": {}, "platforms":
                        [{"preset": "ultraportable-15w",
                          "name": "x", "supply_v": 0.0}],
                        "pdns": ["IVR"]})",
                    "\"supply_v\" must be positive");
    expectSpecError(R"({"traces": {}, "platforms":
                        [{"preset": "ultraportable-15w",
                          "name": "x",
                          "predictor_hysteresis": -0.1}],
                        "pdns": ["IVR"]})",
                    "\"predictor_hysteresis\" must be in [0, 1)");
}

TEST(CampaignConfigTest, MalformedJsonCarriesPosition)
{
    expectSpecError("{\"traces\": {},\n  \"platforms\": [,]}",
                    "unexpected character", "spec.json:2:17");
}

TEST(CampaignConfigTest, DuplicatesFailAtTheOffendingValue)
{
    expectSpecError(R"({"traces": {},
                        "platforms": ["ultraportable-15w"],
                        "pdns": ["IVR", "IVR"]})",
                    "duplicate PDN kind \"IVR\"");
    expectSpecError(R"({"traces": {"names": ["bursty-compute",
                                             "bursty-compute"]},
                        "platforms": ["ultraportable-15w"],
                        "pdns": ["IVR"]})",
                    "selected twice");
    expectSpecError(R"({"traces": {},
                        "platforms": ["ultraportable-15w",
                                      {"preset": "ultraportable-15w"}],
                        "pdns": ["IVR"]})",
                    "duplicate platform name \"ultraportable-15w\"");
    expectSpecError(R"({"traces": {},
                        "platforms": [{"preset": "ultraportable-15w",
                                       "name": "hot", "tdp_w": 90}],
                        "pdns": ["IVR"]})",
                    "\"tdp_w\" must be within");
}

TEST(CampaignConfigTest, BindsTransformChains)
{
    CampaignSpec spec = load(R"({
      "traces": [
        {"library": "bursty-compute", "name": "bursty-variant",
         "transforms": [
           {"repeat": 2},
           {"time_scale": 1.5},
           {"ar_perturb": {"delta": 0.1, "seed": 7}},
           {"concat": {"library": "day-in-the-life"}},
           {"truncate_ms": 900.0}]}
      ],
      "platforms": ["fanless-tablet-4w"],
      "pdns": ["IVR"]
    })");

    TraceSpec byHand =
        TraceSpec::library("bursty-compute", 42)
            .rename("bursty-variant")
            .transform(TraceTransform::repeat(2))
            .transform(TraceTransform::timeScale(1.5))
            .transform(TraceTransform::arPerturb(0.1, 7))
            .transform(TraceTransform::concat(
                TraceSpec::library("day-in-the-life", 42)))
            .transform(TraceTransform::truncate(
                milliseconds(900.0)));
    ASSERT_EQ(spec.traces.size(), 1u);
    EXPECT_EQ(spec.traces[0], byHand);
    EXPECT_EQ(spec.traces[0].resolve(), byHand.resolve());
    EXPECT_EQ(spec.traces[0].transforms().size(), 5u);
}

TEST(CampaignConfigTest, RejectsBadTransformEntries)
{
    auto wrap = [](const std::string &transforms) {
        return std::string(R"({"traces": [
          {"library": "bursty-compute",
           "transforms": )") +
               transforms + R"(}],
          "platforms": ["fanless-tablet-4w"], "pdns": ["IVR"]})";
    };
    expectSpecError(wrap("[]"),
                    "\"transforms\" must hold at least one");
    expectSpecError(wrap("[{}]"), "exactly one of");
    expectSpecError(wrap("[{\"repeat\": 2, \"time_scale\": 1.5}]"),
                    "exactly one of");
    expectSpecError(wrap("[{\"rotate\": 90}]"),
                    "unknown transform key \"rotate\"");
    expectSpecError(wrap("[{\"repeat\": 0}]"),
                    "\"repeat\" must be in [1, 100000]");
    expectSpecError(wrap("[{\"repeat\": 2.5}]"),
                    "\"repeat\" must be an integer");
    expectSpecError(wrap("[{\"time_scale\": 0.0}]"),
                    "\"time_scale\" must be positive");
    expectSpecError(wrap("[{\"time_scale\": -2.0}]"),
                    "\"time_scale\" must be positive");
    expectSpecError(wrap("[{\"truncate_ms\": 0.0}]"),
                    "\"truncate_ms\" must be positive");
    expectSpecError(wrap("[{\"ar_perturb\": {\"seed\": 1}}]"),
                    "missing required ar_perturb key \"delta\"");
    expectSpecError(wrap("[{\"ar_perturb\": {\"delta\": 1.5}}]"),
                    "\"delta\" must be in [0, 1]");
    expectSpecError(
        wrap("[{\"ar_perturb\": {\"delta\": 0.1, \"bias\": 1}}]"),
        "unknown ar_perturb key \"bias\"");
    // Concat operands are full trace entries, validated recursively
    // at their own position.
    expectSpecError(
        wrap("[{\"concat\": {\"library\": \"no-such-trace\"}}]"),
        "unknown library trace \"no-such-trace\"");
    expectSpecError(
        wrap("[{\"concat\": {\"generator\": {\"kind\": "
             "\"perlin\"}}}]"),
        "unknown generator kind \"perlin\"");
}

TEST(CampaignConfigTest, TransformErrorsCarryTheValuePosition)
{
    // The offending scalar — the value 0 — sits at line 4 column
    // 36; the error must point there, not at the "repeat" key, the
    // trace entry or the document.
    expectSpecError(R"({
      "traces": [
        {"library": "bursty-compute",
         "transforms": [{"repeat": 0}]}],
      "platforms": ["fanless-tablet-4w"], "pdns": ["IVR"]})",
                    "must be in [1, 100000]",
                    "spec.json:4:36");
}

TEST(CampaignConfigTest, LoadedSpecRunsEndToEnd)
{
    CampaignSpec spec = load(R"({
      "traces": {"names": ["bursty-compute"]},
      "platforms": [{"preset": "fanless-tablet-4w",
                     "name": "tablet"}],
      "pdns": ["IVR", "FlexWatts"],
      "mode": "oracle"
    })");
    ParallelRunner runner;
    CampaignResult result = CampaignEngine(runner).run(spec);
    ASSERT_EQ(result.cells.size(), 2u);
    EXPECT_EQ(result.cells[0].platform, "tablet");
    EXPECT_GT(result.cells[0].sim.supplyEnergy, joules(0.0));
}

} // namespace
} // namespace pdnspot
