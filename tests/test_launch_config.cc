/**
 * @file
 * The "launch" spec block (src/config/launch_config.hh): defaults,
 * overrides, range validation, unknown-key rejection with
 * positions, and the contract that a campaign spec carrying a
 * launch block still binds under the plain campaign loader.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "config/campaign_config.hh"
#include "config/launch_config.hh"

namespace pdnspot
{
namespace
{

LaunchSpec
fromText(const std::string &text)
{
    return launchSpecFromJson(parseJson(text, "launch_test"));
}

TEST(LaunchConfig, DefaultsWhenAbsent)
{
    LaunchSpec spec = fromText("{\"pdns\": \"all\"}");
    EXPECT_EQ(spec.shards, 4u);
    EXPECT_EQ(spec.jobs, 0u);
    EXPECT_DOUBLE_EQ(spec.timeoutS, 0.0);
    EXPECT_EQ(spec.retries, 2u);
    EXPECT_DOUBLE_EQ(spec.backoffMs, 200.0);
    EXPECT_EQ(spec.seed, 0u);
    // A non-object root (hand-built JSON) also means defaults.
    EXPECT_EQ(fromText("[1]").shards, 4u);
}

TEST(LaunchConfig, BindsEveryKnob)
{
    LaunchSpec spec = fromText(R"({"launch": {
        "shards": 8, "jobs": 3, "timeout_s": 90.5,
        "retries": 5, "backoff_ms": 50.0, "seed": 1234}})");
    EXPECT_EQ(spec.shards, 8u);
    EXPECT_EQ(spec.jobs, 3u);
    EXPECT_DOUBLE_EQ(spec.timeoutS, 90.5);
    EXPECT_EQ(spec.retries, 5u);
    EXPECT_DOUBLE_EQ(spec.backoffMs, 50.0);
    EXPECT_EQ(spec.seed, 1234u);
}

TEST(LaunchConfig, RejectsUnknownKeys)
{
    try {
        fromText("{\"launch\": {\"shard\": 4}}");
        FAIL() << "unknown launch key accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unknown \"launch\" key \"shard\""),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("shards"),
                  std::string::npos)
            << e.what();
    }
}

TEST(LaunchConfig, RejectsOutOfRangeValues)
{
    EXPECT_THROW(fromText("{\"launch\": {\"shards\": 0}}"),
                 ConfigError);
    EXPECT_THROW(fromText("{\"launch\": {\"shards\": 2.5}}"),
                 ConfigError);
    EXPECT_THROW(fromText("{\"launch\": {\"timeout_s\": -1}}"),
                 ConfigError);
    // Past ~9.2e9 s a steady_clock deadline overflows into the past.
    try {
        fromText("{\"launch\": {\"timeout_s\": 1e10}}");
        FAIL() << "timeout past the deadline range accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "launch_test:1:26: \"timeout_s\" must be in "
                      "[0, 1e+09], got 1e+10"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(fromText("{\"launch\": {\"timeout_s\": 1e300}}"),
                 ConfigError);
    EXPECT_EQ(fromText("{\"launch\": {\"timeout_s\": 1e9}}").timeoutS,
              maxLaunchTimeoutS);
    EXPECT_THROW(fromText("{\"launch\": {\"backoff_ms\": -0.5}}"),
                 ConfigError);
    EXPECT_THROW(fromText("{\"launch\": {\"retries\": -1}}"),
                 ConfigError);
}

TEST(LaunchConfig, CampaignLoaderIgnoresLaunchBlock)
{
    // The same annotated spec must still bind as a campaign spec —
    // pdnspot_campaign runs launch-annotated specs unchanged.
    std::string text = R"({
        "traces": [{"library": "bursty-compute", "seed": 7}],
        "platforms": ["fanless-tablet-4w"],
        "pdns": ["IVR"],
        "launch": {"shards": 2, "retries": 1}
    })";
    CampaignSpec campaign = loadCampaignSpec(text, "launch_test");
    EXPECT_EQ(campaign.cellCount(), 1u);
    LaunchSpec launch = fromText(text);
    EXPECT_EQ(launch.shards, 2u);
    EXPECT_EQ(launch.retries, 1u);
}

} // namespace
} // namespace pdnspot
