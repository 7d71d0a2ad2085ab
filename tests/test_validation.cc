/**
 * @file
 * Tests for the PDNspot validation harness (paper Sec. 4.3, Fig. 4).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "pdnspot/validation.hh"

namespace pdnspot
{
namespace
{

class ValidationTest : public ::testing::Test
{
  protected:
    ValidationTest() : platform(), harness(platform) {}

    Platform platform;
    ValidationHarness harness;
    ParallelRunner serial{1};
};

TEST_F(ValidationTest, TraceSetHasRequestedSizeAndMix)
{
    auto set = harness.makeTraceSet(200);
    EXPECT_EQ(set.size(), 200u);

    size_t st = 0, mt = 0, gfx = 0, cstates = 0;
    for (const auto &t : set) {
        if (t.cstate != PackageCState::C0) {
            ++cstates;
            continue;
        }
        if (t.type == WorkloadType::SingleThread)
            ++st;
        else if (t.type == WorkloadType::MultiThread)
            ++mt;
        else if (t.type == WorkloadType::Graphics)
            ++gfx;
        EXPECT_GE(t.ar, 0.40);
        EXPECT_LE(t.ar, 0.80);
    }
    EXPECT_GT(st, 40u);
    EXPECT_GT(mt, 40u);
    EXPECT_GT(gfx, 40u);
    EXPECT_GE(cstates, 20u);
}

TEST_F(ValidationTest, AccuracyMatchesPaperBand)
{
    // Sec. 4.3: average accuracy >= 99%, minima around 98.6-98.9%.
    auto set = harness.makeTraceSet(200);
    for (PdnKind kind : classicPdnKinds) {
        ValidationStats s = harness.validate(platform.pdn(kind), set,
                                             serial);
        EXPECT_GT(s.avgAccuracy, 0.99) << toString(kind);
        EXPECT_GT(s.minAccuracy, 0.985) << toString(kind);
        EXPECT_LE(s.maxAccuracy, 1.0 + 1e-12) << toString(kind);
        EXPECT_EQ(s.traces, 200u);
    }
}

TEST_F(ValidationTest, MeasuredReferenceIsDeterministic)
{
    auto set = harness.makeTraceSet(10);
    ValidationHarness twin(platform);
    for (const auto &t : set) {
        EXPECT_DOUBLE_EQ(
            harness.measuredEtee(platform.pdn(PdnKind::IVR), t),
            twin.measuredEtee(platform.pdn(PdnKind::IVR), t));
    }
}

TEST_F(ValidationTest, MeasuredDiffersFromPredictedButClose)
{
    auto set = harness.makeTraceSet(50);
    size_t distinct = 0;
    for (const auto &t : set) {
        double p = harness.predictedEtee(platform.pdn(PdnKind::MBVR),
                                         t);
        double m = harness.measuredEtee(platform.pdn(PdnKind::MBVR),
                                        t);
        if (p != m)
            ++distinct;
        EXPECT_NEAR(m, p, p * 0.0071);
    }
    EXPECT_GT(distinct, 45u);
}

TEST_F(ValidationTest, LargerNoiseLowersAccuracy)
{
    ValidationHarness noisy(platform, 42, 0.05);
    auto set = noisy.makeTraceSet(100);
    ValidationStats precise =
        harness.validate(platform.pdn(PdnKind::IVR),
                         harness.makeTraceSet(100), serial);
    ValidationStats loose =
        noisy.validate(platform.pdn(PdnKind::IVR), set, serial);
    EXPECT_LT(loose.avgAccuracy, precise.avgAccuracy);
}

TEST_F(ValidationTest, StatsBitIdenticalAcrossThreadCounts)
{
    auto set = harness.makeTraceSet(200);
    ValidationStats ref =
        harness.validate(platform.pdn(PdnKind::FlexWatts), set,
                         serial);
    for (unsigned threads : {2u, 8u}) {
        ParallelRunner pool(threads);
        ValidationStats stats = harness.validate(
            platform.pdn(PdnKind::FlexWatts), set, pool);
        EXPECT_EQ(stats.avgAccuracy, ref.avgAccuracy);
        EXPECT_EQ(stats.minAccuracy, ref.minAccuracy);
        EXPECT_EQ(stats.maxAccuracy, ref.maxAccuracy);
        EXPECT_EQ(stats.traces, ref.traces);
    }
}

TEST_F(ValidationTest, RejectsBadArguments)
{
    EXPECT_THROW(ValidationHarness(platform, 1, 0.5), ConfigError);
    EXPECT_THROW(harness.makeTraceSet(0), ConfigError);
    EXPECT_THROW(
        harness.validate(platform.pdn(PdnKind::IVR), {}, serial),
        ConfigError);
}

} // anonymous namespace
} // namespace pdnspot
