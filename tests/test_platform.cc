/**
 * @file
 * Unit tests for the Platform facade and experiment helpers.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "pdnspot/experiments.hh"
#include "pdnspot/platform.hh"
#include "workload/spec_cpu2006.hh"

namespace pdnspot
{
namespace
{

class PlatformTest : public ::testing::Test
{
  protected:
    PlatformTest() : platform() {}

    Platform platform;
    ParallelRunner serial{1};
};

TEST_F(PlatformTest, ExposesAllPdnKinds)
{
    for (PdnKind kind : allPdnKinds) {
        const PdnModel &pdn = platform.pdn(kind);
        EXPECT_EQ(pdn.kind(), kind);
    }
    EXPECT_EQ(platform.flexWatts().kind(), PdnKind::FlexWatts);
    // flexWatts() aliases the pdn(FlexWatts) instance.
    EXPECT_EQ(&platform.flexWatts(),
              &platform.pdn(PdnKind::FlexWatts));
}

TEST_F(PlatformTest, PredictorUsesConfiguredHysteresis)
{
    EXPECT_DOUBLE_EQ(platform.predictor().hysteresis(),
                     platform.config().predictorHysteresis);

    PlatformConfig cfg;
    cfg.predictorHysteresis = 0.02;
    Platform custom(cfg);
    EXPECT_DOUBLE_EQ(custom.predictor().hysteresis(), 0.02);
}

TEST_F(PlatformTest, ConsistentPlatformParamsAcrossPdns)
{
    for (PdnKind kind : allPdnKinds) {
        const PdnPlatformParams &p = platform.pdn(kind).platform();
        EXPECT_DOUBLE_EQ(inVolts(p.supplyVoltage), 7.2);
        EXPECT_DOUBLE_EQ(inVolts(p.ivrInputVoltage), 1.8);
    }
}

TEST_F(PlatformTest, CustomSupplyVoltagePropagates)
{
    PlatformConfig cfg;
    cfg.pdnParams.supplyVoltage = volts(12.0);
    Platform custom(cfg);
    for (PdnKind kind : allPdnKinds) {
        EXPECT_DOUBLE_EQ(
            inVolts(custom.pdn(kind).platform().supplyVoltage), 12.0);
    }
    // Higher input voltage costs switching loss in the board VRs.
    OperatingPointModel::Query q;
    q.tdp = watts(18.0);
    PlatformState s = custom.operatingPoints().build(q);
    PlatformState s_def = platform.operatingPoints().build(q);
    EXPECT_LT(custom.pdn(PdnKind::MBVR).evaluate(s).etee(),
              platform.pdn(PdnKind::MBVR).evaluate(s_def).etee());
}

TEST_F(PlatformTest, SuiteHelpersConsistent)
{
    auto rel = suiteRelativePerf(platform, PdnKind::LDO, watts(8.0),
                                 specCpu2006(), serial);
    ASSERT_EQ(rel.size(), specCpu2006().size());
    double mean = 0.0;
    for (double r : rel)
        mean += r;
    mean /= static_cast<double>(rel.size());
    EXPECT_NEAR(mean,
                suiteMeanRelativePerf(platform, PdnKind::LDO,
                                      watts(8.0), specCpu2006(), serial),
                1e-12);
}

TEST_F(PlatformTest, NormalizedHelpersSelfBaseline)
{
    for (double tdp : {4.0, 25.0}) {
        EXPECT_NEAR(normalizedBom(platform, PdnKind::IVR, watts(tdp)),
                    1.0, 1e-12);
        EXPECT_NEAR(normalizedArea(platform, PdnKind::IVR, watts(tdp)),
                    1.0, 1e-12);
    }
}

TEST_F(PlatformTest, BatteryHelperRejectsBadProfiles)
{
    BatteryProfile bad;
    bad.name = "bad";
    bad.residencies = {{PackageCState::C0Min, 0.5}};
    EXPECT_THROW(batteryAveragePower(platform, PdnKind::IVR, bad),
                 ConfigError);
}

TEST_F(PlatformTest, EteeTableBakedIntoPlatformMatchesFreshTable)
{
    EteeTable fresh(platform.flexWatts(), platform.operatingPoints());
    for (double tdp : {4.0, 50.0}) {
        for (HybridMode m : allHybridModes) {
            EXPECT_NEAR(platform.eteeTable().lookupActive(
                            m, WorkloadType::MultiThread, watts(tdp),
                            0.56),
                        fresh.lookupActive(m, WorkloadType::MultiThread,
                                           watts(tdp), 0.56),
                        1e-12);
        }
    }
}

} // anonymous namespace
} // namespace pdnspot
