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

/** ETEE of one PDN at an active operating point (or a C-state). */
double
eteeAt(const Platform &platform, PdnKind kind, double tdpW,
       WorkloadType type, double ar,
       PackageCState cstate = PackageCState::C0)
{
    OperatingPointModel::Query q;
    q.tdp = watts(tdpW);
    q.type = type;
    q.ar = ar;
    q.cstate = cstate;
    return platform.pdn(kind)
        .evaluate(platform.operatingPoints().build(q))
        .etee();
}

TEST_F(PlatformTest, MbvrEteeRisesWithAr)
{
    // The Fig. 4 panels' shape at 18 W, multi-thread: every classic
    // PDN in a plausible band, MBVR rising with AR (Observation 2).
    for (PdnKind kind : classicPdnKinds) {
        for (double ar : {0.4, 0.5, 0.6, 0.7, 0.8}) {
            double etee = eteeAt(platform, kind, 18.0,
                                 WorkloadType::MultiThread, ar);
            EXPECT_GT(etee, 0.5) << toString(kind) << " AR " << ar;
            EXPECT_LT(etee, 1.0) << toString(kind) << " AR " << ar;
        }
    }
    EXPECT_GT(eteeAt(platform, PdnKind::MBVR, 18.0,
                     WorkloadType::MultiThread, 0.8),
              eteeAt(platform, PdnKind::MBVR, 18.0,
                     WorkloadType::MultiThread, 0.4));
}

TEST_F(PlatformTest, IvrMbvrCrossoverAcrossTdp)
{
    auto etee = [&](PdnKind kind, double tdp) {
        return eteeAt(platform, kind, tdp, WorkloadType::MultiThread,
                      0.56);
    };
    EXPECT_LT(etee(PdnKind::IVR, 4.0), etee(PdnKind::MBVR, 4.0));
    EXPECT_GT(etee(PdnKind::IVR, 50.0), etee(PdnKind::MBVR, 50.0));
}

TEST_F(PlatformTest, MbvrAboveIvrInBatteryLifeCStates)
{
    // Fig. 4(j): MBVR above IVR in every idle state of the ladder.
    for (size_t i = 1; i < batteryLifeCStates.size(); ++i) {
        PackageCState cs = batteryLifeCStates[i];
        EXPECT_GT(eteeAt(platform, PdnKind::MBVR, 15.0,
                         WorkloadType::BatteryLife, 0.3, cs),
                  eteeAt(platform, PdnKind::IVR, 15.0,
                         WorkloadType::BatteryLife, 0.3, cs))
            << toString(cs);
    }
}

TEST_F(PlatformTest, BomAndAreaShapes)
{
    for (double tdp : {4.0, 18.0, 50.0}) {
        EXPECT_GT(normalizedBom(platform, PdnKind::MBVR, watts(tdp)),
                  1.5);
        EXPECT_LT(
            normalizedBom(platform, PdnKind::FlexWatts, watts(tdp)),
            1.3);
        EXPECT_GT(normalizedArea(platform, PdnKind::MBVR, watts(tdp)),
                  1.5);
    }
}

} // anonymous namespace
} // namespace pdnspot
