/**
 * @file
 * Unit tests for the PMU: activity sensors, workload detection and
 * the firmware loop.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "pdnspot/platform.hh"
#include "pmu/activity_sensor.hh"
#include "pmu/pmu.hh"
#include "pmu/workload_detector.hh"

namespace pdnspot
{
namespace
{

TEST(ActivitySensor, ConvergesToTrueAr)
{
    ActivitySensor s(1);
    for (int i = 0; i < 200; ++i)
        s.observe(0.72);
    EXPECT_NEAR(s.estimate(), 0.72, 0.03);
    EXPECT_EQ(s.samples(), 200u);
}

TEST(ActivitySensor, TracksStepChange)
{
    ActivitySensor s(2);
    for (int i = 0; i < 100; ++i)
        s.observe(0.40);
    for (int i = 0; i < 100; ++i)
        s.observe(0.80);
    EXPECT_NEAR(s.estimate(), 0.80, 0.05);
}

TEST(ActivitySensor, EwmaSmoothing)
{
    // A single outlier sample must not yank the estimate.
    ActivitySensor s(3);
    for (int i = 0; i < 100; ++i)
        s.observe(0.50);
    double before = s.estimate();
    s.observe(1.0);
    EXPECT_LT(s.estimate() - before, 0.2);
}

TEST(ActivitySensor, ResetAndValidation)
{
    ActivitySensor s(4);
    s.reset(0.9);
    EXPECT_DOUBLE_EQ(s.estimate(), 0.9);
    EXPECT_THROW(s.observe(0.0), ConfigError);
    EXPECT_THROW(s.observe(1.5), ConfigError);
    EXPECT_THROW(ActivitySensor(1, 0.0), ConfigError);
    EXPECT_THROW(ActivitySensor(1, 0.2, 0.9), ConfigError);
}

TEST(ActivitySensor, DeterministicAcrossRuns)
{
    ActivitySensor a(7), b(7);
    for (int i = 0; i < 50; ++i) {
        a.observe(0.6);
        b.observe(0.6);
    }
    EXPECT_DOUBLE_EQ(a.estimate(), b.estimate());
}

TEST(WorkloadDetector, ClassifiesPerPaper)
{
    EXPECT_EQ(detectWorkloadType(true, 2), WorkloadType::Graphics);
    EXPECT_EQ(detectWorkloadType(true, 0), WorkloadType::Graphics);
    EXPECT_EQ(detectWorkloadType(false, 2), WorkloadType::MultiThread);
    EXPECT_EQ(detectWorkloadType(false, 1), WorkloadType::SingleThread);
    EXPECT_EQ(detectWorkloadType(false, 0), WorkloadType::BatteryLife);
}

TEST(WorkloadDetector, ClassifiesFromPlatformState)
{
    OperatingPointModel opm;
    OperatingPointModel::Query q;
    q.tdp = watts(18.0);
    q.type = WorkloadType::Graphics;
    EXPECT_EQ(detectWorkloadType(opm.build(q)), WorkloadType::Graphics);
    q.type = WorkloadType::SingleThread;
    EXPECT_EQ(detectWorkloadType(opm.build(q)),
              WorkloadType::SingleThread);
    q.type = WorkloadType::MultiThread;
    q.cstate = PackageCState::C8;
    EXPECT_EQ(detectWorkloadType(opm.build(q)),
              WorkloadType::BatteryLife);
}

class PmuTest : public ::testing::Test
{
  protected:
    PmuTest() : platform() {}

    TracePhase
    activePhase(WorkloadType type, double ar)
    {
        TracePhase p;
        p.duration = milliseconds(100.0);
        p.cstate = PackageCState::C0;
        p.type = type;
        p.ar = ar;
        return p;
    }

    Platform platform;
};

TEST_F(PmuTest, SwitchesToLdoModeOnIdleWorkload)
{
    PmuConfig cfg;
    cfg.tdp = watts(15.0);
    cfg.initialMode = HybridMode::IvrMode;
    Pmu pmu(cfg, platform.predictor());

    TracePhase idle;
    idle.duration = milliseconds(100.0);
    idle.cstate = PackageCState::C8;
    idle.type = WorkloadType::BatteryLife;
    idle.ar = 0.3;

    for (double ms = 0.0; ms <= 50.0; ms += 1.0)
        pmu.advanceTo(milliseconds(ms), idle);
    EXPECT_EQ(pmu.configuredMode(), HybridMode::LdoMode);
    EXPECT_GE(pmu.switchFlow().switchCount(), 1u);
}

TEST_F(PmuTest, SwitchesToIvrModeOnHeavyHighTdpWork)
{
    PmuConfig cfg;
    cfg.tdp = watts(50.0);
    cfg.initialMode = HybridMode::LdoMode;
    Pmu pmu(cfg, platform.predictor());

    TracePhase heavy = activePhase(WorkloadType::MultiThread, 0.8);
    for (double ms = 0.0; ms <= 50.0; ms += 1.0)
        pmu.advanceTo(milliseconds(ms), heavy);
    EXPECT_EQ(pmu.configuredMode(), HybridMode::IvrMode);
}

TEST_F(PmuTest, StaysInLdoModeAtLowTdp)
{
    PmuConfig cfg;
    cfg.tdp = watts(4.0);
    cfg.initialMode = HybridMode::LdoMode;
    Pmu pmu(cfg, platform.predictor());

    TracePhase heavy = activePhase(WorkloadType::MultiThread, 0.8);
    for (double ms = 0.0; ms <= 100.0; ms += 1.0)
        pmu.advanceTo(milliseconds(ms), heavy);
    EXPECT_EQ(pmu.configuredMode(), HybridMode::LdoMode);
    EXPECT_EQ(pmu.switchFlow().switchCount(), 0u);
}

TEST_F(PmuTest, EvaluatesAtConfiguredCadence)
{
    PmuConfig cfg;
    cfg.tdp = watts(15.0);
    Pmu pmu(cfg, platform.predictor());
    TracePhase ph = activePhase(WorkloadType::MultiThread, 0.6);
    pmu.advanceTo(milliseconds(95.0), ph);
    // 10 ms cadence: evaluations at 10, 20, ..., 90.
    EXPECT_EQ(pmu.evaluations(), 9u);
}

TEST_F(PmuTest, ArEstimateFollowsPhase)
{
    PmuConfig cfg;
    cfg.tdp = watts(15.0);
    Pmu pmu(cfg, platform.predictor());
    TracePhase ph = activePhase(WorkloadType::MultiThread, 0.77);
    for (double ms = 0.0; ms <= 60.0; ms += 1.0)
        pmu.advanceTo(milliseconds(ms), ph);
    EXPECT_NEAR(pmu.arEstimate(), 0.77, 0.05);
}

TEST_F(PmuTest, RejectsBadCadence)
{
    PmuConfig cfg;
    cfg.sensorPeriod = milliseconds(20.0);
    cfg.evalInterval = milliseconds(10.0);
    EXPECT_THROW(Pmu(cfg, platform.predictor()), ConfigError);
}

TEST_F(PmuTest, CtdpReconfiguration)
{
    // cTDP: reconfiguring the budget flips the mode decision at the
    // next evaluation (4 W -> LDO-Mode, 50 W -> IVR-Mode for heavy
    // multi-thread work).
    PmuConfig cfg;
    cfg.tdp = watts(4.0);
    cfg.initialMode = HybridMode::LdoMode;
    Pmu pmu(cfg, platform.predictor());

    TracePhase heavy;
    heavy.duration = milliseconds(200.0);
    heavy.cstate = PackageCState::C0;
    heavy.type = WorkloadType::MultiThread;
    heavy.ar = 0.8;

    for (double ms = 0.0; ms <= 50.0; ms += 1.0)
        pmu.advanceTo(milliseconds(ms), heavy);
    EXPECT_EQ(pmu.configuredMode(), HybridMode::LdoMode);

    pmu.setTdp(watts(50.0)); // dock with active cooling
    for (double ms = 51.0; ms <= 120.0; ms += 1.0)
        pmu.advanceTo(milliseconds(ms), heavy);
    EXPECT_EQ(pmu.configuredMode(), HybridMode::IvrMode);

    EXPECT_THROW(pmu.setTdp(watts(0.0)), ConfigError);
}

} // anonymous namespace
} // namespace pdnspot
