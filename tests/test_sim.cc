/**
 * @file
 * Unit tests for the interval simulator and battery model.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "pdnspot/experiments.hh"
#include "pdnspot/platform.hh"
#include "sim/battery_model.hh"
#include "sim/interval_simulator.hh"
#include "workload/trace_generator.hh"

namespace pdnspot
{
namespace
{

class SimTest : public ::testing::Test
{
  protected:
    SimTest() : platform() {}

    Platform platform;
};

TEST_F(SimTest, StaticRunConservesEnergy)
{
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    PhaseTrace trace = traceFromBatteryProfile(videoPlayback(),
                                               milliseconds(33.3), 5);
    SimResult r = sim.run(trace, platform.pdn(PdnKind::IVR));
    EXPECT_NEAR(inSeconds(r.duration),
                inSeconds(trace.totalDuration()), 1e-9);
    EXPECT_GT(r.supplyEnergy, r.nominalEnergy);
    EXPECT_NEAR(inWatts(r.averagePower()) * inSeconds(r.duration),
                inJoules(r.supplyEnergy), 1e-9);
    EXPECT_GT(r.averageEtee(), 0.3);
    EXPECT_LT(r.averageEtee(), 1.0);
}

TEST_F(SimTest, OracleBeatsOrMatchesStaticFlexModes)
{
    // The oracle picks per phase; it can never do worse than either
    // fixed mode run through the same trace.
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(11);
    PhaseTrace trace = gen.burstyCompute(8, milliseconds(20.0),
                                         milliseconds(40.0));

    SimResult oracle = sim.runOracle(trace, platform.flexWatts());
    SimResult ivr_pdn = sim.run(trace, platform.pdn(PdnKind::IVR));
    EXPECT_LE(inJoules(oracle.supplyEnergy),
              inJoules(ivr_pdn.supplyEnergy) + 1e-9);
}

TEST_F(SimTest, OracleResidencyCoversTrace)
{
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(13);
    PhaseTrace trace = gen.randomMix(40, milliseconds(5.0));
    SimResult r = sim.runOracle(trace, platform.flexWatts());
    EXPECT_NEAR(inSeconds(r.residency(HybridMode::IvrMode) +
                          r.residency(HybridMode::LdoMode)),
                inSeconds(trace.totalDuration()), 1e-9);
}

TEST_F(SimTest, PmuRunSwitchesAndAccountsOverhead)
{
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(17);
    // Long alternating phases force real mode changes.
    PhaseTrace trace = gen.burstyCompute(6, milliseconds(60.0),
                                         milliseconds(80.0));

    PmuConfig cfg;
    cfg.tdp = watts(15.0);
    Pmu pmu(cfg, platform.predictor());
    SimResult r = sim.run(trace, platform.flexWatts(), pmu);

    EXPECT_GT(r.modeSwitches, 0u);
    EXPECT_NEAR(inMicroseconds(r.switchOverheadTime),
                94.0 * static_cast<double>(r.modeSwitches), 1e-6);
    EXPECT_NEAR(inSeconds(r.duration),
                inSeconds(trace.totalDuration()), 1e-9);
    EXPECT_GT(r.averageEtee(), 0.3);
}

TEST_F(SimTest, PmuRunCloseToOracleOnSlowTraces)
{
    // With phases much longer than the 10 ms evaluation interval the
    // predictor should capture nearly all of the oracle's benefit.
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(19);
    PhaseTrace trace = gen.burstyCompute(5, milliseconds(200.0),
                                         milliseconds(200.0));

    PmuConfig cfg;
    cfg.tdp = watts(15.0);
    Pmu pmu(cfg, platform.predictor());
    SimResult predicted = sim.run(trace, platform.flexWatts(), pmu);
    SimResult oracle = sim.runOracle(trace, platform.flexWatts());

    double overhead = inJoules(predicted.supplyEnergy) /
                      inJoules(oracle.supplyEnergy);
    EXPECT_LT(overhead, 1.03);
    EXPECT_GE(overhead, 0.99);
}

TEST_F(SimTest, RejectsBadTick)
{
    EXPECT_THROW(IntervalSimulator(platform.operatingPoints(),
                                   watts(15.0), seconds(0.0)),
                 ConfigError);
}

TEST_F(SimTest, RejectsSubNanosecondTick)
{
    // Below 1 ns the PMU kernel's step can round to zero against a
    // phase start and never reach the phase end.
    EXPECT_THROW(IntervalSimulator(platform.operatingPoints(),
                                   watts(15.0), minTick * 0.5),
                 ConfigError);
    EXPECT_NO_THROW(IntervalSimulator(platform.operatingPoints(),
                                      watts(15.0), minTick));
}

TEST_F(SimTest, EmptyTraceYieldsZeroResult)
{
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    PhaseTrace empty("empty", {});

    SimResult s = sim.run(empty, platform.pdn(PdnKind::IVR));
    EXPECT_EQ(inSeconds(s.duration), 0.0);
    EXPECT_EQ(inJoules(s.supplyEnergy), 0.0);
    EXPECT_EQ(inJoules(s.nominalEnergy), 0.0);
    EXPECT_EQ(inWatts(s.averagePower()), 0.0);
    EXPECT_EQ(s.averageEtee(), 0.0);

    SimResult o = sim.runOracle(empty, platform.flexWatts());
    EXPECT_EQ(inSeconds(o.duration), 0.0);
    EXPECT_EQ(inJoules(o.supplyEnergy), 0.0);

    PmuConfig cfg;
    cfg.tdp = watts(15.0);
    Pmu pmu(cfg, platform.predictor());
    SimResult p = sim.run(empty, platform.flexWatts(), pmu);
    EXPECT_EQ(inSeconds(p.duration), 0.0);
    EXPECT_EQ(inJoules(p.supplyEnergy), 0.0);
    EXPECT_EQ(p.modeSwitches, 0u);
}

TEST_F(SimTest, SinglePhaseStaticMatchesDirectEvaluation)
{
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TracePhase phase;
    phase.duration = milliseconds(12.5);
    PhaseTrace trace("one", {phase});

    const PdnModel &pdn = platform.pdn(PdnKind::MBVR);
    SimResult r = sim.run(trace, pdn);

    OperatingPointModel::Query q;
    q.tdp = watts(15.0);
    q.cstate = phase.cstate;
    q.type = phase.type;
    q.ar = phase.ar;
    EteeResult e = pdn.evaluate(platform.operatingPoints().build(q));

    EXPECT_NEAR(inSeconds(r.duration), 12.5e-3, 1e-12);
    EXPECT_NEAR(inJoules(r.supplyEnergy),
                inWatts(e.inputPower) * 12.5e-3, 1e-12);
    EXPECT_NEAR(inJoules(r.nominalEnergy),
                inWatts(e.nominalPower) * 12.5e-3, 1e-12);
    EXPECT_NEAR(r.averageEtee(), e.etee(), 1e-12);
}

TEST_F(SimTest, SinglePhasePmuRunCoversTraceWithAtMostOneSwitch)
{
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TracePhase phase;
    phase.duration = milliseconds(50.0);
    PhaseTrace trace("one", {phase});

    PmuConfig cfg;
    cfg.tdp = watts(15.0);
    Pmu pmu(cfg, platform.predictor());
    SimResult r = sim.run(trace, platform.flexWatts(), pmu);

    EXPECT_NEAR(inSeconds(r.duration), 50.0e-3, 1e-12);
    EXPECT_NEAR(inSeconds(r.residency(HybridMode::IvrMode) +
                          r.residency(HybridMode::LdoMode)),
                50.0e-3, 1e-12);
    // A homogeneous phase gives the predictor at most one reason to
    // change its mind: the initial configuration.
    EXPECT_LE(r.modeSwitches, 1u);
}

TEST_F(SimTest, SwitchEnergyChargedExactlyOncePerSwitch)
{
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(17);
    PhaseTrace trace = gen.burstyCompute(6, milliseconds(60.0),
                                         milliseconds(80.0));

    PmuConfig cfg;
    cfg.tdp = watts(15.0);
    Pmu pmu(cfg, platform.predictor());
    SimResult r = sim.run(trace, platform.flexWatts(), pmu);
    ASSERT_GT(r.modeSwitches, 0u);

    // Each switch idles through one 94 us C6 flow at the flow power
    // -- no more, no less, independent of how many simulator ticks
    // overlap the flow window.
    const ModeSwitchParams &p = pmu.switchFlow().params();
    double n = static_cast<double>(r.modeSwitches);
    EXPECT_NEAR(inMicroseconds(r.switchOverheadTime),
                n * inMicroseconds(p.totalLatency()), 1e-6);
    EXPECT_NEAR(inJoules(r.switchOverheadEnergy),
                n * inWatts(p.flowPower) *
                    inSeconds(p.totalLatency()),
                1e-12);
}

TEST_F(SimTest, SwitchAccountingIsTickResolutionInvariant)
{
    // If the simulator double-charged (or skipped) flow energy at
    // tick boundaries, refining the tick would change the totals.
    // Phase boundaries are multiples of the sensor (1 ms) and eval
    // (10 ms) cadences and of both ticks, so the PMU sees identical
    // sensor histories and makes identical decisions in both runs --
    // any residual difference would come from energy accounting.
    PhaseTrace trace("aligned-bursts", {});
    for (int i = 0; i < 6; ++i) {
        TracePhase work;
        work.duration = milliseconds(60.0);
        work.cstate = PackageCState::C0;
        work.type = WorkloadType::MultiThread;
        work.ar = 0.9;
        trace.append(work);

        TracePhase idle;
        idle.duration = milliseconds(80.0);
        idle.cstate = PackageCState::C8;
        idle.type = WorkloadType::BatteryLife;
        idle.ar = 0.3;
        trace.append(idle);
    }

    auto runWithTick = [&](Time tick) {
        IntervalSimulator sim(platform.operatingPoints(),
                              watts(15.0), tick);
        PmuConfig cfg;
        cfg.tdp = watts(15.0);
        Pmu pmu(cfg, platform.predictor());
        return sim.run(trace, platform.flexWatts(), pmu);
    };

    SimResult coarse = runWithTick(microseconds(500.0));
    SimResult fine = runWithTick(microseconds(10.0));

    ASSERT_GT(coarse.modeSwitches, 0u);
    EXPECT_EQ(coarse.modeSwitches, fine.modeSwitches);
    EXPECT_NEAR(inJoules(coarse.supplyEnergy),
                inJoules(fine.supplyEnergy), 1e-9);
    EXPECT_NEAR(inJoules(coarse.nominalEnergy),
                inJoules(fine.nominalEnergy), 1e-9);
    EXPECT_NEAR(inJoules(coarse.switchOverheadEnergy),
                inJoules(fine.switchOverheadEnergy), 1e-12);
}

TEST(BatteryModelTest, LifeArithmetic)
{
    BatteryModel battery(wattHours(50.0));
    EXPECT_NEAR(battery.lifeHours(watts(5.0)), 10.0, 1e-9);
    EXPECT_NEAR(inSeconds(battery.life(watts(50.0))), 3600.0, 1e-9);
}

TEST(BatteryModelTest, RejectsBadInputs)
{
    EXPECT_THROW(BatteryModel(joules(0.0)), ConfigError);
    BatteryModel battery(wattHours(50.0));
    EXPECT_THROW(battery.life(watts(0.0)), ConfigError);
}

TEST(BatteryModelTest, MoreEfficientPdnLastsLonger)
{
    Platform platform;
    BatteryModel battery(wattHours(50.0));
    Power p_ivr = batteryAveragePower(platform, PdnKind::IVR,
                                      videoPlayback());
    Power p_flex = batteryAveragePower(platform, PdnKind::FlexWatts,
                                       videoPlayback());
    EXPECT_GT(battery.lifeHours(p_flex), battery.lifeHours(p_ivr));
}

} // anonymous namespace
} // namespace pdnspot
