/**
 * @file
 * The demand/delivery split of the PDN models: a demand reads no AR
 * (states that differ only in their AR build bit-identical demands),
 * the simulator kernels that share one demand per (C-state, workload
 * type) class match the phase-by-phase references
 * (sim_reference.hh) bit for bit, and every unique state is still
 * checked as if it were built.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "pdnspot/platform.hh"
#include "pmu/pmu.hh"
#include "sim/interval_simulator.hh"
#include "sim_reference.hh"
#include "workload/phase_soa.hh"

namespace pdnspot
{
namespace
{

std::vector<PlatformConfig>
presets()
{
    return {fanlessTabletPreset(), ultraportablePreset(), hSeriesPreset()};
}

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

void
expectSameBits(const ChainResult &a, const ChainResult &b,
               const std::string &where)
{
    EXPECT_EQ(bits(inWatts(a.nominalPower)), bits(inWatts(b.nominalPower)))
        << where;
    EXPECT_EQ(bits(inWatts(a.inputPower)), bits(inWatts(b.inputPower)))
        << where;
    EXPECT_EQ(bits(inWatts(a.vrLoss)), bits(inWatts(b.vrLoss))) << where;
    EXPECT_EQ(bits(inWatts(a.conduction)), bits(inWatts(b.conduction)))
        << where;
    EXPECT_EQ(bits(inWatts(a.guardExcess)), bits(inWatts(b.guardExcess)))
        << where;
    EXPECT_EQ(bits(inAmps(a.chipCurrent)), bits(inAmps(b.chipCurrent)))
        << where;
    EXPECT_EQ(a.railOn, b.railOn) << where;
    for (size_t i = 0; i < numDomains; ++i) {
        EXPECT_EQ(bits(inWatts(a.domainShare[i])),
                  bits(inWatts(b.domainShare[i])))
            << where << " share " << i;
    }
}

void
expectSameBits(const PdnDemand &a, const PdnDemand &b,
               const std::string &where)
{
    for (size_t r = 0; r < PdnDemand::maxRails; ++r) {
        std::string rail = where + " rail " + std::to_string(r);
        expectSameBits(a.rails[r].partial, b.rails[r].partial, rail);
        EXPECT_EQ(bits(inVolts(a.rails[r].loadLineVoltage)),
                  bits(inVolts(b.rails[r].loadLineVoltage)))
            << rail;
        EXPECT_EQ(bits(inWatts(a.rails[r].loadLinePower)),
                  bits(inWatts(b.rails[r].loadLinePower)))
            << rail;
    }
}

TEST(PdnDemandTest, DemandIsArFree)
{
    for (const PlatformConfig &config : presets()) {
        Platform platform(config);
        const OperatingPointModel &opm = platform.operatingPoints();
        for (PdnKind kind : allPdnKinds) {
            const PdnModel &pdn = platform.pdn(kind);
            for (PackageCState cstate : valuesOf(nameTable<PackageCState>)) {
                for (WorkloadType type : allWorkloadTypes) {
                    std::string where = config.name + " " +
                                        toString(kind) + " " +
                                        toString(cstate) + " " +
                                        toString(type);
                    OperatingPointModel::Query q;
                    q.tdp = config.tdp;
                    q.cstate = cstate;
                    q.type = type;
                    q.ar = 0.56;
                    PlatformState mid = opm.build(q);
                    PdnDemand reference = pdn.demand(mid);
                    ASSERT_TRUE(std::any_of(
                        reference.rails.begin(), reference.rails.end(),
                        [](const RailDemand &r) {
                            return r.partial.railOn;
                        }))
                        << where;
                    for (double ar : {0.05, 1.0}) {
                        q.ar = ar;
                        PlatformState s = opm.build(q);
                        expectSameBits(pdn.demand(s), reference,
                                       where + " AR " +
                                           std::to_string(ar));
                        // The AR still matters where it should: at
                        // the load-lines of an active state.
                        if (cstate == PackageCState::C0) {
                            EXPECT_NE(pdn.evaluate(s).inputPower,
                                      pdn.evaluate(mid).inputPower)
                                << where;
                        }
                    }
                }
            }
        }
    }
}

/** Every workload type in C0 at fresh and repeated ARs (0.05 and
 * 1.0 at the range's ends), C0Min and the deeper C-states with idle
 * ARs of 0, -0.0 and stray values. */
PhaseTrace
mixedClassTrace()
{
    const PackageCState C0 = PackageCState::C0;
    const WorkloadType ST = WorkloadType::SingleThread;
    const WorkloadType MT = WorkloadType::MultiThread;
    const WorkloadType GFX = WorkloadType::Graphics;
    const WorkloadType BL = WorkloadType::BatteryLife;
    auto ms = [](double t) { return milliseconds(t); };
    return PhaseTrace(
        "mixed-classes",
        {{ms(12.0), C0, MT, 0.56},
         {ms(3.0), PackageCState::C8, MT, 0.0},
         {ms(25.0), C0, GFX, 0.9},
         {ms(7.5), C0, ST, 0.31},
         {ms(4.0), PackageCState::C2, GFX, -0.0},
         {ms(18.0), C0, MT, 0.05},
         {ms(9.0), PackageCState::C0Min, BL, 0.3},
         {ms(30.0), C0, GFX, 0.2},
         {ms(2.0), PackageCState::C6, ST, 0.0},
         {ms(14.0), C0, BL, 0.44},
         {ms(12.0), C0, MT, 0.56},
         {ms(5.0), PackageCState::C3, BL, 0.75},
         {ms(20.0), C0, ST, 1.0},
         {ms(6.0), PackageCState::C7, MT, -0.0},
         {ms(11.0), C0, GFX, 0.9},
         {ms(8.0), PackageCState::C0Min, ST, 0.61},
         {ms(16.0), C0, MT, 0.83},
         {ms(3.5), PackageCState::C8, GFX, 0.0},
         {ms(22.0), C0, BL, 0.44},
         {ms(9.5), PackageCState::C2, MT, 0.0}});
}

void
expectSameResult(const SimResult &kernel, const SimResult &reference,
                 const std::string &where)
{
    EXPECT_EQ(kernel.duration, reference.duration) << where;
    EXPECT_EQ(kernel.supplyEnergy, reference.supplyEnergy) << where;
    EXPECT_EQ(kernel.nominalEnergy, reference.nominalEnergy) << where;
    EXPECT_EQ(kernel.modeResidency, reference.modeResidency) << where;
    EXPECT_EQ(kernel.modeSwitches, reference.modeSwitches) << where;
    EXPECT_EQ(kernel.switchOverheadTime, reference.switchOverheadTime)
        << where;
    EXPECT_EQ(kernel.switchOverheadEnergy,
              reference.switchOverheadEnergy)
        << where;
    EXPECT_EQ(kernel, reference) << where;
}

TEST(PdnDemandTest, KernelsMatchPhaseByPhaseReference)
{
    PhaseTrace trace = mixedClassTrace();
    PhaseSoA soa(trace);
    ASSERT_LT(soa.uniqueCount(), trace.phases().size());
    const Time tick = microseconds(50.0);
    uint64_t switches = 0;
    for (const PlatformConfig &config : presets()) {
        Platform platform(config);
        IntervalSimulator sim(platform.operatingPoints(), config.tdp,
                              tick);
        for (PdnKind kind : allPdnKinds) {
            const PdnModel &pdn = platform.pdn(kind);
            expectSameResult(sim.run(soa, pdn),
                             reference::staticRun(sim, trace, pdn),
                             config.name + " static " + toString(kind));
        }

        const FlexWattsPdn &fw = platform.flexWatts();
        expectSameResult(sim.runOracle(soa, fw),
                         reference::oracleRun(sim, trace, fw),
                         config.name + " oracle");

        PmuConfig cfg;
        cfg.tdp = config.tdp;
        Pmu kernelPmu(cfg, platform.predictor());
        Pmu referencePmu(cfg, platform.predictor());
        SimResult pmu = sim.run(soa, fw, kernelPmu);
        expectSameResult(pmu,
                         reference::pmuRun(sim, trace, fw, referencePmu,
                                           tick),
                         config.name + " pmu");
        switches += pmu.modeSwitches;
    }
    // The PMU path crossed mode switches, not just one mode.
    EXPECT_GT(switches, 0u);
}

/** Runs `run` and expects the C0 AR check's ConfigError. */
template <typename Run>
void
expectArRejected(Run run, const std::string &where)
{
    try {
        run();
        ADD_FAILURE() << where << ": no error";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.message(), "OperatingPointModel: AR must be in (0, 1]")
            << where;
    }
}

TEST(PdnDemandTest, ZeroArAfterValidPhaseOfItsClassStillFails)
{
    // The second phase shares the first's (C0, multi-thread) class,
    // whose demand is already built; its own AR must still be
    // checked. It sits between two 1 ms sensor samples, so on the PMU
    // path too the operating-point check is the first to see it.
    Platform platform(ultraportablePreset());
    IntervalSimulator sim(platform.operatingPoints(),
                          platform.config().tdp);
    PhaseTrace trace(
        "zero-ar-c0",
        {{milliseconds(1.2), PackageCState::C0, WorkloadType::MultiThread,
          0.5},
         {milliseconds(0.5), PackageCState::C0, WorkloadType::MultiThread,
          0.0}});
    PhaseSoA soa(trace);
    const FlexWattsPdn &fw = platform.flexWatts();

    for (PdnKind kind : allPdnKinds) {
        expectArRejected([&] { sim.run(soa, platform.pdn(kind)); },
                         "static " + toString(kind));
    }
    expectArRejected([&] { sim.runOracle(soa, fw); }, "oracle");
    PmuConfig cfg;
    cfg.tdp = platform.config().tdp;
    Pmu pmu(cfg, platform.predictor());
    expectArRejected([&] { sim.run(soa, fw, pmu); }, "pmu");
}

} // anonymous namespace
} // namespace pdnspot
