/**
 * @file
 * PhaseSoA tests: trace -> structure-of-arrays resolution (dedup
 * counts, order preservation), signed-zero/NaN canonicalization of
 * the dedup key, bit-identical batched simulation against the
 * phase-by-phase reference loops (sim_reference.hh), and signed-zero
 * AR phases simulating identically.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "pdnspot/platform.hh"
#include "sim/interval_simulator.hh"
#include "sim_reference.hh"
#include "workload/phase_soa.hh"
#include "workload/trace_generator.hh"

namespace pdnspot
{
namespace
{

TEST(PhaseSoATest, ResolvesBatteryProfileToFewUniqueStates)
{
    // 64 frames revisit the profile's handful of residency states;
    // the SoA must collapse them while keeping every phase slot.
    PhaseTrace trace = traceFromBatteryProfile(
        videoPlayback(), milliseconds(33.3), 64);
    PhaseSoA soa(trace);

    EXPECT_EQ(soa.phaseCount(), trace.phases().size());
    EXPECT_EQ(soa.durations().size(), soa.phaseCount());
    EXPECT_EQ(soa.uniqueIndex().size(), soa.phaseCount());
    ASSERT_GT(soa.uniqueCount(), 0u);
    // One frame's worth of states, not one per phase.
    EXPECT_LE(soa.uniqueCount(), trace.phases().size() / 32);

    // The SoA must reconstruct the trace: same durations in order,
    // and each phase's state equal to its unique representative
    // (modulo AR canonicalization, identity for this trace).
    for (size_t p = 0; p < soa.phaseCount(); ++p) {
        const TracePhase &phase = trace.phases()[p];
        ASSERT_LT(soa.uniqueIndex()[p], soa.uniqueCount());
        const TracePhase &rep =
            soa.uniquePhases()[soa.uniqueIndex()[p]];
        EXPECT_EQ(soa.durations()[p], phase.duration);
        EXPECT_EQ(rep.cstate, phase.cstate);
        EXPECT_EQ(rep.type, phase.type);
        EXPECT_EQ(rep.ar, canonicalActivityRatio(phase.ar));
    }
}

TEST(PhaseSoATest, SignedZeroArCollapsesToOneState)
{
    // -0.0 == +0.0 numerically, but the bit patterns differ; the
    // dedup key must not split (or order-dependently merge) them.
    TracePhase zero{milliseconds(1.0), PackageCState::C0,
                    WorkloadType::MultiThread, 0.0};
    TracePhase negZero = zero;
    negZero.ar = -0.0;
    TracePhase busy = zero;
    busy.ar = 0.56;

    PhaseSoA soa(
        PhaseTrace("zeros", {negZero, busy, zero, negZero}));
    EXPECT_EQ(soa.phaseCount(), 4u);
    EXPECT_EQ(soa.uniqueCount(), 2u);
    EXPECT_EQ(soa.uniqueIndex()[0], soa.uniqueIndex()[2]);
    EXPECT_EQ(soa.uniqueIndex()[0], soa.uniqueIndex()[3]);
    // The representative never carries the sign bit.
    for (const TracePhase &rep : soa.uniquePhases())
        EXPECT_FALSE(std::signbit(rep.ar)) << rep.ar;
}

TEST(PhaseSoATest, CanonicalActivityRatioNormalizes)
{
    EXPECT_FALSE(std::signbit(canonicalActivityRatio(-0.0)));
    EXPECT_EQ(canonicalActivityRatio(0.0), 0.0);
    EXPECT_EQ(canonicalActivityRatio(0.56), 0.56);
    EXPECT_TRUE(std::isnan(canonicalActivityRatio(
        std::numeric_limits<double>::quiet_NaN())));
}

/**
 * A trace mixing generator phases with idle phases carrying an
 * exactly-zero AR column — the form imported idle phases take (the
 * model ignores AR for gated states, so 0 is a valid value there).
 */
PhaseTrace
mixedZeroTrace()
{
    TraceGenerator gen(13);
    PhaseTrace trace =
        gen.burstyCompute(3, milliseconds(5.0), milliseconds(15.0));
    TracePhase zero{milliseconds(2.0), PackageCState::C8,
                    WorkloadType::MultiThread, 0.0};
    TracePhase negZero = zero;
    negZero.ar = -0.0;
    trace.append(zero);
    trace.append(negZero);
    return trace;
}

TEST(PhaseSoATest, BatchedRunsMatchPerPhaseRunsBitIdentically)
{
    Platform platform(ultraportablePreset());
    IntervalSimulator sim(platform.operatingPoints(),
                          platform.config().tdp);
    PhaseTrace trace = mixedZeroTrace();
    PhaseSoA soa(trace);

    for (PdnKind kind : allPdnKinds) {
        const PdnModel &pdn = platform.pdn(kind);
        EXPECT_EQ(sim.run(soa, pdn),
                  reference::staticRun(sim, trace, pdn))
            << toString(kind);
    }

    // Oracle path: pinned-mode evaluation plus mode residency.
    EXPECT_EQ(sim.runOracle(soa, platform.flexWatts()),
              reference::oracleRun(sim, trace, platform.flexWatts()));
}

TEST(PhaseSoATest, SignedZeroArPhasesSimulateIdentically)
{
    // A -0.0 AR phase builds its state from the canonical +0.0, so
    // it simulates exactly like the +0.0 phase on every path, and a
    // mixed pair gives one result whichever sign arrives first. Each
    // check crosses the kernel with the phase-by-phase reference.
    Platform platform(ultraportablePreset());
    IntervalSimulator sim(platform.operatingPoints(),
                          platform.config().tdp);
    TracePhase zero{milliseconds(2.0), PackageCState::C8,
                    WorkloadType::MultiThread, 0.0};
    TracePhase negZero = zero;
    negZero.ar = -0.0;
    PhaseTrace pos("zero-ar", {zero});
    PhaseTrace neg("zero-ar", {negZero});
    PhaseTrace posFirst("zero-ar", {zero, negZero});
    PhaseTrace negFirst("zero-ar", {negZero, zero});

    for (PdnKind kind : allPdnKinds) {
        const PdnModel &pdn = platform.pdn(kind);
        EXPECT_EQ(sim.run(neg, pdn), reference::staticRun(sim, pos, pdn))
            << toString(kind);
        EXPECT_EQ(reference::staticRun(sim, neg, pdn), sim.run(pos, pdn))
            << toString(kind);
        EXPECT_EQ(sim.run(negFirst, pdn),
                  reference::staticRun(sim, posFirst, pdn))
            << toString(kind);
        EXPECT_EQ(reference::staticRun(sim, negFirst, pdn),
                  sim.run(posFirst, pdn))
            << toString(kind);
    }
    const FlexWattsPdn &fw = platform.flexWatts();
    EXPECT_EQ(sim.runOracle(neg, fw), reference::oracleRun(sim, pos, fw));
    EXPECT_EQ(reference::oracleRun(sim, neg, fw), sim.runOracle(pos, fw));
    EXPECT_EQ(sim.runOracle(negFirst, fw),
              reference::oracleRun(sim, posFirst, fw));
    EXPECT_EQ(reference::oracleRun(sim, negFirst, fw),
              sim.runOracle(posFirst, fw));
}

} // anonymous namespace
} // namespace pdnspot
