/**
 * @file
 * PhaseSoA tests: trace -> structure-of-arrays resolution (dedup
 * counts, order preservation), signed-zero/NaN canonicalization of
 * the dedup key, bit-identical batched simulation against the
 * phase-by-phase reference loops (sim_reference.hh), signed-zero
 * AR phases simulating identically, and the hash dedupe against the
 * ordered-map reference (phase_soa_reference.hh).
 */

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/noise.hh"
#include "pdnspot/platform.hh"
#include "phase_soa_reference.hh"
#include "sim/interval_simulator.hh"
#include "sim_reference.hh"
#include "workload/battery_profiles.hh"
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

/**
 * Expect a PhaseSoA to equal the ordered-map dedupe of its trace
 * exactly: per-phase arrays, and every unique state field by field,
 * the AR by bit pattern (so NaN representatives compare too).
 */
void
expectMatchesMapDedupe(const PhaseTrace &trace)
{
    PhaseSoA soa(trace);
    reference::PhaseSoAArrays ref = reference::mapDedupe(trace);
    EXPECT_EQ(soa.durations(), ref.durations) << trace.name();
    EXPECT_EQ(soa.uniqueIndex(), ref.uniqueIndex) << trace.name();
    ASSERT_EQ(soa.uniqueCount(), ref.uniquePhases.size()) << trace.name();
    for (size_t u = 0; u < ref.uniquePhases.size(); ++u) {
        const TracePhase &got = soa.uniquePhases()[u];
        const TracePhase &want = ref.uniquePhases[u];
        EXPECT_EQ(got.duration, want.duration) << trace.name() << " " << u;
        EXPECT_EQ(got.cstate, want.cstate) << trace.name() << " " << u;
        EXPECT_EQ(got.type, want.type) << trace.name() << " " << u;
        EXPECT_EQ(std::bit_cast<uint64_t>(got.ar),
                  std::bit_cast<uint64_t>(want.ar))
            << trace.name() << " " << u;
    }
}

TEST(PhaseSoATest, DedupeMatchesMapOnSeededRandomMixes)
{
    for (uint64_t seed : {1u, 2u, 3u, 17u, 99u}) {
        TraceGenerator gen(seed);
        expectMatchesMapDedupe(
            gen.randomMix(4000, milliseconds(3.0), 0.05, 1.0));
        expectMatchesMapDedupe(gen.burstyCompute(
            50, milliseconds(5.0), milliseconds(15.0)));
        expectMatchesMapDedupe(gen.dayInTheLife());
    }
    expectMatchesMapDedupe(traceFromBatteryProfile(
        videoPlayback(), milliseconds(33.3), 64));
}

TEST(PhaseSoATest, DedupeMatchesMapOnManyArsInOneClass)
{
    // 10k distinct ARs of one (C0, type) class, adjacent doubles
    // that differ only in their low mantissa bits, visited forwards
    // and then backwards: every lookup probes one crowded class.
    PhaseTrace trace("one-class", {});
    double ar = 0.5;
    std::vector<double> ars;
    for (int i = 0; i < 10000; ++i) {
        ars.push_back(ar);
        ar = std::nextafter(ar, 1.0);
    }
    for (double a : ars)
        trace.append({milliseconds(1.0), PackageCState::C0,
                      WorkloadType::MultiThread, a});
    for (auto it = ars.rbegin(); it != ars.rend(); ++it)
        trace.append({milliseconds(2.0), PackageCState::C0,
                      WorkloadType::MultiThread, *it});
    PhaseSoA soa(trace);
    EXPECT_EQ(soa.uniqueCount(), 10000u);
    expectMatchesMapDedupe(trace);
}

TEST(PhaseSoATest, DedupeMatchesMapWhenEveryArIsInEveryClass)
{
    // Every AR in all 21 (C-state, type) classes: all phases are
    // unique, so the table is at its fullest, and each key has
    // siblings that differ only in C-state or only in type. Over 20
    // seeds some probes pass a sibling's slot, which a key compare
    // that skipped a field would take for a match.
    const PackageCState cstates[] = {
        PackageCState::C0, PackageCState::C0Min, PackageCState::C2,
        PackageCState::C3, PackageCState::C6,    PackageCState::C7,
        PackageCState::C8};
    const WorkloadType types[] = {WorkloadType::SingleThread,
                                  WorkloadType::MultiThread,
                                  WorkloadType::Graphics};
    for (uint64_t seed = 0; seed < 20; ++seed) {
        HashNoise noise(seed);
        PhaseTrace trace("every-class", {});
        for (uint64_t k = 0; k < 500; ++k)
            for (PackageCState cstate : cstates)
                for (WorkloadType type : types)
                    trace.append({milliseconds(1.0), cstate, type,
                                  noise.unit(k)});
        PhaseSoA soa(trace);
        EXPECT_EQ(soa.uniqueCount(), trace.phases().size()) << seed;
        expectMatchesMapDedupe(trace);
    }
}

TEST(PhaseSoATest, DedupeMatchesMapOnHeavilyRepeatedArs)
{
    // 30k phases over three ARs in every (C-state, type) pair.
    const PackageCState cstates[] = {
        PackageCState::C0, PackageCState::C0Min, PackageCState::C2,
        PackageCState::C6, PackageCState::C8};
    const WorkloadType types[] = {WorkloadType::SingleThread,
                                  WorkloadType::MultiThread,
                                  WorkloadType::Graphics};
    const double ars[] = {0.25, 0.56, 0.8};
    PhaseTrace trace("repeats", {});
    for (size_t i = 0; i < 30000; ++i)
        trace.append({milliseconds(1.0 + static_cast<double>(i % 7)),
                      cstates[i % 5], types[i / 5 % 3],
                      ars[i / 15 % 3]});
    PhaseSoA soa(trace);
    EXPECT_EQ(soa.uniqueCount(), 45u);
    expectMatchesMapDedupe(trace);
}

TEST(PhaseSoATest, DedupeMatchesMapOnSignedZeroAndNanArs)
{
    // Appended phases skip the constructor's checks, so NaN ARs with
    // different payloads and signs reach the dedupe: each collapses
    // to one state per class, as do -0.0 and +0.0.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double ars[] = {
        0.0, -0.0, nan, -nan,
        std::bit_cast<double>(std::bit_cast<uint64_t>(nan) | 1u),
        0.56};
    PhaseTrace trace("zeros-and-nans", {});
    for (int round = 0; round < 3; ++round)
        for (PackageCState cstate :
             {PackageCState::C0, PackageCState::C8})
            for (double ar : ars)
                trace.append({milliseconds(1.0), cstate,
                              WorkloadType::Graphics, ar});
    PhaseSoA soa(trace);
    EXPECT_EQ(soa.uniqueCount(), 6u);
    expectMatchesMapDedupe(trace);
}

TEST(PhaseSoATest, DedupeMatchesMapOnOnePhaseAndEmptyTraces)
{
    expectMatchesMapDedupe(PhaseTrace(
        "one", {{milliseconds(4.0), PackageCState::C0,
                 WorkloadType::SingleThread, 0.7}}));
    expectMatchesMapDedupe(PhaseTrace("empty", {}));
    EXPECT_EQ(PhaseSoA(PhaseTrace("empty", {})).uniqueCount(), 0u);
}

} // anonymous namespace
} // namespace pdnspot
