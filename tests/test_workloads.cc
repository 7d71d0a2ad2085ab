/**
 * @file
 * Unit tests for the workload catalogs, battery profiles, and traces.
 */

#include <set>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "workload/battery_profiles.hh"
#include "workload/gfx_3dmark06.hh"
#include "workload/spec_cpu2006.hh"
#include "workload/trace.hh"
#include "workload/trace_generator.hh"
#include "workload/trace_source.hh"
#include "workload/workload.hh"

namespace pdnspot
{
namespace
{

TEST(SpecCpu2006, HasAll29Benchmarks)
{
    EXPECT_EQ(specCpu2006().size(), 29u);
    std::set<std::string> names;
    for (const Workload &w : specCpu2006())
        names.insert(w.name);
    EXPECT_EQ(names.size(), 29u); // no duplicates
    EXPECT_TRUE(names.count("433.milc"));
    EXPECT_TRUE(names.count("416.gamess"));
    EXPECT_TRUE(names.count("462.libquantum"));
}

TEST(SpecCpu2006, SortedAscendingByScalability)
{
    // Fig. 7 orders the suite by ascending performance-scalability.
    const auto &suite = specCpu2006();
    for (size_t i = 1; i < suite.size(); ++i)
        EXPECT_GE(suite[i].scalability, suite[i - 1].scalability)
            << suite[i].name;
    EXPECT_EQ(suite.front().name, "433.milc");
    EXPECT_EQ(suite.back().name, "416.gamess");
}

TEST(SpecCpu2006, ValuesInModelRanges)
{
    for (const Workload &w : specCpu2006()) {
        EXPECT_EQ(w.type, WorkloadType::SingleThread) << w.name;
        EXPECT_GE(w.ar, 0.40) << w.name;
        EXPECT_LE(w.ar, 0.80) << w.name;
        EXPECT_GT(w.scalability, 0.0) << w.name;
        EXPECT_LE(w.scalability, 1.0) << w.name;
    }
    double mean = specCpu2006MeanScalability();
    EXPECT_GT(mean, 0.6);
    EXPECT_LT(mean, 0.9);
}

TEST(Gfx3dmark06, SuiteShape)
{
    EXPECT_EQ(gfx3dmark06().size(), 6u);
    for (const Workload &w : gfx3dmark06()) {
        EXPECT_EQ(w.type, WorkloadType::Graphics) << w.name;
        EXPECT_GT(w.scalability, 0.0);
        EXPECT_LE(w.scalability, 1.0);
    }
    // The pure-graphics tests scale better than the CPU sub-tests.
    EXPECT_GT(gfx3dmark06()[0].scalability, gfx3dmark06()[4].scalability);
}

TEST(PowerVirus, HasUnitAr)
{
    Workload v = powerVirus(WorkloadType::MultiThread);
    EXPECT_DOUBLE_EQ(v.ar, 1.0);
    EXPECT_EQ(v.type, WorkloadType::MultiThread);
}

TEST(BatteryProfiles, AllValidAndComplete)
{
    EXPECT_EQ(batteryLifeWorkloads().size(), 4u);
    for (const BatteryProfile &p : batteryLifeWorkloads()) {
        EXPECT_TRUE(p.valid()) << p.name;
        EXPECT_GT(p.residency(PackageCState::C0Min), 0.0) << p.name;
    }
}

TEST(BatteryProfiles, VideoPlaybackMatchesPaperExactly)
{
    // Sec. 5: C0MIN 10%, C2 5%, C8 85%.
    BatteryProfile p = videoPlayback();
    EXPECT_DOUBLE_EQ(p.residency(PackageCState::C0Min), 0.10);
    EXPECT_DOUBLE_EQ(p.residency(PackageCState::C2), 0.05);
    EXPECT_DOUBLE_EQ(p.residency(PackageCState::C8), 0.85);
    EXPECT_DOUBLE_EQ(p.residency(PackageCState::C6), 0.0);
}

TEST(BatteryProfiles, ActiveResidencyLadder)
{
    // Sec. 7.1: 10/20/30/40% C0MIN for playback/conf/browsing/gaming.
    EXPECT_DOUBLE_EQ(videoPlayback().residency(PackageCState::C0Min),
                     0.10);
    EXPECT_DOUBLE_EQ(
        videoConferencing().residency(PackageCState::C0Min), 0.20);
    EXPECT_DOUBLE_EQ(webBrowsing().residency(PackageCState::C0Min),
                     0.30);
    EXPECT_DOUBLE_EQ(lightGaming().residency(PackageCState::C0Min),
                     0.40);
}

TEST(PhaseTrace, DurationsAccumulate)
{
    PhaseTrace t("t", {TracePhase{milliseconds(10.0)},
                       TracePhase{milliseconds(20.0)}});
    EXPECT_NEAR(inSeconds(t.totalDuration()), 0.030, 1e-12);
    EXPECT_EQ(t.phases().size(), 2u);
}

TEST(PhaseTrace, RejectsNonPositiveDurations)
{
    EXPECT_THROW(PhaseTrace("bad", {TracePhase{seconds(0.0)}}),
                 ConfigError);
}

TEST(PhaseTrace, FromBatteryProfileHonorsResidencies)
{
    PhaseTrace t = traceFromBatteryProfile(videoPlayback(),
                                           milliseconds(33.3), 10);
    EXPECT_NEAR(inSeconds(t.totalDuration()), 0.333, 1e-9);

    Time c8_time;
    for (const TracePhase &p : t.phases())
        if (p.cstate == PackageCState::C8)
            c8_time += p.duration;
    EXPECT_NEAR(c8_time / t.totalDuration(), 0.85, 1e-9);
}

TEST(TraceGenerator, Deterministic)
{
    TraceGenerator a(7), b(7);
    PhaseTrace ta = a.randomMix(50, milliseconds(5.0));
    PhaseTrace tb = b.randomMix(50, milliseconds(5.0));
    ASSERT_EQ(ta.phases().size(), tb.phases().size());
    for (size_t i = 0; i < ta.phases().size(); ++i) {
        EXPECT_EQ(ta.phases()[i].duration, tb.phases()[i].duration);
        EXPECT_EQ(ta.phases()[i].cstate, tb.phases()[i].cstate);
        EXPECT_EQ(ta.phases()[i].ar, tb.phases()[i].ar);
    }
}

TEST(TraceGenerator, SeedsProduceDifferentTraces)
{
    TraceGenerator a(1), b(2);
    PhaseTrace ta = a.randomMix(50, milliseconds(5.0));
    PhaseTrace tb = b.randomMix(50, milliseconds(5.0));
    bool any_diff = false;
    for (size_t i = 0; i < ta.phases().size(); ++i)
        any_diff |= ta.phases()[i].duration != tb.phases()[i].duration;
    EXPECT_TRUE(any_diff);
}

TEST(TraceGenerator, BurstyAlternatesActiveIdle)
{
    TraceGenerator g(3);
    PhaseTrace t = g.burstyCompute(10, milliseconds(5.0),
                                   milliseconds(20.0));
    ASSERT_EQ(t.phases().size(), 20u);
    for (size_t i = 0; i < t.phases().size(); i += 2) {
        EXPECT_EQ(t.phases()[i].cstate, PackageCState::C0);
        EXPECT_NE(t.phases()[i + 1].cstate, PackageCState::C0);
    }
}

TEST(TraceGenerator, DayInTheLifeCoversAllBehaviours)
{
    TraceGenerator g(5);
    PhaseTrace t = g.dayInTheLife();
    bool has_gfx = false, has_mt = false, has_idle = false;
    for (const TracePhase &p : t.phases()) {
        has_gfx |= p.cstate == PackageCState::C0 &&
                   p.type == WorkloadType::Graphics;
        has_mt |= p.cstate == PackageCState::C0 &&
                  p.type == WorkloadType::MultiThread;
        has_idle |= p.cstate == PackageCState::C8;
    }
    EXPECT_TRUE(has_gfx);
    EXPECT_TRUE(has_mt);
    EXPECT_TRUE(has_idle);
    EXPECT_GT(inSeconds(t.totalDuration()), 1.0);
}

TEST(TraceGenerator, ArsStayInValidBand)
{
    TraceGenerator g(9);
    PhaseTrace trace = g.randomMix(200, milliseconds(2.0));
    for (const TracePhase &p : trace.phases()) {
        EXPECT_GT(p.ar, 0.0);
        EXPECT_LE(p.ar, 1.0);
    }
}

TEST(TraceGenerator, FixedSeedReproducesIdenticalTraces)
{
    // Full-trace equality (name and every phase field) across
    // independently-constructed generators, for each trace family.
    EXPECT_EQ(TraceGenerator(21).burstyCompute(5, milliseconds(4.0),
                                               milliseconds(9.0)),
              TraceGenerator(21).burstyCompute(5, milliseconds(4.0),
                                               milliseconds(9.0)));
    EXPECT_EQ(TraceGenerator(21).dayInTheLife(),
              TraceGenerator(21).dayInTheLife());
    EXPECT_EQ(TraceGenerator(21).randomMix(40, milliseconds(3.0)),
              TraceGenerator(21).randomMix(40, milliseconds(3.0)));
}

TEST(TraceLibrary, GetNamesTheMissingTraceAndTheAlternatives)
{
    EXPECT_EQ(TraceSpec::library("random-mix-44", 42).resolve().name(),
              "random-mix-44");
    try {
        TraceSpec::library("three", 42).resolve();
        FAIL() << "a reference to no corpus entry must throw";
    } catch (const ConfigError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("\"three\""), std::string::npos)
            << what;
        EXPECT_NE(what.find("bursty-compute, day-in-the-life, "
                            "random-mix-42, random-mix-43, "
                            "random-mix-44, video-playback-trace"),
                  std::string::npos)
            << what;
    }
    // The corpus names follow the seed.
    EXPECT_THROW(TraceSpec::library("random-mix-42", 43).resolve(),
                 ConfigError);
}

TEST(TraceLibrary, StandardCampaignCorpusIsReproducible)
{
    std::vector<TraceSpec> a = standardCampaignTraces(42);
    std::vector<TraceSpec> b = standardCampaignTraces(42);

    // Nine uniquely-named library references.
    EXPECT_EQ(a.size(), 9u);
    std::set<std::string> names;
    for (const TraceSpec &spec : a) {
        EXPECT_EQ(spec.kind(), TraceSpec::Kind::Library);
        EXPECT_TRUE(names.insert(spec.name()).second)
            << "duplicate " << spec.name();
    }

    ASSERT_EQ(a, b);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].resolve(), b[i].resolve());

    // A different seed must change the generator-derived traces.
    std::vector<TraceSpec> c = standardCampaignTraces(43);
    EXPECT_NE(a[0].resolve(), c[0].resolve());
}

} // anonymous namespace
} // namespace pdnspot
