/**
 * @file
 * Trace-transform tests: each derivation step's invariants (phase
 * counts, durations, untouched fields), deterministic double
 * resolution, chain composition, validation, equality — and the
 * campaign-level contract that transformed traces stay bit-identical
 * at any thread count.
 */

#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "campaign/campaign_engine.hh"
#include "common/logging.hh"
#include "workload/trace_generator.hh"
#include "workload/trace_source.hh"
#include "workload/trace_transform.hh"

namespace pdnspot
{
namespace
{

/** A short heterogeneous base: active bursts and deep-idle gaps. */
PhaseTrace
baseTrace()
{
    return TraceGenerator(17).burstyCompute(3, milliseconds(8.0),
                                            milliseconds(20.0));
}

TEST(TraceTransformTest, RepeatMultipliesPhasesAndDuration)
{
    PhaseTrace base = baseTrace();
    PhaseTrace out = TraceTransform::repeat(3).apply(base);

    ASSERT_EQ(out.phases().size(), base.phases().size() * 3);
    for (size_t i = 0; i < out.phases().size(); ++i)
        EXPECT_EQ(out.phases()[i],
                  base.phases()[i % base.phases().size()]);
    EXPECT_DOUBLE_EQ(inSeconds(out.totalDuration()),
                     3.0 * inSeconds(base.totalDuration()));

    // repeat(1) is the identity.
    EXPECT_EQ(TraceTransform::repeat(1).apply(base), base);
}

TEST(TraceTransformTest, TimeScaleStretchesDurationsOnly)
{
    PhaseTrace base = baseTrace();
    PhaseTrace out = TraceTransform::timeScale(1.5).apply(base);

    ASSERT_EQ(out.phases().size(), base.phases().size());
    for (size_t i = 0; i < out.phases().size(); ++i) {
        const TracePhase &was = base.phases()[i];
        const TracePhase &now = out.phases()[i];
        EXPECT_EQ(now.duration, was.duration * 1.5);
        EXPECT_EQ(now.cstate, was.cstate);
        EXPECT_EQ(now.type, was.type);
        EXPECT_EQ(now.ar, was.ar);
    }
}

TEST(TraceTransformTest, TruncateCutsAtTheRequestedDuration)
{
    PhaseTrace base = baseTrace();
    // Cut in the middle of the second phase.
    Time cut = base.phases()[0].duration +
               base.phases()[1].duration * 0.5;
    PhaseTrace out = TraceTransform::truncate(cut).apply(base);

    ASSERT_EQ(out.phases().size(), 2u);
    EXPECT_EQ(out.phases()[0], base.phases()[0]);
    EXPECT_EQ(out.phases()[1].cstate, base.phases()[1].cstate);
    EXPECT_DOUBLE_EQ(inSeconds(out.totalDuration()),
                     inSeconds(cut));

    // A cut exactly on a phase boundary keeps whole phases only.
    PhaseTrace exact =
        TraceTransform::truncate(base.phases()[0].duration)
            .apply(base);
    ASSERT_EQ(exact.phases().size(), 1u);
    EXPECT_EQ(exact.phases()[0], base.phases()[0]);

    // At or past the total duration the transform is a no-op.
    EXPECT_EQ(TraceTransform::truncate(base.totalDuration())
                  .apply(base),
              base);
    EXPECT_EQ(TraceTransform::truncate(base.totalDuration() +
                                       seconds(1.0))
                  .apply(base),
              base);
}

TEST(TraceTransformTest, ArPerturbJittersOnlyActivePhases)
{
    PhaseTrace base = baseTrace();
    PhaseTrace out = TraceTransform::arPerturb(0.1, 7).apply(base);

    ASSERT_EQ(out.phases().size(), base.phases().size());
    bool changed = false;
    for (size_t i = 0; i < out.phases().size(); ++i) {
        const TracePhase &was = base.phases()[i];
        const TracePhase &now = out.phases()[i];
        EXPECT_EQ(now.duration, was.duration);
        EXPECT_EQ(now.cstate, was.cstate);
        EXPECT_EQ(now.type, was.type);
        if (was.cstate != PackageCState::C0) {
            // Idle phases keep their convention AR untouched.
            EXPECT_EQ(now.ar, was.ar);
            continue;
        }
        EXPECT_GE(now.ar, 0.0);
        EXPECT_LE(now.ar, 1.0);
        EXPECT_NEAR(now.ar, was.ar, 0.1 + 1e-12);
        changed = changed || now.ar != was.ar;
    }
    EXPECT_TRUE(changed);

    // Same seed: same jitter. Different seed: a different draw
    // somewhere. Zero delta: identity.
    EXPECT_EQ(TraceTransform::arPerturb(0.1, 7).apply(base), out);
    EXPECT_NE(TraceTransform::arPerturb(0.1, 8).apply(base), out);
    EXPECT_EQ(TraceTransform::arPerturb(0.0, 7).apply(base), base);
}

TEST(TraceTransformTest, ConcatAppendsTheResolvedTail)
{
    PhaseTrace base = baseTrace();
    TraceSpec tail = TraceSpec::library("day-in-the-life", 42);
    PhaseTrace tailTrace = tail.resolve();
    PhaseTrace out = TraceTransform::concat(tail).apply(base);

    ASSERT_EQ(out.phases().size(),
              base.phases().size() + tailTrace.phases().size());
    for (size_t i = 0; i < base.phases().size(); ++i)
        EXPECT_EQ(out.phases()[i], base.phases()[i]);
    for (size_t i = 0; i < tailTrace.phases().size(); ++i)
        EXPECT_EQ(out.phases()[base.phases().size() + i],
                  tailTrace.phases()[i]);
    EXPECT_DOUBLE_EQ(inSeconds(out.totalDuration()),
                     inSeconds(base.totalDuration()) +
                         inSeconds(tailTrace.totalDuration()));
    // The result keeps the carrying trace's name, not the tail's.
    EXPECT_EQ(out.name(), base.name());
}

TEST(TraceTransformTest, ChainsApplyInAppendOrder)
{
    TraceSpec spec(baseTrace());
    spec.transform(TraceTransform::repeat(2))
        .transform(TraceTransform::timeScale(0.5));
    PhaseTrace chained = spec.resolve();

    // repeat-then-scale must equal applying the steps by hand.
    PhaseTrace byHand = TraceTransform::timeScale(0.5).apply(
        TraceTransform::repeat(2).apply(baseTrace()));
    EXPECT_EQ(chained, byHand);

    // The same steps in the other order truncate differently: order
    // matters, so the chain is genuinely sequential.
    TraceSpec reversed(baseTrace());
    reversed.transform(TraceTransform::timeScale(0.5))
        .transform(TraceTransform::truncate(milliseconds(30.0)));
    TraceSpec forward(baseTrace());
    forward.transform(TraceTransform::truncate(milliseconds(30.0)))
        .transform(TraceTransform::timeScale(0.5));
    EXPECT_NE(reversed.resolve(), forward.resolve());
}

TEST(TraceTransformTest, EveryTransformResolvesDeterministically)
{
    TraceGeneratorSpec mix;
    mix.kind = TraceGeneratorKind::RandomMix;
    mix.seed = 23;
    mix.phases = 12;
    mix.meanPhaseLen = milliseconds(5.0);

    TraceSpec spec = TraceSpec::generator(mix);
    spec.transform(TraceTransform::repeat(2))
        .transform(TraceTransform::timeScale(1.25))
        .transform(TraceTransform::arPerturb(0.08, 5))
        .transform(TraceTransform::concat(
            TraceSpec::library("bursty-compute", 42)))
        .transform(TraceTransform::truncate(milliseconds(400.0)));

    EXPECT_EQ(spec.resolve(), spec.resolve()) << spec.describe();
    // A copied spec resolves to the same trace as the original.
    TraceSpec copy = spec;
    EXPECT_EQ(copy.resolve(), spec.resolve());
}

TEST(TraceTransformTest, RenameAndTransformsCompose)
{
    TraceSpec spec = TraceSpec::library("bursty-compute", 42);
    spec.rename("bursty-slow")
        .transform(TraceTransform::timeScale(2.0));
    EXPECT_EQ(spec.resolve().name(), "bursty-slow");
    EXPECT_EQ(spec.resolve().phases().size(),
              TraceSpec::library("bursty-compute", 42)
                  .resolve()
                  .phases()
                  .size());
}

TEST(TraceTransformTest, ValidateRejectsBadParameters)
{
    TraceSpec good = TraceSpec::library("bursty-compute", 42);
    EXPECT_NO_THROW(good.validate());

    auto with = [](TraceTransform t) {
        return TraceSpec::library("bursty-compute", 42)
            .transform(std::move(t));
    };
    EXPECT_THROW(with(TraceTransform::repeat(0)).validate(),
                 ConfigError);
    EXPECT_THROW(with(TraceTransform::timeScale(0.0)).validate(),
                 ConfigError);
    EXPECT_THROW(with(TraceTransform::timeScale(-1.5)).validate(),
                 ConfigError);
    EXPECT_THROW(
        with(TraceTransform::timeScale(
                 std::numeric_limits<double>::infinity()))
            .validate(),
        ConfigError);
    EXPECT_THROW(with(TraceTransform::truncate(seconds(0.0)))
                     .validate(),
                 ConfigError);
    EXPECT_THROW(with(TraceTransform::arPerturb(1.5, 1)).validate(),
                 ConfigError);
    EXPECT_THROW(with(TraceTransform::arPerturb(-0.1, 1)).validate(),
                 ConfigError);
    // A concat operand is validated recursively.
    EXPECT_THROW(with(TraceTransform::concat(TraceSpec::file("")))
                     .validate(),
                 ConfigError);
}

TEST(TraceTransformTest, EqualityComparesChains)
{
    auto make = [](double delta) {
        return TraceSpec::library("bursty-compute", 42)
            .transform(TraceTransform::arPerturb(delta, 7));
    };
    EXPECT_EQ(make(0.1), make(0.1));
    EXPECT_NE(make(0.1), make(0.2));
    EXPECT_NE(make(0.1),
              TraceSpec::library("bursty-compute", 42));

    // Concat compares the operand spec by value, not by pointer.
    auto concat = [](uint64_t seed) {
        return TraceSpec::library("bursty-compute", 42)
            .transform(TraceTransform::concat(
                TraceSpec::library("day-in-the-life", seed)));
    };
    EXPECT_EQ(concat(42), concat(42));
    EXPECT_NE(concat(42), concat(43));
}

TEST(TraceTransformTest, DescribeListsTheChain)
{
    TraceSpec spec = TraceSpec::library("bursty-compute", 42);
    spec.transform(TraceTransform::repeat(2))
        .transform(TraceTransform::truncate(milliseconds(120.0)));
    std::string d = spec.describe();
    EXPECT_NE(d.find("library \"bursty-compute\""),
              std::string::npos)
        << d;
    EXPECT_NE(d.find("| repeat(2)"), std::string::npos) << d;
    EXPECT_NE(d.find("| truncate(120 ms)"), std::string::npos) << d;
}

/** A campaign whose trace axis is entirely transform-derived. */
CampaignSpec
transformedCampaignSpec()
{
    CampaignSpec spec;
    spec.traces.push_back(
        TraceSpec::library("bursty-compute", 42)
            .rename("bursty-jittered")
            .transform(TraceTransform::arPerturb(0.1, 7)));
    spec.traces.push_back(
        TraceSpec::library("day-in-the-life", 42)
            .rename("day-compressed")
            .transform(TraceTransform::timeScale(0.001))
            .transform(TraceTransform::repeat(2)));
    spec.traces.push_back(
        TraceSpec::library("bursty-compute", 42)
            .rename("bursty-extended")
            .transform(TraceTransform::concat(
                TraceSpec::library("web-browsing-trace", 42)))
            .transform(TraceTransform::truncate(milliseconds(
                250.0))));
    spec.platforms = {fanlessTabletPreset(), ultraportablePreset()};
    spec.pdns = {PdnKind::IVR, PdnKind::FlexWatts};
    spec.mode = SimMode::Pmu;
    return spec;
}

TEST(TraceTransformTest, CampaignsBitIdenticalAcrossThreadCounts)
{
    CampaignSpec spec = transformedCampaignSpec();

    ParallelRunner serial(1);
    CampaignResult baseline = CampaignEngine(serial).run(spec);
    std::ostringstream baselineCsv;
    baseline.writeCsv(baselineCsv);

    for (unsigned threads : {2u, 8u}) {
        ParallelRunner runner(threads);
        CampaignResult parallel = CampaignEngine(runner).run(spec);
        EXPECT_EQ(parallel, baseline) << threads << " threads";
        std::ostringstream csv;
        parallel.writeCsv(csv);
        EXPECT_EQ(csv.str(), baselineCsv.str())
            << threads << " threads";
    }
}

} // namespace
} // namespace pdnspot
