/**
 * @file
 * TraceSpec tests: every provenance kind resolves to the trace its
 * eager counterpart builds, resolution is deterministic, renames and
 * tick overrides stick, and malformed specs fail validation.
 */

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/span_trace.hh"
#include "workload/trace_generator.hh"
#include "workload/trace_io.hh"
#include "workload/trace_source.hh"

namespace pdnspot
{
namespace
{

TEST(TraceSpecTest, InlineWrapsAndConvertsImplicitly)
{
    PhaseTrace eager =
        TraceGenerator(4).burstyCompute(2, milliseconds(5.0),
                                        milliseconds(10.0));
    TraceSpec spec = eager; // implicit compatibility conversion
    EXPECT_EQ(spec.kind(), TraceSpec::Kind::Inline);
    EXPECT_EQ(spec.name(), eager.name());
    EXPECT_EQ(spec.resolve(), eager);
}

TEST(TraceSpecTest, LibraryResolvesToTheCorpusEntry)
{
    TraceSpec spec = TraceSpec::library("random-mix-43", 42);
    EXPECT_EQ(spec.name(), "random-mix-43");
    EXPECT_EQ(spec.resolve(),
              TraceGenerator(43).randomMix(24, milliseconds(15.0)));
    EXPECT_EQ(TraceSpec::library("day-in-the-life", 7).resolve(),
              TraceGenerator(7).dayInTheLife());
    EXPECT_EQ(TraceSpec::library("light-gaming-trace", 7).resolve(),
              TraceSpec::profile("light-gaming").resolve());
    EXPECT_THROW(TraceSpec::library("no-such-trace", 42).resolve(),
                 ConfigError);
}

TEST(TraceSpecTest, LibraryReferenceIsOneResolve)
{
    MetricsRegistry registry;
    SpanRecorder recorder;
    {
        MetricsInstallation metrics(registry);
        SpanInstallation spans(recorder);
        TraceSpec::library("web-browsing-trace", 42).resolve();
    }
    EXPECT_EQ(registry.counterValue(Metric::TraceResolves), 1u);
    EXPECT_EQ(recorder.spanCount(), 1u); // one trace.resolve
}

TEST(TraceSpecTest, GeneratorResolvesToTheGeneratorOutput)
{
    TraceGeneratorSpec params;
    params.kind = TraceGeneratorKind::BurstyCompute;
    params.seed = 11;
    params.bursts = 3;
    params.burstLen = milliseconds(6.0);
    params.idleLen = milliseconds(18.0);
    params.arMin = 0.5;
    params.arMax = 0.9;
    TraceSpec spec = TraceSpec::generator(params);
    EXPECT_EQ(spec.name(), "bursty-compute");
    EXPECT_EQ(spec.resolve(),
              TraceGenerator(11).burstyCompute(3, milliseconds(6.0),
                                               milliseconds(18.0),
                                               0.5, 0.9));

    TraceGeneratorSpec mix;
    mix.kind = TraceGeneratorKind::RandomMix;
    mix.seed = 5;
    mix.phases = 10;
    mix.meanPhaseLen = milliseconds(8.0);
    EXPECT_EQ(TraceSpec::generator(mix).name(), "random-mix-5");
    EXPECT_EQ(TraceSpec::generator(mix).resolve(),
              TraceGenerator(5).randomMix(10, milliseconds(8.0)));

    TraceGeneratorSpec day;
    day.kind = TraceGeneratorKind::DayInTheLife;
    day.seed = 2;
    EXPECT_EQ(TraceSpec::generator(day).resolve(),
              TraceGenerator(2).dayInTheLife());
}

TEST(TraceSpecTest, ProfileResolvesToTheFrameExpansion)
{
    TraceSpec spec =
        TraceSpec::profile("web-browsing", milliseconds(20.0), 3);
    EXPECT_EQ(spec.name(), "web-browsing-trace");
    EXPECT_EQ(spec.resolve(),
              traceFromBatteryProfile(batteryProfileByName(
                                          "web-browsing"),
                                      milliseconds(20.0), 3));
    EXPECT_THROW(TraceSpec::profile("mining").resolve(),
                 ConfigError);
}

TEST(TraceSpecTest, FileResolvesAndNamesAfterTheStem)
{
    std::string path = testing::TempDir() + "spec_source_trace.csv";
    PhaseTrace eager =
        TraceGenerator(8).randomMix(6, milliseconds(4.0));
    {
        std::ofstream out(path, std::ios::binary);
        writeTraceCsv(out, eager);
    }
    TraceSpec spec = TraceSpec::file(path);
    EXPECT_EQ(spec.kind(), TraceSpec::Kind::File);
    EXPECT_EQ(spec.name(), "spec_source_trace");
    PhaseTrace resolved = spec.resolve();
    EXPECT_EQ(resolved.name(), "spec_source_trace");
    EXPECT_EQ(resolved.phases(), eager.phases());

    EXPECT_THROW(
        TraceSpec::file(testing::TempDir() + "missing.csv")
            .resolve(),
        ConfigError);
}

TEST(TraceSpecTest, RenameAndTickOverrideStick)
{
    TraceSpec spec =
        TraceSpec::library("bursty-compute", 42).rename("spiky");
    EXPECT_EQ(spec.name(), "spiky");
    EXPECT_EQ(spec.resolve().name(), "spiky");
    // Renaming changes only the cell address, not the phases.
    EXPECT_EQ(spec.resolve().phases(),
              TraceSpec::library("bursty-compute", 42)
                  .resolve()
                  .phases());

    EXPECT_FALSE(spec.tickOverride());
    spec.tick(microseconds(25.0));
    ASSERT_TRUE(spec.tickOverride());
    EXPECT_EQ(*spec.tickOverride(), microseconds(25.0));
}

TEST(TraceSpecTest, ResolveErrorsNameTheDeclaredTrace)
{
    // A time scale that underflows every duration to 0 s fails in
    // the transform; the error names the spec's declared name, not
    // the one the generator baked in.
    TraceGeneratorSpec mix;
    mix.kind = TraceGeneratorKind::RandomMix;
    mix.seed = 4;
    TraceSpec bad = TraceSpec::generator(mix).rename("bad-a");
    bad.transform(TraceTransform::timeScale(5e-324));
    std::string message;
    try {
        bad.resolve();
    } catch (const ConfigError &e) {
        message = e.what();
    }
    EXPECT_NE(message.find("PhaseTrace \"bad-a\": phase duration "
                           "must be positive"),
              std::string::npos)
        << message;
    EXPECT_EQ(message.find("random-mix-4"), std::string::npos)
        << message;

    // A valid chain resolves to the same trace as before: the
    // generator's phases through the transform, under the new name.
    TraceSpec good = TraceSpec::generator(mix).rename("good");
    good.transform(TraceTransform::timeScale(2.0));
    PhaseTrace resolved = good.resolve();
    EXPECT_EQ(resolved.name(), "good");
    EXPECT_EQ(resolved.phases(),
              TraceTransform::timeScale(2.0)
                  .apply(TraceGenerator(4).randomMix(
                      mix.phases, mix.meanPhaseLen, mix.arMin,
                      mix.arMax))
                  .phases());
}

TEST(TraceSpecTest, ResolutionIsDeterministic)
{
    TraceGeneratorSpec mix;
    mix.kind = TraceGeneratorKind::RandomMix;
    mix.seed = 77;
    for (const TraceSpec &spec :
         {TraceSpec::library("day-in-the-life", 42),
          TraceSpec::generator(mix),
          TraceSpec::profile("light-gaming")}) {
        EXPECT_EQ(spec.resolve(), spec.resolve())
            << spec.describe();
    }
}

TEST(TraceSpecTest, EqualityComparesProvenanceNotPhases)
{
    EXPECT_EQ(TraceSpec::library("bursty-compute", 42),
              TraceSpec::library("bursty-compute", 42));
    EXPECT_NE(TraceSpec::library("bursty-compute", 42),
              TraceSpec::library("bursty-compute", 43));
    // Same resolved trace, different provenance: not equal specs.
    EXPECT_NE(TraceSpec::library("bursty-compute", 42),
              TraceSpec(TraceSpec::library("bursty-compute", 42)
                            .resolve()));
}

TEST(TraceSpecTest, ValidateRejectsMalformedSpecs)
{
    EXPECT_THROW(TraceSpec().validate(), ConfigError); // unnamed

    TraceGeneratorSpec params;
    params.kind = TraceGeneratorKind::RandomMix;
    params.arMin = 0.9;
    params.arMax = 0.4;
    EXPECT_THROW(TraceSpec::generator(params).validate(),
                 ConfigError);

    params.arMin = 0.4;
    params.arMax = 0.8;
    params.phases = 0;
    EXPECT_THROW(TraceSpec::generator(params).validate(),
                 ConfigError);

    EXPECT_THROW(
        TraceSpec::profile("video-playback", milliseconds(33.3), 0)
            .validate(),
        ConfigError);
    EXPECT_THROW(TraceSpec::file("").validate(), ConfigError);
    EXPECT_THROW(TraceSpec::library("a,b", 42).validate(),
                 ConfigError);
    EXPECT_THROW(TraceSpec::library("fine", 42)
                     .tick(seconds(0.0))
                     .validate(),
                 ConfigError);
}

TEST(TraceSpecTest, ValidateRejectsSubNanosecondTickOverride)
{
    EXPECT_THROW(TraceSpec::library("fine", 42)
                     .tick(minTick * 0.5)
                     .validate(),
                 ConfigError);
    EXPECT_NO_THROW(
        TraceSpec::library("fine", 42).tick(minTick).validate());
}

TEST(TraceSpecTest, DescribeNamesTheProvenance)
{
    EXPECT_NE(TraceSpec::library("bursty-compute", 42)
                  .describe()
                  .find("library \"bursty-compute\""),
              std::string::npos);
    EXPECT_NE(TraceSpec::file("a/b.csv").describe().find("a/b.csv"),
              std::string::npos);
}

} // namespace
} // namespace pdnspot
