/**
 * @file
 * Fleet-engine tests: the determinism contract (byte-identical
 * aggregate CSVs at any thread count, reproducible seeded jitter),
 * aggregate conservation across the time series, the storm-detector
 * math, early exit once the whole fleet is dark, the drainTime /
 * BatteryModel::life equivalence, the histogramObserve-vs-registry
 * bucketing identity, and a golden run summary pinning the
 * human-readable surface.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "fleet/fleet_engine.hh"
#include "obs/metrics.hh"
#include "sim/battery_model.hh"
#include "workload/trace_source.hh"

namespace pdnspot
{
namespace
{

/**
 * Two heterogeneous cohorts over generated traces — hermetic, fast,
 * and large enough (3.5k sessions) to span several 1024-session
 * chunks so the canonical-order reduction actually merges partials.
 * Oracle mode keeps mode switches in play; the tablet cohort's tiny
 * battery guarantees deaths inside the horizon so both distribution
 * histograms are populated.
 */
FleetSpec
testSpec()
{
    TraceGeneratorSpec mix;
    mix.kind = "random-mix";
    mix.seed = 7;
    mix.phases = 12;

    FleetCohort tablets;
    tablets.name = "tablets";
    tablets.count = 1500;
    tablets.platform = fanlessTabletPreset();
    tablets.pdn = PdnKind::FlexWatts;
    tablets.mode = SimMode::Oracle;
    tablets.trace = TraceSpec::generator(mix);
    tablets.startJitter = seconds(5.0);
    tablets.batteryWh = 0.002;
    tablets.batterySpread = 0.2;

    mix.seed = 8;
    FleetCohort laptops;
    laptops.name = "laptops";
    laptops.count = 2000;
    laptops.platform = ultraportablePreset();
    laptops.pdn = PdnKind::FlexWatts;
    laptops.mode = SimMode::Oracle;
    laptops.trace = TraceSpec::generator(mix);
    laptops.startJitter = seconds(2.0);
    laptops.batteryWh = 50.0;
    laptops.batterySpread = 0.1;

    FleetSpec spec;
    spec.cohorts = {tablets, laptops};
    spec.bucket = seconds(0.5);
    spec.horizon = seconds(8.0);
    spec.seed = 5;
    return spec;
}

FleetResult
runAt(const FleetSpec &spec, unsigned threads)
{
    ParallelRunner pool(threads);
    return FleetEngine(pool).run(spec);
}

std::string
csvOf(const FleetResult &result)
{
    std::ostringstream os;
    result.writeCsv(os);
    return os.str();
}

std::string
summaryOf(const FleetResult &result)
{
    std::ostringstream os;
    result.writeSummary(os);
    return os.str();
}

TEST(FleetEngineTest, ByteIdenticalAcrossThreadCounts)
{
    FleetSpec spec = testSpec();
    FleetResult serial = runAt(spec, 1);
    FleetResult two = runAt(spec, 2);
    FleetResult eight = runAt(spec, 8);

    EXPECT_EQ(csvOf(serial), csvOf(two));
    EXPECT_EQ(csvOf(serial), csvOf(eight));
    EXPECT_EQ(summaryOf(serial), summaryOf(two));
    EXPECT_EQ(summaryOf(serial), summaryOf(eight));
    EXPECT_EQ(serial.buckets, eight.buckets);
    EXPECT_EQ(serial.batteryLifeH, eight.batteryLifeH);
    EXPECT_EQ(serial.timeToEmptyH, eight.timeToEmptyH);
}

TEST(FleetEngineTest, SeededJitterIsReproducible)
{
    FleetSpec spec = testSpec();
    EXPECT_EQ(csvOf(runAt(spec, 4)), csvOf(runAt(spec, 4)));

    FleetSpec reseeded = testSpec();
    reseeded.seed = 6;
    EXPECT_NE(csvOf(runAt(spec, 4)), csvOf(runAt(reseeded, 4)));
}

TEST(FleetEngineTest, StartJitterDesynchronizesTheCohort)
{
    FleetSpec aligned = testSpec();
    for (FleetCohort &cohort : aligned.cohorts)
        cohort.startJitter = seconds(0.0);
    EXPECT_NE(csvOf(runAt(testSpec(), 2)), csvOf(runAt(aligned, 2)));
}

TEST(FleetEngineTest, AggregatesConserveAcrossTheTimeSeries)
{
    FleetResult result = runAt(testSpec(), 8);
    ASSERT_FALSE(result.buckets.empty());
    EXPECT_EQ(result.sessions, 3500u);

    double energy = 0.0;
    uint64_t switches = 0;
    uint64_t deaths = 0;
    uint64_t prevAlive = result.sessions;
    for (const FleetBucketRow &row : result.buckets) {
        energy += row.energyJ;
        switches += row.modeSwitches;
        deaths += row.deaths;
        EXPECT_LE(row.alive, prevAlive);
        prevAlive = row.alive;
        if (row.tEndS > 0.0 && row.energyJ > 0.0) {
            EXPECT_NEAR(row.powerW * result.bucketS, row.energyJ,
                        1e-6 * row.energyJ + 1e-12);
        }
    }
    EXPECT_NEAR(energy, result.totalEnergyJ,
                1e-9 * result.totalEnergyJ);
    EXPECT_EQ(switches, result.totalSwitches);
    EXPECT_EQ(deaths, result.deaths);
    EXPECT_EQ(result.buckets.back().alive,
              result.sessions - result.deaths);

    // The tiny-battery cohort must die inside the horizon, so both
    // distributions carry samples: actual deaths in batteryLifeH,
    // every session in timeToEmptyH.
    EXPECT_GT(result.deaths, 0u);
    EXPECT_EQ(result.batteryLifeH.count, result.deaths);
    EXPECT_EQ(result.timeToEmptyH.count, result.sessions);
    EXPECT_GT(histogramQuantile(result.timeToEmptyH, 0.5),
              histogramQuantile(result.batteryLifeH, 0.5));
}

TEST(FleetEngineTest, StormFlagMatchesItsDefinition)
{
    FleetResult result = runAt(testSpec(), 4);
    ASSERT_FALSE(result.buckets.empty());
    EXPECT_DOUBLE_EQ(result.stormBaseline,
                     static_cast<double>(result.totalSwitches) /
                         static_cast<double>(result.buckets.size()));

    uint64_t storms = 0;
    for (const FleetBucketRow &row : result.buckets) {
        bool expected =
            row.modeSwitches > 0 &&
            static_cast<double>(row.modeSwitches) >
                result.stormK * result.stormBaseline;
        EXPECT_EQ(row.storm, expected) << "bucket " << row.index;
        storms += row.storm ? 1 : 0;
    }
    EXPECT_EQ(storms, result.stormBuckets);
}

TEST(FleetEngineTest, StopsEarlyOnceTheFleetIsDark)
{
    FleetSpec spec = testSpec();
    spec.cohorts.resize(1); // only the 0.002 Wh tablets
    spec.horizon = seconds(3600.0);
    spec.bucket = seconds(1.0);

    FleetResult result = runAt(spec, 4);
    EXPECT_EQ(result.deaths, result.sessions);
    EXPECT_EQ(result.buckets.back().alive, 0u);
    EXPECT_LT(result.simulatedS, result.horizonS);
    EXPECT_LT(result.buckets.size(), spec.bucketCount());
    EXPECT_DOUBLE_EQ(result.simulatedS, result.buckets.back().tEndS);
}

TEST(FleetEngineTest, UniformCohortDiesAsOne)
{
    // Zero jitter and zero spread make every session identical, so
    // the whole cohort must empty at the same instant.
    FleetSpec spec = testSpec();
    spec.cohorts.resize(1);
    spec.cohorts[0].startJitter = seconds(0.0);
    spec.cohorts[0].batterySpread = 0.0;
    spec.horizon = seconds(3600.0);

    FleetResult result = runAt(spec, 4);
    EXPECT_EQ(result.deaths, result.sessions);
    EXPECT_DOUBLE_EQ(result.batteryLifeH.min,
                     result.batteryLifeH.max);
}

TEST(FleetEngineTest, ValidateRejectsUnrunnableSpecs)
{
    FleetSpec spec = testSpec();
    spec.cohorts.clear();
    EXPECT_THROW(spec.validate(), ConfigError);

    spec = testSpec();
    spec.cohorts[1].name = spec.cohorts[0].name;
    EXPECT_THROW(spec.validate(), ConfigError);

    spec = testSpec();
    spec.cohorts[0].count = 0;
    EXPECT_THROW(spec.validate(), ConfigError);

    spec = testSpec();
    spec.cohorts[0].batterySpread = 1.0;
    EXPECT_THROW(spec.validate(), ConfigError);

    spec = testSpec();
    spec.bucket = seconds(10.0);
    spec.horizon = seconds(5.0);
    EXPECT_THROW(spec.validate(), ConfigError);

    spec = testSpec();
    spec.stormK = 0.0;
    EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(FleetEngineTest, ProgressReportsEveryBucketInOrder)
{
    FleetSpec spec = testSpec();
    std::vector<uint64_t> done;
    uint64_t total = 0;
    ParallelRunner runner;
    FleetResult result =
        FleetEngine(runner).run(spec, [&](uint64_t d, uint64_t t) {
            done.push_back(d);
            total = t;
        });
    ASSERT_EQ(done.size(), result.buckets.size());
    EXPECT_EQ(total, spec.bucketCount());
    for (size_t i = 0; i < done.size(); ++i)
        EXPECT_EQ(done[i], i + 1);
}

TEST(FleetBatteryTest, DrainTimeMatchesBatteryModelLife)
{
    // The shared SoC-integration step: at full capacity, drainTime
    // is exactly BatteryModel::life for any draw.
    for (double wh : {0.5, 8.0, 50.0}) {
        BatteryModel model(wattHours(wh));
        for (double w : {0.75, 4.0, 15.0, 45.0}) {
            EXPECT_EQ(inSeconds(model.life(watts(w))),
                      inSeconds(drainTime(model.capacity(), watts(w))))
                << wh << " Wh at " << w << " W";
            EXPECT_EQ(model.lifeHours(watts(w)),
                      drainHours(model.capacity(), watts(w)));
        }
    }
    EXPECT_THROW(drainTime(joules(10.0), watts(0.0)), ConfigError);
    EXPECT_THROW(drainTime(joules(10.0), watts(-1.0)), ConfigError);
}

TEST(FleetBatteryTest, HistogramObserveMatchesTheRegistry)
{
    // The standalone accumulation the fleet distributions use must
    // bucket exactly like a registry-held histogram.
    const std::vector<double> samples = {0.02, 0.9,    1.0,  1.7,
                                         4.0,  1023.0, 77.5, 0.0};

    MetricsRegistry registry;
    size_t id = 0;
    {
        MetricsInstallation install(registry);
        id = registry.registerMetric("test.hist",
                                     MetricKind::Histogram);
        for (double v : samples)
            registry.observe(id, v);
        MetricsRegistry::flushThread();
    }
    MetricSnapshot fromRegistry;
    for (const MetricSnapshot &snap : registry.snapshot())
        if (snap.name == "test.hist")
            fromRegistry = snap;

    MetricSnapshot standalone;
    for (double v : samples)
        histogramObserve(standalone, v);

    EXPECT_EQ(standalone.kind, MetricKind::Histogram);
    EXPECT_EQ(standalone.count, fromRegistry.count);
    EXPECT_DOUBLE_EQ(standalone.value, fromRegistry.value);
    EXPECT_DOUBLE_EQ(standalone.min, fromRegistry.min);
    EXPECT_DOUBLE_EQ(standalone.max, fromRegistry.max);
    EXPECT_EQ(standalone.buckets, fromRegistry.buckets);
    for (double q : {0.0, 0.5, 0.95, 1.0})
        EXPECT_DOUBLE_EQ(histogramQuantile(standalone, q),
                         histogramQuantile(fromRegistry, q));
}

/** Compare against tests/golden/, or rewrite when regenerating. */
void
checkGolden(const std::string &fileName, const std::string &actual)
{
    std::string path =
        std::string(PDNSPOT_GOLDEN_DIR) + "/" + fileName;

    if (std::getenv("PDNSPOT_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        out.close();
        ASSERT_TRUE(out.good()) << "error writing " << path;
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — run scripts/regen_golden.sh";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << "output drifted from " << path
        << "; if the change is intentional, run "
        << "scripts/regen_golden.sh and review the diff";
}

TEST(FleetGoldenTest, RunSummary)
{
    // The full deterministic summary of the small two-cohort fixture
    // — population and cohort shapes, energy/switch/storm verdicts
    // and both distribution quantile lines — pinned byte for byte.
    checkGolden("fleet_summary.txt", summaryOf(runAt(testSpec(), 1)));
}

} // namespace
} // namespace pdnspot
