/**
 * @file
 * Fleet-engine tests: the determinism contract (byte-identical
 * aggregate CSVs at any thread count, reproducible seeded jitter),
 * aggregate conservation across the time series, the storm-detector
 * math, early exit once the whole fleet is dark, the drainTime /
 * BatteryModel::life equivalence, the histogramObserve-vs-registry
 * bucketing identity, the nanosecond bucket clock, a differential
 * test of the prefix-sum bucket step against the phase-by-phase
 * reference walk (fleet_reference.hh), and a golden run summary
 * pinning the human-readable surface.
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "campaign/campaign_engine.hh"
#include "common/logging.hh"
#include "fleet/cohort_profile.hh"
#include "fleet/fleet_engine.hh"
#include "fleet_reference.hh"
#include "obs/metrics.hh"
#include "sim/battery_model.hh"
#include "workload/phase_soa.hh"
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

TEST(FleetEngineTest, ProfileAgreesWithCampaignCell)
{
    // One unjittered session over a bucket of exactly one trace
    // cycle draws the cohort's whole-cycle totals, which must match
    // the campaign's cell kernel on the same (platform, trace, pdn,
    // mode): supply energy, and the kernel's switches plus the wrap
    // switch of the cyclic replay. The random-mix PMU run ends in
    // another mode than its first phase (one wrap switch); the
    // day-in-the-life PMU run switches inside its first phase, which
    // only the kernel's switch events show.
    TraceGeneratorSpec mix;
    mix.kind = "random-mix";
    mix.seed = 8;
    mix.phases = 12;
    TraceGeneratorSpec day;
    day.kind = "day-in-the-life";
    day.seed = 1;

    FleetCohort ivr;
    ivr.name = "ivr";
    ivr.count = 1;
    ivr.platform = ultraportablePreset();
    ivr.pdn = PdnKind::IVR;
    ivr.mode = SimMode::Static;
    ivr.trace = TraceSpec::generator(mix);

    FleetCohort pmuMix = ivr;
    pmuMix.name = "pmu-mix";
    pmuMix.pdn = PdnKind::FlexWatts;
    pmuMix.mode = SimMode::Pmu;

    FleetCohort pmuDay = pmuMix;
    pmuDay.name = "pmu-day";
    pmuDay.trace = TraceSpec::generator(day);

    struct Case
    {
        FleetCohort cohort;
        uint64_t wrap;
    };
    for (const Case &c : {Case{ivr, 0}, Case{pmuMix, 1},
                          Case{pmuDay, 0}}) {
        SCOPED_TRACE(c.cohort.name);
        FleetSpec spec;
        spec.cohorts = {c.cohort};
        PhaseSoA soa(c.cohort.trace.resolve());
        double cycleS = 0.0;
        for (Time d : soa.durations())
            cycleS += inSeconds(d);
        spec.bucket = seconds(cycleS);
        spec.horizon = spec.bucket;

        FleetResult fleet = runAt(spec, 1);
        ASSERT_EQ(fleet.buckets.size(), 1u);
        const FleetBucketRow &row = fleet.buckets[0];
        EXPECT_EQ(row.alive, 1u);

        Platform platform(c.cohort.platform);
        SimResult cell = simulateCell(platform, soa, c.cohort.pdn,
                                      c.cohort.mode, spec.tick);
        double cellJ = inJoules(cell.supplyEnergy);
        EXPECT_NEAR(row.energyJ, cellJ, 1e-12 * cellJ);
        EXPECT_EQ(row.modeSwitches, cell.modeSwitches + c.wrap);
        if (c.cohort.mode == SimMode::Pmu) {
            EXPECT_GT(cell.modeSwitches, 0u);
        }
    }
}

TEST(FleetSpecTest, BucketCountIsExactOnTheNsClock)
{
    // 35 ms in 5 ms buckets is 7 buckets, and 81 ms in 9 ms buckets
    // is 9: a double ceil(horizon / bucket) overshoots both and adds
    // an empty eighth (tenth) bucket, diluting the storm baseline.
    FleetSpec spec = testSpec();
    spec.bucket = milliseconds(5.0);
    spec.horizon = seconds(0.035);
    EXPECT_EQ(spec.bucketCount(), 7u);
    FleetResult result = runAt(spec, 1);
    ASSERT_EQ(result.buckets.size(), 7u);
    EXPECT_EQ(result.buckets.back().tEndS, 0.035);
    EXPECT_NE(csvOf(result).find("\n6,0.035,"), std::string::npos);
    EXPECT_DOUBLE_EQ(result.stormBaseline,
                     static_cast<double>(result.totalSwitches) / 7.0);

    spec.bucket = milliseconds(9.0);
    spec.horizon = seconds(0.081);
    EXPECT_EQ(spec.bucketCount(), 9u);
    spec.horizon = seconds(0.0815);
    EXPECT_EQ(spec.bucketCount(), 10u);
    result = runAt(spec, 1);
    ASSERT_EQ(result.buckets.size(), 10u);
    EXPECT_EQ(result.buckets[8].tEndS, 0.081);
    EXPECT_EQ(result.buckets[9].tEndS, 0.0815);

    // A bucket or horizon that rounds below 1 ns is off the clock.
    spec = testSpec();
    spec.bucket = seconds(4e-10);
    EXPECT_THROW(spec.validate(), ConfigError);
    spec.horizon = seconds(4e-10);
    EXPECT_THROW(spec.validate(), ConfigError);
    spec = testSpec();
    spec.horizon = seconds(1e12);
    spec.bucket = seconds(1e6);
    EXPECT_THROW(spec.validate(), ConfigError);
}

/**
 * A ten-phase cycle of 20 ms phases alternating busy and idle, so
 * oracle and PMU cohorts switch modes at phase boundaries and any
 * bucket that is a multiple of 20 ms ends exactly on one.
 */
PhaseTrace
tieTrace()
{
    std::vector<TracePhase> phases;
    for (size_t i = 0; i < 10; ++i) {
        TracePhase p;
        p.duration = milliseconds(20.0);
        if (i % 2 == 0) {
            p.cstate = PackageCState::C0;
            p.type = i % 4 == 0 ? WorkloadType::MultiThread
                                : WorkloadType::Graphics;
            p.ar = 0.5 + 0.04 * static_cast<double>(i);
        } else {
            p.cstate =
                i % 3 == 0 ? PackageCState::C8 : PackageCState::C2;
            p.type = WorkloadType::BatteryLife;
            p.ar = 0.3;
        }
        phases.push_back(p);
    }
    return PhaseTrace("ties-20ms", std::move(phases));
}

/** One cohort over the tie trace, started in phase 0, no spread. */
FleetCohort
tieCohort(std::string name, SimMode mode, double batteryWh)
{
    FleetCohort cohort;
    cohort.name = std::move(name);
    cohort.count = 300;
    cohort.platform = ultraportablePreset();
    cohort.pdn = PdnKind::FlexWatts;
    cohort.mode = mode;
    cohort.trace = TraceSpec(tieTrace());
    cohort.batteryWh = batteryWh;
    return cohort;
}

/**
 * The engine's prefix-sum step against the reference walk: per
 * bucket, sessions alive, deaths and mode switches exactly, energy
 * and power within 1e-11 relative, and the same deaths at the same
 * times to rounding.
 */
void
expectEngineMatchesReference(const FleetSpec &spec)
{
    FleetResult engine = runAt(spec, 2);
    reference::FleetRun ref = reference::fleetRun(spec);
    ASSERT_EQ(engine.buckets.size(), ref.buckets.size());
    for (size_t b = 0; b < ref.buckets.size(); ++b) {
        SCOPED_TRACE("bucket " + std::to_string(b));
        const FleetBucketRow &e = engine.buckets[b];
        const FleetBucketRow &r = ref.buckets[b];
        EXPECT_EQ(e.tEndS, r.tEndS);
        EXPECT_EQ(e.alive, r.alive);
        EXPECT_EQ(e.deaths, r.deaths);
        EXPECT_EQ(e.modeSwitches, r.modeSwitches);
        EXPECT_NEAR(e.energyJ, r.energyJ, 1e-11 * r.energyJ);
        EXPECT_NEAR(e.powerW, r.powerW, 1e-11 * r.powerW);
    }

    MetricSnapshot refLife;
    for (double t : ref.emptyAtS) {
        if (t >= 0.0)
            histogramObserve(refLife, t / 3600.0);
    }
    EXPECT_EQ(engine.batteryLifeH.count, refLife.count);
    EXPECT_NEAR(engine.batteryLifeH.min, refLife.min,
                1e-12 * refLife.max);
    EXPECT_NEAR(engine.batteryLifeH.max, refLife.max,
                1e-12 * refLife.max);
    EXPECT_NEAR(engine.batteryLifeH.value, refLife.value,
                1e-12 * refLife.value);
}

TEST(FleetKernelTest, MatchesThePhaseWalkWithoutTies)
{
    // Jittered starts over random-mix durations: bucket ends fall
    // inside phases. Buckets span a fraction of a cycle, a few
    // cycles, and many cycles with a horizon-truncated last bucket;
    // the tablets die throughout.
    FleetCohort pmu = testSpec().cohorts[1];
    pmu.name = "pmu";
    pmu.count = 300;
    pmu.mode = SimMode::Pmu;
    pmu.batteryWh = 0.004;
    pmu.batterySpread = 0.5;
    pmu.startJitter = seconds(3.0);
    for (double bucketS : {0.037, 0.5, 2.9}) {
        SCOPED_TRACE("bucket " + std::to_string(bucketS) + " s");
        FleetSpec spec = testSpec();
        spec.cohorts.push_back(pmu);
        spec.bucket = seconds(bucketS);
        spec.horizon = seconds(7.3);
        ASSERT_NE(std::fmod(7.3, bucketS), 0.0);
        expectEngineMatchesReference(spec);
    }
}

TEST(FleetKernelTest, MatchesThePhaseWalkOnTies)
{
    // Zero jitter and 20 ms phases: every bucket that is a multiple
    // of 20 ms ends on a phase boundary, most of them mode switches.
    // The capacity spread staggers deaths across the horizon.
    for (double bucketMs : {20.0, 60.0, 200.0, 1000.0}) {
        SCOPED_TRACE("bucket " + std::to_string(bucketMs) + " ms");
        FleetSpec spec;
        spec.cohorts = {tieCohort("oracle", SimMode::Oracle, 0.001),
                        tieCohort("pmu", SimMode::Pmu, 0.003)};
        for (FleetCohort &cohort : spec.cohorts)
            cohort.batterySpread = 0.5;
        spec.bucket = milliseconds(bucketMs);
        spec.horizon = seconds(6.0);
        FleetResult result = runAt(spec, 1);
        EXPECT_GT(result.totalSwitches, 0u);
        EXPECT_GT(result.deaths, 0u);
        expectEngineMatchesReference(spec);
    }
}

TEST(FleetKernelTest, PhaseEnteredAtABucketEndBelongsToIt)
{
    // One session from phase 0 in 20 ms buckets: bucket b ends as
    // phase b + 1 begins, so it carries that phase's entry switches.
    FleetSpec spec;
    spec.cohorts = {tieCohort("oracle", SimMode::Oracle, 50.0)};
    spec.cohorts[0].count = 1;
    spec.bucket = milliseconds(20.0);
    spec.horizon = seconds(0.4);
    CohortProfile cp = buildProfile(spec.cohorts[0], spec.tick);
    ASSERT_EQ(cp.phases(), 10u);
    ASSERT_GT(cp.cycleSwitches, 0u);

    FleetResult result = runAt(spec, 1);
    ASSERT_EQ(result.buckets.size(), 20u);
    for (size_t b = 0; b < result.buckets.size(); ++b)
        EXPECT_EQ(result.buckets[b].modeSwitches,
                  cp.switchesIn[(b + 1) % 10])
            << "bucket " << b;
}

TEST(FleetKernelTest, DeathInTheStartPhase)
{
    // Every session starts at phase 0 with less charge than the
    // phase draws, so all die inside it at charge / power.
    FleetSpec spec;
    spec.cohorts = {tieCohort("oracle", SimMode::Oracle, 1.0)};
    spec.bucket = milliseconds(50.0);
    spec.horizon = seconds(1.0);
    CohortProfile cp = buildProfile(spec.cohorts[0], spec.tick);
    double phaseJ = cp.powerW[0] * cp.durS[0];
    spec.cohorts[0].batteryWh = 0.4 * phaseJ / 3600.0;

    FleetResult result = runAt(spec, 1);
    ASSERT_EQ(result.buckets.size(), 1u);
    EXPECT_EQ(result.buckets[0].deaths, spec.cohorts[0].count);
    EXPECT_EQ(result.buckets[0].modeSwitches, 0u);
    double lifeS = 0.4 * phaseJ / cp.powerW[0];
    EXPECT_NEAR(result.batteryLifeH.max * 3600.0, lifeS, 1e-12);
    EXPECT_LT(lifeS, cp.durS[0]);
    expectEngineMatchesReference(spec);

    // Jittered starts die inside whatever phase they start in.
    spec.cohorts[0].startJitter = seconds(0.2);
    spec.cohorts[0].batteryWh = 0.05 * phaseJ / 3600.0;
    expectEngineMatchesReference(spec);
}

TEST(FleetKernelTest, DeathAfterChargeCappedWholeCycles)
{
    // 10 s buckets hold 50 cycles but the charge covers about four,
    // so the whole-cycle jump stops short and the death falls in the
    // following cycle — all within the first bucket.
    FleetSpec spec;
    spec.cohorts = {tieCohort("oracle", SimMode::Oracle, 1.0)};
    spec.cohorts[0].startJitter = seconds(1.0);
    spec.cohorts[0].batterySpread = 0.2;
    spec.bucket = seconds(10.0);
    spec.horizon = seconds(20.0);
    CohortProfile cp = buildProfile(spec.cohorts[0], spec.tick);
    spec.cohorts[0].batteryWh = 4.0 * cp.cycleEnergyJ / 3600.0;

    FleetResult result = runAt(spec, 1);
    ASSERT_EQ(result.buckets.size(), 1u);
    EXPECT_EQ(result.buckets[0].deaths, spec.cohorts[0].count);
    EXPECT_GT(result.batteryLifeH.min * 3600.0, 3.0 * cp.cycleS);
    expectEngineMatchesReference(spec);
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
