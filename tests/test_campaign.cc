/**
 * @file
 * Campaign subsystem tests: spec validation, cross-product coverage
 * and ordering, bit-identical results across thread counts, the CSV
 * write -> read -> write fixpoint, and summary statistics.
 */

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign_engine.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "sim/interval_simulator.hh"
#include "workload/trace_generator.hh"
#include "workload/trace_io.hh"

namespace pdnspot
{
namespace
{

/** A small but heterogeneous spec: 3 traces x 2 platforms x 3 PDNs. */
CampaignSpec
smallSpec(SimMode mode)
{
    CampaignSpec spec;
    TraceGenerator gen(11);
    spec.traces.push_back(gen.burstyCompute(3, milliseconds(5.0),
                                            milliseconds(15.0)));
    spec.traces.push_back(gen.randomMix(12, milliseconds(8.0)));
    spec.traces.push_back(traceFromBatteryProfile(
        videoPlayback(), milliseconds(33.3), 2));
    spec.platforms = {fanlessTabletPreset(), ultraportablePreset()};
    spec.pdns = {PdnKind::IVR, PdnKind::LDO, PdnKind::FlexWatts};
    spec.mode = mode;
    return spec;
}

/** Runs a campaign on a pool sized like the process default. */
CampaignResult
runCampaign(const CampaignSpec &spec)
{
    ParallelRunner runner;
    return CampaignEngine(runner).run(spec);
}

TEST(CampaignSpecTest, ValidateRejectsEmptyAxes)
{
    CampaignSpec spec = smallSpec(SimMode::Static);
    spec.traces.clear();
    EXPECT_THROW(spec.validate(), ConfigError);

    spec = smallSpec(SimMode::Static);
    spec.platforms.clear();
    EXPECT_THROW(spec.validate(), ConfigError);

    spec = smallSpec(SimMode::Static);
    spec.pdns.clear();
    EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(CampaignSpecTest, ValidateRejectsDuplicateNames)
{
    CampaignSpec spec = smallSpec(SimMode::Static);
    spec.traces.push_back(spec.traces.front());
    EXPECT_THROW(spec.validate(), ConfigError);

    spec = smallSpec(SimMode::Static);
    spec.platforms.push_back(spec.platforms.front());
    EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(CampaignSpecTest, ValidateRejectsDuplicatePdnKinds)
{
    CampaignSpec spec = smallSpec(SimMode::Static);
    spec.pdns.push_back(spec.pdns.front());
    EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(CampaignSpecTest, ValidateRejectsOutOfRangeTdp)
{
    CampaignSpec spec = smallSpec(SimMode::Static);
    spec.platforms[0].tdp = watts(2.0);
    EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(CampaignSpecTest, ValidateRejectsNonPositiveTick)
{
    CampaignSpec spec = smallSpec(SimMode::Static);
    spec.tick = seconds(0.0);
    EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(CampaignSpecTest, SimModeNamesRoundTrip)
{
    for (SimMode mode :
         {SimMode::Static, SimMode::Pmu, SimMode::Oracle})
        EXPECT_EQ(simModeFromString(toString(mode)), mode);
    EXPECT_THROW(simModeFromString("bogus"), ConfigError);
}

/**
 * A spec exercising every TraceSpec provenance kind at once —
 * inline, library, generator, battery profile, and a trace file
 * written into the gtest temp dir — so per-run resolution is
 * covered end to end.
 */
CampaignSpec
declarativeSpec(SimMode mode)
{
    // Path is per-process: ctest runs each test case as its own
    // process, and a shared fixed name would let one process rewrite
    // the file while another reads it.
    static const std::string path = [] {
        std::string p = testing::TempDir() + "campaign_trace_" +
                        std::to_string(::getpid()) + ".csv";
        std::ofstream out(p, std::ios::binary);
        writeTraceCsv(out,
                      TraceGenerator(21).randomMix(
                          10, milliseconds(6.0)));
        return p;
    }();

    TraceGeneratorSpec mix;
    mix.kind = "random-mix";
    mix.seed = 13;
    mix.phases = 8;
    mix.meanPhaseLen = milliseconds(5.0);

    CampaignSpec spec;
    spec.traces.push_back(TraceGenerator(6).burstyCompute(
        2, milliseconds(4.0), milliseconds(10.0)));
    spec.traces.push_back(TraceSpec::library("day-in-the-life", 42));
    spec.traces.push_back(TraceSpec::generator(mix));
    spec.traces.push_back(
        TraceSpec::profile("video-playback", milliseconds(33.3), 2));
    spec.traces.push_back(TraceSpec::file(path));
    spec.platforms = {fanlessTabletPreset(), ultraportablePreset()};
    spec.pdns = {PdnKind::IVR, PdnKind::FlexWatts};
    spec.mode = mode;
    return spec;
}

TEST(CampaignEngineTest, CoversFullCrossProductInSpecOrder)
{
    CampaignSpec spec = smallSpec(SimMode::Static);
    CampaignResult result = runCampaign(spec);
    ASSERT_EQ(result.cells.size(), spec.cellCount());

    size_t t = 0;
    for (const PlatformConfig &pf : spec.platforms) {
        for (const TraceSpec &trace : spec.traces) {
            for (PdnKind kind : spec.pdns) {
                const CampaignCellResult &c = result.cells[t++];
                EXPECT_EQ(c.platform, pf.name);
                EXPECT_EQ(c.trace, trace.name());
                EXPECT_EQ(c.pdn, kind);
                EXPECT_EQ(c.mode, SimMode::Static);
                EXPECT_EQ(c.sim.duration,
                          trace.resolve().totalDuration());
                EXPECT_GT(c.sim.supplyEnergy, joules(0.0));
                EXPECT_GT(c.sim.averageEtee(), 0.0);
                EXPECT_LE(c.sim.averageEtee(), 1.0);
            }
        }
    }
}

TEST(CampaignEngineTest, DeterministicAcrossThreadCounts)
{
    for (SimMode mode :
         {SimMode::Static, SimMode::Pmu, SimMode::Oracle}) {
        CampaignSpec spec = smallSpec(mode);
        ParallelRunner serial(1);
        CampaignResult baseline =
            CampaignEngine(serial).run(spec);
        for (unsigned threads : {2u, 8u}) {
            ParallelRunner runner(threads);
            CampaignResult parallel =
                CampaignEngine(runner).run(spec);
            EXPECT_EQ(parallel, baseline)
                << toString(mode) << " mode with " << threads
                << " threads";
        }
    }
}

TEST(CampaignEngineTest, PmuModePaysSwitchOverheads)
{
    CampaignSpec spec = smallSpec(SimMode::Pmu);
    CampaignResult result = runCampaign(spec);

    // The bursty trace flips between active and deep-idle phases, so
    // the PMU must switch modes at least once somewhere; only
    // FlexWatts cells can ever report switches.
    uint64_t flexSwitches = 0;
    for (const CampaignCellResult &c : result.cells) {
        if (c.pdn == PdnKind::FlexWatts) {
            flexSwitches += c.sim.modeSwitches;
        } else {
            EXPECT_EQ(c.sim.modeSwitches, 0u);
            EXPECT_EQ(c.sim.switchOverheadEnergy, joules(0.0));
        }
    }
    EXPECT_GT(flexSwitches, 0u);
}

TEST(CampaignEngineTest, OracleNeverWorseThanPmu)
{
    CampaignSpec spec = smallSpec(SimMode::Pmu);
    CampaignResult pmu = runCampaign(spec);
    spec.mode = SimMode::Oracle;
    CampaignResult oracle = runCampaign(spec);

    for (size_t i = 0; i < pmu.cells.size(); ++i) {
        if (pmu.cells[i].pdn != PdnKind::FlexWatts)
            continue;
        // The oracle switches instantly and for free; realistic PMU
        // control can only add energy.
        EXPECT_LE(inJoules(oracle.cells[i].sim.supplyEnergy),
                  inJoules(pmu.cells[i].sim.supplyEnergy) + 1e-12)
            << pmu.cells[i].trace << " on "
            << pmu.cells[i].platform;
    }
}

TEST(CampaignResultTest, CellLookupFindsEveryCellAndRejectsMisses)
{
    CampaignSpec spec = smallSpec(SimMode::Static);
    CampaignResult result = runCampaign(spec);
    for (const CampaignCellResult &c : result.cells) {
        EXPECT_EQ(result.cell(c.trace, c.platform, c.pdn), c);
    }
    EXPECT_THROW(result.cell("no-such-trace",
                             spec.platforms.front().name,
                             PdnKind::IVR),
                 ConfigError);
    EXPECT_THROW(result.cell(spec.traces.front().name(),
                             spec.platforms.front().name,
                             PdnKind::MBVR),
                 ConfigError);
}

TEST(CampaignResultTest, CsvRoundTripIsExactAndAFixpoint)
{
    CampaignSpec spec = smallSpec(SimMode::Pmu);
    CampaignResult result = runCampaign(spec);

    std::stringstream first;
    result.writeCsv(first);
    CampaignResult reread = CampaignResult::readCsv(first);
    EXPECT_EQ(reread, result);

    std::stringstream second;
    reread.writeCsv(second);
    EXPECT_EQ(second.str(), first.str());
}

TEST(CampaignResultTest, ReadCsvRejectsMalformedInput)
{
    std::istringstream noHeader("not,a,campaign\n");
    EXPECT_THROW(CampaignResult::readCsv(noHeader), ConfigError);

    CampaignSpec spec = smallSpec(SimMode::Static);
    CampaignResult result = runCampaign(spec);
    std::stringstream csv;
    result.writeCsv(csv);

    std::string text = csv.str();
    std::istringstream truncated(
        text.substr(0, text.rfind(',')));
    EXPECT_THROW(CampaignResult::readCsv(truncated), ConfigError);

    std::string bad = text;
    bad.replace(bad.find("IVR"), 3, "XXX");
    std::istringstream badKind(bad);
    EXPECT_THROW(CampaignResult::readCsv(badKind), ConfigError);
}

TEST(CampaignEngineTest, StreamingSinkReceivesCanonicalOrder)
{
    CampaignSpec spec = smallSpec(SimMode::Static);
    CampaignResult batch = runCampaign(spec);

    /** Records cells and the thread-safety contract violations. */
    class RecordingSink : public CampaignSink
    {
      public:
        void
        consume(CampaignCellResult cell) override
        {
            cells.push_back(std::move(cell));
        }

        std::vector<CampaignCellResult> cells;
    };

    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        RecordingSink sink;
        CampaignEngine(runner).run(spec, sink);
        EXPECT_EQ(sink.cells, batch.cells)
            << threads << " threads";
    }
}

TEST(CampaignEngineTest, StreamedCsvMatchesBatchCsvAtAnyThreadCount)
{
    for (SimMode mode :
         {SimMode::Static, SimMode::Pmu, SimMode::Oracle}) {
        CampaignSpec spec = smallSpec(mode);
        std::stringstream batch;
        runCampaign(spec).writeCsv(batch);

        for (unsigned threads : {1u, 4u}) {
            ParallelRunner runner(threads);
            std::stringstream streamed;
            CampaignCsvSink sink(streamed);
            CampaignEngine(runner).run(spec, sink);
            EXPECT_EQ(streamed.str(), batch.str())
                << toString(mode) << " mode, " << threads
                << " threads";
            EXPECT_EQ(sink.rows(), spec.cellCount());
        }
    }
}

TEST(CampaignEngineTest, LazyResolutionIsDeterministicAcrossThreads)
{
    // The streamed-CSV surface is the binding contract: every
    // provenance kind, serial vs 8 threads, byte-identical.
    for (SimMode mode : {SimMode::Static, SimMode::Pmu}) {
        CampaignSpec spec = declarativeSpec(mode);

        ParallelRunner serial(1);
        std::stringstream baseline;
        CampaignCsvSink base(baseline);
        CampaignEngine(serial).run(spec, base);

        ParallelRunner pooled(8);
        std::stringstream streamed;
        CampaignCsvSink sink(streamed);
        CampaignEngine(pooled).run(spec, sink);

        EXPECT_EQ(streamed.str(), baseline.str())
            << toString(mode) << " mode";
        EXPECT_EQ(sink.rows(), spec.cellCount());
    }
}

TEST(CampaignEngineTest, ShardConcatenationMatchesUnshardedRun)
{
    CampaignSpec spec = declarativeSpec(SimMode::Pmu);
    size_t cells = spec.cellCount();

    ParallelRunner runner(4);
    std::stringstream full;
    CampaignCsvSink fullSink(full);
    CampaignEngine(runner).run(spec, fullSink);

    // Three uneven shards over the canonical cell order; only the
    // first carries the header, so plain concatenation must equal
    // the unsharded stream byte for byte.
    for (size_t shards : {2u, 3u, 5u}) {
        std::string cat;
        for (size_t k = 1; k <= shards; ++k) {
            size_t first = cells * (k - 1) / shards;
            size_t end = cells * k / shards;
            std::stringstream part;
            CampaignCsvSink sink(part, k == 1);
            CampaignEngine(runner).run(spec, sink, first, end);
            EXPECT_EQ(sink.rows(), end - first);
            cat += part.str();
        }
        EXPECT_EQ(cat, full.str()) << shards << " shards";
    }
}

TEST(CampaignEngineTest, RejectsOutOfRangeCellRanges)
{
    CampaignSpec spec = smallSpec(SimMode::Static);
    std::stringstream os;
    CampaignCsvSink sink(os);
    ParallelRunner runner;
    CampaignEngine engine(runner);
    EXPECT_THROW(engine.run(spec, sink, 2, 1), ConfigError);
    EXPECT_THROW(
        engine.run(spec, sink, 0, spec.cellCount() + 1),
        ConfigError);
}

TEST(CampaignEngineTest, PerTraceTickOverrideChangesOnlyThatTrace)
{
    CampaignSpec coarse = smallSpec(SimMode::Pmu);
    CampaignResult base = runCampaign(coarse);

    CampaignSpec mixed = smallSpec(SimMode::Pmu);
    mixed.traces[0].tick(microseconds(10.0));
    CampaignResult overridden = runCampaign(mixed);

    // Cells of the other traces are untouched by the override.
    for (size_t i = 0; i < base.cells.size(); ++i) {
        if (base.cells[i].trace != mixed.traces[0].name()) {
            EXPECT_EQ(overridden.cells[i], base.cells[i]);
        }
    }

    // The overridden trace simulates at the per-trace tick: a
    // whole-campaign tick of the same value reproduces it exactly.
    CampaignSpec fine = smallSpec(SimMode::Pmu);
    fine.tick = microseconds(10.0);
    CampaignResult fineAll = runCampaign(fine);
    for (size_t i = 0; i < fineAll.cells.size(); ++i) {
        if (fineAll.cells[i].trace == mixed.traces[0].name()) {
            EXPECT_EQ(overridden.cells[i], fineAll.cells[i]);
        }
    }
}

TEST(CampaignSpecTest, ValidateRejectsMalformedTraceSpecs)
{
    CampaignSpec spec = smallSpec(SimMode::Static);
    spec.traces.push_back(TraceSpec::file(""));
    EXPECT_THROW(spec.validate(), ConfigError);

    spec = smallSpec(SimMode::Static);
    spec.traces[0].tick(seconds(-1.0));
    EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(CampaignEngineTest, SinkExceptionAbortsTheCampaign)
{
    CampaignSpec spec = smallSpec(SimMode::Static);

    class FailingSink : public CampaignSink
    {
      public:
        void
        consume(CampaignCellResult cell) override
        {
            ++delivered;
            if (cell.pdn == PdnKind::LDO)
                throw std::runtime_error("sink full");
        }

        size_t delivered = 0;
    };

    ParallelRunner runner(4);
    FailingSink sink;
    EXPECT_THROW(CampaignEngine(runner).run(spec, sink),
                 std::runtime_error);
    // Nothing reaches the sink after the failure.
    EXPECT_EQ(sink.delivered, 2u);
}

TEST(CampaignEngineTest, RunStatsAreConsistentAndThreadInvariant)
{
    /** Counts what reaches the sink; the cells go to the floor. */
    class CountingSink : public CampaignSink
    {
      public:
        void consume(CampaignCellResult) override { ++delivered; }
        size_t delivered = 0;
    };

    CampaignSpec spec = smallSpec(SimMode::Oracle);
    size_t phaseTotal = 0;
    for (const TraceSpec &t : spec.traces)
        phaseTotal += t.resolve().phases().size();
    phaseTotal *= spec.platforms.size() * spec.pdns.size();

    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        MetricsRegistry registry;
        CountingSink sink;
        {
            MetricsInstallation install(registry);
            CampaignEngine(runner).run(spec, sink);
        }
        EXPECT_EQ(sink.delivered, spec.cellCount()) << threads;
        EXPECT_EQ(registry.counterValue(Metric::CampaignCells),
                  spec.cellCount())
            << threads;
        EXPECT_EQ(registry.counterValue(Metric::CampaignPhases),
                  phaseTotal)
            << threads;
    }
}

TEST(CampaignEngineTest, SinkRunsOnCallingThread)
{
    /** Counts deliveries that arrive on another thread. */
    class ThreadCheckingSink : public CampaignSink
    {
      public:
        void
        consume(CampaignCellResult) override
        {
            ++delivered;
            if (std::this_thread::get_id() != caller)
                ++foreign;
        }

        std::thread::id caller = std::this_thread::get_id();
        size_t delivered = 0;
        size_t foreign = 0;
    };

    CampaignSpec spec = smallSpec(SimMode::Static);
    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        ThreadCheckingSink sink;
        CampaignEngine(runner).run(spec, sink);
        EXPECT_EQ(sink.delivered, spec.cellCount()) << threads;
        EXPECT_EQ(sink.foreign, 0u) << threads;
    }
}

TEST(CampaignEngineTest, FirstWaveIsDeliveredBeforeLaterWavesRun)
{
    // 60 one-phase traces x 1 platform x 5 PDNs = 300 cells: more
    // than one wave on a one-thread pool, so the engine must hand
    // the first wave to the sink before it simulates the rest.
    CampaignSpec spec;
    for (uint64_t t = 0; t < 60; ++t) {
        TraceGeneratorSpec one;
        one.kind = "random-mix";
        one.seed = t;
        one.phases = 1;
        one.meanPhaseLen = milliseconds(1.0);
        spec.traces.push_back(TraceSpec::generator(one).rename(
            "one-phase-" + std::to_string(t)));
    }
    spec.platforms = {ultraportablePreset()};
    spec.pdns = {allPdnKinds.begin(), allPdnKinds.end()};
    spec.mode = SimMode::Static;
    ASSERT_EQ(spec.cellCount(), 300u);

    /** Records the simulated-cell count at the first delivery. */
    class FirstDeliverySink : public CampaignSink
    {
      public:
        explicit FirstDeliverySink(const MetricsRegistry &registry)
            : _registry(registry)
        {}

        void
        consume(CampaignCellResult) override
        {
            if (delivered++ == 0)
                cellsAtFirst =
                    _registry.counterValue(Metric::CampaignCells);
        }

        size_t delivered = 0;
        uint64_t cellsAtFirst = 0;

      private:
        const MetricsRegistry &_registry;
    };

    ParallelRunner serial(1);
    MetricsRegistry registry;
    FirstDeliverySink sink(registry);
    {
        MetricsInstallation install(registry);
        CampaignEngine(serial).run(spec, sink);
    }
    EXPECT_EQ(sink.delivered, spec.cellCount());
    EXPECT_GT(sink.cellsAtFirst, 0u);
    EXPECT_LT(sink.cellsAtFirst, spec.cellCount());
    EXPECT_EQ(registry.counterValue(Metric::CampaignCells),
              spec.cellCount());
}

TEST(CampaignEngineTest, BuildsEachPlatformAndTraceOncePerRun)
{
    // Platforms and traces are built once per run on the calling
    // thread and shared read-only by the workers, so the build
    // counts equal the spec's axis sizes at any thread count.
    CampaignSpec spec = declarativeSpec(SimMode::Pmu);
    auto countBuilds = [&](unsigned threads, size_t first,
                           size_t end) {
        MetricsRegistry registry;
        {
            MetricsInstallation install(registry);
            ParallelRunner runner(threads);
            std::stringstream csv;
            CampaignCsvSink sink(csv);
            CampaignEngine(runner).run(spec, sink, first, end);
        }
        return std::make_pair(
            registry.counterValue(Metric::CampaignPlatformBuilds),
            registry.counterValue(Metric::TraceResolves));
    };

    for (unsigned threads : {1u, 8u}) {
        auto [platforms, traces] =
            countBuilds(threads, 0, spec.cellCount());
        EXPECT_EQ(platforms, spec.platforms.size()) << threads;
        EXPECT_EQ(traces, spec.traces.size()) << threads;
    }

    // A shard inside the second platform (cells 2-5 of its 10:
    // traces 1 and 2 on both PDNs) builds just what it touches.
    size_t perPlatform = spec.traces.size() * spec.pdns.size();
    ASSERT_EQ(perPlatform, 10u);
    auto [platforms, traces] =
        countBuilds(8, perPlatform + 2, perPlatform + 6);
    EXPECT_EQ(platforms, 1u);
    EXPECT_EQ(traces, 2u);

    // An empty range builds nothing.
    EXPECT_EQ(countBuilds(8, 3, 3), std::make_pair(uint64_t{0},
                                                   uint64_t{0}));
}

TEST(CampaignResultTest, SummaryAggregatesMatchManualTotals)
{
    CampaignSpec spec = smallSpec(SimMode::Pmu);
    CampaignResult result = runCampaign(spec);
    BatteryModel battery(wattHours(50.0));
    std::vector<CampaignPdnSummary> summaries =
        result.summarizeByPdn(battery);
    ASSERT_EQ(summaries.size(), spec.pdns.size());

    for (const CampaignPdnSummary &s : summaries) {
        Energy supply, nominal;
        size_t cells = 0;
        for (const CampaignCellResult &c : result.cells) {
            if (c.pdn != s.pdn)
                continue;
            ++cells;
            supply += c.sim.supplyEnergy;
            nominal += c.sim.nominalEnergy;
        }
        EXPECT_EQ(s.cells, cells);
        EXPECT_EQ(s.supplyEnergy, supply);
        EXPECT_DOUBLE_EQ(s.meanEtee(), nominal / supply);
        EXPECT_GT(s.batteryLifeHours, 0.0);
    }
}

} // namespace
} // namespace pdnspot
