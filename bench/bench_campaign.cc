/**
 * @file
 * Benchmarks the campaign engine: one trace x platform x PDN batch
 * simulation (the workhorse behind the evaluation cross-products),
 * serial vs the shared thread pool, plus the per-cell cost of the
 * three simulation modes.
 */

#include "bench_util.hh"

#include <chrono>

#include "campaign/campaign_engine.hh"
#include "common/table.hh"
#include "workload/trace_generator.hh"

namespace
{

using namespace pdnspot;

/** Sink for throughput runs: cells are simulated, then dropped. */
class DiscardSink : public CampaignSink
{
  public:
    void consume(CampaignCellResult) override {}
};

CampaignSpec
smallSpec(SimMode mode)
{
    CampaignSpec spec;
    TraceGenerator gen(7);
    spec.traces.push_back(gen.burstyCompute(4, milliseconds(10.0),
                                            milliseconds(30.0)));
    spec.traces.push_back(gen.randomMix(16, milliseconds(10.0)));
    spec.platforms = {fanlessTabletPreset(), ultraportablePreset()};
    spec.pdns.assign(allPdnKinds.begin(), allPdnKinds.end());
    spec.mode = mode;
    return spec;
}

/**
 * Battery-profile frame traces: long traces that repeat the same few
 * operating points hundreds of times.
 */
CampaignSpec
repeatedStateSpec()
{
    CampaignSpec spec;
    for (const BatteryProfile &profile : batteryLifeWorkloads())
        spec.traces.push_back(traceFromBatteryProfile(
            profile, milliseconds(33.3), 256));
    spec.platforms = {ultraportablePreset()};
    spec.pdns.assign(allPdnKinds.begin(), allPdnKinds.end());
    spec.mode = SimMode::Oracle;
    return spec;
}

void
printFigure()
{
    bench::banner("Campaign engine - 2 traces x 2 platforms x 5 PDNs "
                  "(PMU mode)");
    ParallelRunner runner;
    CampaignResult result =
        CampaignEngine(runner).run(smallSpec(SimMode::Pmu));
    BatteryModel battery(wattHours(50.0));
    AsciiTable t({"PDN", "supply (J)", "mean ETEE", "switches"});
    for (const CampaignPdnSummary &s :
         result.summarizeByPdn(battery)) {
        t.addRow({toString(s.pdn),
                  AsciiTable::num(inJoules(s.supplyEnergy), 3),
                  AsciiTable::percent(s.meanEtee(), 1),
                  std::to_string(s.modeSwitches)});
    }
    t.print(std::cout);
    std::cout << "\n";
}

void
campaignSerial(benchmark::State &state)
{
    ParallelRunner serial(1);
    CampaignEngine engine(serial);
    CampaignSpec spec = smallSpec(SimMode::Static);
    for (auto _ : state) {
        CampaignResult r = engine.run(spec);
        benchmark::DoNotOptimize(r.cells.data());
    }
}

void
campaignPooled(benchmark::State &state)
{
    ParallelRunner pool;
    CampaignEngine engine(pool);
    CampaignSpec spec = smallSpec(SimMode::Static);
    for (auto _ : state) {
        CampaignResult r = engine.run(spec);
        benchmark::DoNotOptimize(r.cells.data());
    }
}

void
campaignMode(benchmark::State &state)
{
    ParallelRunner pool;
    CampaignEngine engine(pool);
    CampaignSpec spec =
        smallSpec(static_cast<SimMode>(state.range(0)));
    for (auto _ : state) {
        CampaignResult r = engine.run(spec);
        benchmark::DoNotOptimize(r.cells.data());
    }
}

/**
 * The trajectory workhorse: streamed campaign execution measured in
 * cells/sec and ns/phase — the metrics scripts/bench.sh snapshots
 * into BENCH_<n>.json and tools/bench_diff gates on.
 */
void
campaignThroughput(benchmark::State &state)
{
    unsigned nthreads = static_cast<unsigned>(state.range(0));
    ParallelRunner pool(nthreads);
    CampaignEngine engine(pool);
    CampaignSpec spec = repeatedStateSpec();
    size_t cellCount = spec.cellCount();

    uint64_t cells = 0;
    uint64_t phases = 0;
    auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        DiscardSink sink;
        CampaignRunStats stats;
        engine.run(spec, sink, 0, cellCount, &stats);
        cells += stats.cells;
        phases += stats.phases;
    }
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    state.counters["cells_per_sec"] =
        ns > 0.0 ? static_cast<double>(cells) / (ns * 1e-9) : 0.0;
    state.counters["ns_per_phase"] =
        phases ? ns / static_cast<double>(phases) : 0.0;
    state.counters["threads"] = nthreads;
}

BENCHMARK(campaignSerial)->Unit(benchmark::kMillisecond);
BENCHMARK(campaignPooled)->Unit(benchmark::kMillisecond);
BENCHMARK(campaignMode)
    ->Arg(static_cast<int>(SimMode::Static))
    ->Arg(static_cast<int>(SimMode::Pmu))
    ->Arg(static_cast<int>(SimMode::Oracle))
    ->Unit(benchmark::kMillisecond);
BENCHMARK(campaignThroughput)
    ->Arg(1)
    ->Arg(8)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

PDNSPOT_BENCH_MAIN(printFigure)
