/**
 * @file
 * Benchmarks the fleet engine: population-scale session stepping
 * measured in sessions/sec and ns per session-bucket, serial vs the
 * thread pool, at 10k/100k/1M sessions — the trajectory metrics
 * scripts/bench.sh snapshots into BENCH_<n>.json and
 * tools/bench_diff gates on.
 */

#include "bench_util.hh"

#include <chrono>
#include <iostream>

#include "fleet/fleet_engine.hh"
#include "workload/trace_source.hh"

namespace
{

using namespace pdnspot;

/**
 * One Oracle FlexWatts cohort over a generated random-mix trace:
 * session advance pays both the whole-cycle jump and the per-phase
 * walk, and the profile carries real mode switches. Short horizon so
 * an iteration stays in milliseconds even at a million sessions.
 */
FleetSpec
benchSpec(uint64_t sessions)
{
    TraceGeneratorSpec gen;
    gen.kind = "random-mix";
    gen.seed = 7;
    gen.phases = 16;

    FleetCohort cohort;
    cohort.name = "bench";
    cohort.count = sessions;
    cohort.platform = ultraportablePreset();
    cohort.pdn = PdnKind::FlexWatts;
    cohort.mode = SimMode::Oracle;
    cohort.trace = TraceSpec::generator(gen);
    cohort.startJitter = seconds(10.0);
    cohort.batteryWh = 50.0;
    cohort.batterySpread = 0.1;

    FleetSpec spec;
    spec.cohorts.push_back(std::move(cohort));
    spec.bucket = seconds(1.0);
    spec.horizon = seconds(4.0);
    spec.seed = 3;
    return spec;
}

void
printFigure()
{
    bench::banner("Fleet engine - 100k-session Oracle cohort, "
                  "4 x 1 s buckets");
    ParallelRunner runner;
    FleetResult result = FleetEngine(runner).run(benchSpec(100000));
    result.writeSummary(std::cout);
    std::cout << "\n";
}

/**
 * The trajectory workhorse: fleet stepping throughput in
 * sessions/sec (population × buckets / wall) and ns per
 * session-bucket, across population sizes and thread counts.
 */
void
fleetThroughput(benchmark::State &state)
{
    uint64_t sessions = static_cast<uint64_t>(state.range(0));
    unsigned nthreads = static_cast<unsigned>(state.range(1));
    ParallelRunner pool(nthreads);
    FleetEngine engine(pool);
    FleetSpec spec = benchSpec(sessions);

    uint64_t sessionBuckets = 0;
    auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        FleetResult r = engine.run(spec);
        sessionBuckets += r.sessions * r.buckets.size();
        benchmark::DoNotOptimize(r.buckets.data());
    }
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    state.counters["sessions_per_sec"] =
        ns > 0.0 ? static_cast<double>(sessionBuckets) / (ns * 1e-9)
                 : 0.0;
    state.counters["ns_per_session_bucket"] =
        sessionBuckets ? ns / static_cast<double>(sessionBuckets)
                       : 0.0;
    state.counters["threads"] = nthreads;
}

BENCHMARK(fleetThroughput)
    ->Args({10000, 1})
    ->Args({10000, 8})
    ->Args({100000, 1})
    ->Args({100000, 8})
    ->Args({1000000, 1})
    ->Args({1000000, 8})
    ->ArgNames({"sessions", "threads"})
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

PDNSPOT_BENCH_MAIN(printFigure)
