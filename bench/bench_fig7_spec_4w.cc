/**
 * @file
 * Regenerates Fig. 7: per-benchmark SPEC CPU2006 performance of the
 * five PDNs at 4 W TDP, normalized to the IVR PDN and sorted by
 * performance-scalability.
 */

#include "bench_util.hh"

#include "common/table.hh"
#include "workload/spec_cpu2006.hh"

namespace
{

using namespace pdnspot;

void
printFigure()
{
    const Platform &pf = bench::platform();
    bench::banner(
        "Fig. 7 - SPEC CPU2006 performance at 4W TDP (IVR = 100%)");

    ParallelRunner pool;
    std::array<std::vector<double>, allPdnKinds.size()> rel;
    for (size_t k = 0; k < allPdnKinds.size(); ++k) {
        rel[k] = suiteRelativePerf(pf, allPdnKinds[k], watts(4.0),
                                   specCpu2006(), pool);
    }

    AsciiTable t({"Benchmark", "Scal.", "IVR", "MBVR", "LDO", "I+MBVR",
                  "FlexWatts"});
    const auto &suite = specCpu2006();
    for (size_t i = 0; i < suite.size(); ++i) {
        t.addRow({suite[i].name,
                  AsciiTable::percent(suite[i].scalability, 0),
                  AsciiTable::percent(rel[0][i], 1),
                  AsciiTable::percent(rel[1][i], 1),
                  AsciiTable::percent(rel[2][i], 1),
                  AsciiTable::percent(rel[3][i], 1),
                  AsciiTable::percent(rel[4][i], 1)});
    }
    std::vector<std::string> avg = {"Average", "-"};
    for (size_t k = 0; k < allPdnKinds.size(); ++k) {
        double sum = 0.0;
        for (double r : rel[k])
            sum += r;
        avg.push_back(AsciiTable::percent(
            sum / static_cast<double>(rel[k].size()), 1));
    }
    t.addRow(avg);
    t.print(std::cout);
    std::cout << "\n";
}

void
fig7FullSweep(benchmark::State &state)
{
    const Platform &pf = bench::platform();
    ParallelRunner pool;
    for (auto _ : state) {
        double mean = suiteMeanRelativePerf(
            pf, PdnKind::FlexWatts, watts(4.0), specCpu2006(), pool);
        benchmark::DoNotOptimize(mean);
    }
}

BENCHMARK(fig7FullSweep);

} // anonymous namespace

PDNSPOT_BENCH_MAIN(printFigure)
