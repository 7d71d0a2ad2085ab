/**
 * @file
 * Regenerates Fig. 8(a): SPEC CPU2006 average performance of the five
 * PDNs across the 4-50 W TDP range, normalized to the IVR PDN.
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
    bench::banner("Fig. 8(a) - SPEC CPU2006 average performance "
                  "(IVR = 100%)");

    ParallelRunner pool;
    AsciiTable t({"TDP", "IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts"});
    for (double tdp : evaluationTdpsW) {
        std::vector<std::string> row = {strprintf("%.0fW", tdp)};
        for (PdnKind kind : allPdnKinds) {
            row.push_back(AsciiTable::percent(
                suiteMeanRelativePerf(pf, kind, watts(tdp),
                                      specCpu2006(), pool),
                1));
        }
        t.addRow(row);
    }
    t.print(std::cout);
    std::cout << "\n";
}

void
fig8aRow(benchmark::State &state)
{
    const Platform &pf = bench::platform();
    ParallelRunner pool;
    for (auto _ : state) {
        double v = suiteMeanRelativePerf(
            pf, PdnKind::FlexWatts,
            watts(static_cast<double>(state.range(0))),
            specCpu2006(), pool);
        benchmark::DoNotOptimize(v);
    }
}

BENCHMARK(fig8aRow)->Arg(4)->Arg(18)->Arg(50);

} // anonymous namespace

PDNSPOT_BENCH_MAIN(printFigure)
