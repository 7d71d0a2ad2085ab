/**
 * @file
 * Regenerates Fig. 8(e): board area of the five PDNs across the TDP
 * range, normalized to the IVR PDN, plus the FlexWatts on-die area
 * overhead from Sec. 6.
 */

#include "bench_util.hh"

#include "common/table.hh"
#include "flexwatts/flexwatts_pdn.hh"

namespace
{

using namespace pdnspot;

void
printFigure()
{
    const Platform &pf = bench::platform();
    bench::banner("Fig. 8(e) - normalized board area (IVR = 1.0)");

    AsciiTable t({"TDP", "IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts"});
    for (double tdp : evaluationTdpsW) {
        std::vector<std::string> row = {strprintf("%.0fW", tdp)};
        for (PdnKind kind : allPdnKinds) {
            row.push_back(AsciiTable::num(
                normalizedArea(pf, kind, watts(tdp)), 2));
        }
        t.addRow(row);
    }
    t.print(std::cout);

    bench::banner("Sec. 6 - FlexWatts on-die area overhead");
    double rail_mm2 =
        inSquareMillimetres(FlexWattsPdn::ldoModeAreaOverhead());
    std::cout << "LDO-mode overhead per hybrid rail: "
              << AsciiTable::num(rail_mm2, 3) << " mm^2 (4 rails: "
              << AsciiTable::num(4.0 * rail_mm2, 3)
              << " mm^2; ~0.03-0.04% of a client die)\n\n";
}

void
areaEvaluation(benchmark::State &state)
{
    const Platform &pf = bench::platform();
    for (auto _ : state) {
        double total = 0.0;
        for (PdnKind kind : allPdnKinds)
            total += normalizedArea(pf, kind, watts(36.0));
        benchmark::DoNotOptimize(total);
    }
}

BENCHMARK(areaEvaluation);

} // anonymous namespace

PDNSPOT_BENCH_MAIN(printFigure)
