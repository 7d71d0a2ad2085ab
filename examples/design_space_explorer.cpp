/**
 * @file
 * Architecture-space exploration with PDNspot: for a chosen workload
 * class, sweep TDP x AR and report which PDN wins each cell on ETEE,
 * then summarize performance, BOM and area against the IVR baseline.
 *
 * This is the "multi-dimensional architecture-space exploration" use
 * case the paper positions PDNspot for (Sec. 3).
 *
 * Usage: design_space_explorer [cpu|gfx]   (default cpu)
 */

#include <iostream>
#include <string>

#include "common/table.hh"
#include "pdnspot/experiments.hh"
#include "pdnspot/platform.hh"
#include "workload/gfx_3dmark06.hh"
#include "workload/spec_cpu2006.hh"

using namespace pdnspot;

int
main(int argc, char **argv)
{
    const std::string flavor = argc > 1 ? argv[1] : "cpu";
    const bool graphics = flavor == "gfx";
    const WorkloadType type = graphics ? WorkloadType::Graphics
                                       : WorkloadType::MultiThread;

    Platform platform;

    std::cout << "Best PDN per (TDP, AR) cell on ETEE - "
              << toString(type) << " workloads\n\n";
    AsciiTable grid({"TDP \\ AR", "40%", "50%", "60%", "70%", "80%"});
    for (double tdp : evaluationTdpsW) {
        std::vector<std::string> row = {
            AsciiTable::num(tdp, 0) + "W"};
        for (double ar = 0.40; ar <= 0.801; ar += 0.10) {
            OperatingPointModel::Query q;
            q.tdp = watts(tdp);
            q.type = type;
            q.ar = ar;
            PlatformState s = platform.operatingPoints().build(q);

            PdnKind best = PdnKind::IVR;
            double best_etee = 0.0;
            for (PdnKind kind : allPdnKinds) {
                double etee = platform.pdn(kind).evaluate(s).etee();
                if (etee > best_etee) {
                    best_etee = etee;
                    best = kind;
                }
            }
            row.push_back(toString(best) + " (" +
                          AsciiTable::percent(best_etee, 0) + ")");
        }
        grid.addRow(row);
    }
    grid.print(std::cout);

    const auto &suite = graphics ? gfx3dmark06() : specCpu2006();
    std::cout << "\nSummary vs the IVR baseline ("
              << (graphics ? "3DMark06" : "SPEC CPU2006") << "):\n\n";
    AsciiTable summary({"TDP", "best perf PDN", "gain", "FlexWatts",
                        "FlexWatts BOM", "FlexWatts area"});
    ParallelRunner pool;
    for (double tdp : evaluationTdpsW) {
        PdnKind best = PdnKind::IVR;
        double best_perf = 1.0;
        for (PdnKind kind : allPdnKinds) {
            double perf = suiteMeanRelativePerf(
                platform, kind, watts(tdp), suite, pool);
            if (perf > best_perf) {
                best_perf = perf;
                best = kind;
            }
        }
        double flex = suiteMeanRelativePerf(
            platform, PdnKind::FlexWatts, watts(tdp), suite, pool);
        summary.addRow(
            {AsciiTable::num(tdp, 0) + "W", toString(best),
             AsciiTable::percent(best_perf - 1.0, 1),
             AsciiTable::percent(flex - 1.0, 1),
             AsciiTable::num(
                 normalizedBom(platform, PdnKind::FlexWatts,
                               watts(tdp)),
                 2) + "x",
             AsciiTable::num(
                 normalizedArea(platform, PdnKind::FlexWatts,
                                watts(tdp)),
                 2) + "x"});
    }
    summary.print(std::cout);
    return 0;
}
