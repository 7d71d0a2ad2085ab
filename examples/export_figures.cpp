/**
 * @file
 * Export the paper's figure data as CSV files for plotting.
 *
 * Writes one CSV per figure panel into the given directory (default
 * "figures/"): ETEE-vs-AR panels (Fig. 4a-i axes), ETEE-vs-TDP
 * crossover curves, the C-state ladder (Fig. 4j), and the normalized
 * BOM/area series (Fig. 8d/8e).
 *
 * Usage: export_figures [output_dir]
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "pdnspot/experiments.hh"
#include "pdnspot/sweep.hh"

using namespace pdnspot;

namespace
{

void
writeFile(const std::filesystem::path &path, const SweepResult &r)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot open " + path.string());
    r.writeCsv(os);
    std::cout << "wrote " << path.string() << "\n";
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::filesystem::path dir = argc > 1 ? argv[1] : "figures";
    std::filesystem::create_directories(dir);

    Platform platform;
    ParallelRunner pool;
    SweepEngine engine(platform, pool);

    std::vector<PdnKind> all(allPdnKinds.begin(), allPdnKinds.end());
    std::vector<PdnKind> classic(classicPdnKinds.begin(),
                                 classicPdnKinds.end());
    std::vector<double> ars = {0.40, 0.45, 0.50, 0.55, 0.60,
                               0.65, 0.70, 0.75, 0.80};
    std::vector<double> tdps = {4, 6, 8, 10, 14, 18, 22,
                                25, 30, 36, 42, 50};

    // Fig. 4(a-i): ETEE vs AR per workload type and TDP.
    for (WorkloadType type :
         {WorkloadType::SingleThread, WorkloadType::MultiThread,
          WorkloadType::Graphics}) {
        for (double tdp : {4.0, 18.0, 50.0}) {
            auto r = engine.eteeVsAr(watts(tdp), type, ars, classic);
            writeFile(dir / ("fig4_etee_vs_ar_" + toString(type) +
                             "_" + std::to_string(int(tdp)) + "W.csv"),
                      r);
        }
    }

    // Crossover view: ETEE vs TDP for all five PDNs.
    writeFile(dir / "etee_vs_tdp_cpu.csv",
              engine.eteeVsTdp(WorkloadType::MultiThread, 0.56, tdps,
                               all));
    writeFile(dir / "etee_vs_tdp_gfx.csv",
              engine.eteeVsTdp(WorkloadType::Graphics, 0.56, tdps,
                               all));

    // Fig. 4(j): package C-state ladder.
    writeFile(dir / "fig4j_etee_vs_cstate.csv",
              engine.eteeVsCState(classic));

    // Fig. 8(d)/(e): normalized BOM and board area.
    std::vector<double> eval_tdps(evaluationTdpsW.begin(),
                                  evaluationTdpsW.end());
    writeFile(dir / "fig8d_bom_vs_tdp.csv",
              engine.bomVsTdp(eval_tdps, all));
    writeFile(dir / "fig8e_area_vs_tdp.csv",
              engine.areaVsTdp(eval_tdps, all));

    std::cout << "done.\n";
    return 0;
}
