/**
 * @file
 * Export the paper's tables and figure data.
 *
 * Writes into the given directory (default "figures/") one CSV per
 * figure panel for plotting: ETEE-vs-AR panels (Fig. 4a-i axes),
 * ETEE-vs-TDP crossover curves, the C-state ladder (Fig. 4j), and
 * the normalized BOM/area series (Fig. 8d/8e). Next to them, every
 * table of pdnspot/figures.hh (Tables 1-2, Figs. 2-8, Sec. 6 and the
 * extension studies) as <name>.txt, the text tests/golden/figures/
 * pins.
 *
 * Usage: export_figures [output_dir]
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "pdnspot/experiments.hh"
#include "pdnspot/figures.hh"
#include "pdnspot/sweep.hh"

using namespace pdnspot;

namespace
{

/** Write one output file through `write`, then report it. */
template <class Write>
void
writeFile(const std::filesystem::path &path, Write write)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot open " + path.string());
    write(os);
    std::cout << "wrote " << path.string() << "\n";
}

void
writeFile(const std::filesystem::path &path, const SweepResult &r)
{
    writeFile(path, [&](std::ostream &os) { r.writeCsv(os); });
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

    // Tables 1-2, Figs. 2-8, Sec. 6 and the extension studies as text.
    for (const Figure &figure : paperFigures()) {
        writeFile(dir / (std::string(figure.name) + ".txt"),
                  [&](std::ostream &os) {
                      figure.print(os, platform, pool);
                  });
    }

    std::cout << "done.\n";
    return 0;
}
