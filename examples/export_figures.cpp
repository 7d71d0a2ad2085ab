/**
 * @file
 * Export the paper's tables and figure data.
 *
 * Writes every row of pdnspot/figures.hh into the given directory
 * (default "figures/") under the row's file name: the text tables
 * (Tables 1-2, Figs. 2-8, Sec. 6 and the extension studies) as .txt
 * and the plotting series (Fig. 4a-j, the ETEE-vs-TDP crossover,
 * Fig. 8d/8e) as .csv. tests/golden/figures/ holds the same files.
 *
 * Usage: export_figures [output_dir]
 * Exits 1, naming the path, when the directory or a file cannot be
 * created or written.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <system_error>

#include "pdnspot/figures.hh"

using namespace pdnspot;

int
main(int argc, char **argv)
{
    std::filesystem::path dir = argc > 1 ? argv[1] : "figures";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::cerr << "export_figures: cannot create " << dir.string()
                  << ": " << ec.message() << "\n";
        return 1;
    }

    Platform platform;
    ParallelRunner pool;
    for (const Figure &figure : paperFigures()) {
        std::filesystem::path path = dir / figure.name;
        std::ofstream os(path);
        if (!os) {
            std::cerr << "export_figures: cannot open " << path.string()
                      << "\n";
            return 1;
        }
        figure.print(os, platform, pool);
        os.close();
        if (!os) {
            std::cerr << "export_figures: cannot write "
                      << path.string() << "\n";
            return 1;
        }
        std::cout << "wrote " << path.string() << "\n";
    }

    std::cout << "done.\n";
    return 0;
}
