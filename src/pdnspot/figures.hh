/**
 * @file
 * The paper's tables and figures: one row per artifact.
 *
 * Each row renders one file. The text tables (Table 1/2, Figs. 2-5,
 * Fig. 7, Fig. 8(a-e), the Sec. 6 switch-flow budget and the
 * extension studies) print as aligned plain text (.txt); the plotting
 * series (Fig. 4(a-j) ETEE vs AR and per C-state, the ETEE-vs-TDP
 * crossover, Fig. 8(d)/(e) BOM and area vs TDP) print as CSV (.csv).
 * The platform and the thread pool are passed in; a row prints the
 * same bytes at any pool size. examples/export_figures writes every
 * row to its file name, and tests/test_figures.cc pins each one
 * against tests/golden/figures/.
 */

#ifndef PDNSPOT_PDNSPOT_FIGURES_HH
#define PDNSPOT_PDNSPOT_FIGURES_HH

#include <ostream>
#include <span>

#include "common/parallel.hh"
#include "pdnspot/platform.hh"

namespace pdnspot
{

/** One paper artifact: its file name and the printer that renders it. */
struct Figure
{
    const char *name;
    void (*print)(std::ostream &os, const Platform &platform,
                  const ParallelRunner &runner);
};

/** Every figure, in paper order (tables, figures, extensions). */
std::span<const Figure> paperFigures();

} // namespace pdnspot

#endif // PDNSPOT_PDNSPOT_FIGURES_HH
