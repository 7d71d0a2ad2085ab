/**
 * @file
 * The paper's tables and figures as text: one row per artifact.
 *
 * Each figure renders Table 1/2, Figs. 2-5, Fig. 7, Fig. 8(a-e), the
 * Sec. 6 switch-flow budget or one of the extension studies as
 * aligned plain-text tables. The platform and the thread pool are
 * passed in; a figure prints the same bytes at any pool size.
 * examples/export_figures writes every figure to <name>.txt, and
 * tests/test_figures.cc pins each one against tests/golden/figures/.
 */

#ifndef PDNSPOT_PDNSPOT_FIGURES_HH
#define PDNSPOT_PDNSPOT_FIGURES_HH

#include <ostream>
#include <span>

#include "common/parallel.hh"
#include "pdnspot/platform.hh"

namespace pdnspot
{

/** One paper artifact: a file stem and the printer that renders it. */
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
