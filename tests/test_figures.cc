/**
 * @file
 * Golden pins for the paper's tables and figures: every row of
 * paperFigures() (pdnspot/figures.hh) renders on the default platform
 * and must match tests/golden/figures/<name> byte for byte, so a
 * figure that drifts fails here instead of merely printing. The pool
 * follows PDNSPOT_THREADS; a figure prints the same bytes at any
 * pool size: FigureDeterminismTest checks that for the text tables,
 * and SweepDeterminismTest (test_parallel.cc) for the CSV series.
 */

#include <locale>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "golden.hh"
#include "pdnspot/figures.hh"

namespace pdnspot
{

/**
 * Print a figure as its name: gtest reports a case's parameter this
 * way, and CTest names each case Paper/FigureTest.MatchesGolden/<name>.
 */
void
PrintTo(const Figure &figure, std::ostream *os)
{
    *os << figure.name;
}

namespace
{

/** The default platform every figure renders on, built once. */
const Platform &
platform()
{
    static const Platform p;
    return p;
}

std::string
render(const Figure &figure, const ParallelRunner &runner)
{
    std::ostringstream os;
    figure.print(os, platform(), runner);
    return os.str();
}

class FigureTest : public ::testing::TestWithParam<Figure>
{};

TEST_P(FigureTest, MatchesGolden)
{
    ParallelRunner runner;
    checkGolden(std::string("figures/") + GetParam().name,
                render(GetParam(), runner));
}

INSTANTIATE_TEST_SUITE_P(Paper, FigureTest,
                         ::testing::ValuesIn(paperFigures()));

TEST(FigureDeterminismTest, TextRowsIdenticalAcrossThreadCounts)
{
    ParallelRunner serial(1);
    ParallelRunner pool(8);
    for (const Figure &figure : paperFigures()) {
        if (!std::string(figure.name).ends_with(".txt"))
            continue;
        EXPECT_EQ(render(figure, serial), render(figure, pool))
            << figure.name;
    }
}

/** numpunct facet emulating a comma-decimal locale (e.g. de_DE). */
class CommaDecimal : public std::numpunct<char>
{
  protected:
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
};

/** The Fig. 8(d) BOM-vs-TDP series row. */
const Figure &
bomSeries()
{
    for (const Figure &figure : paperFigures()) {
        if (std::string(figure.name) == "fig8d_bom_vs_tdp.csv")
            return figure;
    }
    throw std::logic_error("fig8d_bom_vs_tdp.csv is not a figure row");
}

TEST(SweepCsvTest, FormattingIgnoresStreamLocale)
{
    ParallelRunner runner(1);
    std::string classic = render(bomSeries(), runner);

    std::ostringstream os;
    os.imbue(std::locale(os.getloc(), new CommaDecimal));
    bomSeries().print(os, platform(), runner);

    // '.' decimal points, no digit grouping, ',' only as separator.
    EXPECT_EQ(os.str(), classic);
    EXPECT_NE(classic.find("\n4,1,"), std::string::npos) << classic;
    EXPECT_NE(classic.find('.'), std::string::npos) << classic;
}

TEST(SweepCsvTest, FormattingIgnoresGlobalLocale)
{
    ParallelRunner runner(1);
    std::string classic = render(bomSeries(), runner);

    std::locale saved = std::locale::global(
        std::locale(std::locale::classic(), new CommaDecimal));
    // A stream made now takes the comma-decimal global locale.
    std::ostringstream os;
    bomSeries().print(os, platform(), runner);
    std::locale::global(saved);

    EXPECT_EQ(os.str(), classic);
}

} // namespace
} // namespace pdnspot
