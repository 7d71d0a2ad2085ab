/**
 * @file
 * Golden pins for the paper's tables and figures: every row of
 * paperFigures() (pdnspot/figures.hh) renders on the default platform
 * and must match tests/golden/figures/<name>.txt byte for byte, so a
 * figure that drifts fails here instead of merely printing. The pool
 * follows PDNSPOT_THREADS; a figure prints the same bytes at any
 * pool size.
 */

#include <memory>
#include <sstream>
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

class FigureTest : public ::testing::TestWithParam<Figure>
{
  protected:
    static void
    SetUpTestSuite()
    {
        platform = std::make_unique<Platform>();
    }
    static void TearDownTestSuite() { platform.reset(); }

    static std::unique_ptr<Platform> platform;
};

std::unique_ptr<Platform> FigureTest::platform;

TEST_P(FigureTest, MatchesGolden)
{
    ParallelRunner runner;
    std::ostringstream os;
    GetParam().print(os, *platform, runner);
    checkGolden(std::string("figures/") + GetParam().name + ".txt",
                os.str());
}

INSTANTIATE_TEST_SUITE_P(Paper, FigureTest,
                         ::testing::ValuesIn(paperFigures()));

} // namespace
} // namespace pdnspot
