/**
 * @file
 * The golden-file check shared by every suite that pins a byte-stable
 * surface against tests/golden/ (test_golden, test_fleet,
 * test_figures, test_pdn_topologies, test_store).
 *
 * Running with PDNSPOT_REGEN_GOLDEN=1 in the environment rewrites
 * the golden files from the current output instead of comparing
 * (scripts/regen_golden.sh drives that); review the diff before
 * committing a regeneration.
 */

#ifndef PDNSPOT_TESTS_GOLDEN_HH
#define PDNSPOT_TESTS_GOLDEN_HH

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace pdnspot
{

/**
 * Compare `actual` against the checked-in golden file, or rewrite
 * the file when regenerating.
 */
inline void
checkGolden(const std::string &fileName, const std::string &actual)
{
    std::string path =
        std::string(PDNSPOT_GOLDEN_DIR) + "/" + fileName;

    if (std::getenv("PDNSPOT_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        out.close();
        ASSERT_TRUE(out.good()) << "error writing " << path;
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — run scripts/regen_golden.sh";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << "output drifted from " << path
        << "; if the change is intentional, run "
        << "scripts/regen_golden.sh and review the diff";
}

} // namespace pdnspot

#endif // PDNSPOT_TESTS_GOLDEN_HH
