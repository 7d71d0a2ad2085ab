/**
 * @file
 * Unit tests for logging, noise, and the table/CSV emitters.
 */

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <system_error>

#include <gtest/gtest.h>

#include "common/csv.hh"
#include "common/logging.hh"
#include "common/noise.hh"
#include "common/table.hh"

namespace pdnspot
{
namespace
{

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
    EXPECT_EQ(strprintf("plain"), "plain");
}

TEST(Logging, FatalThrowsConfigError)
{
    EXPECT_THROW(fatal("bad config"), ConfigError);
    try {
        fatal("bad config");
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("bad config"),
                  std::string::npos);
    }
}

TEST(Logging, PanicThrowsModelError)
{
    EXPECT_THROW(panic("impossible"), ModelError);
}

TEST(Noise, DeterministicAcrossInstances)
{
    HashNoise a(7), b(7);
    for (uint64_t k = 0; k < 50; ++k)
        EXPECT_DOUBLE_EQ(a.signedUnit(k), b.signedUnit(k));
}

TEST(Noise, SeedsDiffer)
{
    HashNoise a(1), b(2);
    int same = 0;
    for (uint64_t k = 0; k < 100; ++k)
        if (a.signedUnit(k) == b.signedUnit(k))
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Noise, SignedUnitBounded)
{
    HashNoise n(99);
    double sum = 0.0;
    for (uint64_t k = 0; k < 1000; ++k) {
        double v = n.signedUnit(k);
        EXPECT_GE(v, -1.0);
        EXPECT_LE(v, 1.0);
        sum += v;
    }
    // A fair generator averages near zero.
    EXPECT_NEAR(sum / 1000.0, 0.0, 0.08);
}

TEST(Noise, UnitInHalfOpenRange)
{
    HashNoise n(5);
    for (uint64_t k = 0; k < 1000; ++k) {
        double v = n.unit(k);
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Noise, StringKeysStable)
{
    HashNoise n(11);
    EXPECT_DOUBLE_EQ(n.signedUnit("IVR-trace-3"),
                     n.signedUnit("IVR-trace-3"));
    EXPECT_NE(n.signedUnit("IVR-trace-3"), n.signedUnit("IVR-trace-4"));
}

TEST(AsciiTable, AlignsAndCounts)
{
    AsciiTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "23456"});
    EXPECT_EQ(t.rows(), 2u);

    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
    EXPECT_NE(out.find("23456"), std::string::npos);
}

TEST(AsciiTable, RejectsRaggedRows)
{
    AsciiTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), ConfigError);
}

TEST(AsciiTable, NumberFormatting)
{
    EXPECT_EQ(AsciiTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(AsciiTable::num(2.0, 0), "2");
    EXPECT_EQ(AsciiTable::percent(0.224, 1), "22.4%");
}

TEST(CsvWriter, EscapesSpecials)
{
    CsvWriter w({"k", "v"});
    w.addRow({"a,b", "say \"hi\""});
    std::ostringstream os;
    w.write(os);
    EXPECT_EQ(os.str(), "k,v\n\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(CsvWriter, PlainRows)
{
    CsvWriter w({"x"});
    w.addRow({"1"});
    w.addRow({"2"});
    std::ostringstream os;
    w.write(os);
    EXPECT_EQ(os.str(), "x\n1\n2\n");
}

/** std::from_chars(csvExactDouble(v)) must consume the whole text
 * and give back v's exact bits. */
void
expectParsesBackBitForBit(double v)
{
    std::string text = csvExactDouble(v);
    double back = 0.0;
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), back);
    ASSERT_EQ(ec, std::errc()) << text;
    ASSERT_EQ(ptr, text.data() + text.size()) << text;
    EXPECT_EQ(std::bit_cast<uint64_t>(back), std::bit_cast<uint64_t>(v))
        << text;
}

TEST(CsvWriter, ExactDoubleParsesBackBitForBit)
{
    using limits = std::numeric_limits<double>;
    constexpr uint64_t expMask = 0x7ffULL << 52;
    constexpr uint64_t fracMask = (1ULL << 52) - 1;
    // Seeded bit patterns: every exponent and both signs, NaN and
    // infinity (all-ones exponent) left out.
    size_t tested = 0;
    for (uint64_t k = 0; tested < 20000; ++k) {
        uint64_t bits = HashNoise::mix(k);
        if ((bits & expMask) == expMask)
            continue;
        expectParsesBackBitForBit(std::bit_cast<double>(bits));
        ++tested;
    }
    // Subnormals: a zero exponent and a seeded fraction, both signs.
    for (uint64_t k = 0; k < 2000; ++k) {
        uint64_t bits = HashNoise::mix(k + (1ULL << 40)) & ~expMask;
        if ((bits & fracMask) == 0)
            continue;
        ASSERT_EQ(std::fpclassify(std::bit_cast<double>(bits)),
                  FP_SUBNORMAL);
        expectParsesBackBitForBit(std::bit_cast<double>(bits));
    }
    for (double v : {limits::denorm_min(), -limits::denorm_min(),
                     limits::min() - limits::denorm_min(), 0.0, -0.0,
                     limits::max(), -limits::max(), limits::min(), 0.1,
                     1.0 / 3.0})
        expectParsesBackBitForBit(v);
}

} // anonymous namespace
} // namespace pdnspot
