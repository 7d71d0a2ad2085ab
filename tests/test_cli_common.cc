/**
 * @file
 * The CLI helpers shared by every tool (tools/cli_common.hh):
 * strict locale-independent number parsing — including the
 * non-finite rejection every flag relies on — integer range
 * behavior, the progress-heartbeat line formatting, output files
 * and the exception-to-exit-code mapping.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>
#include <unistd.h>

#include "cli_common.hh"

namespace pdnspot
{
namespace
{

TEST(ParseDouble, AcceptsPlainNumbers)
{
    EXPECT_DOUBLE_EQ(*cli::parseDouble("3.5"), 3.5);
    EXPECT_DOUBLE_EQ(*cli::parseDouble("-0.25"), -0.25);
    EXPECT_DOUBLE_EQ(*cli::parseDouble("50"), 50.0);
    EXPECT_DOUBLE_EQ(*cli::parseDouble("1e3"), 1000.0);
    EXPECT_DOUBLE_EQ(*cli::parseDouble("0"), 0.0);
}

TEST(ParseDouble, RejectsNonFinite)
{
    // std::from_chars happily parses these; a CLI flag must not. A
    // NaN capacity sails through "<= 0" rejection (every NaN
    // comparison is false) and an infinite one passes it outright,
    // so the parse itself is where they die.
    EXPECT_FALSE(cli::parseDouble("nan").has_value());
    EXPECT_FALSE(cli::parseDouble("NaN").has_value());
    EXPECT_FALSE(cli::parseDouble("nan(ind)").has_value());
    EXPECT_FALSE(cli::parseDouble("inf").has_value());
    EXPECT_FALSE(cli::parseDouble("INF").has_value());
    EXPECT_FALSE(cli::parseDouble("-inf").has_value());
    EXPECT_FALSE(cli::parseDouble("infinity").has_value());
    EXPECT_FALSE(cli::parseDouble("1e999").has_value());
    EXPECT_FALSE(cli::parseDouble("-1e999").has_value());
}

TEST(ParseDouble, RejectsPartialAndJunk)
{
    EXPECT_FALSE(cli::parseDouble("").has_value());
    EXPECT_FALSE(cli::parseDouble("3,5").has_value());
    EXPECT_FALSE(cli::parseDouble("50J").has_value());
    EXPECT_FALSE(cli::parseDouble("watts").has_value());
    EXPECT_FALSE(cli::parseDouble(" 1").has_value());
    EXPECT_FALSE(cli::parseDouble("1 ").has_value());
    // from_chars' C grammar has no hex floats without a prefix
    // flag; "0x10" must stop at the 'x' and fail the whole-string
    // requirement rather than parse as 16 (or as 0 + junk).
    EXPECT_FALSE(cli::parseDouble("0x10").has_value());
}

TEST(ParseInt, WholeStringAndRange)
{
    EXPECT_EQ(*cli::parseInt<int>("42"), 42);
    EXPECT_EQ(*cli::parseInt<int>("-7"), -7);
    EXPECT_FALSE(cli::parseInt<int>("4.5").has_value());
    EXPECT_FALSE(cli::parseInt<int>("4x").has_value());
    EXPECT_FALSE(cli::parseInt<int>("").has_value());
    // Out of range is a parse failure, not a clamp or wrap.
    EXPECT_FALSE(cli::parseInt<int8_t>("200").has_value());
    EXPECT_FALSE(cli::parseInt<int>("99999999999999999999")
                     .has_value());
    // Unsigned targets reject signs outright.
    EXPECT_FALSE(cli::parseInt<unsigned>("-1").has_value());
    EXPECT_EQ(*cli::parseInt<uint64_t>("18446744073709551615"),
              UINT64_MAX);
}

TEST(FormatProgressLine, NormalRun)
{
    // 30 of 120 cells after 10 s: 3/s, 90 remaining, ETA 30 s.
    EXPECT_EQ(cli::formatProgressLine("tool", "cells", 30, 120,
                                      10.0),
              "tool: 30/120 cells (25%), 3 cells/s, ETA 30s");
}

TEST(FormatProgressLine, StalledRunShowsNoEta)
{
    // Nothing done yet: the rate is 0 and the ETA unknowable. The
    // old formatter printed "ETA 0s" here — the one message a
    // stalled shard must never show.
    std::string line =
        cli::formatProgressLine("tool", "cells", 0, 120, 10.0);
    EXPECT_NE(line.find("ETA --"), std::string::npos) << line;
    EXPECT_EQ(line.find("ETA 0s"), std::string::npos) << line;
}

TEST(FormatProgressLine, ZeroElapsedShowsNoEta)
{
    std::string line =
        cli::formatProgressLine("tool", "cells", 30, 120, 0.0);
    EXPECT_NE(line.find("ETA --"), std::string::npos) << line;
}

TEST(FormatProgressLine, UnknownTotalShowsPlainCount)
{
    // A zero total used to render "7/0 (100%)"; now it's a count.
    std::string line =
        cli::formatProgressLine("tool", "shards", 7, 0, 2.0);
    EXPECT_NE(line.find("7 shards"), std::string::npos) << line;
    EXPECT_EQ(line.find('%'), std::string::npos) << line;
    EXPECT_EQ(line.find("100"), std::string::npos) << line;
    EXPECT_NE(line.find("ETA --"), std::string::npos) << line;
}

const cli::ToolInfo testTool{"tool", "usage: tool\n"};

TEST(OutputFile, DashIsStdout)
{
    cli::OutputFile out("-", "output");
    EXPECT_TRUE(out.isStdout());
    EXPECT_EQ(&out.stream(), &std::cout);
    out.finish();
}

TEST(OutputFile, WritesAndClosesAFile)
{
    std::string path = (std::filesystem::temp_directory_path() /
                        ("pdnspot_cli_out_" +
                         std::to_string(::getpid()) + ".txt"))
                           .string();
    {
        cli::OutputFile out(path, "output");
        EXPECT_FALSE(out.isStdout());
        out.stream() << "rows\n";
        out.finish();
    }
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), "rows\n");
    std::filesystem::remove(path);
}

TEST(OutputFile, UnwritablePathThrowsNamingIt)
{
    const std::string path = "/nonexistent-pdnspot-dir/out.csv";
    try {
        cli::OutputFile out(path, "report");
        FAIL() << "opened an unwritable path";
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "fatal: cannot open report file \"" + path + "\"");
    }
}

TEST(RunMain, PassesTheBodysExitCodeThrough)
{
    EXPECT_EQ(cli::runMain(testTool, [] { return 0; }), 0);
    EXPECT_EQ(cli::runMain(testTool, [] { return 7; }), 7);
}

TEST(RunMain, ConfigErrorExitsOne)
{
    testing::internal::CaptureStderr();
    int code = cli::runMain(testTool, []() -> int {
        fatal("bad spec.json:3:5: nope");
    });
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 1);
    EXPECT_EQ(err, "tool: fatal: bad spec.json:3:5: nope\n");
}

TEST(RunMain, AnyOtherExceptionIsAnInternalErrorExitingThree)
{
    testing::internal::CaptureStderr();
    int code = cli::runMain(testTool, []() -> int {
        panic("invariant broken");
    });
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 3);
    EXPECT_EQ(err, "tool: internal error: panic: invariant broken\n");

    testing::internal::CaptureStderr();
    code = cli::runMain(testTool, []() -> int {
        throw std::runtime_error("disk on fire");
    });
    err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 3);
    EXPECT_EQ(err, "tool: internal error: disk on fire\n");
}

} // namespace
} // namespace pdnspot
