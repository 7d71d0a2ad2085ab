/**
 * @file
 * File-backed trace import/export tests: the CSV
 * write -> read -> write byte fixpoint, positional errors from
 * malformed CSV rows and JSON trace documents, and the
 * TracePhase-validity checks at the import boundary.
 */

#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "config/json.hh"
#include "workload/trace_generator.hh"
#include "workload/trace_io.hh"

namespace pdnspot
{
namespace
{

/** One-line ConfigError carrying `position` and `needle`. */
void
expectTraceError(const std::function<void()> &parse,
                 const std::string &needle,
                 const std::string &position)
{
    try {
        parse();
        FAIL() << "no error raised (wanted \"" << needle << "\")";
    } catch (const ConfigError &e) {
        std::string what = e.what();
        EXPECT_EQ(what.find('\n'), std::string::npos)
            << "multi-line error: " << what;
        EXPECT_NE(what.find(position), std::string::npos)
            << "expected position \"" << position
            << "\" in: " << what;
        EXPECT_NE(what.find(needle), std::string::npos)
            << "expected \"" << needle << "\" in: " << what;
    }
}

void
expectCsvError(const std::string &body, const std::string &needle,
               const std::string &position)
{
    expectTraceError(
        [&] {
            std::istringstream is(body);
            readTraceCsv(is, "t", "trace.csv");
        },
        needle, position);
}

void
expectJsonTraceError(const std::string &text,
                     const std::string &needle,
                     const std::string &position = "trace.json:")
{
    expectTraceError(
        [&] {
            traceFromJson(parseJson(text, "trace.json"), "t");
        },
        needle, position);
}

TEST(TraceCsvTest, WriteReadWriteIsAByteFixpoint)
{
    TraceGenerator gen(9);
    for (const PhaseTrace &trace :
         {gen.burstyCompute(5, milliseconds(8.0), milliseconds(20.0)),
          gen.randomMix(40, milliseconds(12.0)),
          gen.dayInTheLife()}) {
        std::stringstream first;
        writeTraceCsv(first, trace);

        PhaseTrace reread = readTraceCsv(first, trace.name(), "mem");
        EXPECT_EQ(reread, trace);

        std::stringstream second;
        writeTraceCsv(second, reread);
        EXPECT_EQ(second.str(), first.str());
    }
}

TEST(TraceCsvTest, FileRoundTripPreservesPhases)
{
    std::string path = testing::TempDir() + "roundtrip_trace.csv";
    PhaseTrace trace =
        TraceGenerator(3).burstyCompute(3, milliseconds(5.0),
                                        milliseconds(10.0));
    {
        std::ofstream out(path, std::ios::binary);
        writeTraceCsv(out, trace);
    }
    PhaseTrace reread = readTraceCsvFile(path, trace.name());
    EXPECT_EQ(reread, trace);
}

TEST(TraceCsvTest, RejectsMalformedInputWithLinePositions)
{
    expectCsvError("nope\n", "unrecognized trace header",
                   "trace.csv:1");
    expectCsvError("duration_s,cstate,type,ar\n", "no phases",
                   "trace.csv:1");
    expectCsvError("duration_s,cstate,type,ar\n0.1,C0\n",
                   "expected 4 columns", "trace.csv:2");
    expectCsvError("duration_s,cstate,type,ar\n"
                   "0.1,C0,multi-thread,0.5\n"
                   "zap,C0,multi-thread,0.5\n",
                   "malformed number \"zap\"", "trace.csv:3");
    expectCsvError("duration_s,cstate,type,ar\n"
                   "0.1,C9,multi-thread,0.5\n",
                   "unknown C-state \"C9\"", "trace.csv:2");
    expectCsvError("duration_s,cstate,type,ar\n"
                   "0.1,C0,turbo,0.5\n",
                   "unknown workload type \"turbo\"", "trace.csv:2");
}

TEST(TraceCsvTest, RejectsInvalidPhaseFieldsWithLinePositions)
{
    expectCsvError("duration_s,cstate,type,ar\n"
                   "-0.1,C0,multi-thread,0.5\n",
                   "duration must be positive", "trace.csv:2");
    expectCsvError("duration_s,cstate,type,ar\n"
                   "0,C0,multi-thread,0.5\n",
                   "duration must be positive", "trace.csv:2");
    expectCsvError("duration_s,cstate,type,ar\n"
                   "0.1,C0,multi-thread,1.5\n",
                   "activity ratio must be in [0, 1]",
                   "trace.csv:2");
}

TEST(TraceJsonTest, BindsActiveAndIdlePhases)
{
    PhaseTrace trace = traceFromJson(
        parseJson(R"({"phases": [
          {"duration_ms": 40.0, "cstate": "C0",
           "type": "single-thread", "ar": 0.45},
          {"duration_ms": 5.0, "cstate": "C0"},
          {"duration_ms": 120.0, "cstate": "C8"}
        ]})",
                  "trace.json"),
        "office");

    ASSERT_EQ(trace.phases().size(), 3u);
    EXPECT_EQ(trace.name(), "office");
    EXPECT_EQ(trace.phases()[0].duration, milliseconds(40.0));
    EXPECT_EQ(trace.phases()[0].type, WorkloadType::SingleThread);
    EXPECT_DOUBLE_EQ(trace.phases()[0].ar, 0.45);
    // C0 without explicit fields keeps the TracePhase defaults.
    EXPECT_EQ(trace.phases()[1].type, TracePhase{}.type);
    EXPECT_DOUBLE_EQ(trace.phases()[1].ar, TracePhase{}.ar);
    // Idle phases follow the battery-life convention.
    EXPECT_EQ(trace.phases()[2].cstate, PackageCState::C8);
    EXPECT_EQ(trace.phases()[2].type, WorkloadType::BatteryLife);
    EXPECT_DOUBLE_EQ(trace.phases()[2].ar, 0.3);
}

TEST(TraceJsonTest, RejectsBadDocumentsWithPositions)
{
    expectJsonTraceError(R"({})", "missing required key \"phases\"");
    expectJsonTraceError(R"({"phases": []})", "at least one phase");
    expectJsonTraceError(R"({"phases": [], "bogus": 1})",
                         "unknown trace key \"bogus\"");
    expectJsonTraceError(
        R"({"phases": [{"cstate": "C0"}]})",
        "missing required phase key \"duration_ms\"");
    expectJsonTraceError(R"({"phases": [{"duration_ms": 5}]})",
                         "missing required phase key \"cstate\"");
    expectJsonTraceError(
        R"({"phases": [{"duration_ms": 5, "cstate": "C0",
                        "freq": 3.0}]})",
        "unknown phase key \"freq\"");
    expectJsonTraceError(
        R"({"phases": [{"duration_ms": 5, "cstate": "C1"}]})",
        "unknown C-state \"C1\"");
}

TEST(TraceJsonTest, RejectsInvalidPhaseValuesWithPositions)
{
    expectJsonTraceError(
        R"({"phases": [{"duration_ms": -5, "cstate": "C0"}]})",
        "duration must be positive");
    expectJsonTraceError(
        R"({"phases": [{"duration_ms": 5, "cstate": "C0",
                        "ar": 1.5}]})",
        "activity ratio must be in [0, 1]");
}

TEST(TraceJsonTest, RejectsC0OnlyFieldsOnIdlePhases)
{
    expectJsonTraceError(
        R"({"phases": [{"duration_ms": 5, "cstate": "C8",
                        "ar": 0.5}]})",
        "\"ar\" is a C0-only field");
    expectJsonTraceError(
        R"({"phases": [{"duration_ms": 5, "cstate": "C6",
                        "type": "graphics"}]})",
        "\"type\" is a C0-only field");
    expectJsonTraceError(
        R"({"phases": [{"duration_ms": 5, "cstate": "C0MIN",
                        "ar": 0.2}]})",
        "C0MIN phases take neither");
}

TEST(TraceFileTest, DispatchesOnExtension)
{
    std::string dir = testing::TempDir();

    std::string csvPath = dir + "dispatch_trace.csv";
    {
        std::ofstream out(csvPath, std::ios::binary);
        out << "duration_s,cstate,type,ar\n"
               "0.25,C0,multi-thread,0.71\n";
    }
    PhaseTrace fromCsv = readTraceFile(csvPath, "by-csv");
    EXPECT_EQ(fromCsv.name(), "by-csv");
    ASSERT_EQ(fromCsv.phases().size(), 1u);
    EXPECT_EQ(fromCsv.phases()[0].type, WorkloadType::MultiThread);

    std::string jsonPath = dir + "dispatch_trace.json";
    {
        std::ofstream out(jsonPath, std::ios::binary);
        out << R"({"phases": [{"duration_ms": 250.0,
                               "cstate": "C0",
                               "type": "multi-thread",
                               "ar": 0.71}]})";
    }
    PhaseTrace fromJson = readTraceFile(jsonPath, "by-json");
    EXPECT_EQ(fromJson.phases(), fromCsv.phases());

    EXPECT_THROW(readTraceFile(dir + "trace.xml", "t"), ConfigError);
    EXPECT_THROW(readTraceFile(dir + "no_such_trace.csv", "t"),
                 ConfigError);
}

TEST(TraceFileTest, MissingFilesAreNamedAsTraceFiles)
{
    // Both formats word an unopenable file alike, as a trace file.
    for (const char *ext : {".csv", ".json"}) {
        std::string path = testing::TempDir() + "no_such_trace" + ext;
        try {
            readTraceFile(path, "t");
            FAIL() << "no error for " << path;
        } catch (const ConfigError &e) {
            EXPECT_EQ(e.message(),
                      "cannot open trace file \"" + path + "\"");
        }
    }
}

TEST(TraceFileTest, FileStemDerivesDefaultNames)
{
    EXPECT_EQ(traceFileStem("traces/office_burst.csv"),
              "office_burst");
    EXPECT_EQ(traceFileStem("/a/b/c.json"), "c");
    EXPECT_EQ(traceFileStem("plain"), "plain");
    EXPECT_EQ(traceFileStem(".hidden"), ".hidden");
}

} // namespace
} // namespace pdnspot
