#include "workload/trace_io.hh"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <system_error>

#include "common/csv.hh"
#include "common/logging.hh"
#include "config/json.hh"

namespace pdnspot
{

const char *const traceCsvHeader = "duration_s,cstate,type,ar";

namespace
{

constexpr size_t traceCsvColumns = 4;

/** fatal() a "source:line: message" error. */
[[noreturn]] void
failAt(const std::string &source, size_t line,
       const std::string &message)
{
    fatal(strprintf("%s:%zu: %s", source.c_str(), line,
                    message.c_str()));
}

double
csvNumberAt(const std::string &field, const char *what,
            const std::string &source, size_t line)
{
    double v = 0.0;
    const char *begin = field.data();
    const char *end = begin + field.size();
    auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc() || ptr != end)
        failAt(source, line,
               strprintf("%s: malformed number \"%s\"", what,
                         field.c_str()));
    return v;
}

/** The trace file at `path`, open; fatal() naming it otherwise. */
std::ifstream
openTraceFile(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    if (!file)
        fatal(strprintf("cannot open trace file \"%s\"",
                        path.c_str()));
    return file;
}

} // namespace

PhaseTrace
readTraceCsv(std::istream &is, const std::string &name,
             const std::string &sourceName)
{
    std::string line;
    if (!std::getline(is, line) || line != traceCsvHeader)
        failAt(sourceName, 1,
               strprintf("missing or unrecognized trace header "
                         "(expected \"%s\")",
                         traceCsvHeader));

    std::vector<TracePhase> phases;
    size_t lineNo = 1;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::vector<std::string> f = splitCsvLine(line);
        if (f.size() != traceCsvColumns)
            failAt(sourceName, lineNo,
                   strprintf("expected %zu columns "
                             "(duration_s,cstate,type,ar), got %zu",
                             traceCsvColumns, f.size()));

        TracePhase p;
        p.duration = seconds(
            csvNumberAt(f[0], "duration_s", sourceName, lineNo));
        try {
            p.cstate = parseName<PackageCState>(f[1]);
            p.type = parseName<WorkloadType>(f[2]);
        } catch (const ConfigError &e) {
            failAt(sourceName, lineNo, e.message());
        }
        p.ar = csvNumberAt(f[3], "ar", sourceName, lineNo);

        std::string problem = checkTracePhase(p);
        if (!problem.empty())
            failAt(sourceName, lineNo, problem);
        phases.push_back(p);
    }
    if (phases.empty())
        failAt(sourceName, lineNo,
               "trace has no phases (at least one row required)");
    return PhaseTrace(name, std::move(phases));
}

PhaseTrace
readTraceCsvFile(const std::string &path, const std::string &name)
{
    std::ifstream file = openTraceFile(path);
    return readTraceCsv(file, name, path);
}

void
writeTraceCsv(std::ostream &os, const PhaseTrace &trace)
{
    std::string buf = traceCsvHeader;
    buf += "\n";
    for (const TracePhase &p : trace.phases()) {
        buf += csvExactDouble(inSeconds(p.duration));
        buf += ",";
        buf += toString(p.cstate);
        buf += ",";
        buf += toString(p.type);
        buf += ",";
        buf += csvExactDouble(p.ar);
        buf += "\n";
    }
    os << buf;
}

PhaseTrace
traceFromJson(const JsonValue &root, const std::string &name)
{
    for (const JsonValue::Member &m : root.members()) {
        if (m.first != "phases")
            m.second.fail(strprintf("unknown trace key \"%s\" (a "
                                    "trace document has exactly one "
                                    "key, \"phases\")",
                                    m.first.c_str()));
    }
    const JsonValue *phasesValue = root.find("phases");
    if (!phasesValue)
        root.fail("missing required key \"phases\"");
    if (phasesValue->items().empty())
        phasesValue->fail("\"phases\" must hold at least one phase");

    std::vector<TracePhase> phases;
    for (const JsonValue &item : phasesValue->items()) {
        for (const JsonValue::Member &m : item.members()) {
            if (m.first != "duration_ms" && m.first != "cstate" &&
                m.first != "type" && m.first != "ar") {
                m.second.fail(strprintf(
                    "unknown phase key \"%s\" (valid keys: "
                    "duration_ms, cstate, type, ar)",
                    m.first.c_str()));
            }
        }
        for (const char *required : {"duration_ms", "cstate"}) {
            if (!item.find(required))
                item.fail(strprintf("missing required phase key "
                                    "\"%s\"",
                                    required));
        }

        TracePhase p;
        const JsonValue &duration = *item.find("duration_ms");
        p.duration = milliseconds(duration.asNumber());

        const JsonValue &cstate = *item.find("cstate");
        p.cstate = nameFromJson<PackageCState>(cstate);

        // "type" and "ar" describe what the compute domains run, so
        // they only make sense while the package is in C0; idle
        // phases follow the battery-life convention the synthetic
        // corpus uses everywhere.
        const JsonValue *type = item.find("type");
        const JsonValue *ar = item.find("ar");
        if (p.cstate == PackageCState::C0) {
            if (type)
                p.type = nameFromJson<WorkloadType>(*type);
            if (ar)
                p.ar = ar->asNumber();
        } else {
            const JsonValue *stray = type ? type : ar;
            if (stray)
                stray->fail(strprintf(
                    "\"%s\" is a C0-only field; %s phases take "
                    "neither \"type\" nor \"ar\"",
                    type ? "type" : "ar",
                    nameOf(p.cstate)));
            p.type = WorkloadType::BatteryLife;
            p.ar = 0.3;
        }

        std::string problem = checkTracePhase(p);
        if (!problem.empty())
            item.fail(problem);
        phases.push_back(p);
    }
    return PhaseTrace(name, std::move(phases));
}

PhaseTrace
readTraceJsonFile(const std::string &path, const std::string &name)
{
    std::ostringstream text;
    text << openTraceFile(path).rdbuf();
    return traceFromJson(parseJson(text.str(), path), name);
}

PhaseTrace
readTraceFile(const std::string &path, const std::string &name)
{
    // Bound the extension search to the basename: a dotted
    // directory component ("runs.2026/office") is not an extension.
    size_t slash = path.find_last_of("/\\");
    size_t dot = path.rfind('.');
    std::string ext;
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
        ext = path.substr(dot);
    }
    if (ext == ".csv")
        return readTraceCsvFile(path, name);
    if (ext == ".json")
        return readTraceJsonFile(path, name);
    fatal(strprintf("trace file \"%s\": unsupported extension "
                    "\"%s\" (expected .csv or .json)",
                    path.c_str(), ext.c_str()));
}

std::string
traceFileStem(const std::string &path)
{
    size_t slash = path.find_last_of("/\\");
    size_t start = slash == std::string::npos ? 0 : slash + 1;
    size_t dot = path.rfind('.');
    if (dot == std::string::npos || dot <= start)
        dot = path.size();
    return path.substr(start, dot - start);
}

} // namespace pdnspot
