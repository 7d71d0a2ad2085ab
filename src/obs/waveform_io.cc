#include "obs/waveform_io.hh"

#include <istream>

#include "common/csv.hh"
#include "common/logging.hh"
#include "obs/span_trace.hh"

namespace pdnspot
{

namespace
{

constexpr size_t fixedColumns = 4; ///< record, phase, t_s, duration_s

/** The record kind of an event row and the name of its instant
 * trace event. */
constexpr const char *modeSwitchRecord = "mode_switch";

/** fatal() a "source:line: message" error. */
[[noreturn]] void
failAt(const std::string &source, size_t line,
       const std::string &message)
{
    fatal(strprintf("%s:%zu: %s", source.c_str(), line,
                    message.c_str()));
}

std::string
headerFor(const std::vector<ProbeSignal> &signals)
{
    std::string header = "record,phase,t_s,duration_s";
    for (ProbeSignal s : signals) {
        header += ",";
        header += toString(s);
    }
    header += ",detail";
    return header;
}

} // namespace

std::string
writeWaveformCsv(const Waveform &waveform)
{
    std::string buf = headerFor(waveform.signals);
    buf += "\n";
    for (const WaveformRow &row : waveform.rows) {
        buf += "sample,";
        buf += std::to_string(row.phase);
        buf += ",";
        buf += csvExactDouble(inSeconds(row.start));
        buf += ",";
        buf += csvExactDouble(inSeconds(row.duration));
        for (double v : row.values) {
            buf += ",";
            buf += csvExactDouble(v);
        }
        buf += ",\n"; // empty detail
    }
    for (const WaveformEvent &e : waveform.events) {
        buf += modeSwitchRecord;
        buf += ",";
        buf += std::to_string(e.phase);
        buf += ",";
        buf += csvExactDouble(inSeconds(e.t));
        // Empty duration and signal fields.
        buf.append(waveform.signals.size() + 1, ',');
        buf += ",";
        buf += e.detail;
        buf += "\n";
    }
    return buf;
}

Waveform
readWaveformCsv(std::istream &is, const std::string &sourceName)
{
    std::string line;
    if (!std::getline(is, line))
        failAt(sourceName, 1, "missing waveform header");
    std::vector<std::string> head = splitCsvLine(line);
    if (head.size() < fixedColumns + 1 || head[0] != "record" ||
        head[1] != "phase" || head[2] != "t_s" ||
        head[3] != "duration_s" || head.back() != "detail") {
        failAt(sourceName, 1,
               "unrecognized waveform header (expected "
               "\"record,phase,t_s,duration_s,<signals>,detail\")");
    }

    Waveform w;
    for (size_t i = fixedColumns; i + 1 < head.size(); ++i) {
        try {
            w.signals.push_back(parseName<ProbeSignal>(head[i]));
        } catch (const ConfigError &e) {
            failAt(sourceName, 1, e.message());
        }
    }

    size_t columns = fixedColumns + w.signals.size() + 1;
    size_t lineNo = 1;
    bool sawEvent = false;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::vector<std::string> f = splitCsvLine(line);
        if (f.size() != columns)
            failAt(sourceName, lineNo,
                   strprintf("expected %zu columns, got %zu",
                             columns, f.size()));

        uint64_t phase = 0;
        try {
            phase = static_cast<uint64_t>(csvToDouble(f[1]));
        } catch (const ConfigError &e) {
            failAt(sourceName, lineNo, e.message());
        }

        if (f[0] == "sample") {
            if (sawEvent)
                failAt(sourceName, lineNo,
                       "sample row after an event row (samples "
                       "precede events)");
            WaveformRow row;
            row.phase = phase;
            try {
                row.start = seconds(csvToDouble(f[2]));
                row.duration = seconds(csvToDouble(f[3]));
                for (size_t i = 0; i < w.signals.size(); ++i)
                    row.values.push_back(
                        csvToDouble(f[fixedColumns + i]));
            } catch (const ConfigError &e) {
                failAt(sourceName, lineNo, e.message());
            }
            if (!f.back().empty())
                failAt(sourceName, lineNo,
                       "sample row with a non-empty detail field");
            w.rows.push_back(std::move(row));
        } else if (f[0] == modeSwitchRecord) {
            sawEvent = true;
            WaveformEvent e;
            e.phase = phase;
            try {
                e.t = seconds(csvToDouble(f[2]));
            } catch (const ConfigError &err) {
                failAt(sourceName, lineNo, err.message());
            }
            for (size_t i = 3; i + 1 < f.size(); ++i) {
                if (!f[i].empty())
                    failAt(sourceName, lineNo,
                           "event row with non-empty signal fields");
            }
            e.detail = f.back();
            w.events.push_back(std::move(e));
        } else {
            failAt(sourceName, lineNo,
                   strprintf("unknown record kind \"%s\" (expected one "
                             "of sample, %s)",
                             f[0].c_str(), modeSwitchRecord));
        }
    }
    return w;
}

std::vector<JsonValue>
waveformCounterEvents(const Waveform &waveform)
{
    double pid = static_cast<double>(probeCounterPidBase +
                                     waveform.cellIndex);
    std::vector<JsonValue> events;
    events.reserve(1 + waveform.rows.size() * waveform.signals.size() +
                   waveform.events.size());

    events.push_back(traceProcessNameEvent(
        pid, "probe " + waveform.trace + "/" + waveform.platform +
                 "/" + waveform.pdn + "/" + waveform.mode));
    for (const WaveformRow &row : waveform.rows) {
        for (size_t i = 0; i < waveform.signals.size(); ++i)
            events.push_back(traceCounterEvent(
                toString(waveform.signals[i]),
                inMicroseconds(row.start), pid, row.values[i]));
    }

    for (const WaveformEvent &e : waveform.events) {
        std::vector<JsonValue::Member> args;
        args.emplace_back("detail",
                          JsonValue::makeString(e.detail));
        std::vector<JsonValue::Member> fields;
        fields.emplace_back("name",
                            JsonValue::makeString(modeSwitchRecord));
        fields.emplace_back("ph", JsonValue::makeString("i"));
        fields.emplace_back("s", JsonValue::makeString("p"));
        fields.emplace_back(
            "ts", JsonValue::makeNumber(inMicroseconds(e.t)));
        fields.emplace_back("pid", JsonValue::makeNumber(pid));
        fields.emplace_back("tid", JsonValue::makeNumber(0.0));
        fields.emplace_back("args",
                            JsonValue::makeObject(std::move(args)));
        events.push_back(JsonValue::makeObject(std::move(fields)));
    }
    return events;
}

} // namespace pdnspot
