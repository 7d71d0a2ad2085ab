#include "obs/waveform_io.hh"

#include "common/csv.hh"
#include "obs/span_trace.hh"

namespace pdnspot
{

namespace
{

/** The record kind of an event row and the name of its instant
 * trace event. */
constexpr const char *modeSwitchRecord = "mode_switch";

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
