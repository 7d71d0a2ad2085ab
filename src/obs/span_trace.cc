#include "obs/span_trace.hh"

#include <algorithm>
#include <atomic>

#include "common/logging.hh"

namespace pdnspot
{

namespace
{

std::atomic<SpanRecorder *> g_installed{nullptr};

} // namespace

SpanRecorder::SpanRecorder(size_t capacity)
    : _origin(Clock::now()), _capacity(capacity)
{}

SpanRecorder::~SpanRecorder()
{
    if (g_installed.load(std::memory_order_relaxed) == this)
        panic("SpanRecorder destroyed while installed");
}

SpanRecorder *
SpanRecorder::current()
{
    return g_installed.load(std::memory_order_relaxed);
}

void
SpanRecorder::record(const char *name, const char *category,
                     Clock::time_point start)
{
    using Micros = std::chrono::duration<double, std::micro>;
    Clock::time_point end = Clock::now();
    double ts = Micros(start - _origin).count();
    double dur = Micros(end - start).count();
    std::thread::id self = std::this_thread::get_id();

    std::lock_guard<std::mutex> lock(_mutex);
    if (_spans.size() >= _capacity) {
        ++_dropped;
        return;
    }
    auto it = std::find(_threads.begin(), _threads.end(), self);
    if (it == _threads.end())
        it = _threads.insert(it, self);
    int tid = static_cast<int>(it - _threads.begin()) + 1;
    _spans.push_back(Span{name, category, ts, dur, tid});
}

size_t
SpanRecorder::spanCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans.size();
}

uint64_t
SpanRecorder::droppedSpans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _dropped;
}

JsonValue
traceProcessNameEvent(double pid, std::string name)
{
    std::vector<JsonValue::Member> args;
    args.emplace_back("name", JsonValue::makeString(std::move(name)));
    std::vector<JsonValue::Member> fields;
    fields.emplace_back("name",
                        JsonValue::makeString("process_name"));
    fields.emplace_back("ph", JsonValue::makeString("M"));
    fields.emplace_back("pid", JsonValue::makeNumber(pid));
    fields.emplace_back("tid", JsonValue::makeNumber(0.0));
    fields.emplace_back("args",
                        JsonValue::makeObject(std::move(args)));
    return JsonValue::makeObject(std::move(fields));
}

JsonValue
traceCounterEvent(std::string name, double tsMicros, double pid,
                  double value)
{
    std::vector<JsonValue::Member> args;
    args.emplace_back("value", JsonValue::makeNumber(value));
    std::vector<JsonValue::Member> fields;
    fields.emplace_back("name",
                        JsonValue::makeString(std::move(name)));
    fields.emplace_back("ph", JsonValue::makeString("C"));
    fields.emplace_back("ts", JsonValue::makeNumber(tsMicros));
    fields.emplace_back("pid", JsonValue::makeNumber(pid));
    fields.emplace_back("tid", JsonValue::makeNumber(0.0));
    fields.emplace_back("args",
                        JsonValue::makeObject(std::move(args)));
    return JsonValue::makeObject(std::move(fields));
}

JsonValue
traceEventDocument(std::vector<JsonValue> events)
{
    std::vector<JsonValue::Member> doc;
    doc.emplace_back("traceEvents",
                     JsonValue::makeArray(std::move(events)));
    doc.emplace_back("displayTimeUnit", JsonValue::makeString("ms"));
    return JsonValue::makeObject(std::move(doc));
}

JsonValue
SpanRecorder::traceEventsJson(const TraceEventExport &options) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    double pid = static_cast<double>(options.shardIndex);

    std::vector<JsonValue> events;
    if (!options.processName.empty()) {
        std::string label = options.processName;
        if (options.shardCount > 1)
            label += strprintf(" shard %zu/%zu", options.shardIndex,
                               options.shardCount);
        events.push_back(
            traceProcessNameEvent(pid, std::move(label)));
    }
    for (const Span &span : _spans) {
        std::vector<JsonValue::Member> fields;
        fields.emplace_back("name", JsonValue::makeString(span.name));
        fields.emplace_back("cat",
                            JsonValue::makeString(span.category));
        fields.emplace_back("ph", JsonValue::makeString("X"));
        fields.emplace_back("ts", JsonValue::makeNumber(span.tsMicros));
        fields.emplace_back("dur",
                            JsonValue::makeNumber(span.durMicros));
        fields.emplace_back("pid", JsonValue::makeNumber(pid));
        fields.emplace_back(
            "tid",
            JsonValue::makeNumber(static_cast<double>(span.tid)));
        events.push_back(JsonValue::makeObject(std::move(fields)));
    }

    for (const JsonValue &extra : options.extraEvents)
        events.push_back(extra);
    return traceEventDocument(std::move(events));
}

SpanInstallation::SpanInstallation(SpanRecorder &recorder)
    : _previous(g_installed.load(std::memory_order_relaxed))
{
    g_installed.store(&recorder, std::memory_order_relaxed);
}

SpanInstallation::~SpanInstallation()
{
    g_installed.store(_previous, std::memory_order_relaxed);
}

} // namespace pdnspot
