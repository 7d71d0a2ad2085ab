#include "obs/span_trace.hh"

#include <atomic>

#include "common/logging.hh"

namespace pdnspot
{

namespace
{

/**
 * Installation state: the span epoch increments on every
 * install/uninstall so a thread's cached log pointer detects
 * staleness with one comparison and never aliases a recorder
 * reallocated at the same address.
 */
std::atomic<SpanRecorder *> g_installed{nullptr};
std::atomic<uint64_t> g_spanEpoch{0};

struct ThreadSlot
{
    SpanRecorder *recorder = nullptr;
    uint64_t epoch = 0;
    void *log = nullptr;
};

ThreadSlot &
threadSlot()
{
    thread_local ThreadSlot slot;
    return slot;
}

} // namespace

SpanRecorder::SpanRecorder(size_t eventsPerThread)
    : _origin(std::chrono::steady_clock::now()),
      _eventsPerThread(eventsPerThread)
{
    if (eventsPerThread < 2)
        panic("SpanRecorder: eventsPerThread must be >= 2");
}

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

SpanRecorder::ThreadLog &
SpanRecorder::threadLog()
{
    ThreadSlot &slot = threadSlot();
    uint64_t epoch = g_spanEpoch.load(std::memory_order_acquire);
    if (slot.recorder != this || slot.epoch != epoch) {
        std::lock_guard<std::mutex> lock(_mutex);
        auto log = std::make_unique<ThreadLog>();
        log->tid = static_cast<int>(_logs.size()) + 1;
        log->events.reserve(_eventsPerThread);
        slot.log = log.get();
        slot.recorder = this;
        slot.epoch = epoch;
        _logs.push_back(std::move(log));
    }
    return *static_cast<ThreadLog *>(slot.log);
}

double
SpanRecorder::nowMicros() const
{
    std::chrono::duration<double, std::micro> since =
        std::chrono::steady_clock::now() - _origin;
    return since.count();
}

void
SpanRecorder::begin(const char *name, const char *category)
{
    ThreadLog &log = threadLog();
    // Admitting a begin reserves the slot for its end (`open` counts
    // outstanding reservations), so ends always fit and the stream
    // stays balanced; a full buffer drops the whole span instead.
    if (log.events.size() + log.open + 2 > _eventsPerThread) {
        ++log.dropDepth;
        ++log.dropped;
        return;
    }
    log.events.push_back(Event{name, category, nowMicros(), 'B'});
    ++log.open;
}

void
SpanRecorder::end()
{
    ThreadLog &log = threadLog();
    if (log.dropDepth > 0) {
        --log.dropDepth;
        return;
    }
    if (log.open == 0)
        return; // unmatched end (begin predates this installation)
    log.events.push_back(
        Event{nullptr, nullptr, nowMicros(), 'E'});
    --log.open;
}

size_t
SpanRecorder::eventCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    size_t n = 0;
    for (const auto &log : _logs)
        n += log->events.size();
    return n;
}

uint64_t
SpanRecorder::droppedSpans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    uint64_t n = 0;
    for (const auto &log : _logs)
        n += log->dropped;
    return n;
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
    for (const auto &log : _logs) {
        // A span still open at serialization time (its scope is
        // live) would unbalance the stream; skip exactly those
        // begins. Ends always close the innermost open begin, so the
        // unmatched ones are whatever is left on the stack.
        std::vector<size_t> stack;
        std::vector<bool> skip(log->events.size(), false);
        for (size_t i = 0; i < log->events.size(); ++i) {
            if (log->events[i].phase == 'B')
                stack.push_back(i);
            else
                stack.pop_back();
        }
        for (size_t i : stack)
            skip[i] = true;
        for (size_t i = 0; i < log->events.size(); ++i) {
            if (skip[i])
                continue;
            const Event &e = log->events[i];
            std::vector<JsonValue::Member> fields;
            if (e.phase == 'B') {
                fields.emplace_back(
                    "name", JsonValue::makeString(e.name));
                fields.emplace_back(
                    "cat", JsonValue::makeString(e.category));
            }
            fields.emplace_back(
                "ph", JsonValue::makeString(
                          std::string(1, e.phase)));
            fields.emplace_back(
                "ts", JsonValue::makeNumber(e.tsMicros));
            fields.emplace_back("pid", JsonValue::makeNumber(pid));
            fields.emplace_back(
                "tid", JsonValue::makeNumber(
                           static_cast<double>(log->tid)));
            events.push_back(
                JsonValue::makeObject(std::move(fields)));
        }
    }

    for (const JsonValue &extra : options.extraEvents)
        events.push_back(extra);
    return traceEventDocument(std::move(events));
}

SpanInstallation::SpanInstallation(SpanRecorder &recorder)
    : _previous(g_installed.load(std::memory_order_relaxed))
{
    g_installed.store(&recorder, std::memory_order_relaxed);
    g_spanEpoch.fetch_add(1, std::memory_order_acq_rel);
}

SpanInstallation::~SpanInstallation()
{
    g_installed.store(_previous, std::memory_order_relaxed);
    g_spanEpoch.fetch_add(1, std::memory_order_acq_rel);
}

} // namespace pdnspot
