/**
 * @file
 * SpanRecorder: complete-span recording with Chrome trace-event JSON
 * export.
 *
 * Instrumented subsystems mark regions with SpanScope (platform
 * builds, trace resolution, chunk claims, cell evaluation). A scope
 * reads the clock when it opens and hands the whole span to the
 * recorder when it closes, which appends it to one mutex-guarded
 * list: a span still open at export is simply absent. A run records a
 * few hundred spans at sites that already take the metrics
 * registry's mutex, so one lock per span is not worth avoiding. The
 * export is the Chrome/Perfetto trace-event format, one complete
 * event per span ({"traceEvents": [{"ph": "X", ...}]}) via
 * src/config/json — open the file in https://ui.perfetto.dev or
 * chrome://tracing.
 *
 * The list is bounded by the constructor's capacity: a full recorder
 * drops whole spans and counts them in droppedSpans().
 *
 * Like MetricsRegistry, installation is process-wide and RAII
 * (SpanInstallation); SpanScope reduces to one relaxed atomic load
 * and a branch while no recorder is installed.
 */

#ifndef PDNSPOT_OBS_SPAN_TRACE_HH
#define PDNSPOT_OBS_SPAN_TRACE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "config/json.hh"

namespace pdnspot
{

/**
 * Options for the identity-stamped trace-event export. Sharded
 * campaign runs (--shard k/n) each serialize their own timeline;
 * stamping the shard index as the pid and into the process name
 * keeps concatenated/merged timelines from colliding on (pid, tid)
 * in the Perfetto UI. `extraEvents` (e.g. probe counter tracks from
 * obs/waveform_io.hh, which carry their own pids) are appended after
 * the span events.
 */
struct TraceEventExport
{
    size_t shardIndex = 1;
    size_t shardCount = 1;

    /**
     * Process name for the "M" process_name metadata event, normally
     * the emitting tool's name; when shardCount > 1 the serializer
     * appends " shard k/n". Empty (the default) suppresses the
     * metadata event.
     */
    std::string processName;

    std::vector<JsonValue> extraEvents;
};

/**
 * The trace-event JSON builders every exporter shares (spans here,
 * probe waveforms in obs/waveform_io.hh, fleet aggregates in
 * pdnspot_fleet). All events sit on tid 0 of `pid`.
 */

/** A "process_name" metadata ("M") event labelling `pid`. */
JsonValue traceProcessNameEvent(double pid, std::string name);

/** A counter ("C") event: `name` = `value` at `tsMicros`. */
JsonValue traceCounterEvent(std::string name, double tsMicros,
                            double pid, double value);

/** Wrap events as {"traceEvents": [...], "displayTimeUnit": "ms"}. */
JsonValue traceEventDocument(std::vector<JsonValue> events);

/**
 * Collects the spans every thread closes while it is installed.
 * Serialize (traceEventsJson) only after the producing threads have
 * quiesced — typically after the campaign run's ParallelRunner
 * drain.
 */
class SpanRecorder
{
  public:
    /** Span capacity across all threads; ~40 bytes per span. */
    static constexpr size_t defaultCapacity = 1 << 18;

    explicit SpanRecorder(size_t capacity = defaultCapacity);
    ~SpanRecorder();

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /**
     * The installed recorder, or nullptr when span tracing is off.
     * One relaxed atomic load — the disabled fast path.
     */
    static SpanRecorder *current();

    /** Spans recorded so far, across all threads. */
    size_t spanCount() const;

    /** Spans dropped because the recorder was full. */
    uint64_t droppedSpans() const;

    /**
     * The recorded spans as a Chrome trace-event document
     * (traceEventDocument): one complete event {"name", "cat",
     * "ph": "X", "ts", "dur", "pid", "tid"} per span, in the order
     * the spans closed. Spans carry pid = options.shardIndex, a
     * process_name metadata event labels the timeline
     * (shard-suffixed when shardCount > 1), and options.extraEvents
     * ride along at the end. Timestamps and durations are
     * microseconds, timestamps from the recorder's construction;
     * tids are dense per-thread ids (from 1) in the order of each
     * thread's first recorded span.
     */
    JsonValue traceEventsJson(const TraceEventExport &options) const;

  private:
    friend class SpanScope;
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        const char *name;
        const char *category;
        double tsMicros;
        double durMicros;
        int tid;
    };

    /**
     * Record the calling thread's span that opened at `start` and
     * closes now. `name` and `category` are stored by pointer, so
     * they must outlive the recorder (string literals do).
     */
    void record(const char *name, const char *category,
                Clock::time_point start);

    Clock::time_point _origin;
    size_t _capacity;

    mutable std::mutex _mutex;
    std::vector<Span> _spans;
    std::vector<std::thread::id> _threads; ///< tid - 1 -> thread
    uint64_t _dropped = 0;
};

/**
 * RAII process-wide installation: while alive, current() returns the
 * recorder and SpanScope records. Quiesce producing threads before
 * destroying it.
 */
class SpanInstallation
{
  public:
    explicit SpanInstallation(SpanRecorder &recorder);
    ~SpanInstallation();

    SpanInstallation(const SpanInstallation &) = delete;
    SpanInstallation &operator=(const SpanInstallation &) = delete;

  private:
    SpanRecorder *_previous;
};

/**
 * Scope guard for one span: reads the clock at construction and
 * records the whole span at destruction. The recorder is resolved
 * once at construction, so a scope that straddles an
 * (un)installation records into the recorder it opened on, which
 * must outlive it.
 */
class SpanScope
{
  public:
    SpanScope(const char *name, const char *category)
        : _recorder(SpanRecorder::current()), _name(name),
          _category(category)
    {
        if (_recorder)
            _start = SpanRecorder::Clock::now();
    }

    ~SpanScope()
    {
        if (_recorder)
            _recorder->record(_name, _category, _start);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *_recorder;
    const char *_name;
    const char *_category;
    SpanRecorder::Clock::time_point _start;
};

} // namespace pdnspot

#endif // PDNSPOT_OBS_SPAN_TRACE_HH
