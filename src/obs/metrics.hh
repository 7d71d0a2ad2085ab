/**
 * @file
 * MetricsRegistry: a registry of named counters, gauges and
 * histograms — the campaign observability substrate.
 *
 * The campaign engine, interval simulator, ParallelRunner, fleet
 * engine and TraceSpec resolution all report into one registry,
 * which guards its counters and histograms with a single mutex.
 * Every instrumentation site is coarse — once per cell, chunk, job,
 * bucket or trace resolve, never per simulator tick — so the lock is
 * rarely contended, and a value is visible to snapshot() as soon as
 * the call that wrote it returns. The run report
 * (obs/run_report.hh) serializes the full snapshot.
 *
 * Zero-overhead-when-disabled contract: instrumentation sites call
 * the metricAdd/metricSet/metricObserve helpers, which reduce to one
 * relaxed atomic load and a branch while no registry is installed —
 * and instrumentation is purely observational either way, so
 * campaign results are bit-identical with metrics on or off.
 *
 * Installation is process-wide (MetricsInstallation): one campaign
 * at a time is the supported shape. Installing a second registry
 * retargets new increments at it; the previous registry keeps the
 * totals written so far.
 */

#ifndef PDNSPOT_OBS_METRICS_HH
#define PDNSPOT_OBS_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/names.hh"

namespace pdnspot
{

/** The three metric shapes a registry aggregates. */
enum class MetricKind
{
    Counter,   ///< monotonically increasing uint64 sum
    Gauge,     ///< last-set double value
    Histogram, ///< log2-bucketed double samples + count/sum/min/max
};

template <>
inline constexpr NameTable<MetricKind, 3> nameTable<MetricKind>{
    "metric kind",
    {{{MetricKind::Counter, "counter"},
      {MetricKind::Gauge, "gauge"},
      {MetricKind::Histogram, "histogram"}}}};
static_assert(inEnumOrder(nameTable<MetricKind>));

/**
 * The metrics the instrumented subsystems report, pre-registered in
 * every registry in this order (so the enum value is the metric id).
 * Naming convention: "<subsystem>.<metric>", lowercase snake case,
 * with time-valued histograms suffixed "_us" (see the README's
 * Observability section).
 */
enum class Metric : size_t
{
    CampaignCells,          ///< counter: cells simulated
    CampaignChunks,         ///< counter: engine chunks completed
    CampaignPhases,         ///< counter: trace phases stepped
    CampaignPlatformBuilds, ///< counter: Platforms built per run
    CampaignCellMicros,     ///< histogram: per-cell simulation time
    TraceResolves,          ///< counter: TraceSpec::resolve calls
    TraceResolveMicros,     ///< histogram: per-resolve time
    SimRunsStatic,          ///< counter: static simulator runs
    SimRunsPmu,             ///< counter: PMU-controlled runs
    SimRunsOracle,          ///< counter: oracle runs
    RunnerJobs,             ///< counter: ParallelRunner jobs
    RunnerChunksClaimed,    ///< counter: chunked range claims
    RunnerThreads,          ///< gauge: pool width of the last run

    Count, ///< number of well-known metrics (not a metric)
};

/** Schema name of a well-known metric ("campaign.cells", ...). */
const char *metricName(Metric metric);

/** Kind of a well-known metric. */
MetricKind metricKind(Metric metric);

/** One metric's aggregated value, as projected by snapshot(). */
struct MetricSnapshot
{
    std::string name;
    MetricKind kind = MetricKind::Counter;

    uint64_t count = 0; ///< counter value / histogram sample count
    double value = 0.0; ///< gauge value / histogram sum

    /** Histogram shape; empty for counters and gauges. */
    double min = 0.0;
    double max = 0.0;
    std::vector<uint64_t> buckets; ///< log2 buckets, trailing-trimmed

    bool operator==(const MetricSnapshot &) const = default;
};

/**
 * Quantile estimate (q clamped to [0, 1]) from a histogram
 * snapshot's log2 buckets: the bucket containing the q-th sample is
 * located by cumulative count, then the value is linearly
 * interpolated across the bucket's value span (bucket 0 spans
 * [min, 1), bucket i spans [2^(i-1), 2^i)) and clamped to
 * [min, max]. Resolution is therefore one log2 bucket — good enough
 * for the order-of-magnitude tail latencies the run report and
 * --summary print as p50/p95/p99. Returns 0.0 for empty histograms
 * and non-histogram snapshots.
 */
double histogramQuantile(const MetricSnapshot &snapshot, double q);

/**
 * Log2 bucket index for a histogram sample: bucket 0 holds values
 * below 1.0, bucket i covers [2^(i-1), 2^i), the last bucket is
 * open-ended. This is the exact bucketing the registry applies, so
 * standalone snapshots built with histogramObserve interoperate with
 * histogramQuantile and the run-report serialization.
 */
size_t histogramBucketIndex(double value);

/**
 * Accumulate one sample into a histogram snapshot: count/sum/min/max
 * plus the log2 bucket counts. This is how registry-held histograms
 * accumulate too, so subsystems (the fleet aggregator's battery-life
 * distributions) can build distribution snapshots outside a registry
 * and still print them via histogramQuantile. Sets the snapshot's
 * kind to Histogram and grows its buckets vector as needed, so
 * trailing zero buckets stay trimmed.
 */
void histogramObserve(MetricSnapshot &snapshot, double value);

/**
 * A registry instance. The well-known Metric enum is pre-registered;
 * further metrics can be registered by name at any time (ids are
 * dense and stable for the registry's lifetime). Every operation
 * takes the registry's mutex, so any thread may call any of them;
 * snapshot() sees every write that has returned.
 */
class MetricsRegistry
{
  public:
    /** Log2 histogram buckets: bucket 0 is (-inf, 1), bucket i
     * covers [2^(i-1), 2^i), the last bucket is open-ended. */
    static constexpr size_t histogramBuckets = 48;

    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Register a metric (or fetch the id it already has). Re-using a
     * name with a different kind is a caller bug and panics.
     */
    size_t registerMetric(const std::string &name, MetricKind kind);

    size_t metricCount() const;

    /** Add to a counter; panics unless id is a counter. */
    void add(size_t id, uint64_t n = 1);

    /** Record a histogram sample; panics unless id is a histogram. */
    void observe(size_t id, double value);

    /** Overwrite a gauge; panics unless id is a gauge. */
    void set(size_t id, double value);

    /**
     * The installed registry, or nullptr when metrics collection is
     * off. One relaxed atomic load — the disabled fast path.
     */
    static MetricsRegistry *current();

    /**
     * Everything written so far, in registration order (well-known
     * metrics first). Safe while other threads write; the result is
     * then a point-in-time cut.
     */
    std::vector<MetricSnapshot> snapshot() const;

    /** One counter's value; panics unless id is a counter. */
    uint64_t counterValue(size_t id) const;
    uint64_t counterValue(Metric m) const
    {
        return counterValue(static_cast<size_t>(m));
    }

  private:
    struct MetricDef
    {
        std::string name;
        MetricKind kind = MetricKind::Counter;
        size_t slot = 0; ///< dense per-kind storage index
    };

    mutable std::mutex _mutex;
    std::vector<MetricDef> _defs;
    std::vector<uint64_t> _counters;
    std::vector<double> _gauges;
    /** Histograms accumulate through histogramObserve. */
    std::vector<MetricSnapshot> _histograms;
};

/**
 * RAII process-wide installation: while alive, current() returns the
 * registry and instrumentation is live. Destruction restores the
 * previously installed registry (or none). Join the run before
 * uninstalling: a write that races the uninstall may land in either
 * registry.
 */
class MetricsInstallation
{
  public:
    explicit MetricsInstallation(MetricsRegistry &registry);
    ~MetricsInstallation();

    MetricsInstallation(const MetricsInstallation &) = delete;
    MetricsInstallation &operator=(const MetricsInstallation &) =
        delete;

  private:
    MetricsRegistry *_previous;
};

/** Instrumentation-site helpers: no-ops while no registry is
 * installed (one relaxed load + branch). */
inline void
metricAdd(Metric m, uint64_t n = 1)
{
    if (MetricsRegistry *r = MetricsRegistry::current())
        r->add(static_cast<size_t>(m), n);
}

inline void
metricObserve(Metric m, double value)
{
    if (MetricsRegistry *r = MetricsRegistry::current())
        r->observe(static_cast<size_t>(m), value);
}

inline void
metricSet(Metric m, double value)
{
    if (MetricsRegistry *r = MetricsRegistry::current())
        r->set(static_cast<size_t>(m), value);
}

} // namespace pdnspot

#endif // PDNSPOT_OBS_METRICS_HH
