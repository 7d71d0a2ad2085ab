/**
 * @file
 * Tests for the observability layer (src/obs): the metrics registry
 * under concurrent writers, the span recorder's complete events
 * under nesting, concurrent threads, open spans and drops, the
 * swappable log sink, and the run-report document (provenance hash
 * and the golden-file canonicalization).
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "campaign/campaign_engine.hh"
#include "common/logging.hh"
#include "config/json.hh"
#include "obs/metrics.hh"
#include "obs/run_report.hh"
#include "obs/span_trace.hh"
#include "pdnspot/platform.hh"
#include "workload/trace_source.hh"

namespace pdnspot
{
namespace
{

JsonValue
parse(const std::string &text)
{
    return parseJson(text, "test document");
}

// ---------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------

TEST(MetricsRegistryTest, WellKnownMetricsPreRegistered)
{
    MetricsRegistry registry;
    EXPECT_EQ(registry.metricCount(),
              static_cast<size_t>(Metric::Count));
    EXPECT_STREQ(metricName(Metric::CampaignCells),
                 "campaign.cells");
    EXPECT_STREQ(metricName(Metric::TraceResolveMicros),
                 "trace.resolve_us");
    EXPECT_EQ(metricKind(Metric::CampaignCells),
              MetricKind::Counter);
    EXPECT_EQ(metricKind(Metric::CampaignCellMicros),
              MetricKind::Histogram);
    EXPECT_EQ(metricKind(Metric::RunnerThreads), MetricKind::Gauge);

    // Registration order is the enum order, so the enum value is
    // the metric id.
    std::vector<MetricSnapshot> snap = registry.snapshot();
    ASSERT_EQ(snap.size(), static_cast<size_t>(Metric::Count));
    EXPECT_EQ(snap[static_cast<size_t>(Metric::TraceResolves)].name,
              "trace.resolves");
}

TEST(MetricsRegistryTest, CounterAccumulatesThroughHelpers)
{
    MetricsRegistry registry;
    {
        MetricsInstallation install(registry);
        EXPECT_EQ(MetricsRegistry::current(), &registry);
        metricAdd(Metric::CampaignCells);
        metricAdd(Metric::CampaignCells, 4);
        EXPECT_EQ(registry.counterValue(Metric::CampaignCells), 5u);
    }
    EXPECT_EQ(MetricsRegistry::current(), nullptr);
}

TEST(MetricsRegistryTest, HelpersAreNoOpsWhileUninstalled)
{
    MetricsRegistry registry;
    metricAdd(Metric::CampaignCells, 100);
    metricObserve(Metric::CampaignCellMicros, 3.0);
    metricSet(Metric::RunnerThreads, 8.0);
    for (const MetricSnapshot &m : registry.snapshot()) {
        EXPECT_EQ(m.count, 0u) << m.name;
        EXPECT_EQ(m.value, 0.0) << m.name;
    }
}

TEST(MetricsRegistryTest, GaugeWritesThroughWithoutFlush)
{
    MetricsRegistry registry;
    MetricsInstallation install(registry);
    metricSet(Metric::RunnerThreads, 6.0);
    MetricSnapshot gauge = registry.snapshot()[static_cast<size_t>(
        Metric::RunnerThreads)];
    EXPECT_EQ(gauge.kind, MetricKind::Gauge);
    EXPECT_EQ(gauge.value, 6.0);
}

TEST(MetricsRegistryTest, HistogramBucketsCountSumMinMax)
{
    MetricsRegistry registry;
    MetricsInstallation install(registry);
    // Bucket 0 is (-inf, 1); bucket i covers [2^(i-1), 2^i).
    metricObserve(Metric::CampaignCellMicros, 0.5);    // bucket 0
    metricObserve(Metric::CampaignCellMicros, 1.0);    // bucket 1
    metricObserve(Metric::CampaignCellMicros, 3.0);    // bucket 2
    metricObserve(Metric::CampaignCellMicros, 1000.0); // bucket 10

    MetricSnapshot h = registry.snapshot()[static_cast<size_t>(
        Metric::CampaignCellMicros)];
    EXPECT_EQ(h.kind, MetricKind::Histogram);
    EXPECT_EQ(h.count, 4u);
    EXPECT_DOUBLE_EQ(h.value, 1004.5);
    EXPECT_DOUBLE_EQ(h.min, 0.5);
    EXPECT_DOUBLE_EQ(h.max, 1000.0);
    // Trailing zero buckets are trimmed from the snapshot.
    ASSERT_EQ(h.buckets.size(), 11u);
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[1], 1u);
    EXPECT_EQ(h.buckets[2], 1u);
    EXPECT_EQ(h.buckets[10], 1u);
    EXPECT_EQ(h.buckets[5], 0u);
}

TEST(MetricsRegistryTest, HistogramBucketIndexMatchesIlogb)
{
    // The exponent-bit bucketing against the std::ilogb form it
    // replaces, at the bucket edges and the values the form treats
    // apart.
    auto byIlogb = [](double v) -> size_t {
        if (!(v >= 1.0))
            return 0;
        return std::min(MetricsRegistry::histogramBuckets - 1,
                        static_cast<size_t>(std::ilogb(v)) + 1);
    };
    std::vector<double> values = {
        1.0,
        std::nextafter(1.0, 0.0),
        0.0,
        -0.0,
        -1.0,
        -std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN()};
    for (int e = -1074; e <= 1023; ++e) {
        double p = std::ldexp(1.0, e);
        for (double v : {p, std::nextafter(p, 0.0),
                         std::nextafter(p, 2.0 * p)}) {
            values.push_back(v);
            values.push_back(-v);
        }
    }
    for (double v : values) {
        EXPECT_EQ(histogramBucketIndex(v), byIlogb(v))
            << std::hexfloat << v;
    }
}

TEST(MetricsRegistryTest, ConcurrentWorkersLoseNoIncrements)
{
    MetricsRegistry registry;
    MetricsInstallation install(registry);
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([t] {
            for (int i = 0; i < 1000; ++i) {
                metricAdd(Metric::CampaignCells);
                metricObserve(Metric::CampaignCellMicros,
                              static_cast<double>(t + 1));
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(registry.counterValue(Metric::CampaignCells), 4000u);

    // Worker t observed 1000 samples of t + 1: buckets 1, 2, 2, 3.
    MetricSnapshot h = registry.snapshot()[static_cast<size_t>(
        Metric::CampaignCellMicros)];
    EXPECT_EQ(h.count, 4000u);
    EXPECT_EQ(h.value, 10000.0);
    EXPECT_EQ(h.min, 1.0);
    EXPECT_EQ(h.max, 4.0);
    EXPECT_EQ(h.buckets,
              (std::vector<uint64_t>{0u, 1000u, 2000u, 1000u}));
}

TEST(MetricsRegistryTest, ReinstallationRetargetsNewIncrements)
{
    MetricsRegistry first;
    MetricsRegistry second;
    {
        MetricsInstallation install(first);
        metricAdd(Metric::CampaignCells, 2);
        {
            // A newer installation shadows; the inner scope's
            // increments land in `second` only.
            MetricsInstallation shadow(second);
            metricAdd(Metric::CampaignCells, 7);
        }
        metricAdd(Metric::CampaignCells, 1);
    }
    EXPECT_EQ(first.counterValue(Metric::CampaignCells), 3u);
    EXPECT_EQ(second.counterValue(Metric::CampaignCells), 7u);
}

TEST(MetricsRegistryTest, RegisterMetricIsIdempotentByName)
{
    MetricsRegistry registry;
    size_t id =
        registry.registerMetric("test.custom", MetricKind::Counter);
    EXPECT_EQ(
        registry.registerMetric("test.custom", MetricKind::Counter),
        id);
    EXPECT_EQ(registry.metricCount(),
              static_cast<size_t>(Metric::Count) + 1);
    // Same name, different kind: caller bug.
    EXPECT_THROW(
        registry.registerMetric("test.custom", MetricKind::Gauge),
        ModelError);
}

TEST(MetricsRegistryTest, KindMismatchPanics)
{
    MetricsRegistry registry;
    MetricsInstallation install(registry);
    EXPECT_THROW(registry.add(static_cast<size_t>(
                     Metric::RunnerThreads)),
                 ModelError);
    EXPECT_THROW(registry.set(static_cast<size_t>(
                                  Metric::CampaignCells),
                              1.0),
                 ModelError);
    EXPECT_THROW(
        registry.counterValue(Metric::CampaignCellMicros),
        ModelError);
}

// A campaign run with a caller-installed registry banks its activity
// there at any thread count, and the CSV rows are identical to an
// uninstrumented run — the zero-perturbation half of the
// observability contract.
TEST(MetricsRegistryTest, EngineReportsIntoInstalledRegistry)
{
    TraceGeneratorSpec mix;
    mix.kind = TraceGeneratorKind::RandomMix;
    mix.seed = 7;
    mix.phases = 6;
    mix.meanPhaseLen = milliseconds(4.0);

    CampaignSpec spec;
    spec.traces.push_back(TraceSpec::generator(mix));
    spec.platforms = {ultraportablePreset()};
    spec.pdns = {PdnKind::IVR, PdnKind::FlexWatts};
    spec.mode = SimMode::Static;

    const uint64_t phases = spec.traces[0].resolve().phases().size();

    std::ostringstream plainCsv;
    {
        ParallelRunner serial(1);
        CampaignCsvSink sink(plainCsv);
        CampaignEngine(serial).run(spec, sink);
    }

    for (unsigned threads : {1u, 2u, 8u}) {
        ParallelRunner runner(threads);
        MetricsRegistry registry;
        std::ostringstream observedCsv;
        {
            MetricsInstallation install(registry);
            CampaignCsvSink sink(observedCsv);
            CampaignEngine(runner).run(spec, sink);
        }

        EXPECT_EQ(observedCsv.str(), plainCsv.str()) << threads;
        EXPECT_EQ(registry.counterValue(Metric::CampaignCells), 2u)
            << threads;
        EXPECT_EQ(registry.counterValue(Metric::CampaignPhases),
                  2 * phases)
            << threads;
        EXPECT_GE(registry.counterValue(Metric::CampaignChunks), 1u)
            << threads;
        EXPECT_EQ(registry.counterValue(Metric::TraceResolves), 1u)
            << threads;
        EXPECT_EQ(registry.counterValue(Metric::SimRunsStatic), 2u)
            << threads;
    }
}

// ---------------------------------------------------------------
// SpanRecorder
// ---------------------------------------------------------------

/**
 * The recorder's export with default stamping (pid 1, no
 * process_name event), round-tripped through its JSON text.
 */
JsonValue
exportSpans(const SpanRecorder &recorder)
{
    return parse(writeJson(recorder.traceEventsJson({})));
}

/** The span ("X") events of a trace-event document. */
std::vector<JsonValue>
spanEvents(const JsonValue &doc)
{
    std::vector<JsonValue> spans;
    for (const JsonValue &e : doc.find("traceEvents")->items()) {
        EXPECT_TRUE(e.find("ph")->asString() == "X" ||
                    e.find("ph")->asString() == "M")
            << e.find("ph")->asString();
        if (e.find("ph")->asString() == "X")
            spans.push_back(e);
    }
    return spans;
}

/**
 * Whether span `inner` lies within span `outer` in time, up to the
 * rounding of ts + dur in microseconds (two clock reads may return
 * the same instant).
 */
bool
within(const JsonValue &inner, const JsonValue &outer)
{
    double ts = inner.find("ts")->asNumber();
    double outerTs = outer.find("ts")->asNumber();
    return ts >= outerTs &&
           ts + inner.find("dur")->asNumber() <=
               outerTs + outer.find("dur")->asNumber() + 1e-6;
}

TEST(SpanRecorderTest, RecordsNestedSpansInnerFirst)
{
    SpanRecorder recorder;
    {
        SpanInstallation install(recorder);
        SpanScope outer("outer", "test");
        {
            SpanScope inner("inner", "test");
        }
    }
    EXPECT_EQ(recorder.spanCount(), 2u);
    EXPECT_EQ(recorder.droppedSpans(), 0u);

    // The inner span closes first, so it is recorded first, and it
    // lies within the outer one.
    std::vector<JsonValue> spans = spanEvents(exportSpans(recorder));
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].find("name")->asString(), "inner");
    EXPECT_EQ(spans[1].find("name")->asString(), "outer");
    EXPECT_EQ(spans[0].find("cat")->asString(), "test");
    EXPECT_GE(spans[0].find("dur")->asNumber(), 0.0);
    EXPECT_TRUE(within(spans[0], spans[1]));
    EXPECT_EQ(spans[0].find("tid")->asNumber(),
              spans[1].find("tid")->asNumber());
}

TEST(SpanRecorderTest, StampedExportLabelsTheShard)
{
    SpanRecorder recorder;
    {
        SpanInstallation install(recorder);
        SpanScope scope("span", "test");
    }
    TraceEventExport stamp;
    stamp.shardIndex = 2;
    stamp.shardCount = 3;
    stamp.processName = "tool";
    stamp.extraEvents.push_back(
        traceCounterEvent("gauge", 5.0, 77.0, 1.5));
    JsonValue doc = recorder.traceEventsJson(stamp);
    EXPECT_EQ(doc.find("displayTimeUnit")->asString(), "ms");
    const std::vector<JsonValue> &events =
        doc.find("traceEvents")->items();
    ASSERT_EQ(events.size(), 3u);
    // process_name first, then the span on the shard's pid, then the
    // extra events untouched.
    EXPECT_EQ(events[0].find("ph")->asString(), "M");
    EXPECT_EQ(events[0].find("args")->find("name")->asString(),
              "tool shard 2/3");
    EXPECT_EQ(events[1].find("ph")->asString(), "X");
    for (size_t i = 0; i < 2; ++i)
        EXPECT_EQ(events[i].find("pid")->asNumber(), 2.0) << i;
    EXPECT_EQ(events[2].find("ph")->asString(), "C");
    EXPECT_EQ(events[2].find("pid")->asNumber(), 77.0);
    EXPECT_EQ(events[2].find("args")->find("value")->asNumber(), 1.5);
}

TEST(SpanRecorderTest, ScopesAreNoOpsWhileUninstalled)
{
    SpanRecorder recorder;
    {
        SpanScope scope("ignored", "test");
    }
    EXPECT_EQ(recorder.spanCount(), 0u);
}

TEST(SpanRecorderTest, OpenSpansAreSkippedButNestedOnesKept)
{
    SpanRecorder recorder;
    SpanInstallation install(recorder);
    SpanScope open("left-open", "test");
    {
        SpanScope closed("closed", "test");
    }
    // "left-open" is still live at export: only its closed child is
    // in the document.
    std::vector<JsonValue> spans = spanEvents(exportSpans(recorder));
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].find("name")->asString(), "closed");
}

TEST(SpanRecorderTest, FullBufferDropsWholeSpans)
{
    // Capacity 2: the first two spans fit, the other eight drop.
    SpanRecorder recorder(2);
    {
        SpanInstallation install(recorder);
        for (int i = 0; i < 10; ++i) {
            SpanScope scope("span", "test");
        }
    }
    EXPECT_EQ(recorder.spanCount(), 2u);
    EXPECT_EQ(recorder.droppedSpans(), 8u);
    EXPECT_EQ(spanEvents(exportSpans(recorder)).size(), 2u);
}

TEST(SpanRecorderTest, ThreadsGetDenseTids)
{
    SpanRecorder recorder;
    {
        SpanInstallation install(recorder);
        std::thread worker([] {
            SpanScope scope("worker-span", "test");
        });
        worker.join();
        SpanScope scope("main-span", "test");
    }
    std::vector<JsonValue> spans = spanEvents(exportSpans(recorder));
    ASSERT_EQ(spans.size(), 2u);
    // Tids follow each thread's first recorded span.
    EXPECT_EQ(spans[0].find("name")->asString(), "worker-span");
    EXPECT_EQ(spans[0].find("tid")->asNumber(), 1.0);
    EXPECT_EQ(spans[1].find("tid")->asNumber(), 2.0);
}

TEST(SpanRecorderTest, ConcurrentThreadsRecordEveryNestedSpan)
{
    // Eight workers record at once while the main thread holds an
    // open span, then the main thread records one more.
    constexpr int threads = 8;
    constexpr int scopes = 500;
    SpanRecorder recorder;
    {
        SpanInstallation install(recorder);
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; ++t)
            workers.emplace_back([] {
                for (int i = 0; i < scopes; ++i) {
                    SpanScope outer("outer", "test");
                    SpanScope inner("inner", "test");
                }
            });
        for (std::thread &w : workers)
            w.join();
        SpanScope last("last", "test");
    }
    EXPECT_EQ(recorder.droppedSpans(), 0u);
    std::vector<JsonValue> spans = spanEvents(exportSpans(recorder));
    ASSERT_EQ(spans.size(), size_t(threads * scopes * 2 + 1));
    EXPECT_EQ(recorder.spanCount(), spans.size());

    // Per tid, each inner is recorded just before its outer and lies
    // within it; tids are dense in 1..threads + 1.
    std::vector<std::vector<const JsonValue *>> byTid(threads + 2);
    for (const JsonValue &span : spans) {
        EXPECT_GE(span.find("dur")->asNumber(), 0.0);
        double tid = span.find("tid")->asNumber();
        ASSERT_GE(tid, 1.0);
        ASSERT_LE(tid, threads + 1.0);
        byTid[static_cast<size_t>(tid)].push_back(&span);
    }
    for (int tid = 1; tid <= threads + 1; ++tid) {
        const std::vector<const JsonValue *> &mine = byTid[tid];
        size_t want = spans.back().find("tid")->asNumber() == tid
                          ? 1u
                          : size_t(scopes * 2);
        ASSERT_EQ(mine.size(), want) << tid;
        if (want == 1)
            continue;
        for (size_t i = 0; i < mine.size(); i += 2) {
            EXPECT_EQ(mine[i]->find("name")->asString(), "inner");
            EXPECT_EQ(mine[i + 1]->find("name")->asString(), "outer");
            EXPECT_TRUE(within(*mine[i], *mine[i + 1])) << tid;
        }
    }
}

// ---------------------------------------------------------------
// Logging sink and threshold
// ---------------------------------------------------------------

TEST(LoggingTest, ScopedLogCaptureCollectsBySeverity)
{
    ScopedLogCapture capture;
    warn("memo disabled for this run");
    inform("wrote 10 rows");
    inform("another note");

    ASSERT_EQ(capture.entries().size(), 3u);
    EXPECT_EQ(capture.entries()[0].severity, LogLevel::Warn);
    EXPECT_EQ(capture.entries()[0].message,
              "memo disabled for this run");
    EXPECT_EQ(capture.count(LogLevel::Warn), 1u);
    EXPECT_EQ(capture.count(LogLevel::Info), 2u);
    EXPECT_EQ(capture.count(LogLevel::Info, "rows"), 1u);
    EXPECT_EQ(capture.count(LogLevel::Warn, "rows"), 0u);
}

TEST(LoggingTest, ThresholdFiltersBeforeTheSink)
{
    ScopedLogCapture capture;
    LogLevel previous = setLogThreshold(LogLevel::Warn);
    inform("dropped");
    warn("kept");
    setLogThreshold(LogLevel::Silent);
    warn("also dropped");
    setLogThreshold(previous);

    EXPECT_EQ(capture.count(LogLevel::Info), 0u);
    EXPECT_EQ(capture.count(LogLevel::Warn), 1u);
    EXPECT_EQ(capture.count(LogLevel::Warn, "kept"), 1u);
}

TEST(LoggingTest, LogLevelNamesRoundTrip)
{
    EXPECT_STREQ(nameOf(LogLevel::Info), "info");
    EXPECT_STREQ(nameOf(LogLevel::Warn), "warn");
    EXPECT_STREQ(nameOf(LogLevel::Silent), "silent");
    EXPECT_EQ(parseName<LogLevel>("info"), LogLevel::Info);
    EXPECT_EQ(parseName<LogLevel>("warn"), LogLevel::Warn);
    EXPECT_EQ(parseName<LogLevel>("silent"), LogLevel::Silent);
    EXPECT_THROW(parseName<LogLevel>("debug"), ConfigError);
}

// ---------------------------------------------------------------
// Run reports
// ---------------------------------------------------------------

TEST(RunReportTest, Fnv1a64KnownAnswers)
{
    // FNV-1a 64 test vectors: offset basis for "", and the published
    // hashes of "a" and "foobar".
    EXPECT_EQ(fnv1a64Hex(""), "cbf29ce484222325");
    EXPECT_EQ(fnv1a64Hex("a"), "af63dc4c8601ec8c");
    EXPECT_EQ(fnv1a64Hex("foobar"), "85944171f73967e8");
}

RunReportInputs
sampleInputs(const CampaignSpec &spec,
             const MetricsRegistry &registry)
{
    RunReportInputs in;
    in.toolName = "pdnspot_campaign";
    in.specPath = "/tmp/example.json";
    in.specText = "{\"traces\": []}";
    in.specEcho = parse(in.specText);
    in.spec = &spec;
    in.threads = 4;
    in.shardIndex = 2;
    in.shardCount = 3;
    in.firstCell = 10;
    in.endCell = 20;
    in.rows = 10;
    in.wallSeconds = 1.25;
    in.metrics = &registry;
    return in;
}

TEST(RunReportTest, ToolNameIsRequired)
{
    // No default: a report that forgot its tool once labelled a
    // fleet run "pdnspot_campaign".
    EXPECT_THROW(buildRunReport(RunReportInputs{}), ModelError);
}

TEST(RunReportTest, ReportCarriesProvenanceAndMetrics)
{
    CampaignSpec spec;
    spec.traces.push_back(TraceSpec::library("bursty-compute", 3));
    spec.platforms = {ultraportablePreset()};
    spec.pdns = {PdnKind::IVR};

    MetricsRegistry registry;
    {
        MetricsInstallation install(registry);
        metricAdd(Metric::CampaignCells, 10);
        metricObserve(Metric::CampaignCellMicros, 2.0);
    }

    JsonValue report =
        buildRunReport(sampleInputs(spec, registry));
    EXPECT_EQ(report.find("schema")->asString(),
              "pdnspot-report-1");
    EXPECT_EQ(report.find("tool")->find("name")->asString(),
              "pdnspot_campaign");
    EXPECT_EQ(report.find("spec")->find("content_hash")->asString(),
              "fnv1a64:" + fnv1a64Hex("{\"traces\": []}"));
    EXPECT_EQ(report.find("run")->find("threads")->asNumber(), 4.0);
    EXPECT_EQ(report.find("run")->find("shard_index")->asNumber(),
              2.0);

    const JsonValue *traces = report.find("traces");
    ASSERT_NE(traces, nullptr);
    ASSERT_EQ(traces->items().size(), 1u);
    EXPECT_EQ(traces->items()[0].find("name")->asString(),
              "bursty-compute");
    EXPECT_NE(traces->items()[0].find("provenance")->asString().find(
                  "library"),
              std::string::npos);

    const JsonValue *metrics = report.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->items().size(),
              static_cast<size_t>(Metric::Count));
    // No summaries fed in => member omitted entirely.
    EXPECT_EQ(report.find("summaries"), nullptr);
}

TEST(RunReportTest, CanonicalizationPinsVolatileMembers)
{
    CampaignSpec spec;
    spec.traces.push_back(TraceSpec::library("bursty-compute", 3));
    spec.platforms = {ultraportablePreset()};
    spec.pdns = {PdnKind::IVR};

    MetricsRegistry registry;
    {
        MetricsInstallation install(registry);
        metricAdd(Metric::CampaignCells, 10);
        metricObserve(Metric::CampaignCellMicros, 2.0);
        metricObserve(Metric::CampaignCellMicros, 64.0);
    }

    JsonValue canon = canonicalizeRunReport(
        buildRunReport(sampleInputs(spec, registry)));
    EXPECT_EQ(canon.find("host")->asString(), "HOST");
    EXPECT_EQ(canon.find("wall_time_s")->asNumber(), 0.0);
    EXPECT_EQ(canon.find("tool")->find("version")->asString(),
              "VERSION");
    EXPECT_EQ(canon.find("tool")->find("git_rev")->asString(),
              "GITREV");
    EXPECT_EQ(canon.find("spec")->find("path")->asString(), "SPEC");
    // Spec hash survives — it is provenance, not volatility.
    EXPECT_EQ(canon.find("spec")->find("content_hash")->asString(),
              "fnv1a64:" + fnv1a64Hex("{\"traces\": []}"));

    for (const JsonValue &m : canon.find("metrics")->items()) {
        if (m.find("kind")->asString() != "histogram")
            continue;
        // Duration sums/extrema are wall-clock noise; the sample
        // *count* is deterministic and survives.
        EXPECT_EQ(m.find("sum")->asNumber(), 0.0);
        EXPECT_EQ(m.find("min")->asNumber(), 0.0);
        EXPECT_EQ(m.find("max")->asNumber(), 0.0);
        EXPECT_TRUE(m.find("buckets")->items().empty());
        if (m.find("name")->asString() == "campaign.cell_us") {
            EXPECT_EQ(m.find("count")->asNumber(), 2.0);
        }
    }
}

TEST(RunReportTest, GitRevisionPrefersEnvironment)
{
    ::setenv("PDNSPOT_GIT_REV", "cafef00d", 1);
    EXPECT_EQ(gitRevision(), "cafef00d");
    ::unsetenv("PDNSPOT_GIT_REV");
    EXPECT_NE(gitRevision(), "cafef00d");
    EXPECT_FALSE(gitRevision().empty());
    EXPECT_FALSE(toolVersion().empty());
}

} // namespace
} // namespace pdnspot
