/**
 * @file
 * Tests for the observability layer (src/obs): the metrics registry
 * under concurrent writers, the span recorder's B/E
 * balance guarantees under nesting/drops/open spans, the swappable
 * log sink, and the run-report document (provenance hash and the
 * golden-file canonicalization).
 */

#include <cstdlib>
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
    mix.kind = "random-mix";
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

/** B/E phase counts of a trace-event document. */
std::pair<size_t, size_t>
phaseCounts(const JsonValue &doc)
{
    size_t begins = 0, ends = 0;
    const JsonValue *events = doc.find("traceEvents");
    if (!events)
        return {0, 0};
    for (const JsonValue &e : events->items()) {
        const std::string &ph = e.find("ph")->asString();
        if (ph == "B")
            ++begins;
        else if (ph == "E")
            ++ends;
    }
    return {begins, ends};
}

TEST(SpanRecorderTest, RecordsBalancedNestedSpans)
{
    SpanRecorder recorder;
    {
        SpanInstallation install(recorder);
        SpanScope outer("outer", "test");
        {
            SpanScope inner("inner", "test");
        }
    }
    EXPECT_EQ(recorder.eventCount(), 4u);
    EXPECT_EQ(recorder.droppedSpans(), 0u);

    JsonValue doc = parse(recorder.writeTraceEvents());
    auto [begins, ends] = phaseCounts(doc);
    EXPECT_EQ(begins, 2u);
    EXPECT_EQ(ends, 2u);

    // Inner closes before outer; per-thread timestamps are
    // monotonic.
    const std::vector<JsonValue> &events =
        doc.find("traceEvents")->items();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].find("name")->asString(), "outer");
    EXPECT_EQ(events[1].find("name")->asString(), "inner");
    double ts = -1.0;
    for (const JsonValue &e : events) {
        EXPECT_GE(e.find("ts")->asNumber(), ts);
        ts = e.find("ts")->asNumber();
    }
}

TEST(SpanRecorderTest, ScopesAreNoOpsWhileUninstalled)
{
    SpanRecorder recorder;
    {
        SpanScope scope("ignored", "test");
    }
    EXPECT_EQ(recorder.eventCount(), 0u);
}

TEST(SpanRecorderTest, OpenSpansAreSkippedButNestedOnesKept)
{
    SpanRecorder recorder;
    {
        SpanInstallation install(recorder);
        recorder.begin("left-open", "test");
        {
            SpanScope closed("closed", "test");
        }
        // "left-open" never ends: serialization must skip its B
        // while keeping the closed child pair balanced.
    }
    JsonValue doc = parse(recorder.writeTraceEvents());
    auto [begins, ends] = phaseCounts(doc);
    EXPECT_EQ(begins, 1u);
    EXPECT_EQ(ends, 1u);
    EXPECT_EQ(doc.find("traceEvents")
                  ->items()[0]
                  .find("name")
                  ->asString(),
              "closed");
}

TEST(SpanRecorderTest, FullBufferDropsWholeSpans)
{
    // Capacity 4: two whole spans fit, the rest drop — admission
    // reserves the end slot, so output stays balanced.
    SpanRecorder recorder(4);
    {
        SpanInstallation install(recorder);
        for (int i = 0; i < 10; ++i) {
            SpanScope scope("span", "test");
        }
    }
    EXPECT_EQ(recorder.eventCount(), 4u);
    EXPECT_EQ(recorder.droppedSpans(), 8u);
    auto [begins, ends] =
        phaseCounts(parse(recorder.writeTraceEvents()));
    EXPECT_EQ(begins, 2u);
    EXPECT_EQ(ends, 2u);
}

TEST(SpanRecorderTest, DroppedNestedBeginsSwallowTheirEnds)
{
    // Capacity 4 admits A and B; C drops. C's end must not close B.
    SpanRecorder recorder(4);
    {
        SpanInstallation install(recorder);
        recorder.begin("a", "test");
        recorder.begin("b", "test");
        recorder.begin("c", "test"); // dropped: 2 + 2 + 2 > 4
        recorder.end();              // closes dropped c
        recorder.end();              // closes b
        recorder.end();              // closes a
    }
    EXPECT_EQ(recorder.eventCount(), 4u);
    EXPECT_EQ(recorder.droppedSpans(), 1u);
    auto [begins, ends] =
        phaseCounts(parse(recorder.writeTraceEvents()));
    EXPECT_EQ(begins, 2u);
    EXPECT_EQ(ends, 2u);
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
    JsonValue doc = parse(recorder.writeTraceEvents());
    const std::vector<JsonValue> &events =
        doc.find("traceEvents")->items();
    ASSERT_EQ(events.size(), 4u);
    std::vector<double> tids;
    for (const JsonValue &e : events)
        tids.push_back(e.find("tid")->asNumber());
    EXPECT_NE(tids[0], tids[2]);
    for (double tid : tids)
        EXPECT_GE(tid, 1.0);
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
    EXPECT_STREQ(toString(LogLevel::Info), "info");
    EXPECT_STREQ(toString(LogLevel::Warn), "warn");
    EXPECT_STREQ(toString(LogLevel::Silent), "silent");
    EXPECT_EQ(logLevelFromString("info"), LogLevel::Info);
    EXPECT_EQ(logLevelFromString("warn"), LogLevel::Warn);
    EXPECT_EQ(logLevelFromString("silent"), LogLevel::Silent);
    EXPECT_THROW(logLevelFromString("debug"), ConfigError);
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
