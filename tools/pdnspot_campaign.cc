/**
 * @file
 * pdnspot_campaign: run a batch-simulation campaign from a spec file.
 *
 * The file-in/CSV-out driver for the campaign subsystem: loads a
 * JSON campaign spec (src/config/campaign_config.hh), executes the
 * trace × platform × PDN cross-product over the thread pool, and
 * streams the result rows to a CSV file as cells complete — the CSV
 * is byte-identical to CampaignResult::writeCsv over the same
 * campaign at any thread count, so non-C++ tooling can script
 * studies and diff outputs exactly.
 *
 * Usage: pdnspot_campaign <spec.json> [options]
 *   -o <path>        write the campaign CSV to <path> ("-" = stdout,
 *                    the default)
 *   --summary        print the per-PDN summary table and p50/p95/p99
 *                    lines for every histogram metric
 *                    (histogramQuantile, obs/metrics.hh) to stderr
 *   --battery-wh <x> battery capacity for the summary (default 50)
 *   --threads <n>    thread count (overrides PDNSPOT_THREADS)
 *   --trace-dir <d>  resolve relative "file" trace paths against <d>
 *                    (default: the spec file's directory)
 *   --shard k/n      run only shard k of n (1-based): a contiguous
 *                    range of the campaign's canonical cell order.
 *                    Shard 1 carries the CSV header; concatenating
 *                    the n shard CSVs in order is byte-identical to
 *                    the unsharded run
 *   --report <path>  write a provenance-stamped pdnspot-report-1
 *                    JSON run report (obs/run_report.hh): spec echo
 *                    + content hash, git rev, shard/threads, wall
 *                    time, the full metric snapshot, per-PDN
 *                    summaries
 *   --trace-events <path>
 *                    record begin/end spans and write them as
 *                    Chrome/Perfetto trace-event JSON (open in
 *                    https://ui.perfetto.dev or chrome://tracing).
 *                    The timeline is stamped with the shard identity
 *                    (pid = shard index, process_name "shard k/n"),
 *                    so per-shard files merge without colliding
 *   --probe-out <dir>
 *                    export the waveforms captured by the spec's
 *                    "probes" section (obs/probe.hh): one columnar
 *                    CSV per probed cell (<dir>/<cell>.csv,
 *                    obs/waveform_io.hh) plus <dir>/counters.json,
 *                    a Perfetto counter-track document; the counter
 *                    tracks also merge into --trace-events when both
 *                    are given. Without this flag the spec's probes
 *                    are ignored entirely (the zero-overhead path)
 *   --progress       rate-limited cells/sec + ETA heartbeat on
 *                    stderr; auto-disabled when stderr is not a TTY
 *   --quiet          drop info-level messages (same as
 *                    --log-level warn)
 *   --log-level <l>  minimum message severity: info, warn or silent
 *   --version        print the tool version and git revision
 *   --dry-run        load + validate the spec, report the campaign
 *                    shape and per-trace provenance (including any
 *                    transform chains), and exit without simulating
 *   --echo-spec      print the parsed spec back as normalized JSON
 *                    and exit (version line goes to stderr)
 *   --list-traces    print the standard trace library (with --seed)
 *   --list-presets   print the named PlatformConfig presets
 *   --seed <n>       library seed for --list-traces (default 42)
 *
 * None of the observability flags perturb results: the campaign CSV
 * is byte-identical with and without --report/--trace-events/
 * --progress/--probe-out (check.sh verifies this at 1 and 8
 * threads), and the probe outputs themselves are byte-identical at
 * any thread count (cells are delivered in canonical order and all
 * probe timestamps are simulated time).
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "campaign/campaign_engine.hh"
#include "cli_common.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "config/campaign_config.hh"
#include "obs/run_report.hh"
#include "obs/span_trace.hh"
#include "obs/waveform_io.hh"

namespace
{

using namespace pdnspot;

constexpr const char *usageText =
    "usage: pdnspot_campaign <spec.json> [-o out.csv] [--summary]\n"
    "                        [--battery-wh <x>] [--threads <n>]\n"
    "                        [--trace-dir <dir>] [--shard k/n]\n"
    "                        [--report out.json]\n"
    "                        [--trace-events out.trace.json]\n"
    "                        [--probe-out dir]\n"
    "                        [--progress] [--quiet]\n"
    "                        [--log-level info|warn|silent]\n"
    "                        [--dry-run] [--echo-spec]\n"
    "       pdnspot_campaign --list-traces [--seed <n>]\n"
    "       pdnspot_campaign --list-presets\n"
    "       pdnspot_campaign --version\n";

constexpr cli::ToolInfo tool{"pdnspot_campaign", usageText};

/** Parsed command line. */
struct Options
{
    std::string specPath;
    std::string outPath = "-";
    bool summary = false;
    double batteryWh = 50.0;
    std::optional<unsigned> threads;
    std::string traceDir;
    size_t shardIndex = 1; ///< 1-based
    size_t shardCount = 1;
    std::string reportPath;
    std::string traceEventsPath;
    std::string probeOutDir;
    bool progress = false;
    std::optional<LogLevel> logLevel;
    bool dryRun = false;
    bool echoSpec = false;
    bool listTraces = false;
    bool listPresets = false;
    uint64_t listSeed = 42;
};

[[noreturn]] void
usageError(const std::string &message)
{
    cli::usageError(tool, message);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    auto value = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            usageError(std::string(flag) + " needs a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            std::cout << usageText;
            std::exit(0);
        } else if (arg == "--version") {
            cli::printVersion(tool);
            std::exit(0);
        } else if (arg == "-o") {
            opts.outPath = value(i, "-o");
        } else if (arg == "--summary") {
            opts.summary = true;
        } else if (arg == "--battery-wh") {
            std::string v = value(i, "--battery-wh");
            // parseDouble rejects non-finite values ("nan"/"inf")
            // for every caller, so a positivity check suffices.
            std::optional<double> wh = cli::parseDouble(v);
            if (!wh || !(*wh > 0.0))
                usageError("--battery-wh must be a positive number, "
                           "got \"" +
                           v + "\"");
            opts.batteryWh = *wh;
        } else if (arg == "--threads") {
            opts.threads =
                cli::parseThreads(tool, value(i, "--threads"));
        } else if (arg == "--trace-dir") {
            opts.traceDir = value(i, "--trace-dir");
            if (opts.traceDir.empty())
                usageError("--trace-dir needs a directory");
        } else if (arg == "--shard") {
            std::string v = value(i, "--shard");
            size_t slash = v.find('/');
            std::optional<size_t> k, n;
            if (slash != std::string::npos) {
                // from_chars on an unsigned type rejects "-4"
                // outright (std::stoul would wrap it around to a
                // huge shard count).
                k = cli::parseInt<size_t>(v.substr(0, slash));
                n = cli::parseInt<size_t>(v.substr(slash + 1));
            }
            if (!k || !n || *k < 1 || *n < 1 || *k > *n)
                usageError("--shard must be k/n with 1 <= k <= n, "
                           "got \"" +
                           v + "\"");
            opts.shardIndex = *k;
            opts.shardCount = *n;
        } else if (arg == "--report") {
            opts.reportPath = value(i, "--report");
            if (opts.reportPath.empty())
                usageError("--report needs a path");
        } else if (arg == "--trace-events") {
            opts.traceEventsPath = value(i, "--trace-events");
            if (opts.traceEventsPath.empty())
                usageError("--trace-events needs a path");
        } else if (arg == "--probe-out") {
            opts.probeOutDir = value(i, "--probe-out");
            if (opts.probeOutDir.empty())
                usageError("--probe-out needs a directory");
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg == "--quiet") {
            opts.logLevel = LogLevel::Warn;
        } else if (arg == "--log-level") {
            opts.logLevel =
                cli::parseLogLevel(tool, value(i, "--log-level"));
        } else if (arg == "--seed") {
            std::string v = value(i, "--seed");
            std::optional<uint64_t> seed =
                cli::parseInt<uint64_t>(v);
            if (!seed)
                usageError("--seed must be a non-negative integer, "
                           "got \"" +
                           v + "\"");
            opts.listSeed = *seed;
        } else if (arg == "--list-traces") {
            opts.listTraces = true;
        } else if (arg == "--list-presets") {
            opts.listPresets = true;
        } else if (arg == "--dry-run") {
            opts.dryRun = true;
        } else if (arg == "--echo-spec") {
            opts.echoSpec = true;
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            usageError("unknown option \"" + arg + "\"");
        } else if (opts.specPath.empty()) {
            opts.specPath = arg;
        } else {
            usageError("more than one spec file given");
        }
    }
    if (opts.specPath.empty() && !opts.listTraces &&
        !opts.listPresets)
        usageError("missing spec file");
    return opts;
}

/** --list-traces: the standard library corpus, spec-author view. */
void
printTraceLibrary(uint64_t seed)
{
    AsciiTable table(
        {"trace", "phases", "duration (ms)", "spec reference"});
    TraceLibrary library = standardCampaignTraces(seed);
    for (const PhaseTrace &t : library.traces()) {
        table.addRow({t.name(), std::to_string(t.phases().size()),
                      AsciiTable::num(
                          inMilliseconds(t.totalDuration()), 1),
                      strprintf("{\"library\": \"%s\", \"seed\": "
                                "%llu}",
                                t.name().c_str(),
                                static_cast<unsigned long long>(
                                    seed))});
    }
    table.print(std::cout);
    std::cout << "\nBattery profiles (usable as {\"profile\": "
                 "...}): ";
    bool first = true;
    for (const BatteryProfile &p : batteryLifeWorkloads()) {
        std::cout << (first ? "" : ", ") << p.name;
        first = false;
    }
    std::cout << "\n";
}

/** --list-presets: the named platform configurations. */
void
printPlatformPresets()
{
    AsciiTable table({"preset", "TDP (W)", "supply (V)",
                      "predictor hysteresis"});
    for (const PlatformConfig &cfg : allPlatformPresets()) {
        table.addRow({cfg.name, AsciiTable::num(inWatts(cfg.tdp), 0),
                      AsciiTable::num(
                          inVolts(cfg.pdnParams.supplyVoltage), 1),
                      AsciiTable::num(cfg.predictorHysteresis, 3)});
    }
    table.print(std::cout);
}

void
printSummary(const CampaignSummaryBuilder &builder, double batteryWh)
{
    BatteryModel battery(wattHours(batteryWh));
    AsciiTable table({"PDN", "cells", "supply (J)", "mean ETEE",
                      "switches",
                      strprintf("life @%gWh (h)", batteryWh)});
    for (const CampaignPdnSummary &s : builder.summaries(battery)) {
        table.addRow({pdnKindToString(s.pdn),
                      std::to_string(s.cells),
                      AsciiTable::num(inJoules(s.supplyEnergy), 2),
                      AsciiTable::percent(s.meanEtee(), 1),
                      std::to_string(s.modeSwitches),
                      AsciiTable::num(s.batteryLifeHours, 1)});
    }
    table.print(std::cerr);
}

/**
 * Streams CSV rows, feeds the summary builder, and exports probe
 * waveforms (--probe-out) in one pass. Cells arrive in canonical
 * order regardless of thread count, so the waveform files and the
 * accumulated counter events are deterministic.
 */
class CliSink : public CampaignSink
{
  public:
    CliSink(std::ostream &os, bool summarize, bool header,
            cli::ProgressMeter *progress, std::string probeDir)
        : _csv(os, header), _summarize(summarize),
          _progress(progress), _probeDir(std::move(probeDir))
    {}

    void
    consume(CampaignCellResult cell) override
    {
        if (_summarize)
            _builder.add(cell);
        if (cell.waveform && !_probeDir.empty())
            exportWaveform(*cell.waveform);
        _csv.consume(std::move(cell));
        if (_progress)
            _progress->tick(_csv.rows());
    }

    size_t rows() const { return _csv.rows(); }
    const CampaignSummaryBuilder &builder() const { return _builder; }

    /** Waveform CSV files written so far. */
    size_t waveforms() const { return _waveforms; }

    /** Perfetto counter events from every probed cell, in canonical
     * cell order. */
    const std::vector<JsonValue> &counterEvents() const
    {
        return _counterEvents;
    }

  private:
    void
    exportWaveform(const Waveform &waveform)
    {
        std::string path =
            _probeDir + "/" + waveform.cellName() + ".csv";
        std::ofstream file(path, std::ios::binary);
        if (!file)
            fatal(strprintf("cannot open waveform file \"%s\"",
                            path.c_str()));
        file << writeWaveformCsv(waveform);
        file.close();
        if (!file)
            fatal(strprintf("error writing \"%s\"", path.c_str()));
        for (JsonValue &event : waveformCounterEvents(waveform))
            _counterEvents.push_back(std::move(event));
        ++_waveforms;
    }

    CampaignCsvSink _csv;
    bool _summarize;
    cli::ProgressMeter *_progress;
    std::string _probeDir;
    size_t _waveforms = 0;
    std::vector<JsonValue> _counterEvents;
    CampaignSummaryBuilder _builder;
};

int
runCli(const Options &opts)
{
    if (opts.listTraces || opts.listPresets) {
        if (opts.listTraces)
            printTraceLibrary(opts.listSeed);
        if (opts.listPresets) {
            if (opts.listTraces)
                std::cout << "\n";
            printPlatformPresets();
        }
        return 0;
    }

    if (opts.echoSpec) {
        inform(strprintf("pdnspot_campaign %s (git %s)",
                         toolVersion().c_str(),
                         gitRevision().c_str()));
        std::cout << writeJson(parseJsonFile(opts.specPath));
        return 0;
    }

    CampaignSpec spec =
        loadCampaignSpecFile(opts.specPath, opts.traceDir);

    // Probes only run when an output surface asks for them: without
    // --probe-out the spec's probes are dropped here, so the engine
    // takes the unprobed fast path and existing invocations are
    // untouched byte for byte.
    if (opts.probeOutDir.empty()) {
        spec.probes.clear();
    } else if (spec.probes.empty()) {
        warn(strprintf("--probe-out given but \"%s\" binds no "
                       "probes; no waveforms will be captured",
                       opts.specPath.c_str()));
    }

    // Shard k/n covers cells [(k-1)*cells/n, k*cells/n): contiguous
    // in the canonical order, disjoint, and jointly covering.
    size_t cells = spec.cellCount();
    size_t firstCell =
        cells * (opts.shardIndex - 1) / opts.shardCount;
    size_t endCell = cells * opts.shardIndex / opts.shardCount;

    if (opts.dryRun) {
        std::cerr << "pdnspot_campaign: " << opts.specPath << ": "
                  << spec.traces.size() << " traces x "
                  << spec.platforms.size() << " platforms x "
                  << spec.pdns.size() << " PDNs = "
                  << spec.cellCount() << " cells ("
                  << toString(spec.mode) << " mode, tick "
                  << inMicroseconds(spec.tick) << " us)\n";
        for (const TraceSpec &t : spec.traces)
            std::cerr << "  trace \"" << t.name()
                      << "\": " << t.describe() << "\n";
        if (opts.shardCount > 1)
            std::cerr << "  shard " << opts.shardIndex << "/"
                      << opts.shardCount << ": cells [" << firstCell
                      << ", " << endCell << ")\n";
        return 0;
    }

    // Exporter outputs open before the campaign runs: an unwritable
    // path should fail in milliseconds, not after the study.
    std::ofstream reportFile;
    if (!opts.reportPath.empty()) {
        reportFile.open(opts.reportPath, std::ios::binary);
        if (!reportFile)
            fatal(strprintf("cannot open report file \"%s\"",
                            opts.reportPath.c_str()));
    }
    std::ofstream traceEventsFile;
    if (!opts.traceEventsPath.empty()) {
        traceEventsFile.open(opts.traceEventsPath,
                             std::ios::binary);
        if (!traceEventsFile)
            fatal(strprintf("cannot open trace-events file \"%s\"",
                            opts.traceEventsPath.c_str()));
    }
    std::ofstream countersFile;
    if (!opts.probeOutDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.probeOutDir, ec);
        if (ec)
            fatal(strprintf("cannot create probe directory \"%s\": "
                            "%s",
                            opts.probeOutDir.c_str(),
                            ec.message().c_str()));
        std::string countersPath =
            opts.probeOutDir + "/counters.json";
        countersFile.open(countersPath, std::ios::binary);
        if (!countersFile)
            fatal(strprintf("cannot open counter file \"%s\"",
                            countersPath.c_str()));
    }

    ParallelRunner runner(opts.threads.value_or(0));
    CampaignEngine engine(runner);

    std::ofstream file;
    if (opts.outPath != "-") {
        file.open(opts.outPath, std::ios::binary);
        if (!file)
            fatal(strprintf("cannot open output file \"%s\"",
                            opts.outPath.c_str()));
    }
    std::ostream &out = opts.outPath != "-" ? file : std::cout;

    // Observability installs: metrics whenever a report or the
    // summary's percentile lines are wanted, spans whenever trace
    // events are. All are pure observers — the campaign CSV stays
    // byte-identical with or without them.
    const bool wantReport = !opts.reportPath.empty();
    std::optional<MetricsRegistry> registry;
    std::optional<MetricsInstallation> metricsInstall;
    if (wantReport || opts.summary) {
        registry.emplace();
        metricsInstall.emplace(*registry);
    }
    std::optional<SpanRecorder> spans;
    std::optional<SpanInstallation> spanInstall;
    if (!opts.traceEventsPath.empty()) {
        spans.emplace();
        spanInstall.emplace(*spans);
    }

    cli::ProgressMeter progress(tool, "cells", opts.progress,
                                endCell - firstCell);
    CliSink sink(out, opts.summary || wantReport,
                 opts.shardIndex == 1,
                 opts.progress ? &progress : nullptr,
                 opts.probeOutDir);
    auto runStart = std::chrono::steady_clock::now();
    engine.run(spec, sink, firstCell, endCell);
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - runStart;
    metricsInstall.reset(); // quiesced: snapshots are final now

    if (opts.outPath != "-") {
        file.close();
        if (!file)
            fatal(strprintf("error writing \"%s\"",
                            opts.outPath.c_str()));
        inform(strprintf("wrote %zu rows to %s", sink.rows(),
                         opts.outPath.c_str()));
    }

    if (!opts.probeOutDir.empty()) {
        countersFile << writeJson(
            counterTrackDocument(sink.counterEvents()));
        countersFile.close();
        if (!countersFile)
            fatal(strprintf("error writing \"%s/counters.json\"",
                            opts.probeOutDir.c_str()));
        inform(strprintf("wrote %zu waveforms to %s",
                         sink.waveforms(),
                         opts.probeOutDir.c_str()));
    }

    if (spans) {
        spanInstall.reset(); // quiesce before serializing
        TraceEventExport stamp;
        stamp.processName = tool.name;
        stamp.shardIndex = opts.shardIndex;
        stamp.shardCount = opts.shardCount;
        stamp.extraEvents = sink.counterEvents();
        traceEventsFile << writeJson(spans->traceEventsJson(stamp));
        traceEventsFile.close();
        if (!traceEventsFile)
            fatal(strprintf("error writing \"%s\"",
                            opts.traceEventsPath.c_str()));
        inform(strprintf(
            "wrote %zu trace events to %s (%llu spans dropped)",
            spans->eventCount(), opts.traceEventsPath.c_str(),
            static_cast<unsigned long long>(
                spans->droppedSpans())));
    }

    if (wantReport) {
        RunReportInputs rin;
        rin.specPath = opts.specPath;
        rin.specText = cli::readFileBytes(opts.specPath);
        rin.specEcho = parseJsonFile(opts.specPath);
        rin.spec = &spec;
        rin.threads = runner.threadCount();
        rin.shardIndex = opts.shardIndex;
        rin.shardCount = opts.shardCount;
        rin.firstCell = firstCell;
        rin.endCell = endCell;
        rin.wallSeconds = wall.count();
        rin.rows = sink.rows();
        rin.summaries = sink.builder().summaries(
            BatteryModel(wattHours(opts.batteryWh)));
        rin.batteryWh = opts.batteryWh;
        rin.metrics = &*registry;
        reportFile << writeJson(buildRunReport(rin));
        reportFile.close();
        if (!reportFile)
            fatal(strprintf("error writing \"%s\"",
                            opts.reportPath.c_str()));
        inform(strprintf("wrote run report to %s",
                         opts.reportPath.c_str()));
    }

    if (opts.summary) {
        printSummary(sink.builder(), opts.batteryWh);
        for (const MetricSnapshot &m : registry->snapshot()) {
            if (m.kind != MetricKind::Histogram || m.count == 0)
                continue;
            std::cerr << strprintf(
                "%s: p50 %.3g, p95 %.3g, p99 %.3g, max %.3g over "
                "%llu samples\n",
                m.name.c_str(), histogramQuantile(m, 0.50),
                histogramQuantile(m, 0.95),
                histogramQuantile(m, 0.99), m.max,
                static_cast<unsigned long long>(m.count));
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    if (opts.logLevel)
        setLogThreshold(*opts.logLevel);
    try {
        return runCli(opts);
    } catch (const ConfigError &e) {
        std::cerr << "pdnspot_campaign: " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        // ModelError (an internal invariant, i.e. a bug) or OS-level
        // failures: report and exit instead of std::terminate.
        std::cerr << "pdnspot_campaign: internal error: " << e.what()
                  << "\n";
        return 3;
    }
}
