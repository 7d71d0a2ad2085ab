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
 *   --summary        print the per-PDN summary table and p50/p95/p99
 *                    lines for every histogram metric
 *                    (histogramQuantile, obs/metrics.hh) to stderr
 *   --battery-wh <x> battery capacity for the summary (default 50)
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
 *                    record complete spans and write them as
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
 *   --dry-run        load + validate the spec, report the campaign
 *                    shape and per-trace provenance (including any
 *                    transform chains), and exit without simulating
 *   --echo-spec      print the parsed spec back as normalized JSON
 *                    and exit (version line goes to stderr)
 *   --list-traces    print the standard trace library (with --seed)
 *   --list-presets   print the named PlatformConfig presets
 *   --seed <n>       library seed for --list-traces (default 42)
 * plus the run flags and conventions every tool shares (-o, where
 * the CSV goes, default stdout; --threads, --trace-dir, --progress,
 * --quiet, --log-level, --version; tools/cli_common.hh).
 *
 * None of the observability flags perturb results: the campaign CSV
 * is byte-identical with and without --report/--trace-events/
 * --progress/--probe-out (check.sh and the determinism ctest rows
 * verify this at 1 and 8 threads), and the probe outputs themselves
 * are byte-identical at any thread count (cells are delivered in
 * canonical order and all probe timestamps are simulated time).
 */

#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "campaign/campaign_engine.hh"
#include "cli_common.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "config/campaign_config.hh"
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
    cli::RunFlags run;
    bool summary = false;
    double batteryWh = 50.0;
    size_t shardIndex = 1; ///< 1-based
    size_t shardCount = 1;
    std::string reportPath;
    std::string traceEventsPath;
    std::string probeOutDir;
    bool echoSpec = false;
    bool listTraces = false;
    bool listPresets = false;
    uint64_t listSeed = 42;
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    cli::ArgWalker args(tool, argc, argv);
    while (args.next()) {
        if (opts.run.bind(args))
            continue;
        const std::string &arg = args.arg();
        if (arg == "--summary") {
            opts.summary = true;
        } else if (arg == "--battery-wh") {
            std::string v = args.value();
            // parseDouble rejects non-finite values ("nan"/"inf")
            // for every caller, so a positivity check suffices.
            std::optional<double> wh = cli::parseDouble(v);
            if (!wh || !(*wh > 0.0))
                args.badValue(v, "a positive number");
            opts.batteryWh = *wh;
        } else if (arg == "--shard") {
            std::string v = args.value();
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
                args.badValue(v, "k/n with 1 <= k <= n");
            opts.shardIndex = *k;
            opts.shardCount = *n;
        } else if (arg == "--report") {
            opts.reportPath = args.nonEmptyValue("path");
        } else if (arg == "--trace-events") {
            opts.traceEventsPath = args.nonEmptyValue("path");
        } else if (arg == "--probe-out") {
            opts.probeOutDir = args.nonEmptyValue("directory");
        } else if (arg == "--seed") {
            opts.listSeed =
                args.intValue<uint64_t>("a non-negative integer");
        } else if (arg == "--list-traces") {
            opts.listTraces = true;
        } else if (arg == "--list-presets") {
            opts.listPresets = true;
        } else if (arg == "--echo-spec") {
            opts.echoSpec = true;
        } else {
            args.unknown();
        }
    }
    if (opts.run.specPath.empty() && !opts.listTraces &&
        !opts.listPresets)
        args.fail("missing spec file");
    return opts;
}

/** --list-traces: the standard library corpus, spec-author view. */
void
printTraceLibrary(uint64_t seed)
{
    AsciiTable table(
        {"trace", "phases", "duration (ms)", "spec reference"});
    for (const TraceSpec &spec : standardCampaignTraces(seed)) {
        PhaseTrace t = spec.resolve();
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
        table.addRow({toString(s.pdn),
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
    std::vector<JsonValue> &counterEvents() { return _counterEvents; }

  private:
    void
    exportWaveform(const Waveform &waveform)
    {
        cli::OutputFile file(
            _probeDir + "/" + waveform.cellName() + ".csv", "waveform");
        file.stream() << writeWaveformCsv(waveform);
        file.finish();
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
        std::cout << writeJson(parseJsonFile(opts.run.specPath));
        return 0;
    }

    CampaignSpec spec =
        loadCampaignSpecFile(opts.run.specPath, opts.run.traceDir);

    // Probes only run when an output surface asks for them: without
    // --probe-out the spec's probes are dropped here, so the engine
    // takes the unprobed fast path and existing invocations are
    // untouched byte for byte.
    if (opts.probeOutDir.empty()) {
        spec.probes.clear();
    } else if (spec.probes.empty()) {
        warn(strprintf("--probe-out given but \"%s\" binds no "
                       "probes; no waveforms will be captured",
                       opts.run.specPath.c_str()));
    }

    CellRange shard = shardCellRange(spec.cellCount(), opts.shardIndex,
                                     opts.shardCount);

    if (opts.run.dryRun) {
        std::cerr << "pdnspot_campaign: " << opts.run.specPath << ": "
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
                      << opts.shardCount << ": cells [" << shard.first
                      << ", " << shard.end << ")\n";
        return 0;
    }

    // Every output opens before the campaign runs: an unwritable
    // path should fail in milliseconds, not after the study.
    cli::RunObservers obs(tool, opts.reportPath, opts.traceEventsPath,
                          opts.summary);
    std::optional<cli::OutputFile> counters;
    if (!opts.probeOutDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.probeOutDir, ec);
        if (ec)
            fatal(strprintf("cannot create probe directory \"%s\": "
                            "%s",
                            opts.probeOutDir.c_str(),
                            ec.message().c_str()));
        counters.emplace(opts.probeOutDir + "/counters.json",
                         "counter");
    }
    ParallelRunner runner(opts.run.threads.value_or(0));
    CampaignEngine engine(runner);
    cli::OutputFile out(opts.run.outPath, "output");
    cli::ProgressMeter progress(tool, "cells", opts.run.progress,
                                shard.end - shard.first);
    CliSink sink(out.stream(), opts.summary || obs.wantReport(),
                 opts.shardIndex == 1,
                 opts.run.progress ? &progress : nullptr,
                 opts.probeOutDir);
    obs.run([&] { engine.run(spec, sink, shard.first, shard.end); });

    out.finish();
    if (!out.isStdout())
        inform(strprintf("wrote %zu rows to %s", sink.rows(),
                         out.path().c_str()));
    if (counters) {
        counters->stream()
            << writeJson(traceEventDocument(sink.counterEvents()));
        counters->finish();
        inform(strprintf("wrote %zu waveforms to %s",
                         sink.waveforms(),
                         opts.probeOutDir.c_str()));
    }

    TraceEventExport stamp;
    stamp.shardIndex = opts.shardIndex;
    stamp.shardCount = opts.shardCount;
    stamp.extraEvents = std::move(sink.counterEvents());
    obs.finish(std::move(stamp), [&](RunReportInputs &rin) {
        rin.specPath = opts.run.specPath;
        rin.spec = &spec;
        rin.threads = runner.threadCount();
        rin.shardIndex = opts.shardIndex;
        rin.shardCount = opts.shardCount;
        rin.firstCell = shard.first;
        rin.endCell = shard.end;
        rin.rows = sink.rows();
        rin.summaries = sink.builder().summaries(
            BatteryModel(wattHours(opts.batteryWh)));
        rin.batteryWh = opts.batteryWh;
    });

    if (opts.summary) {
        printSummary(sink.builder(), opts.batteryWh);
        for (const MetricSnapshot &m : obs.metrics()->snapshot()) {
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
    return cli::runMain(tool,
                        [&] { return runCli(parseArgs(argc, argv)); });
}
