/**
 * @file
 * pdnspot_fleet: simulate a population of device sessions from a
 * fleet spec file.
 *
 * The file-in/CSV-out driver for the fleet subsystem
 * (src/fleet/): loads a JSON fleet spec
 * (src/config/fleet_config.hh), advances every session on the shared
 * virtual clock over the thread pool, and writes the per-bucket
 * aggregate time series as CSV — byte-identical at any thread count
 * (check.sh verifies 1 vs 8 threads with cmp).
 *
 * Usage: pdnspot_fleet <spec.json> [options]
 *   -o <path>        write the aggregate CSV to <path> ("-" =
 *                    stdout, the default)
 *   --summary        print the fleet summary (population shape,
 *                    energy totals, storm verdict, battery-life and
 *                    time-to-empty quantiles) to stderr
 *   --threads <n>    thread count (overrides PDNSPOT_THREADS)
 *   --seed <n>       override the spec's jitter/capacity seed
 *   --trace-dir <d>  resolve relative "file" trace paths against <d>
 *                    (default: the spec file's directory)
 *   --report <path>  write a provenance-stamped pdnspot-report-1
 *                    JSON run report (obs/run_report.hh) with a
 *                    "fleet" aggregate block
 *   --trace-events <path>
 *                    record begin/end spans plus Perfetto counter
 *                    tracks of the fleet aggregates (sessions alive,
 *                    supply power, mode switches per bucket) and
 *                    write Chrome/Perfetto trace-event JSON
 *   --progress       rate-limited buckets/sec + ETA heartbeat on
 *                    stderr; auto-disabled when stderr is not a TTY
 *   --quiet          drop info-level messages (same as
 *                    --log-level warn)
 *   --log-level <l>  minimum message severity: info, warn or silent
 *   --version        print the tool version and git revision
 *   --dry-run        load + validate the spec, report the population
 *                    shape and per-cohort provenance, and exit
 *                    without simulating
 *
 * Exit codes follow the pdnspot_campaign conventions: 0 success, 1
 * ConfigError (with the offending value's file:line:col), 2 usage,
 * 3 internal error. None of the observability flags perturb
 * results: the aggregate CSV is byte-identical with and without
 * --report/--trace-events/--progress.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "cli_common.hh"
#include "common/logging.hh"
#include "config/fleet_config.hh"
#include "fleet/fleet_engine.hh"
#include "obs/run_report.hh"
#include "obs/span_trace.hh"
#include "obs/waveform_io.hh"

namespace
{

using namespace pdnspot;

constexpr const char *usageText =
    "usage: pdnspot_fleet <spec.json> [-o out.csv] [--summary]\n"
    "                     [--threads <n>] [--seed <n>]\n"
    "                     [--trace-dir <dir>] [--report out.json]\n"
    "                     [--trace-events out.trace.json]\n"
    "                     [--progress] [--quiet]\n"
    "                     [--log-level info|warn|silent]\n"
    "                     [--dry-run]\n"
    "       pdnspot_fleet --version\n";

constexpr cli::ToolInfo tool{"pdnspot_fleet", usageText};

/** Parsed command line. */
struct Options
{
    std::string specPath;
    std::string outPath = "-";
    bool summary = false;
    std::optional<unsigned> threads;
    std::optional<uint64_t> seed;
    std::string traceDir;
    std::string reportPath;
    std::string traceEventsPath;
    bool progress = false;
    std::optional<LogLevel> logLevel;
    bool dryRun = false;
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
        } else if (arg == "--threads") {
            opts.threads =
                cli::parseThreads(tool, value(i, "--threads"));
        } else if (arg == "--seed") {
            std::string v = value(i, "--seed");
            std::optional<uint64_t> seed =
                cli::parseInt<uint64_t>(v);
            if (!seed)
                usageError("--seed must be a non-negative integer, "
                           "got \"" +
                           v + "\"");
            opts.seed = *seed;
        } else if (arg == "--trace-dir") {
            opts.traceDir = value(i, "--trace-dir");
            if (opts.traceDir.empty())
                usageError("--trace-dir needs a directory");
        } else if (arg == "--report") {
            opts.reportPath = value(i, "--report");
            if (opts.reportPath.empty())
                usageError("--report needs a path");
        } else if (arg == "--trace-events") {
            opts.traceEventsPath = value(i, "--trace-events");
            if (opts.traceEventsPath.empty())
                usageError("--trace-events needs a path");
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg == "--quiet") {
            opts.logLevel = LogLevel::Warn;
        } else if (arg == "--log-level") {
            opts.logLevel =
                cli::parseLogLevel(tool, value(i, "--log-level"));
        } else if (arg == "--dry-run") {
            opts.dryRun = true;
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            usageError("unknown option \"" + arg + "\"");
        } else if (opts.specPath.empty()) {
            opts.specPath = arg;
        } else {
            usageError("more than one spec file given");
        }
    }
    if (opts.specPath.empty())
        usageError("missing spec file");
    return opts;
}

/**
 * Perfetto counter tracks of the fleet aggregates: one synthetic
 * counter process carrying sessions_alive, supply_power_w and
 * mode_switches per bucket, stamped at each bucket's end on the
 * virtual clock. Mirrors the probe counter-track shape
 * (obs/waveform_io.hh) so the same Perfetto workflow reads both.
 */
std::vector<JsonValue>
fleetCounterEvents(const FleetResult &result)
{
    // One pid below the probe counter range, so a merged campaign +
    // fleet timeline cannot collide.
    double pid = static_cast<double>(probeCounterPidBase - 1);
    std::vector<JsonValue> events;
    events.reserve(1 + result.buckets.size() * 3);

    {
        std::vector<JsonValue::Member> args;
        args.emplace_back(
            "name", JsonValue::makeString("fleet aggregates"));
        std::vector<JsonValue::Member> fields;
        fields.emplace_back("name",
                            JsonValue::makeString("process_name"));
        fields.emplace_back("ph", JsonValue::makeString("M"));
        fields.emplace_back("pid", JsonValue::makeNumber(pid));
        fields.emplace_back("tid", JsonValue::makeNumber(0.0));
        fields.emplace_back("args",
                            JsonValue::makeObject(std::move(args)));
        events.push_back(JsonValue::makeObject(std::move(fields)));
    }

    auto counter = [&](const char *name, double tS, double value) {
        std::vector<JsonValue::Member> args;
        args.emplace_back("value", JsonValue::makeNumber(value));
        std::vector<JsonValue::Member> fields;
        fields.emplace_back("name", JsonValue::makeString(name));
        fields.emplace_back("ph", JsonValue::makeString("C"));
        fields.emplace_back("ts",
                            JsonValue::makeNumber(tS * 1e6));
        fields.emplace_back("pid", JsonValue::makeNumber(pid));
        fields.emplace_back("tid", JsonValue::makeNumber(0.0));
        fields.emplace_back("args",
                            JsonValue::makeObject(std::move(args)));
        events.push_back(JsonValue::makeObject(std::move(fields)));
    };
    for (const FleetBucketRow &row : result.buckets) {
        counter("sessions_alive", row.tEndS,
                static_cast<double>(row.alive));
        counter("supply_power_w", row.tEndS, row.powerW);
        counter("mode_switches", row.tEndS,
                static_cast<double>(row.modeSwitches));
    }
    return events;
}

/** {count, min, max, p50, p95, p99} of a histogram snapshot. */
JsonValue
histogramJson(const MetricSnapshot &h)
{
    std::vector<JsonValue::Member> m;
    m.emplace_back("count", JsonValue::makeNumber(
                                static_cast<double>(h.count)));
    if (h.count > 0) {
        m.emplace_back("min", JsonValue::makeNumber(h.min));
        m.emplace_back("max", JsonValue::makeNumber(h.max));
        m.emplace_back("p50", JsonValue::makeNumber(
                                  histogramQuantile(h, 0.50)));
        m.emplace_back("p95", JsonValue::makeNumber(
                                  histogramQuantile(h, 0.95)));
        m.emplace_back("p99", JsonValue::makeNumber(
                                  histogramQuantile(h, 0.99)));
    }
    return JsonValue::makeObject(std::move(m));
}

/** The report's tool-specific "fleet" block. */
JsonValue
fleetReportBlock(const FleetResult &result)
{
    auto num = [](double v) { return JsonValue::makeNumber(v); };
    std::vector<JsonValue::Member> fleet;
    fleet.emplace_back(
        "sessions", num(static_cast<double>(result.sessions)));
    fleet.emplace_back(
        "cohorts",
        num(static_cast<double>(result.cohorts.size())));
    fleet.emplace_back(
        "buckets",
        num(static_cast<double>(result.buckets.size())));
    fleet.emplace_back("bucket_s", num(result.bucketS));
    fleet.emplace_back("horizon_s", num(result.horizonS));
    fleet.emplace_back("simulated_s", num(result.simulatedS));
    fleet.emplace_back("total_energy_j", num(result.totalEnergyJ));
    fleet.emplace_back(
        "mode_switches",
        num(static_cast<double>(result.totalSwitches)));
    fleet.emplace_back("deaths",
                       num(static_cast<double>(result.deaths)));
    {
        std::vector<JsonValue::Member> storm;
        storm.emplace_back("baseline", num(result.stormBaseline));
        storm.emplace_back("k", num(result.stormK));
        storm.emplace_back(
            "buckets",
            num(static_cast<double>(result.stormBuckets)));
        fleet.emplace_back("storm",
                           JsonValue::makeObject(std::move(storm)));
    }
    fleet.emplace_back("battery_life_h",
                       histogramJson(result.batteryLifeH));
    fleet.emplace_back("time_to_empty_h",
                       histogramJson(result.timeToEmptyH));
    return JsonValue::makeObject(std::move(fleet));
}

int
runCli(const Options &opts)
{
    FleetSpec spec = loadFleetSpecFile(opts.specPath, opts.traceDir);
    if (opts.seed)
        spec.seed = *opts.seed;

    if (opts.dryRun) {
        std::cerr << "pdnspot_fleet: " << opts.specPath << ": "
                  << spec.sessionCount() << " sessions in "
                  << spec.cohorts.size() << " cohorts, "
                  << spec.bucketCount() << " buckets of "
                  << inSeconds(spec.bucket) << " s (horizon "
                  << inSeconds(spec.horizon) << " s, seed "
                  << spec.seed << ")\n";
        for (const FleetCohort &c : spec.cohorts)
            std::cerr << "  cohort \"" << c.name
                      << "\": " << c.count << " sessions, "
                      << c.platform.name << ", "
                      << pdnKindToString(c.pdn) << ", "
                      << toString(c.mode) << " mode, trace "
                      << c.trace.describe() << "\n";
        return 0;
    }

    // Exporter outputs open before the run: an unwritable path
    // should fail in milliseconds, not after the study.
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

    ParallelRunner runner(opts.threads.value_or(0));
    FleetEngine engine(runner);

    std::ofstream file;
    if (opts.outPath != "-") {
        file.open(opts.outPath, std::ios::binary);
        if (!file)
            fatal(strprintf("cannot open output file \"%s\"",
                            opts.outPath.c_str()));
    }
    std::ostream &out = opts.outPath != "-" ? file : std::cout;

    // Observability installs: metrics whenever a report or the
    // summary is wanted, spans whenever trace events are. All are
    // pure observers — the aggregate CSV stays byte-identical with
    // or without them.
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

    cli::ProgressMeter progress(tool, "buckets", opts.progress,
                                spec.bucketCount());
    auto runStart = std::chrono::steady_clock::now();
    FleetResult result = engine.run(
        spec, opts.progress
                  ? FleetEngine::Progress(
                        [&](uint64_t done, uint64_t) {
                            progress.tick(done);
                        })
                  : FleetEngine::Progress());
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - runStart;
    metricsInstall.reset(); // quiesced: snapshots are final now

    result.writeCsv(out);
    if (opts.outPath != "-") {
        file.close();
        if (!file)
            fatal(strprintf("error writing \"%s\"",
                            opts.outPath.c_str()));
        inform(strprintf("wrote %zu buckets to %s",
                         result.buckets.size(),
                         opts.outPath.c_str()));
    }

    if (spans) {
        spanInstall.reset(); // quiesce before serializing
        TraceEventExport stamp;
        stamp.processName = tool.name;
        stamp.extraEvents = fleetCounterEvents(result);
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
        rin.toolName = "pdnspot_fleet";
        rin.specPath = opts.specPath;
        rin.specText = cli::readFileBytes(opts.specPath);
        rin.specEcho = parseJsonFile(opts.specPath);
        rin.threads = runner.threadCount();
        rin.wallSeconds = wall.count();
        rin.rows = result.buckets.size();
        rin.metrics = &*registry;
        rin.extra.emplace_back("fleet", fleetReportBlock(result));
        reportFile << writeJson(buildRunReport(rin));
        reportFile.close();
        if (!reportFile)
            fatal(strprintf("error writing \"%s\"",
                            opts.reportPath.c_str()));
        inform(strprintf("wrote run report to %s",
                         opts.reportPath.c_str()));
    }

    if (opts.summary)
        result.writeSummary(std::cerr);
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
        std::cerr << "pdnspot_fleet: " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        // ModelError (an internal invariant, i.e. a bug) or OS-level
        // failures: report and exit instead of std::terminate.
        std::cerr << "pdnspot_fleet: internal error: " << e.what()
                  << "\n";
        return 3;
    }
}
